"""Exception types shared across the library."""


class CommprobError(Exception):
    """Base class for all library errors."""


class GroupValidationError(CommprobError):
    """A Cayley table failed validation; ``cell`` names the first offender."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class NotClosed(GroupValidationError):
    """Table entry outside the element range."""


class NoIdentity(GroupValidationError):
    """No two-sided identity element exists."""


class NotAssociative(GroupValidationError):
    """Some triple violates associativity."""


class NotLatinSquare(GroupValidationError):
    """A row or column repeats an element."""


class NotNormal(CommprobError):
    """The given subgroup is not normal in its parent."""


class OrderCapExceeded(CommprobError):
    """A construction or enumeration would pass its configured order cap."""


class PreconditionFailed(CommprobError):
    """Structural hypothesis of a closed-form formula does not hold."""


class NoElementBelow(CommprobError):
    """The queried set has no element in the open interval (0, probe)."""


class SearchBudgetExceeded(CommprobError):
    """A gap search visited more nodes than its budget allows."""


class UnsupportedParams(CommprobError):
    """Family parameters or a permutation degree outside the supported range."""


class ParseError(CommprobError):
    """Malformed catalog input; ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(CommprobError):
    """A catalog entry parsed but failed validation; ``entry`` names it."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry
