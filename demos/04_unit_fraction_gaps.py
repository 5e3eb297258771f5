"""Gap certificates in unit-fraction value sets.

S_n = { 1/x_1 + ... + 1/x_n } has a largest element strictly below any
probe, which the gap search computes exactly together with a
witness. Scaling by 1/n^2 and adding the mandatory leading term gives
the candidate set containing every commuting probability achieved over
an abelian normal subgroup of index n; its gaps lower-bound the true
spectrum gaps.
"""

from fractions import Fraction

from commprob import candidate_gap, descend, max_below, solve_exact
from commprob.rationals import format_rational


def main():
    print("All ways to write 1 as three unit fractions:")
    for m in solve_exact(3, 1):
        print(f"   1 = " + " + ".join(f"1/{x}" for x in reversed(m.terms)))

    print("\nLargest two-term value strictly below 1/2:")
    cert = max_below(2, Fraction(1, 2))
    print(
        f"   max = {format_rational(cert.max_below)} via 1/{cert.witness.terms[1]}"
        f" + 1/{cert.witness.terms[0]}, gap width {format_rational(cert.epsilon)}"
    )

    print("\nWalking the two-term values downward from 1:")
    vals = descend(2, 1, 6)
    print("   " + "  >  ".join(format_rational(v) for v in vals))

    print("\nCandidate-spectrum gaps at index 2 (sets containing every Pr")
    print("value achieved with an abelian normal subgroup of index 2):")
    for probe in (Fraction(5, 8), Fraction(1, 2)):
        q = candidate_gap(2, probe)
        print(
            f"   below {format_rational(probe):>4}: max candidate "
            f"{format_rational(q.result.max_below)}, "
            f"gap {format_rational(q.result.epsilon)}"
        )


if __name__ == "__main__":
    main()
