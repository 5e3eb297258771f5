"""Surveying a corpus and scanning the observed spectrum for gaps.

Builds the family corpus up to order 96, surveys it (every entry gets
order, class count and exact Pr), and scans two intervals that theory
says must be empty: (7/16, 1/2) for all groups, and (5/8, 1) for
nonabelian ones. Also runs the shipped exponent-7 catalog against the
p-group exclusion window [5/p^4, 1/p^3] at p = 7.
"""

from fractions import Fraction
from pathlib import Path

from commprob import EntryFilter, corpus, ingest, scan_interval, survey
from commprob.catalog import entry_from_family
from commprob.rationals import format_rational

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    entries = [entry_from_family(spec, table=table) for table, spec in corpus(96)]
    report = survey(entries, universe="family corpus up to order 96")
    print(f"surveyed {len(report.rows)} groups; "
          f"{len(report.spectrum)} distinct Pr values observed")
    print("the ten largest observed values and one witness each:")
    for value, names in list(reversed(report.spectrum))[:10]:
        print(f"   {format_rational(value):>8}  e.g. {names[0]}")

    for lo, hi, flt, label in [
        (Fraction(7, 16), Fraction(1, 2), None, "all groups"),
        (Fraction(5, 8), Fraction(1, 1), EntryFilter(nonabelian_only=True), "nonabelian"),
    ]:
        finding = scan_interval(report, lo, hi, flt=flt)
        print(f"scan ({format_rational(lo)}, {format_rational(hi)}) over {label}: "
              f"{finding.summary()}")

    seven = survey(ingest(DATA / "exponent7_catalog.jsonl"),
                   universe="shipped exponent-7 catalog")
    window = scan_interval(
        seven, Fraction(5, 2401), Fraction(1, 343),
        closed_lo=True, closed_hi=True, flt=EntryFilter(p_power=7),
    )
    print(f"scan [5/2401, 1/343] over 7-groups: {window.summary()}")


if __name__ == "__main__":
    main()
