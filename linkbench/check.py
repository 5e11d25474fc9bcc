"""Expected matches of one linkage, computed apart from the linkage pipeline.

The benchmark takes the owners' blocking indexes (which rows share a public
key) from the package's owner-side ``prepare_upload`` and nothing else.  The
similarity is computed here from the raw record fields: the lower-cased
fields joined by spaces, cut into distinct character bigrams, compared by
exact rational Jaccard.  A pair is expected to match when it shares a key
and its Jaccard is strictly above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Field order the corpus generator writes; the text of a record is these
# fields, lower-cased and joined by single spaces.
FIELDS = ("given_name", "surname", "street_number", "address",
          "suburb", "postcode", "state")


def bigrams(fields: dict) -> frozenset:
    text = " ".join(str(fields.get(name, "")).lower() for name in FIELDS)
    if len(text) < 2:
        text = (text + "  ")[:2]
    return frozenset(text[i:i + 2] for i in range(len(text) - 1))


def jaccard(a: frozenset, b: frozenset) -> Fraction:
    union = len(a | b)
    return Fraction(len(a & b), union) if union else Fraction(0)


def shared_key_cells(index1: dict, index2: dict) -> tuple[set, int, int]:
    """Distinct (row1, row2) cells that share a key, the number of shared
    keys, and the cross pairs summed over shared keys."""
    cells = set()
    shared = cross = 0
    for key, rows1 in index1.items():
        rows2 = index2.get(key)
        if not rows2:
            continue
        shared += 1
        cross += len(rows1) * len(rows2)
        cells.update((i, j) for i in rows1 for j in rows2)
    return cells, shared, cross


@dataclass
class Expected:
    """What a correct linkage of one corpus returns, plus the blocking
    figures the traced run reports."""
    matches: list
    candidates: int
    keys: int
    shared_keys: int
    cross_pairs: int


def expected_linkage(d1, d2, index1: dict, index2: dict, threshold) -> Expected:
    threshold = Fraction(threshold)
    cells, shared, cross = shared_key_cells(index1, index2)
    grams1 = [bigrams(r.fields) for r in d1]
    grams2 = [bigrams(r.fields) for r in d2]
    matches = sorted(
        (d1[i].record_id, d2[j].record_id) for i, j in cells
        if jaccard(grams1[i], grams2[j]) > threshold)
    return Expected(matches, len(cells), len(index1) + len(index2), shared, cross)


def linkage_faults(result, expected: Expected) -> list[str]:
    """Every way one linkage result departs from the expectation; empty
    when it is correct."""
    faults = []
    got = list(result.matches)
    if got != expected.matches:
        extra = sorted(set(got) - set(expected.matches))
        missing = sorted(set(expected.matches) - set(got))
        faults.append(f"matches differ: {len(extra)} unexpected {extra[:3]}, "
                      f"{len(missing)} missing {missing[:3]}, "
                      f"{len(got) - len(set(got))} repeated")
    if result.evaluated_cells != result.obfu_count:
        faults.append(f"evaluated_cells {result.evaluated_cells} != "
                      f"obfu_count {result.obfu_count}")
    if result.obfu_count < expected.candidates:
        faults.append(f"obfu_count {result.obfu_count} < "
                      f"{expected.candidates} shared-key cells")
    return faults
