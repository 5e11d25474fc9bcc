"""Tests of the benchmark's own match check (run: python3 -m pytest linkbench)."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oblivlink import (PipelineConfig, generate_dataset, plain_matches,  # noqa: E402
                       prepare_upload, run_pper)

from check import bigrams, expected_linkage, jaccard, linkage_faults  # noqa: E402


def _linkage():
    d1, d2, _ = generate_dataset(0, 100, split=0.2)
    config = PipelineConfig(backend="clear")
    expected = expected_linkage(d1, d2, prepare_upload(d1, config).index,
                                prepare_upload(d2, config).index, config.t_jaccard)
    return d1, d2, run_pper(d1, d2, config), expected


def test_correct_linkage_passes():
    _, _, result, expected = _linkage()
    assert expected.matches
    assert linkage_faults(result, expected) == []


def test_one_added_or_removed_pair_is_caught():
    d1, d2, result, expected = _linkage()
    unmatched = next((a.record_id, b.record_id) for a in d1 for b in d2
                     if (a.record_id, b.record_id) not in set(expected.matches))
    added = dataclasses.replace(result, matches=sorted(result.matches + [unmatched]))
    assert linkage_faults(added, expected)
    for i in (0, len(result.matches) - 1):
        removed = dataclasses.replace(result, matches=result.matches[:i] + result.matches[i + 1:])
        assert linkage_faults(removed, expected)


def test_cell_counts_are_checked():
    _, _, result, expected = _linkage()
    skipped = dataclasses.replace(result, evaluated_cells=result.evaluated_cells - 1)
    assert linkage_faults(skipped, expected)
    short = dataclasses.replace(result, obfu_count=expected.candidates - 1,
                                evaluated_cells=expected.candidates - 1)
    assert linkage_faults(short, expected)


def test_similarity_agrees_with_the_unblocked_oracle():
    d1, d2, _ = generate_dataset(1, 60, split=0.2)
    threshold = PipelineConfig().t_jaccard
    ours = {(a.record_id, b.record_id) for a in d1 for b in d2
            if jaccard(bigrams(a.fields), bigrams(b.fields)) > threshold}
    assert ours == plain_matches(d1, d2, threshold)
