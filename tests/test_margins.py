"""The summary code of tools/margins.py on canned scores."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "margins", Path(__file__).resolve().parents[1] / "tools" / "margins.py")
margins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(margins)

# criterion 6's recipe on seeds 0-10, two decimals: M, Baseline, A4
SWEEP = {0: (21.11, 20.92, 20.91), 1: (21.46, 21.31, 21.63), 2: (22.65, 22.40, 22.38),
         3: (22.75, 22.76, 23.25), 4: (21.28, 21.42, 21.37), 5: (23.22, 22.92, 22.83),
         6: (24.26, 24.29, 24.26), 7: (22.92, 23.05, 22.98), 8: (22.50, 22.73, 22.83),
         9: (22.00, 21.72, 21.96), 10: (21.06, 20.66, 20.87)}


def _scores(rows, variants=("M", "Baseline", "A4")):
    return {s: dict(zip(variants, r)) for s, r in rows.items()}


def test_sweep_summary_counts_orderings_triples_and_margins():
    s = margins.summarize(_scores(SWEEP))
    assert s["orderings"]["M >= Baseline"] == {"seeds": [0, 1, 2, 5, 9, 10], "count": 6, "of": 11}
    assert s["orderings"]["A4 < M"] == {"seeds": [0, 2, 5, 9, 10], "count": 5, "of": 11}
    assert s["passing_triples"] == {"count": 70, "of": 165}
    mb, ma = s["margins"]["M - Baseline"], s["margins"]["M - A4"]
    assert mb["per_seed"][0] == pytest.approx(0.19)
    # the scores are rounded to two decimals, so the spreads may differ from
    # the full-precision sweep's 0.21 and 0.27 in the second decimal
    assert (mb["mean"], mb["sd"]) == (pytest.approx(0.09, abs=0.005), pytest.approx(0.21, abs=0.01))
    assert (ma["mean"], ma["sd"]) == (pytest.approx(-0.01, abs=0.005), pytest.approx(0.27, abs=0.01))


def test_a_tie_counts_for_m_over_baseline_but_not_a4_under_m():
    s = margins.summarize(_scores({0: (1.0, 1.0, 1.0), 1: (2.0, 1.0, 1.0), 2: (1.0, 2.0, 2.0)}))
    assert s["orderings"]["M >= Baseline"]["seeds"] == [0, 1]
    assert s["orderings"]["A4 < M"]["seeds"] == [1]
    assert s["passing_triples"] == {"count": 0, "of": 1}


def test_without_the_criterions_variants_only_margins_are_written():
    s = margins.summarize(_scores({0: (1.0, 0.5), 1: (2.0, 2.5)}, ("M", "H")))
    assert list(s) == ["margins"]
    assert s["margins"]["M - H"]["per_seed"] == [0.5, -0.5]
    one = margins.summarize(_scores({3: (1.0, 0.25)}, ("M", "H")))
    assert one["margins"]["M - H"]["sd"] is None


def test_seed_ranges_and_lists_parse_and_bad_ones_refuse():
    assert margins.parse_seeds("0-10") == list(range(11))
    assert margins.parse_seeds("0,3,5-7,3") == [0, 3, 5, 6, 7]
    for bad in ("", "a", "3-", "-2", "1-x"):
        with pytest.raises(ValueError):
            margins.parse_seeds(bad)


def test_table_lines_print_two_decimals_per_variant():
    assert margins.table_lines(_scores({1: (21.456, 21.3, 21.634)})) == [
        "| seed | M | Baseline | A4 |", "|---|---|---|---|", "| 1 | 21.46 | 21.30 | 21.63 |"]
