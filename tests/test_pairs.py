"""The summary code of tools/pairs.py on canned perfbench/run.py outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "peak_rss_mb", "better": "lower"},
           {"name": "rays_per_s", "better": "higher"}]


def _one(peak, rays, ckpt="aa", ok=True, failed=0):
    """What `run.py --workload train` prints, cut to the lines pairs.py reads."""
    return "\n".join([
        "workload train seed 1 blas_threads 2",
        f"check loss_falls {'ok' if ok else 'FAILED'} median loss_c 103.6 -> 29.85",
        "check checkpoint_round_trip ok",
        "train_rays_per_s 2685.9 rays/s",
        f"digest checkpoint_sha256 {ckpt}",
        "digest dataset_sha256 d0",
        f"peak_rss_mb {peak} MB",
        json.dumps({"correct": ok, "attempted": 82, "failed": failed, "metrics": {
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "rays_per_s": {"value": rays, "unit": "rays/s"},
            "op_p50_s": {"value": 0.1, "unit": "s"}}}),
    ])


def test_parse_run_of_one_workload():
    run = pairs.parse_run(_one(120.5, 2500.0), "train")
    assert run == {"correct": True, "attempted": 82, "failed": 0, "blas_threads": 2,
                   "metrics": {"train.peak_rss_mb": 120.5, "train.rays_per_s": 2500.0,
                               "train.op_p50_s": 0.1},
                   "checks": {"train.loss_falls": True, "train.checkpoint_round_trip": True},
                   "digests": {"train.checkpoint_sha256": "aa", "train.dataset_sha256": "d0"}}


def test_parse_run_of_all_workloads_names_each_line_by_its_workload():
    out = "\n".join([
        "workload gen seed 1 blas_threads 2", "check frames_written ok 120 of 120",
        "digest dataset_sha256 g0",
        "workload eval seed 1 blas_threads 2", "check frames_written FAILED 1 of 2",
        "digest dataset_sha256 e0",
        json.dumps({"correct": False, "attempted": 9, "failed": 1, "metrics": {
            "gen.setup_s": {"value": 0.2, "unit": "s"},
            "eval.setup_s": {"value": 3.0, "unit": "s"}}}),
    ])
    run = pairs.parse_run(out, None)
    assert run["metrics"] == {"gen.setup_s": 0.2, "eval.setup_s": 3.0}
    assert run["checks"] == {"gen.frames_written": True, "eval.frames_written": False}
    assert run["digests"] == {"gen.dataset_sha256": "g0", "eval.dataset_sha256": "e0"}
    assert (run["correct"], run["failed"]) == (False, 1)


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    parent = [pairs.parse_run(_one(p, r), "train")
              for p, r in ((120.0, 2400.0), (120.2, 2500.0), (120.1, 2600.0))]
    change = [pairs.parse_run(_one(p, r), "train")
              for p, r in ((110.5, 2400.0), (110.6, 2450.0), (120.1, 2700.0))]
    s = pairs.summarize({"parent": parent, "change": change}, METRICS)
    peak = s["end_to_end"]["train"]["peak_rss_mb"]
    assert peak["parent"] == {"median": 120.1, "q1": 120.05, "q3": 120.15,
                              "runs_in_pair_order": [120.0, 120.2, 120.1]}
    assert peak["change"]["median"] == 110.6
    assert (peak["change_wins"], peak["pairs_compared"]) == (2, 3)  # pair 2 ties
    rays = s["end_to_end"]["train"]["rays_per_s"]
    assert rays["change_wins"] == 1  # higher wins; pair 0 ties
    assert "op_p50_s" not in s["end_to_end"]["train"]  # not among the metrics given
    assert s["checks"]["train.loss_falls"] == {"parent_ok": 3, "change_ok": 3,
                                               "runs_per_side": 3}
    # the change's checkpoint digest is equal across its runs and to the parent's
    assert s["digests"]["train.checkpoint_sha256"] == {
        "parent": ["aa"], "change": ["aa"], "equal_across_runs": True,
        "equal_across_sides": True}


@pytest.mark.parametrize("case", ["other_value", "varies_within_a_side", "missing_run"])
def test_summarize_reports_digests_that_differ_and_runs_without_output(case):
    parent = [pairs.parse_run(_one(120.0, 2400.0), "train") for _ in range(2)]
    change = {"other_value": ["bb", "bb"], "varies_within_a_side": ["aa", "bb"],
              "missing_run": ["aa", None]}[case]
    change = [None if c is None else pairs.parse_run(_one(110.0, 2500.0, ckpt=c), "train")
              for c in change]
    s = pairs.summarize({"parent": parent, "change": change}, METRICS)
    d = s["digests"]["train.checkpoint_sha256"]
    assert d["equal_across_sides"] is (case == "missing_run")
    assert d["equal_across_runs"] is (case != "varies_within_a_side")
    peak = s["end_to_end"]["train"]["peak_rss_mb"]
    if case == "missing_run":
        assert peak["change"]["runs_in_pair_order"] == [110.0, None]
        assert (peak["change_wins"], peak["pairs_compared"]) == (1, 1)
        assert s["checks"]["train.loss_falls"]["change_ok"] == 1
    else:
        assert (peak["change_wins"], peak["pairs_compared"]) == (2, 2)


def test_peak_rss_steps_compare_plain_and_precompiled_runs():
    def side(peaks):
        return [pairs.parse_run(_one(p, 2500.0), "train") for p in peaks]

    plain = pairs.summarize({"parent": side([120.0, 120.2]), "change": side([122.0, 122.2])},
                            METRICS)
    pre = pairs.summarize({"parent": side([118.0, 118.2]), "change": side([118.1, 118.1])},
                          METRICS)
    steps = pairs.peak_rss_steps(plain, pre)
    assert steps.keys() == {"train"}
    assert steps["train"]["plain"] == pytest.approx(2.0)
    assert steps["train"]["precompiled"] == pytest.approx(0.0)
