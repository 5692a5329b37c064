"""The summary code of tools/digests.py on canned digests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import digests  # noqa: E402
from minerf.conditioning import VARIANTS  # noqa: E402
from test_cli import TINY  # noqa: E402


def test_summarize_compares_each_file_and_each_command_across_sides():
    canned = {"parent": {"data/id00/meta.json": "aa", "train-M.ckpt": "b0",
                         "train-Baseline.ckpt": "c0", "old.csv": "d0"},
              "change": {"data/id00/meta.json": "aa", "train-M.ckpt": "b0",
                         "train-Baseline.ckpt": "c1", "new.csv": "e0"}}
    exits = {"parent": {"gen-data": 0, "train M": 0, "eval": 0},
             "change": {"gen-data": 0, "train M": 0, "eval": 2}}
    s = digests.summarize(canned, exits)
    assert s["files"]["train-Baseline.ckpt"] == {"parent": "c0", "change": "c1", "equal": False}
    assert s["files"]["new.csv"] == {"parent": None, "change": "e0", "equal": False}
    assert s["equal"] == 2
    assert s["differ"] == ["new.csv", "old.csv", "train-Baseline.ckpt"]
    assert list(s["commands"]) == ["gen-data", "train M", "eval"]
    assert s["failed_commands"] == ["eval"]
    assert digests.report_lines(s) == [
        "2 of 5 files equal, 3 differ",
        "  new.csv: only on the change side",
        "  old.csv: only on the parent side",
        "  train-Baseline.ckpt: differs",
        "  command eval: exit parent 0, change 2"]


def test_equal_sides_read_every_file_equal():
    side = {"a.ckpt": "01", "b/c.ppm": "02"}
    exits = {"gen-data": 0}
    s = digests.summarize({"parent": side, "change": dict(side)},
                          {"parent": exits, "change": dict(exits)})
    assert (s["equal"], s["differ"], s["failed_commands"]) == (2, [], [])
    assert digests.report_lines(s) == ["2 of 2 files equal, 0 differ"]


def test_commands_train_every_row_then_run_each_subcommand_on_the_tiny_config():
    assert digests.tiny_config() == TINY
    cmds = dict(digests.commands(VARIANTS))
    assert [n for n in cmds if n.startswith("train ")] == [f"train {v}" for v in VARIANTS]
    assert [n for n in cmds if not n.startswith("train ")] == [
        "gen-data", "personalize", "render", "transfer", "eval", "inspect"]
    assert "conditioning.k=8" in cmds["train LatentInM"]
    assert "conditioning.k=8" not in cmds["train M"]
    assert all("seed=0" in cmds[n] and "train.steps=8" in cmds[n]
               for n in ("gen-data", "train M"))
    steps = cmds["personalize"]
    assert steps[steps.index("--steps") + 1] == "3" and "--depth" in cmds["render"]
