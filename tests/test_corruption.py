"""Corrupted inputs end in exit 2 and a one-line error naming the file.

Each example copies a small dataset and checkpoint, damages one file and
runs a subcommand on it. Damage is either truncation anywhere in the file or
one byte flipped by 0x80-0xFF: anywhere in the checkpoint, and in the other
files inside their text part, the PPM header or the whole meta.json. Both
always make the file invalid: a flip in the checkpoint's JSON header line
leaves a non-ASCII byte there, and one in its payload breaks the header's
CRC32. Flips inside the PPM raster yield other valid files, since it carries
no checksum.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minerf import cli

TINY = {
    "scene": {"n_identities": 2, "n_frames": 6, "resolution": 10, "gt_samples": 16},
    "render": {"n_coarse": 4, "n_fine": 4},
    "field": {"layers": 2, "hidden": 8, "Lx": 2, "Lv": 1,
              "color_layers": 1, "color_hidden": 8},
    "train": {"rays_per_step": 16, "eval_every": 0},
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--config", str(cfg), "--data", str(root / "data"),
                     "--set", "train.steps=1", "--out", str(root / "model.ckpt")]) == 0
    return root


TARGETS = {"ckpt": "model.ckpt", "ppm": "data/id01/frame_0005.ppm",
           "meta": "data/id00/meta.json"}

COMMANDS = {
    "inspect": ["inspect", "--ckpt", "{root}/model.ckpt", "--matrix", "W2"],
    "eval": ["eval", "--ckpt", "{root}/model.ckpt", "--data", "{root}/data",
             "--out", "{root}/eval"],
    "train": ["train", "--data", "{root}/data", "--config", "{root}/cfg.json",
              "--set", "train.steps=1", "--out", "{root}/out.ckpt"],
}


def _flip_end(kind, blob):
    """Where a flipped byte always makes the file invalid: the whole checkpoint,
    else the file's text part, where a non-ASCII byte cannot be valid."""
    if kind == "ppm":
        return len(b"P6\n10 10\n255\n")
    return len(blob)


damage = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(0x80, 0xFF)))


def _damage(kind, blob, how):
    if how[0] == "truncate":
        return blob[:int(how[1] * len(blob))]
    pos = int(how[1] * _flip_end(kind, blob))
    return blob[:pos] + bytes([blob[pos] ^ how[2]]) + blob[pos + 1:]


@pytest.mark.parametrize("kind, command", [
    ("ckpt", "inspect"), ("ckpt", "eval"), ("ppm", "eval"), ("ppm", "train"),
    ("meta", "eval"), ("meta", "train")])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(how=damage)
def test_corrupt_input_exit_2_one_line(pristine, kind, command, how):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        target = root / TARGETS[kind]
        target.write_bytes(_damage(kind, target.read_bytes(), how))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([a.format(root=root) for a in COMMANDS[command]])
    lines = err.getvalue().strip().splitlines()
    assert rc == 2, (how, lines)
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(target) in lines[0], lines
