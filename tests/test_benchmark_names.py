"""perfbench reads minerf by name, so a rename inside minerf can break it.

The tracer (perfbench/spans.py) wraps the functions its TRACED table lists,
and the workloads and checks call minerf module attributes directly. A name
that no longer resolves would stop `perfbench/run.py` at install time or
mid-run, so every one must still resolve.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from minerf import cli, ppm, synthscene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
MINERF_MODULES = {p.stem for p in (Path(importlib.import_module("minerf").__file__).parent
                                   .glob("*.py"))} - {"__init__"}


def _traced() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{name}" for mod, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"minerf.{mod}"), name, None))]
    assert not missing, missing


def _minerf_reads(tree) -> list:
    """(module, name) for each minerf name the file reads: `from minerf[.m] import x`
    targets and attributes of a name bound to a minerf module, by import or as a
    parameter named after one (checks.reference_pixel takes the field module)."""
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "minerf":
            for a in node.names:
                if node.module == "minerf" and a.name in MINERF_MODULES:
                    bound[a.asname or a.name] = f"minerf.{a.name}"
                else:
                    reads.append((node.module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "minerf":
                    bound[a.asname or "minerf"] = a.name if a.asname else "minerf"
        elif isinstance(node, ast.arg) and node.arg in MINERF_MODULES:
            bound[node.arg] = f"minerf.{node.arg}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.append((bound[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_minerf_attribute_perfbench_reads_resolves(path):
    reads = _minerf_reads(ast.parse(path.read_text()))
    missing = [f"{mod}.{name}" for mod, name in reads
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, missing


def test_perfbench_reads_the_workload_entry_points():
    reads = {r for p in PERFBENCH.glob("*.py") for r in _minerf_reads(ast.parse(p.read_text()))}
    assert {("minerf.trainer", "init_state"), ("minerf.field", "field_forward"),
            ("minerf.synthscene", "GT_FRAME_STRIDE")} <= reads
    # workloads.py calls state.arch() on a TrainState, which no import shows
    assert callable(importlib.import_module("minerf.trainer").TrainState.arch)


def test_render_gt_frame_keeps_the_closed_form_checks_positional_call(tmp_path):
    # workloads.py's _check_closed_form passes the loaded scene and each identity's
    # position in Dataset.identities, positionally; on gen-data output that call
    # must still give each identity's frame 0
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--set", "scene.n_identities=3", "--set", "scene.n_frames=2",
                     "--set", "scene.resolution=8", "--set", "scene.gt_samples=16",
                     "--out", str(data)]) == 0
    ds = synthscene.load_dataset(data)
    for k, idn in enumerate(ds.identities):
        fr = idn.frames[0]
        img = synthscene.render_gt_frame(ds.scene, k, fr.e, fr.pose, ds.t_near, ds.t_far,
                                         ds.gt_samples, ds.seed,
                                         k * synthscene.GT_FRAME_STRIDE)
        assert np.array_equal(ppm.from_u8(ppm.to_u8(img)), fr.image), idn.name
