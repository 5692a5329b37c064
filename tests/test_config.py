"""config.SCHEMA: every key accepts its range, boundaries included, and
rejects what lies outside it with a ConfigError naming the key."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from minerf import config
from minerf.errors import ConfigError

TINY = 5e-324  # the smallest positive float


def _leaves(schema, prefix=""):
    for key, row in schema.items():
        if isinstance(row, dict):
            yield from _leaves(row, f"{prefix}{key}.")
        else:
            yield (prefix + key, *row)


LEAVES = list(_leaves(config.SCHEMA))
NUMBERS = [leaf for leaf in LEAVES if type(leaf[1]) in (int, float)]
OTHERS = [leaf for leaf in LEAVES if type(leaf[1]) not in (int, float)]

# keys that validate relates to another: what to set with a value v of the key
COMPANIONS = {
    "train.lr0": lambda v: [f"train.lr1={v / 2!r}"],
    "train.lr1": lambda v: [f"train.lr0={2 * v!r}"],
    "scene.d_expression": lambda v: [f"conditioning.d={v}"],
    "conditioning.d": lambda v: [f"scene.d_expression={v}"],
    "field.color_hidden": lambda v: [] if v > 0 else ["field.color_layers=0"],
}


def _load(key, value, *extra):
    return config.load_config(sets=[f"{key}={json.dumps(value)}", *extra], env={})


def _inside(rule, integer):
    if integer:
        lo = {None: -2**63, ">= 0": 0, "> 0": 1}[rule]
        return st.just(lo) | st.integers(lo, 2**63)
    return {
        None: st.floats(-1e300, 1e300),
        ">= 0": st.just(0.0) | st.floats(0.0, 1e300),
        "> 0": st.just(TINY) | st.floats(TINY, 1e300),
        "in [0, 1]": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        "in [0, 1)": st.sampled_from([0.0, 1.0 - 2**-53]) | st.floats(0.0, 1.0, exclude_max=True),
    }[rule]


def _outside(rule, integer):
    bad = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400])
    if integer:
        bad |= st.sampled_from([0.5, 2.5])
        if rule is not None:
            hi = {">= 0": -1, "> 0": 0}[rule]
            bad |= st.just(hi) | st.integers(max_value=hi)
        return bad
    below = st.just(-TINY) | st.floats(max_value=-TINY)
    return bad | {
        None: st.nothing(),
        ">= 0": below,
        "> 0": st.just(0.0) | below,
        "in [0, 1]": below | st.just(1.0 + 2**-52) | st.floats(min_value=1.0 + 2**-52),
        "in [0, 1)": below | st.just(1.0) | st.floats(min_value=1.0),
    }[rule]


@pytest.mark.parametrize("key, default, rule", NUMBERS, ids=[n[0] for n in NUMBERS])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_every_number_key_accepts_its_range(key, default, rule, data):
    value = data.draw(_inside(rule, isinstance(default, int)))
    assume(key != "train.lr0" or value / 2 > 0)
    cfg = _load(key, value, *COMPANIONS.get(key, lambda v: [])(value))
    *section, name = key.split(".")
    got = cfg[section[0]][name] if section else cfg[name]
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("key, default, rule", NUMBERS, ids=[n[0] for n in NUMBERS])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_every_number_key_rejects_what_lies_outside(key, default, rule, data):
    value = data.draw(_outside(rule, isinstance(default, int)))
    with pytest.raises(ConfigError, match=re.escape(key)):
        _load(key, value)


@pytest.mark.parametrize("key, default, rule", OTHERS, ids=[n[0] for n in OTHERS])
def test_every_other_key_rejects_other_json_types(key, default, rule):
    for value in (1, 0.5, math.nan, "x", True, [1.0, 2.0, 3.0]):
        if not isinstance(value, type(default)):
            with pytest.raises(ConfigError, match=re.escape(key)):
                _load(key, value)


def test_toy_config_spells_out_every_default():
    path = Path(__file__).resolve().parents[1] / "configs" / "toy.json"
    defaults = json.dumps(config.materialize({}), sort_keys=True)
    assert json.dumps(json.loads(path.read_text()), sort_keys=True) == defaults
    assert json.dumps(config.load_config(path, env={}), sort_keys=True) == defaults
