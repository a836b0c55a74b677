"""Indented JSON documents: cli._json_text against json.dumps(obj, indent=2),
and the bytes of every subcommand's --format json document."""

import ast
import enum
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlrc"


def _same(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


# equal-length rows, some with a bool among their ints, take the row template
# or fall back from it
_ROWS = st.integers(0, 3).flatmap(lambda w: st.lists(
    st.lists(st.integers() | st.booleans(), min_size=w, max_size=w)
    | st.tuples(*[st.integers()] * w), max_size=6))
# dicts that share one key tuple, with int, None and int-list values (a
# certificate), and draws that must fall back: a bool or str value, a tuple,
# a key order of their own
_CELLS = (st.integers() | st.none() | st.lists(st.integers(), max_size=4)
          | st.lists(st.integers() | st.booleans(), max_size=2) | st.booleans() | st.text()
          | st.tuples(st.integers()))
_ENTRIES = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.lists(_CELLS, min_size=len(keys), max_size=len(keys)).map(
        lambda values: dict(zip(keys, values)))
        | st.permutations(keys).map(lambda order: dict.fromkeys(order, 0)), max_size=5))
_LEAVES = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=False) | _ROWS | _ENTRIES)
_TREES = st.recursive(_LEAVES, lambda children: (
    st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=5)), max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps(obj):
    _same(obj)


class Small(enum.IntEnum):
    ONE = 1


class Word(str):
    pass


@pytest.mark.parametrize("obj", [
    # empty and nested-empty containers
    [], {}, (), [[]], [()], [{}], {"a": []}, {"a": {}}, [[], []], [[[]]], {"": {"": []}},
    # int rows: the row template, and rows that must fall back from it
    [[0, 1], [2, 3]], ((0, 1), (2, 3)), [(0, 1), [2, 3]], [[5]], [[1, 2, 3]] * 4,
    [[1, True], [2, 3]], [[False, 0]], [[1, 2], [3]], [[1], [2, 3]], [[1, None], [2, 3]],
    [[1, "2"], [3, 4]], [[1, 2.0], [3, 4]], [[1, [2]], [3, 4]], [[1, Small.ONE], [2, 3]],
    [[1, 2], {"a": 1}], [1, [2, 3]], [[1, 2], 3],
    # negative ints
    -1, [-7, 0, 7], [[-1, 2], [3, -4]], {"x": [[-(2**70), 2**70]]},
    # strings json escapes
    '"', "\\", '\\"', "\x00\x01\x1f\x7f", "\t\n\r\b\f", "é", "  ", "\U0001f600", "\u2028\u2029",
    {'k"\\\n ': ['"', "\\"]},
    # keys and leaves json converts itself
    {1: "a"}, {True: 1, None: 2}, {None: [1]}, {"a": 1, 2: [3, 4]}, {1.5: 0}, {False: {}},
    {Word("w"): 1}, Word("w"), [Small.ONE], Small.ONE, 1.5, [float("inf"), -0.0],
    {"a": float("nan")},
    # shared-key entries: the entry template, and entries that must fall back from it
    [{"coordinate": 0, "repair_set": [1, 2], "punctured_distance": 2}] * 3,
    [{"coordinate": 0, "repair_set": [1], "punctured_distance": None},
     {"coordinate": 1, "repair_set": [], "punctured_distance": 2}],
    [{"a": 1, "b": True}, {"a": 2, "b": 3}], [{"a": [1, False]}], [{"a": (1, 2)}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}], [{"a": 1}, {"a": 2, "b": 3}], [{"a": 1}, {"b": 1}],
    [{"a": 1}, [1]], [{}, {}], [{"a": 1}, {}], [{1: 2}, {1: 3}], [{"a": Small.ONE}],
    [{"%d": 1, "%s%%": [2], '"\\': None}] * 2, [{"a": [2**70, -1]}, {"a": -(2**70)}],
    {"certificate": [{"c": 0, "r": [1, 2]}, {"c": 1, "r": []}]},
    [[{"c": 0, "r": [1]}], [{"c": None, "r": []}, {"c": 2, "r": [3, 4]}]],
])
def test_json_text_matches_on_edge_cases(obj):
    _same(obj)


def test_json_text_writes_ints_past_4300_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main does
    try:
        big = 7 * 10**5000 + 1
        for obj in (big, -big, [big], [[big, -big], [1, 2]], {"lhs": big}):
            _same(obj)
    finally:
        sys.set_int_max_str_digits(old)


def test_only_the_writer_fallback_calls_json_with_an_indent():
    callers = [(path.stem, func.name) for path in sorted(PACKAGE.glob("*.py"))
               for func in ast.walk(ast.parse(path.read_text()))
               if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "dumps" and any(kw.arg == "indent" for kw in node.keywords)]
    assert callers == [("cli", "_json_text")]


# (exit code, SHA-256 of stdout) of `CMD --format json`, recorded before
# indented documents were written without json's encoder.  A budget error
# exits 3 with nothing on stdout.
_DOCUMENT_DIGESTS = {
    "construct --preset ex1 --mode formula":
        (0, "c23aeabd0f0d6604f154dfdbf2ddff6ff6d1b119a726d5c1a71129cbacc3c055"),
    "construct --preset ex1 --mode bruteforce":
        (0, "8f0a6aec278981790114c14e5a78d00ddbd9cb4e11162a6011b57e2932be64f4"),
    "construct --preset ex2 --mode formula":
        (0, "c23aeabd0f0d6604f154dfdbf2ddff6ff6d1b119a726d5c1a71129cbacc3c055"),
    "construct --preset ex2 --mode bruteforce":
        (0, "8f0a6aec278981790114c14e5a78d00ddbd9cb4e11162a6011b57e2932be64f4"),
    "construct --preset ex1e --mode formula":
        (0, "21807268578bd4857d05b3d6e30566bca7b431f4ee65da21192e62bd90d50796"),
    "construct --preset ex1e --mode bruteforce":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct --preset ex2e --mode formula":
        (0, "21807268578bd4857d05b3d6e30566bca7b431f4ee65da21192e62bd90d50796"),
    "construct --preset ex2e --mode bruteforce":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "construct --preset rem3 --mode formula":
        (0, "52085729762a0b3a583bc298a3f46db287237734e48b836bbcebd0bbedc92790"),
    "construct --preset rem3 --mode bruteforce":
        (0, "47c27d8983c86aad6f565ed700eda74db4bc85d853aa95d3c813d5866001c756"),
    "construct --q 256 --H 256 --V 256 --a 127 --b 127":
        (0, "fb75f7da0a66da88167dcb340daf799a4747505b6c533df9326ab2e6292cc8f0"),
    "bounds --n 15 --k 1 --d 6 --q 5 --r 2 --delta 2":
        (0, "4ece8e3aced58cb640009d344b49297fc8318f854a80e21bb8083d062200824f"),
    "bounds --n 64 --k 4 --d 16 --q 8 --r 5 --delta 4 --bound qsingleton":
        (0, "f05d7c71a7b269a17bf7db1f9155a8f09f6e229fb0ddb12dbdeb352653c11e5f"),
    # the (127, 127, 127, 0, 0) CSS code: a sphere-packing side of 67,684 digits
    "bounds --n 16129 --k 1 --d 4096 --q 127 --r 64 --delta 64":
        (0, "4cb899067f7a382920a6f8034119ec5088de3526063d787e384c2b1bfcf57276"),
    "verify-locality --preset ex1 --strategy grid_lines":
        (0, "4dd6a1e5ab1f34fbd1bdc4fba8a2d43c15aa0ad32c3efc59c57b671ebce334a5"),
    "verify-locality --preset ex1 --strategy exhaustive":
        (0, "4dd6a1e5ab1f34fbd1bdc4fba8a2d43c15aa0ad32c3efc59c57b671ebce334a5"),
    "lemma --m 1": (0, "f65a8be19ba3a13563f23fce1bb94f08b48f96334caa8bbd0e75b64fb678b1fe"),
    "lemma --m 2": (0, "a79df75370e8121cd036c0bc094f629b70753fb7b0eeadd67d753801bf5fdf5d"),
    "lemma --m 3": (0, "160c6dfc090e845c586c184aa914f7508391786ceee90e102ec3d28069251e39"),
    "lemma --m 4": (0, "cc6fcb8fe4d9f28a0765f5fe99f121fbab0701ff004c49eb7d9402c24333a4d9"),
    "lemma --m 5": (0, "a1a620ea8e620a0da48c293fa7ea09fff67c182facc87bf208f82eddbccb009c"),
    "lemma --m 6": (0, "3912bd46379a01fbf7aefb1d56e6c6a67047f3e49cba6238080f9a69334de29a"),
    "lemma --m 7": (0, "c19764986cf0f4c209ef4267df01a6e7b8f367587f32a11dd2235e01b0a24dfd"),
    "lemma --m 8": (0, "2e98332722d9767aefc16223f04ddf44204d0e47c2cfbb8c6f67797352d77584"),
}


@pytest.mark.parametrize("command", sorted(_DOCUMENT_DIGESTS))
def test_json_document_is_locked(monkeypatch, command):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)  # bruteforce mode reads it
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main([*command.split(), "--format", "json"])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rc, digest) == _DOCUMENT_DIGESTS[command]
