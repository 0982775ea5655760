"""Malformed and hostile CLI inputs never escape the exit-code contract.

Every generated document must end with exit code 0, 2, 3, 4 or 5 and no
traceback on stderr. Matrix orders stay at 3 or below so each example runs
in milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatalg.cli import main

COMMANDS = ("det", "rank", "index", "drazin", "solve-ax", "solve-xa",
            "solve-axb", "verify")
HUGE = "9" * 5000

components = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/4", "5", "1/0", "1.5", "a/b", "1//2", "", " 1",
                     "+-1", HUGE, "1/" + HUGE, "-" + HUGE]),
    st.sampled_from([10 ** 2200, -(10 ** 2200), 10 ** 400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)
quaternions = st.one_of(st.lists(components, min_size=4, max_size=4),
                        st.lists(components, max_size=6), components)


@st.composite
def matrices(draw, kind, rows, cols):
    """A matrix object: Hermitian of order ``rows``, well-formed general, or
    malformed."""
    if kind == "hermitian":
        scale = draw(st.sampled_from([1, 1, 10 ** 1500]))
        entries = [[[scale * draw(st.integers(-2, 2)) for _ in range(4)]
                    for _ in range(rows)] for _ in range(rows)]
        for i in range(rows):
            entries[i][i][1:] = [0, 0, 0]
            for j in range(i):
                entries[i][j] = [entries[j][i][0]] + [-v for v in entries[j][i][1:]]
        return {"rows": rows, "cols": rows, "data": entries}
    if kind == "general":
        entries = [[[draw(st.integers(-2, 2)) for _ in range(4)] for _ in range(cols)]
                   for _ in range(rows)]
        return {"rows": rows, "cols": cols, "data": entries}
    obj = {"rows": rows, "cols": cols,
           "data": [[draw(quaternions) for _ in range(cols)] for _ in range(rows)]}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["rows", "cols", "data"]))
        obj[key] = draw(st.one_of(st.integers(-1, 4), st.booleans(), st.none(),
                                  st.just(HUGE), st.lists(st.integers(0, 2), max_size=3)))
    return obj


@st.composite
def documents(draw):
    """Raw bytes, bad JSON, or a document of named matrices. Most documents
    have shapes that fit together (A and X n x n Hermitian and general, B
    m x m Hermitian, D n x m), so the commands run; one matrix in four is
    swapped for a general or malformed one of random shape."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=40))
    if kind == 1:
        return draw(st.text(max_size=40)).encode("utf-8")
    if kind == 2:
        return draw(st.sampled_from([b"[" * 100000, b"9" * 5000, b"{}", b"[]",
                                     b'{"A": ' + b"9" * 5000 + b"}"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    plan = {"A": ("hermitian", n, n), "B": ("hermitian", m, m),
            "D": ("general", n, m), "X": ("general", n, n)}
    doc = {}
    for name in sorted(draw(st.sets(st.sampled_from("BDX"), max_size=3)) | {"A"}):
        if draw(st.integers(0, 3)) == 0:
            plan[name] = (draw(st.sampled_from(["general", "malformed"])),
                          draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        doc[name] = draw(matrices(*plan[name]))
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@given(command=st.sampled_from(COMMANDS), document=documents(),
       fast=st.booleans(), pretty=st.booleans(), sweep=st.booleans())
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_stay_in_the_contract(input_path, command, document,
                                             fast, pretty, sweep):
    input_path.write_bytes(document)
    argv = [command, "--input", str(input_path)]
    argv += ["--fast"] * fast + ["--format", "pretty"] * pretty
    argv += ["--lambda-sweep"] * (sweep and command == "drazin")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
