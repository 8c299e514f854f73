"""Deterministic fuzzing of the command line.

``eval-diagram`` reads files that hold random JSON documents built from the
keys of the diagram schema, or random bytes; ``normalize`` gets random
token strings of the expression grammar.  ``cli.main`` runs in-process: it
must return 0 or 2, let no exception escape, and on 2 write exactly one
``error:`` line.  Random argument lists over every subcommand and flag may
also fail a check (1) or stop in argparse (``SystemExit`` 0 or 2).
Hypothesis runs derandomized, so every run checks the same examples.
"""

import json
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arcalg.cli import main  # noqa: E402

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

KEYS = st.sampled_from(
    ("n", "components", "over_under", "closed", "points", "start", "end")
    + ("puncture", "height", "a", "b", "over")
)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats()
    | st.sampled_from(("0", "1", "1/2", "-1/3", "1/0", "x", "a", "b"))
)
ANY = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


def corrupted(entry, draw):
    """``entry``, with one value replaced by any JSON value a quarter of the time."""
    if draw(st.integers(0, 3)) == 0:
        entry[draw(st.sampled_from(sorted(entry)))] = draw(ANY)
    return entry


POINT = st.tuples(st.integers(-1, 4) | st.sampled_from(("1/2", "3/2", "5/2")), st.integers(-2, 2))
PUNCTURE = st.integers(0, 4)
HEIGHT = st.integers(-1, 2)


@st.composite
def components(draw):
    """A closed curve, or an arc whose ends sit at their punctures."""
    if draw(st.booleans()):
        entry = {"closed": True, "points": draw(st.lists(POINT, min_size=3, max_size=4))}
    else:
        i, j = draw(PUNCTURE), draw(PUNCTURE)
        entry = {
            "points": [(i, 0), *draw(st.lists(POINT, min_size=1, max_size=2)), (j, 0)],
            "start": {"puncture": i, "height": draw(HEIGHT)},
            "end": {"puncture": j, "height": draw(HEIGHT)},
        }
    return corrupted(entry, draw)


@st.composite
def documents(draw):
    """A diagram document from the schema's keys, or any JSON value."""
    if draw(st.integers(0, 3)) == 0:
        return draw(ANY)
    key = st.tuples(st.integers(0, 2), st.integers(0, 3))
    over = st.fixed_dictionaries({"a": key, "b": key, "over": st.sampled_from("abc")})
    doc = {
        "n": draw(st.sampled_from((0, 1, 2, 2, 3, 3, 4))),
        "components": draw(st.lists(components(), max_size=3)),
        "over_under": draw(st.lists(over, max_size=2)),
    }
    return corrupted(doc, draw)


def assert_clean_exit(argv, capsys, codes=(0, 2)):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in codes
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(FUZZ, max_examples=300)
@given(documents())
def test_random_documents_exit_cleanly(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(["eval-diagram", str(path)], capsys)


@settings(FUZZ, max_examples=100)
@given(st.binary(max_size=64))
def test_random_bytes_exit_cleanly(tmp_path, capsys, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert_clean_exit(["eval-diagram", str(path)], capsys)


# Integers are single digits, and tokens are joined by spaces so that two
# digits never form one integer: no exponent exceeds 9, or 3 on the tori,
# whose normal forms grow fast with word length.
NAMES = ("A", "v1", "v2", "v4", "a", "a1", "a2", "a3", "g1")
TOKENS = st.sampled_from(tuple("+-*^()/") + tuple("0123456789") + NAMES)
TORUS_TOKENS = st.sampled_from(tuple("+-*^()/") + tuple("0123") + NAMES + ("g2", "g3"))
EXPRESSIONS = st.one_of(
    st.tuples(st.sampled_from(("0,2", "0,3")), st.lists(TOKENS, max_size=12).map(" ".join)),
    st.tuples(st.sampled_from(("1,0", "1,1")), st.lists(TORUS_TOKENS, max_size=12).map(" ".join)),
)
LONG = "1" * 5000  # over Python's default limit of 4300 digits for int <-> str


@settings(FUZZ, max_examples=500)
@given(EXPRESSIONS)
@example(("0,2", "2^20000"))
@example(("0,3", "a1 + " + LONG))
@example(("0,3", "A^" + LONG))
@example(("0,3", "a2^" + LONG))
def test_random_expressions_exit_cleanly(capsys, case):
    surface, text = case
    assert_clean_exit(["normalize", "--surface", surface, text], capsys)


HERE = os.path.dirname(os.path.abspath(__file__))
PATHS = ("no-such-file.json", HERE, os.path.join(HERE, "..", "demos", "sample_diagram.json"))
VALUES = {
    "--surface": st.sampled_from(("0,2", "0,3", "1,0", "1,1") * 3 + ("0,5", "x")),
    "--variant": st.sampled_from(("i-plus-2", "i-plus-1") * 3 + ("i-plus-3",)),
    "--degree-bound": st.sampled_from(tuple(range(-1, 9)) + (25, 10**6)).map(str),
}
FLAGS = {
    "normalize": ("--surface", "--variant", "--json"),
    "eval-diagram": ("--json",),
    "verify": ("--surface", "--variant", "--json"),
    "complete": ("--surface", "--variant", "--json", "--degree-bound"),
    "rep-check": ("--json",),
}
POSITIONALS = st.sampled_from(PATHS) | st.lists(TORUS_TOKENS, max_size=6).map(" ".join)
OFTEN = st.sampled_from((True, True, True, False))  # sampled_from shrinks to its first entry
RARELY = st.sampled_from((False,) * 9 + (True,))


@st.composite
def argvs(draw):
    """A subcommand (or an unknown one), each of its flags most of the time, with a
    value most of the time; now and then a flag it does not take, and a
    positional (an expression or a path) where one may belong."""
    command = draw(st.sampled_from((*FLAGS, "help")))
    argv = [command]
    for flag in FLAGS.get(command, ()):
        if draw(OFTEN):
            argv.append(flag)
            if flag in VALUES and draw(OFTEN):
                argv.append(draw(VALUES[flag]))
    if draw(RARELY):
        argv.append(draw(st.sampled_from(("--surface", "--degree-bound", "-h", "--bogus"))))
    if draw(OFTEN if command in ("normalize", "eval-diagram") else RARELY):
        argv.append(draw(POSITIONALS))
    return argv


@settings(FUZZ, max_examples=200)
@given(argvs())
@example(["complete", "--surface", "1,1", "--degree-bound", str(10**6)])
def test_random_argv_exits_cleanly(capsys, argv):
    try:
        assert_clean_exit(argv, capsys, codes=(0, 1, 2))
    except SystemExit as exc:  # argparse: --help, or a usage error
        assert exc.code in (0, 2)
        capsys.readouterr()
