"""Deterministic fuzzing of the diagram-file reader behind ``eval-diagram``.

Files hold random JSON documents built from the keys of the diagram schema,
or random bytes.  ``cli.main`` runs in-process: it must return 0 or 2, let
no exception escape, and on 2 write exactly one ``error:`` line.
Hypothesis runs derandomized, so every run checks the same examples.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
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


def assert_clean_exit(path, capsys):
    code = main(["eval-diagram", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(FUZZ, max_examples=300)
@given(documents())
def test_random_documents_exit_cleanly(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(path, capsys)


@settings(FUZZ, max_examples=100)
@given(st.binary(max_size=64))
def test_random_bytes_exit_cleanly(tmp_path, capsys, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert_clean_exit(path, capsys)
