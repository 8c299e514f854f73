"""Command-line interface: outputs, exit codes, determinism."""

import io
import json
import os
import time

import pytest

from arcalg import Surface, cli, dumps_diagram, generator_diagram, stack
from arcalg.cli import main
from arcalg.presentations import GENS_A3
from arcalg.rewrite import RewriteSystem, StepBudgetExceeded


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_f03_product(capsys):
    code, out, _ = run(capsys, "normalize", "--surface", "0,3", "a1*a2")
    assert code == 0
    assert out.strip() == "(A^(1/2)*v3^-1 + A^(-1/2)*v3^-1)*a3"


def test_normalize_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "normalize", "--surface", "0,3", "a1*a2*a3 + a2")
    assert code == 0
    code2, out2, _ = run(capsys, "normalize", "--surface", "0,3", out.strip())
    assert code2 == 0 and out2 == out


def test_normalize_deterministic(capsys):
    runs = {run(capsys, "normalize", "--surface", "1,1", "g2*g1*g3")[1] for _ in range(3)}
    assert len(runs) == 1


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "--surface", "0,2", "--json", "a*a")
    assert code == 0
    payload = json.loads(out)
    assert payload["arity"] == 2
    assert payload["terms"][0]["word"] == []


def test_normalize_bad_expression(capsys):
    code, _, err = run(capsys, "normalize", "--surface", "0,3", "a4")
    assert code == 2
    assert "error" in err


def test_normalize_deep_nesting(capsys):
    code, out, err = run(capsys, "normalize", "--surface", "0,3", "(" * 1200 + "a1" + ")" * 1200)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_normalize_digits_are_ascii_and_a_leading_minus_goes_after_dashes(capsys):
    code, out, err = run(capsys, "normalize", "--surface", "1,0", "g1^٢")
    assert (code, out, err) == (2, "", "error: unexpected character '٢' (at offset 3)\n")
    assert run(capsys, "normalize", "--surface", "1,0", "--", "-g1") == (0, "-g1\n", "")


LONG = "1" * 5000  # over Python's default limit of 4300 digits for int <-> str


@pytest.mark.parametrize(
    "argv, offset",
    [
        (["--surface", "0,2", "a + " + LONG], 4),
        (["--surface", "0,2", "A^" + LONG], 2),
        (["--surface", "1,1", "g1^" + LONG], 3),
        (["--surface", "0,2", "2^20000"], None),
        (["--surface", "0,2", "--json", "2^20000"], None),
    ],
    ids=["literal", "A-exponent", "g1-exponent", "result", "result-json"],
)
def test_normalize_digit_limit_is_a_usage_error(capsys, argv, offset):
    code, out, err = run(capsys, "normalize", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if offset is not None:
        assert f"(at offset {offset})" in err
    else:
        assert err == "error: the result holds an integer too long to print\n"


@pytest.mark.parametrize(
    "surface, expression, offset",
    [
        ("0,2", "a^100000", 1),
        ("0,3", "a1^100000", 2),
        ("0,2", "(A+1)^100000", 5),
        ("1,0", "(g1+g2+g3)^16", 10),
        ("1,0", "*".join(["(g1+g2+g3)"] * 16), 87),
    ],
    ids=["a", "a1", "A+1", "g-power", "g-product"],
)
def test_normalize_expansion_budget_is_a_usage_error(capsys, surface, expression, offset):
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", "--surface", surface, expression)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err.startswith("error: product of ") and err.count("\n") == 1
    assert err.endswith(f" over EXPANSION_BUDGET = 65536 (at offset {offset})\n")


@pytest.mark.parametrize("expression", ["3^3000000", "3^100000 - 3^100000"])
def test_normalize_coefficient_budget_is_a_usage_error(capsys, expression):
    start = time.perf_counter()
    code, out, err = run(capsys, "normalize", "--surface", "0,2", expression)
    assert time.perf_counter() - start < 0.5  # the power is never built
    assert (code, out) == (2, "")
    assert err.startswith("error: product of ") and err.count("\n") == 1
    assert err.endswith("-bit coefficients is over COEFFICIENT_BITS_BUDGET = 34400 (at offset 1)\n")


def test_normalize_prints_4300_digits(capsys):
    digits = "9" * 4300
    code, out, _ = run(capsys, "normalize", "--surface", "0,2", digits)
    assert (code, out) == (0, digits + "\n")


# A mix of commands that succeed, fail a check, refuse their input or stop
# in argparse (a missing argument, an unknown command, help).
SHARED_PARSER_ARGV = [
    ["normalize", "--surface", "0,3", "a1*a2"],
    ["normalize"],
    ["normalize", "--surface", "1,1", "--json", "g2*g1"],
    ["--help"],
    ["normalize", "--surface", "0,3", "a4"],
    ["complete", "--surface", "1,0", "--degree-bound", "5"],
    ["normalize", "--help"],
    ["frobnicate"],
    ["complete", "--surface", "0,2", "--degree-bound", "1"],
    ["normalize", "--surface", "0,5", "a1"],
    ["normalize", "--surface", "0,3", "a1*a2"],
]


def run_any(capsys, argv):
    """(exit code, stdout, stderr) of ``main``, also when argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser_cache():
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


def test_main_builds_one_parser_per_process(monkeypatch, capsys, fresh_parser_cache):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    for argv in SHARED_PARSER_ARGV * 3:
        run_any(capsys, argv)
    assert len(builds) == 1
    assert cli.build_parser() is not cli.build_parser()  # still a fresh parser per call


def test_shared_parser_gives_identical_results(capsys, fresh_parser_cache):
    # Each command gives the same bytes and exit code on a fresh parser and
    # on the shared one, whatever ran before it (argparse errors included).
    fresh = []
    for argv in SHARED_PARSER_ARGV:
        cli._shared_parser.cache_clear()
        fresh.append(run_any(capsys, argv))
    codes = [code for code, _, _ in fresh]
    assert codes == [0, 2, 0, 0, 2, 1, 0, 2, 2, 2, 0]
    assert fresh[0] == fresh[-1]
    for _ in range(2):
        assert [run_any(capsys, argv) for argv in SHARED_PARSER_ARGV] == fresh
        assert [run_any(capsys, argv) for argv in reversed(SHARED_PARSER_ARGV)] == fresh[::-1]


def test_unsupported_surface_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--surface", "0,5", "a1"])
    assert exc.value.code == 2


def test_verify_commands(capsys):
    for surface in ("0,2", "0,3", "1,0", "1,1"):
        code, out, _ = run(capsys, "verify", "--surface", surface)
        assert code == 0, out
        assert "FAIL" not in out
    code, out, _ = run(capsys, "verify", "--surface", "0,3", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_literal_variant_fails(capsys):
    code, out, _ = run(capsys, "verify", "--surface", "1,1", "--variant", "i-plus-1")
    assert code == 1
    assert "FAIL" in out


def test_complete_sphere(capsys):
    code, out, _ = run(capsys, "complete", "--surface", "0,3", "--degree-bound", "6")
    assert code == 0
    assert "failures: 0" in out
    assert "rules added: 0" in out


def test_complete_torus_json(capsys):
    # no failures, but pairs above the bound are unexamined: not proved confluent
    code, out, _ = run(capsys, "complete", "--surface", "1,1", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["unexamined"] == 4
    assert len(payload["added_rules"]) >= 1


def test_complete_bad_bound(capsys):
    code, _, err = run(capsys, "complete", "--surface", "1,1", "--degree-bound", "1")
    assert code == 2


@pytest.mark.parametrize("bound, code", [("24", 0), ("25", 2), ("1000000", 2)])
def test_complete_degree_budget(capsys, bound, code):
    # F0,3 completes at once at any bound, so only the ceiling can refuse it
    got, out, err = run(capsys, "complete", "--surface", "0,3", "--degree-bound", bound)
    assert got == code
    if code == 2:
        assert out == ""
        assert err == "error: --degree-bound is larger than DEGREE_BUDGET = 24\n"


def test_rep_check(capsys):
    code, out, _ = run(capsys, "rep-check")
    assert code == 0
    assert out.count("PASS") == 10


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "--surface", "1,1", "g1*g2*g3"),
        ("verify", "--surface", "1,0"),
    ],
)
def test_step_budget_is_a_usage_error(monkeypatch, capsys, argv):
    def exhausted(self, x):
        raise StepBudgetExceeded("no normal form after 0 steps")

    monkeypatch.setattr(RewriteSystem, "normal_form", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: no normal form after 0 steps\n"


class _ClosedPipe(io.TextIOBase):
    """A stdout on file descriptor ``fd`` whose reader has gone away."""

    def __init__(self, fd):
        self._fd = fd

    def fileno(self):
        return self._fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_exit_1_without_traceback(monkeypatch, capsys, tmp_path):
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
        code = main(["normalize", "--surface", "1,1", "g2^6*g1^6"])
        # the descriptor now points at devnull, so a final flush cannot raise
        os.write(fd, b"late output")
    finally:
        os.close(fd)
    assert code == 1
    assert capsys.readouterr().err == ""
    assert path.read_bytes() == b""


def test_eval_diagram(tmp_path, capsys):
    s3 = Surface(0, 3)
    d = stack(generator_diagram(s3, GENS_A3[0]), generator_diagram(s3, GENS_A3[1]))
    path = tmp_path / "diagram.json"
    path.write_text(dumps_diagram(d))
    code, out, _ = run(capsys, "eval-diagram", str(path))
    assert code == 0
    assert out.strip() == "(A^(1/2)*v3^-1 + A^(-1/2)*v3^-1)*a3"
    code, out, _ = run(capsys, "eval-diagram", str(path), "--json")
    assert code == 0
    assert json.loads(out)["terms"][0]["word"] == ["a3"]


def test_eval_diagram_missing_file(capsys):
    code, _, err = run(capsys, "eval-diagram", "no-such-file.json")
    assert code == 2
    assert "file not found" in err


def test_eval_diagram_unreadable_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    for target in (path, tmp_path):
        code, out, err = run(capsys, "eval-diagram", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read file: ") and err.count("\n") == 1


def test_eval_diagram_hostile_documents(tmp_path, capsys):
    for text in (
        '{"n": ' + "1" * 5000 + ', "components": []}',
        '{"n": 2, "components": [], "over_under": [{"a": [0], "b": [1, 1], "over": "a"}]}',
        '{"n": 1e400, "components": []}',
        '{"n": 2, "components": [{"points": [[1, 0], [2, 0]],'
        ' "start": {"puncture": 1, "height": 1e400}, "end": {"puncture": 2, "height": 0}}]}',
        "[" * 100000 + "]" * 100000,
        '{"n": 0, "components": [{"closed": true, "points": [["0", "0"], ["1e10000000", "0"], ["0", "1"]]}]}',
        '{"n": 0, "components": [{"closed": true, "points": [["0", "0"], ["1e-10000000", "0"], ["0", "1"]]}]}',
    ):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        code, out, err = run(capsys, "eval-diagram", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_diagram_state_budget(monkeypatch, capsys):
    import arcalg.diagrams

    monkeypatch.setattr(arcalg.diagrams, "STATE_BUDGET", 8)
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "product_a1a2a3a1a2a3.json")
    code, out, err = run(capsys, "eval-diagram", path)
    assert (code, out) == (2, "")
    assert err == "error: evaluation budget exceeded: more than STATE_BUDGET = 8 merged states in one frontier step\n"


def test_eval_diagram_segment_budget(monkeypatch, tmp_path, capsys):
    import arcalg.diagrams

    monkeypatch.setattr(arcalg.diagrams, "SEGMENT_BUDGET", 4)
    path = tmp_path / "loop.json"
    square = [["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]]
    for points, code in ((square + [["-1", "2"]], 2), (square, 0)):
        path.write_text(json.dumps({"n": 0, "components": [{"closed": True, "points": points}]}))
        got, out, err = run(capsys, "eval-diagram", str(path))
        assert got == code
        if code == 2:
            assert out == ""
            assert err == "error: diagram has 5 segments, more than SEGMENT_BUDGET = 4\n"
        else:
            assert out == "(-A^2 - A^-2)\n"


def test_eval_diagram_refuses_a_large_loop_before_converting_it(monkeypatch, tmp_path, capsys):
    # Segments are counted on the raw `points` of every component, so no
    # coordinate of an oversized document is converted (a bad one among them
    # does not change the message). A JSON object as `points` counts its keys:
    # iterating it yields them, and a two-character key unpacks into a point.
    import arcalg.diagrams

    converted = []
    coordinate = arcalg.diagrams._coordinate
    monkeypatch.setattr(arcalg.diagrams, "_coordinate", lambda x: converted.append(x) or coordinate(x))
    path = tmp_path / "loop.json"
    points = [[i, i * i] for i in range(200_000)]
    keys = {f"{i:02}": 0 for i in range(100)}
    digits = "0123456789" + "".join(chr(c) for b in (0x660, 0x966, 0x9E6) for c in range(b, b + 10))
    wide = {x + y: 0 for x in digits for y in digits}
    for comps, count in (
        ([{"closed": True, "points": points}], 200_000),
        ([{"closed": True, "points": points[:-1] + [["not a number", 1]]}], 200_000),
        ([{"closed": True, "points": keys}] * 400, 40_000),
        ([{"closed": True, "points": wide}], 1600),
    ):
        path.write_text(json.dumps({"n": 0, "components": comps}))
        start = time.perf_counter()
        code, out, err = run(capsys, "eval-diagram", str(path))
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (2, "", f"error: diagram has {count} segments, more than SEGMENT_BUDGET = 1000\n")
        assert converted == []
    path.write_text(json.dumps({"n": 0, "components": [{"closed": True, "points": 200_000}]}))
    code, out, err = run(capsys, "eval-diagram", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed diagram document: ")


def test_eval_diagram_invalid_content(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "components": [{"closed": false, "points": [["1","0"]]}]}')
    code, _, err = run(capsys, "eval-diagram", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("closed", "false", "closed must be a JSON boolean, not str"),
        ("closed", 0, "closed must be a JSON boolean, not int"),
        ("closed", None, "closed must be a JSON boolean, not NoneType"),
        ("height", 0.7, "height must be a JSON integer, not float"),
        ("height", True, "height must be a JSON integer, not bool"),
        ("puncture", 2.9, "puncture must be a JSON integer, not float"),
        ("puncture", "2", "puncture must be a JSON integer, not str"),
        ("n", 2.0, "n must be a JSON integer, not float"),
        ("n", True, "n must be a JSON integer, not bool"),
        ("key", 1.0, "crossing key must be a JSON integer, not float"),
        ("key", False, "crossing key must be a JSON integer, not bool"),
        ("entries", [0, 0, 9], "crossing key must have 2 entries, not 3"),
        ("entries", [0], "crossing key must have 2 entries, not 1"),
        ("components", {}, "components must be a JSON array, not dict"),
        ("over_under", {}, "over_under must be a JSON array, not dict"),
        ("points", {"00": 0, "10": 0, "01": 0}, "points must be a JSON array, not dict"),
        ("points", [[0, 0], [1, 0], "01"], "point must be a JSON array, not str"),
        ("entries", {"0": 0, "1": 1}, "crossing key must be a JSON array, not dict"),
        ("document", [1, 2], "document must be a JSON object, not list"),
        ("component", [[0, 0], [1, 0], [0, 1]], "component must be a JSON object, not list"),
        ("start", [2, 0], "start must be a JSON object, not list"),
        ("end", 3, "end must be a JSON object, not int"),
        ("crossing", [[0, 0], [1, 1], "b"], "over_under entry must be a JSON object, not list"),
        ("points", [[0, 0], [1, 0], [0, 1, 2]], "point must have 2 entries, not 3"),
        ("points", [[0, 0], [1, 0], [0]], "point must have 2 entries, not 1"),
        ("points", 5, "points must be a JSON array, not int"),
        ("document", {"components": []}, "missing field 'n'"),
        ("component", {"closed": True}, "missing field 'points'"),
        ("crossing", {"b": [1, 1], "over": "b"}, "missing field 'a'"),
        ("crossing", {"a": [0, 0], "over": "b"}, "missing field 'b'"),
        ("crossing", {"a": [0, 0], "b": [1, 1]}, "missing field 'over'"),
        ("start", {"height": 1}, "missing field 'puncture'"),
        ("end", {"puncture": 3}, "missing field 'height'"),
    ],
)
def test_eval_diagram_field_types(tmp_path, capsys, field, bad, message):
    # The document of demos/sample_diagram.json with one field replaced; a
    # three-point polyline with "closed": "false" was read as a loop, and a
    # height of 0.7 or a puncture of 2.9 was truncated.  A JSON object as a
    # container iterated its keys: {} as the components or crossings was an
    # empty diagram, and a closed curve whose points were the keys "00", "10",
    # "01" (or whose third point was the string "01") a loop.  An array where
    # an object belongs, a point of 3 entries or a number as the points was
    # refused with Python's own message, which names no field, and a missing
    # field by its bare quoted name.
    with open(os.path.join(os.path.dirname(__file__), "..", "demos", "sample_diagram.json")) as fh:
        doc = json.load(fh)
    if field == "closed":
        doc = {"n": 0, "components": [{"closed": bad, "points": [[0, 0], [1, 0], [0, 1]]}]}
    elif field == "document":
        doc = bad
    elif field == "component":
        doc = {"n": 0, "components": [bad]}
    elif field in ("start", "end"):
        doc["components"][0][field] = bad
    elif field == "crossing":
        doc["over_under"][0] = bad
    elif field == "components":
        doc = {"n": 3, "components": bad}
    elif field == "over_under":
        doc = {"n": 3, "components": [], "over_under": bad}
    elif field == "points":
        doc = {"n": 0, "components": [{"closed": True, "points": bad}]}
    elif field == "n":
        doc["n"] = bad
    elif field == "key":
        doc["over_under"][0]["a"][1] = bad
    elif field == "entries":  # a third entry was dropped
        doc["over_under"][0]["a"] = bad
    else:
        doc["components"][0]["end"][field] = bad
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "eval-diagram", str(path)) == (2, "", f"error: malformed diagram document: {message}\n")

