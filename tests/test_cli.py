"""Command-line interface: outputs, exit codes, determinism."""

import io
import json
import os

import pytest

from arcalg import Surface, dumps_diagram, generator_diagram, stack
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


def test_normalize_prints_4300_digits(capsys):
    digits = "9" * 4300
    code, out, _ = run(capsys, "normalize", "--surface", "0,2", digits)
    assert (code, out) == (0, digits + "\n")


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
    code, out, _ = run(capsys, "complete", "--surface", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert len(payload["added_rules"]) >= 1


def test_complete_bad_bound(capsys):
    code, _, err = run(capsys, "complete", "--surface", "1,1", "--degree-bound", "1")
    assert code == 2


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


def test_eval_diagram_invalid_content(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "components": [{"closed": false, "points": [["1","0"]]}]}')
    code, _, err = run(capsys, "eval-diagram", str(path))
    assert code == 2
