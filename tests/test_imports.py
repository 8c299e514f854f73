"""The package namespace and which modules each command loads.

The diagram engine (``arcalg.diagrams`` and ``arcalg.geometry``) loads on
first use.  Each boundary case runs in a fresh interpreter, which calls
``cli.main`` in-process and reports what it printed and what it loaded.
"""

import json
import os
import subprocess
import sys

import pytest

import arcalg
import arcalg.cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ENGINE = ("arcalg.diagrams", "arcalg.geometry")
DIAGRAM_NAMES = (
    "Attachment", "Component", "Diagram", "DiagramError", "EvaluationBudgetExceeded", "WeightedState",
    "arc_diagram", "diagram_crossings", "diagram_from_dict", "diagram_to_dict", "dumps_diagram",
    "empty_diagram", "evaluate", "generator_diagram", "loads_diagram", "loop_component",
    "resolve_fully", "stack", "validate",
)

# Runs in the child: argv[1] is a JSON list of cli arguments, argv[2] an
# optional STATE_BUDGET to set before the call.
_CHILD = """
import contextlib, io, json, sys
import arcalg.cli
if sys.argv[2]:
    import arcalg.diagrams
    arcalg.diagrams.STATE_BUDGET = int(sys.argv[2])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = arcalg.cli.main(json.loads(sys.argv[1]))
loaded = [m for m in ("arcalg.diagrams", "arcalg.geometry") if m in sys.modules]
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(), "loaded": loaded}))
"""


def run_fresh(argv, state_budget=None) -> dict:
    src = os.path.dirname(os.path.dirname(arcalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv), str(state_budget or "")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_diagram_names_are_the_engine_objects():
    import arcalg.diagrams

    for name in DIAGRAM_NAMES:
        assert getattr(arcalg, name) is getattr(arcalg.diagrams, name)
        assert name in dir(arcalg)
    namespace = {}
    exec("from arcalg import *", namespace)
    assert all(namespace[name] is getattr(arcalg.diagrams, name) for name in DIAGRAM_NAMES)
    assert namespace["diagrams"] is arcalg.diagrams and namespace["nf"] is arcalg.nf
    with pytest.raises(AttributeError, match="nope"):
        arcalg.nope


@pytest.mark.parametrize(
    "argv, code, golden_name",
    [
        (["normalize", "--surface", "1,0", "g3*g2*g1"], 0, None),
        (["complete", "--surface", "1,1", "--json"], 1, "complete-1-1.json"),
        (["rep-check"], 0, "rep-check.txt"),
        (["verify", "--surface", "1,0"], 0, "verify-1-0.txt"),
    ],
)
def test_algebraic_commands_leave_the_engine_unloaded(capsys, argv, code, golden_name):
    result = run_fresh(argv)
    assert result["loaded"] == []
    if golden_name is None:  # the same bytes as a call in this process, which has the engine loaded
        assert arcalg.cli.main(argv) == code
        golden_text = capsys.readouterr().out
    else:
        golden_text = golden(golden_name)
    assert (result["code"], result["out"], result["err"]) == (code, golden_text, "")


@pytest.mark.parametrize(
    "argv, golden_name",
    [
        (["eval-diagram", "demos/sample_diagram.json"], "eval-diagram.txt"),
        (["verify", "--surface", "0,3"], "verify-0-3.txt"),
    ],
)
def test_diagram_commands_load_the_engine(argv, golden_name):
    result = run_fresh(argv)
    assert result["loaded"] == list(ENGINE)
    assert (result["code"], result["out"], result["err"]) == (0, golden(golden_name), "")


def test_diagram_errors_still_exit_2(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"components": []}')
    result = run_fresh(["eval-diagram", str(path)])
    assert (result["code"], result["out"]) == (2, "")
    assert result["err"] == "error: malformed diagram document: missing field 'n'\n"
    result = run_fresh(["eval-diagram", "demos/product_a1a2a3a1a2a3.json"], state_budget=8)
    assert (result["code"], result["out"]) == (2, "")
    assert result["err"] == (
        "error: evaluation budget exceeded: more than STATE_BUDGET = 8 merged states in one frontier step\n"
    )
