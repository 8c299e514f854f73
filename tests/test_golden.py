"""Recorded outputs of the command line and the demos, compared byte for byte.

Each file under ``tests/golden`` holds the stdout of one command; the table
below gives the command and its exit code.  A change that alters one of
these outputs rewrites its file and names it in CHANGES.md.  The CI smoke
step diffs the console script against the same files.
"""

import importlib.util
from pathlib import Path

import pytest

from arcalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SAMPLE = str(ROOT / "demos" / "sample_diagram.json")
PRODUCT6 = str(ROOT / "demos" / "product_a1a2a3a1a2a3.json")  # stacked a1 a2 a3 a1 a2 a3
BOUNDARY = "A*g1*g2*g3 - A^2*g1^2 - A^-2*g2^2 - A^2*g3^2 + A^2 + A^-2"

COMMANDS = {
    "verify-0-2.txt": (["verify", "--surface", "0,2"], 0),
    "verify-0-3.txt": (["verify", "--surface", "0,3"], 0),
    "verify-1-0.txt": (["verify", "--surface", "1,0"], 0),
    "verify-1-1.txt": (["verify", "--surface", "1,1"], 0),
    "verify-1-1-i-plus-1.txt": (["verify", "--surface", "1,1", "--variant", "i-plus-1"], 1),
    "complete-0-2.json": (["complete", "--surface", "0,2", "--json"], 0),
    "complete-0-3.json": (["complete", "--surface", "0,3", "--json"], 0),
    "complete-1-0.json": (["complete", "--surface", "1,0", "--json"], 1),
    "complete-1-1.json": (["complete", "--surface", "1,1", "--json"], 1),
    "complete-1-0-bound-11.json": (["complete", "--surface", "1,0", "--degree-bound", "11", "--json"], 1),
    "complete-1-1-bound-11.json": (["complete", "--surface", "1,1", "--degree-bound", "11", "--json"], 1),
    "complete-1-1-i-plus-1-bound-7.json": (
        ["complete", "--surface", "1,1", "--variant", "i-plus-1", "--degree-bound", "7", "--json"],
        1,
    ),
    "rep-check.txt": (["rep-check"], 0),
    "eval-diagram.txt": (["eval-diagram", SAMPLE], 0),
    "eval-diagram.json": (["eval-diagram", SAMPLE, "--json"], 0),
    "eval-diagram-a1a2a3a1a2a3.txt": (["eval-diagram", PRODUCT6], 0),
    "normalize-0-3-a1a2.txt": (["normalize", "--surface", "0,3", "a1*a2"], 0),
    "normalize-1-1-boundary.txt": (["normalize", "--surface", "1,1", BOUNDARY], 0),
    "normalize-1-1-g2g1.txt": (["normalize", "--surface", "1,1", "g2^6*g1^6"], 0),
}

DEMOS = ("presentations_tour", "representation_check", "rewriting_internals", "diagram_engine")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output(capsys, name):
    argv, code = COMMANDS[name]
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output(capsys, demo):
    spec = importlib.util.spec_from_file_location(demo, ROOT / "demos" / f"{demo}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.encode() == (GOLDEN / f"demo-{demo}.txt").read_bytes()


def test_every_golden_file_is_checked():
    names = set(COMMANDS) | {f"demo-{demo}.txt" for demo in DEMOS}
    assert {p.name for p in GOLDEN.iterdir()} == names
