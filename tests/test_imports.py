"""The package runs without numpy: no command loads it, ``verify`` included,
and every command still runs where importing it fails.

Each case runs in a fresh interpreter, which reports whether ``numpy``
is in ``sys.modules`` after the work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MAIN = "from spinthermal.cli import main; code = main({argv!r})"
PIPELINE = """
from spinthermal import (ModelSpec, build_hamiltonian, concurrence_closed_form,
                         concurrence_general, gibbs_density, hermitian_eigen, partial_trace)
for spec in (ModelSpec.xx(-1.0), ModelSpec.xxz(1.0, -0.5), ModelSpec.xxz_field(1.0, 1.0, 2.0),
             ModelSpec.general_xyz(1.0, 0.5, -0.3, 0.2, 0.1, 0.4)):
    hermitian_eigen(build_hamiltonian(spec))
    concurrence_general(partial_trace(gibbs_density(spec, 0.7)))
    if spec.variant != "xyz":
        concurrence_closed_form(spec, 0.7)
code = 0
"""
CASES = {
    "import": "import spinthermal; code = 0",
    "eig": MAIN.format(argv=["eig", "--model", "xxzfield", "--J=1", "--delta=1", "--B=2"]),
    "thermal": MAIN.format(argv=["thermal", "--model", "xxz", "--J=-1", "--delta=0.5", "--T=1"]),
    "concurrence": MAIN.format(argv=["concurrence", "--model", "xxzfield", "--J=1",
                                     "--delta=1", "--B=2", "--T=0.5"]),
    "concurrence at T = 0": MAIN.format(argv=["concurrence", "--model", "xxzfield", "--J=1",
                                              "--delta=1", "--B=1", "--T=0"]),
    "critical": MAIN.format(argv=["critical", "--model", "xxz", "--J=-1", "--delta=0.5"]),
    "numeric and closed routes": PIPELINE,
}
REPORT = "\nimport json, sys\nprint(json.dumps([code, 'numpy' in sys.modules]))\n"


def run_fresh(code: str, cwd: Path) -> tuple[int, bool]:
    """``(code, numpy loaded)`` of ``code`` in a fresh interpreter, whose ``code``
    variable holds the work's exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_point_work_loads_no_numpy(case, tmp_path):
    assert run_fresh(CASES[case], tmp_path) == (0, False)


def test_sweep_and_verify_still_run(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("command = sweep\ncolumns = T,C\n[model]\nmodel = xx\nJ = -1\n"
                      "[grid:T]\nmin = 0.1\nmax = 2\nsteps = 5\n")
    sweep = MAIN.format(argv=["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert run_fresh(sweep, tmp_path) == (0, False)
    assert len((tmp_path / "o").read_text().splitlines()) == 6
    assert run_fresh(MAIN.format(argv=["verify"]), tmp_path) == (0, False)


def test_every_command_runs_with_numpy_blocked(tmp_path):
    sweep = "command = sweep\n[model]\nmodel = xxz\nJ = -1\ndelta = 0.5\n[grid:T]\n" \
            "min = 0.1\nmax = 2\nsteps = 5\n"
    (tmp_path / "sweep.cfg").write_text(sweep)
    model = ["--model", "xxzfield", "--J=1", "--delta=1", "--B=2"]
    runs = [["eig", *model], ["thermal", *model, "--T=1"], ["concurrence", *model, "--T=0.5"],
            ["critical", "--model", "xxz", "--J=-1", "--delta=0.5"], ["verify"],
            ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"],
            ["sweep", "--config", "sweep.cfg", "--format", "json", "--out", "sweep.json"]]
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # a None entry makes `import numpy` raise\n"
            "import spinthermal\n"
            f"from spinthermal.cli import main\ncode = [main(argv) for argv in {runs!r}]\n")
    assert run_fresh(code, tmp_path)[0] == [0] * len(runs)  # numpy stays in sys.modules, as None
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 6
    assert len(json.loads((tmp_path / "sweep.json").read_text())["rows"]) == 5
