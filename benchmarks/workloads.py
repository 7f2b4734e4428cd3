"""The four workloads: seeded inputs, timed passes, metrics and gate.

A *pass* is one unit of a workload: one CLI sweep process on the
sweeps, one round of four CLI processes on ``cli_short``, one in-process
pass over the generated points on ``crossroute_wide``.  An *operation*
(what ``attempted`` and ``failed`` count) is one grid row on the sweeps,
one point on ``crossroute_wide`` and one distinct CLI call (command and
arguments) on ``cli_short``.  Each counts once per run, however many
passes repeat it, and fails if it failed in any of them.

Load is a closed loop with one client: this process starts at most one
child at a time and waits for it before the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gate
import pipeline
import tracing
from probe import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchrun"

WORKLOADS = ("sweep2d_xxz_tc", "sweep2d_field", "crossroute_wide", "cli_short")

# Times are reported as on a host where probe.reference_s() reads
# REFERENCE_S: its typical value on the 2-vCPU Xeon virtual machine (Python 3.11.7)
# the benchmark was written on.
REFERENCE_S = 0.018
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
CROSSROUTE_POINTS = 1000
CROSSROUTE_CHUNK = 100  # points between two reference timings
CLI_SHORT_ROUNDS = 8    # distinct rounds of inputs; a run makes at least this many
RUN_BUDGET = 165.0      # no child is started that could outlive this many seconds
# Every time is taken three ways: scaled by the host's speed (what the
# result reports), raw wall time, and CPU time (user + system).  The
# last two go to the record only, to show what the scaling buys.
CLOCKS = ("scaled", "raw", "cpu")

SWEEPS = {
    "sweep2d_xxz_tc": gate.SweepSpec(
        model={"variant": "xxz", "J": -1.0, "delta": 0.0},
        axes=(("T", 0.05, 4.0, 200), ("delta", -3.0, 0.99, 200)),
        columns=("T", "delta", "C", "witness", "T_c"), fmt="csv"),
    "sweep2d_field": gate.SweepSpec(
        model={"variant": "xxzfield", "J": 1.0, "delta": 1.0, "B": 0.0},
        axes=(("T", 0.02, 4.0, 200), ("B", 0.0, 3.0, 200)),
        columns=("T", "B", "C", "witness", "Z"), fmt="json"),
}
# The README's concurrence-vs-temperature figure.
FIGURE = gate.SweepSpec(
    model={"variant": "xxzfield", "J": 1.0, "delta": 1.0, "B": 2.0},
    axes=(("T", 0.02, 4.0, 200),), columns=("T", "C"), fmt="csv")

PER_LAYER = (
    "analysis.sweep.calls", "analysis.sweep.busy_s", "analysis.sweep.self_s",
    "analysis.xxz_critical.calls", "analysis.xxz_critical.busy_s",
    "analysis.xxz_critical.self_s", "analysis.xx_critical.calls",
    "analysis.xxz_region.calls", "analysis.field_region.calls",
    "analysis.critical.distinct_ratio", "analysis.critical.noroot",
    "concurrence.concurrence_closed_form.calls", "concurrence.concurrence_closed_form.self_s",
    "concurrence.closed_form_xstate.calls", "concurrence.closed_form_xstate.self_s",
    "concurrence.concurrence_general.calls", "concurrence.concurrence_general.self_s",
    "concurrence.closed_form.ok_ratio", "concurrence.closed_form.max_route_dev",
    "linalg.hermitian_eigen.calls", "linalg.hermitian_eigen.self_s",
    "linalg.psd_sqrt.calls", "linalg.psd_sqrt.self_s",
    "spinmodel.build_hamiltonian.calls", "spinmodel.build_hamiltonian.self_s",
    "thermalstate.gibbs_density.calls", "thermalstate.gibbs_density.self_s",
    "thermalstate.partial_trace.calls", "thermalstate.partial_trace.self_s",
    "cli.main.busy_s", "cli.parse_config.busy_s", "cli.render_csv.busy_s",
    "cli.render_json.busy_s", "cli.run_verification.busy_s",
    "cli.import.numpy_s", "cli.import.spinthermal_s",
    "trace.overhead_s", "trace.spans",
)


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".noroot", ".spans")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_route_dev"):
        return "concurrence"
    return "s"


# ---------------------------------------------------------------------------
# children and in-process calls

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Budget:
    """Wall-clock allowance of one run; children get what is left of it."""

    def __init__(self) -> None:
        self.start = time.monotonic()

    def timeout(self) -> float:
        left = RUN_BUDGET - (time.monotonic() - self.start)
        if left < 1.0:
            raise TimeoutError("run budget spent")
        return left


def run_child(args: list[str], cwd: Path, budget: Budget) -> dict:
    """Run ``python <args>`` to completion; returns exit code, times, peak RSS, output.

    ``os.wait4`` gives this child's own peak resident set and CPU time.  A timer
    kills the child if it outlives the run budget.
    """
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(budget.timeout(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "started": started, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")}


def run_probe(mode: str, args: list[str], cwd: Path, budget: Budget) -> dict:
    """``probe.py <mode> <args>`` as a child; adds its times on each of :data:`CLOCKS`.

    ``time`` is the child's lifetime and ``setup`` its start-up until
    the work ended, both without the probe's reference loops; ``scaled``
    is the raw wall time scaled by the speed those loops measured.  A
    child that died without a report keeps its unscaled times.
    """
    child = run_child([str(HERE / "probe.py"), mode, *args], cwd, budget)
    head, _, report = child["stderr"].rstrip("\n").rpartition("\n")
    if not report.startswith("@probe "):
        child.update(time=dict(scaled=child["wall"], raw=child["wall"], cpu=child["cpu"]),
                     factor=1.0)
        child["setup"] = child["time"]
        return child
    reference, pre, post, work_end, ref_cpu, setup_cpu = (float(x) for x in report.split()[1:])
    factor = REFERENCE_S / reference
    raw = child["wall"] - pre - post
    raw_setup = work_end - child["started"] - pre
    child.update(stderr=head, factor=factor,
                 time=dict(scaled=raw * factor, raw=raw, cpu=child["cpu"] - ref_cpu),
                 setup=dict(scaled=raw_setup * factor, raw=raw_setup, cpu=setup_cpu))
    return child


def call_main(argv: list[str]) -> tuple[int, str]:
    """``spinthermal.cli.main(argv)`` in this process, capturing its output."""
    from spinthermal import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaping fault is a failed call, as exit 1 would be
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads

def sweep_config(spec: gate.SweepSpec, out_path: Path) -> str:
    model = dict(spec.model)
    lines = ["command = sweep", f"format = {spec.fmt}", f"out = {out_path}",
             "columns = " + ",".join(spec.columns), "", "[model]",
             f"model = {model.pop('variant')}"]
    lines += [f"{key} = {value!r}" for key, value in model.items()]
    for name, lo, hi, steps in spec.axes:
        lines += ["", f"[grid:{name}]", f"min = {lo!r}", f"max = {hi!r}", f"steps = {steps}"]
    return "\n".join(lines) + "\n"


def _flatten(per_pass: list[list[float]]) -> list[float]:
    """Every call of every pass is one latency sample."""
    return [t for times in per_pass for t in times]


def _failed_sweep(spec: gate.SweepSpec, why: str) -> gate.Verdict:
    rows = math.prod(steps for *_, steps in spec.axes)
    verdict = gate.Verdict(attempted=rows, failed=rows, failed_ids=set(range(rows)))
    verdict.note(why)
    return verdict


class SweepWorkload:
    """One CLI ``sweep`` per pass; every grid row is one operation."""

    min_passes = 1

    def __init__(self, name: str, spec: gate.SweepSpec, seed: int, rundir: Path) -> None:
        self.spec = spec
        self.points = math.prod(steps for *_, steps in spec.axes)
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.out = rundir / f"sweep.{spec.fmt}"
        self.config = rundir / "sweep.ini"
        self.config.write_text(sweep_config(spec, self.out), encoding="utf-8")
        self.argv = ["sweep", "--config", str(self.config)]
        self.outputs: dict[str, str | None] = {}
        self.pass_keys: list[str] = []

    def _collect(self, code: int) -> None:
        text = self.out.read_text(encoding="utf-8") if code == 0 and self.out.exists() else None
        key = gate.digest(text) if text is not None else f"exit {code}"
        self.outputs.setdefault(key, text)
        self.pass_keys.append(key)
        self.out.unlink(missing_ok=True)

    def timed_pass(self, rundir: Path, budget: Budget, speed: "Speed"):
        self.out.unlink(missing_ok=True)
        child = run_probe("cli", self.argv, rundir, budget)
        self._collect(child["code"])
        times = {clock: (t, [t]) for clock, t in child["time"].items()}
        return times, child["rss_mb"], child["factor"]

    def inproc_pass(self, tracer, speed: "Speed") -> tuple[float, float]:
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        code, _ = call_main(self.argv)
        wall = time.perf_counter() - start
        factor = speed.factor()
        self._collect(code)
        return wall * factor, factor

    def check(self) -> gate.Verdict:
        checked = {key: gate.check_sweep(text, self.spec, self.rng) if text is not None
                   else _failed_sweep(self.spec, f"sweep {key}")
                   for key, text in self.outputs.items()}
        verdict = gate.Verdict()
        for key in self.pass_keys:
            verdict.merge(checked[key])
        verdict.count_once(self.points)
        return verdict

    def digests(self) -> list[str]:
        return self.pass_keys

    call_samples = staticmethod(_flatten)


def crossroute_points(seed: int, count: int) -> list[dict]:
    """Points split equally over the four variants, |J|/T and |B|/T up to 1e3."""
    rng = np.random.default_rng([seed, WORKLOADS.index("crossroute_wide")])

    def coupling(T: float) -> float:
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0) * T)

    points = []
    for i in range(count):
        variant = ("xx", "xxz", "xxzfield", "xyz")[i % 4]
        T = float(10.0 ** rng.uniform(-2.0, 1.0))
        point: dict = {"variant": variant}
        if variant == "xyz":
            for key in ("J1", "J2", "J3", "B1", "B2", "B3"):
                point[key] = coupling(T)
        else:
            point["J"] = coupling(T)
            if variant != "xx":
                point["delta"] = float(rng.uniform(-3.0, 2.0))
            if variant == "xxzfield":
                point["B"] = coupling(T)
        point["T"] = T
        points.append(point)
    return points


class CrossrouteWorkload:
    """In-process library calls over seeded points; every point is one operation."""

    min_passes = 1

    def __init__(self, seed: int, rundir: Path) -> None:
        self.inputs = crossroute_points(seed, CROSSROUTE_POINTS)
        (rundir / "points.json").write_text(json.dumps(self.inputs, indent=1), encoding="utf-8")
        self.points = len(self.inputs)
        self.verdict = gate.Verdict()
        self.outcomes: list[str] = []

    def _pass(self, tracer, speed: "Speed") -> tuple[dict, float]:
        """One pass over the points, scaled chunk by chunk.

        Returns ``{clock: (wall, latencies)}`` over :data:`CLOCKS` and
        the mean speed factor.
        """
        results, factors = [], []
        latencies: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
        walls = dict.fromkeys(CLOCKS, 0.0)
        wall_clock, cpu_clock = time.perf_counter, time.process_time
        for first in range(0, len(self.inputs), CROSSROUTE_CHUNK):
            raw, cpu = [], []
            start, cpu_start = wall_clock(), cpu_clock()
            for i in range(first, min(first + CROSSROUTE_CHUNK, len(self.inputs))):
                if tracer is not None:
                    tracer.op = i
                t0, c0 = wall_clock(), cpu_clock()
                results.append(pipeline.run_point(self.inputs[i]))
                raw.append(wall_clock() - t0)
                cpu.append(cpu_clock() - c0)
            elapsed, cpu_elapsed = wall_clock() - start, cpu_clock() - cpu_start
            factor = speed.factor()
            factors.append(factor)
            walls["scaled"] += elapsed * factor
            walls["raw"] += elapsed
            walls["cpu"] += cpu_elapsed
            latencies["scaled"].extend(t * factor for t in raw)
            latencies["raw"].extend(raw)
            latencies["cpu"].extend(cpu)
        verdict = gate.check_points(self.inputs, results)
        self.verdict.merge(verdict)
        self.outcomes.append(f"{verdict.failed}/{verdict.attempted} failed")
        return {clock: (walls[clock], latencies[clock]) for clock in CLOCKS}, \
            statistics.fmean(factors)

    def timed_pass(self, rundir: Path, budget: Budget, speed: "Speed"):
        times, factor = self._pass(None, speed)
        return times, _self_rss_mb(), factor

    def inproc_pass(self, tracer, speed: "Speed") -> tuple[float, float]:
        times, factor = self._pass(tracer, speed)
        return times["scaled"][0], factor

    def check(self) -> gate.Verdict:
        self.verdict.count_once(self.points)
        return self.verdict

    def digests(self) -> list[str]:
        return self.outcomes

    @staticmethod
    def call_samples(per_pass: list[list[float]]) -> list[float]:
        """One latency per point, its median over the passes: a point's own
        cost, not the scheduler hiccup one of its repeats happened to hit."""
        return [statistics.median(times) for times in zip(*per_pass)]


class CliShortWorkload:
    """Rounds of ``verify``, the figure sweep, ``concurrence`` and ``critical``."""

    def __init__(self, seed: int, rundir: Path) -> None:
        rng = np.random.default_rng([seed, WORKLOADS.index("cli_short")])
        self.rng = rng
        self.figure_out = rundir / "figure.csv"
        self.figure_config = rundir / "figure.ini"
        self.figure_config.write_text(sweep_config(FIGURE, self.figure_out), encoding="utf-8")
        self.inputs = [{
            "concurrence": {"variant": "xxzfield",
                            "J": float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)),
                            "delta": float(rng.uniform(-1.0, 2.0)),
                            "B": float(rng.uniform(0.0, 3.0)),
                            "T": float(rng.uniform(0.2, 3.0))},
            "critical_J": float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)),
        } for _ in range(CLI_SHORT_ROUNDS)]
        (rundir / "points.json").write_text(json.dumps(self.inputs, indent=1), encoding="utf-8")
        self.points = FIGURE.axes[0][3] + 1
        self.min_passes = CLI_SHORT_ROUNDS
        self.round = 0
        self.outputs: dict = {}
        self.call_keys: list = []
        self.call_ops: list = []

    def _calls(self) -> list[tuple[str, list[str], dict]]:
        inputs = self.inputs[self.round % len(self.inputs)]
        self.round += 1
        point = inputs["concurrence"]
        return [
            ("verify", ["verify"], {}),
            ("figure", ["sweep", "--config", str(self.figure_config)], {}),
            ("concurrence", ["concurrence", "--model", "xxzfield"]
             + [f"--{key}={point[key]!r}" for key in ("J", "delta", "B", "T")], point),
            ("critical", ["critical", "--model", "xx", f"--J={inputs['critical_J']!r}"], {}),
        ]

    def _collect(self, kind: str, argv: list[str], code: int, stdout: str,
                 point: dict) -> None:
        text = None
        if kind == "figure":
            if code == 0 and self.figure_out.exists():
                text = self.figure_out.read_text(encoding="utf-8")
            self.figure_out.unlink(missing_ok=True)
        key = (kind, code, gate.digest(stdout), gate.digest(text or ""), json.dumps(point))
        self.outputs.setdefault(key, (stdout, text, point))
        self.call_keys.append(key)
        self.call_ops.append((kind, *argv))

    def timed_pass(self, rundir: Path, budget: Budget, speed: "Speed"):
        """One round, scaled by this process's reference loop before and after it.

        A child of about 0.3 s is too short for its own reference loop:
        that loop, run next to interpreter start, read the host's speed
        with more spread between runs than the calls themselves had.
        """
        latencies: dict[str, list[float]] = {clock: [] for clock in ("raw", "cpu")}
        rss = 0.0
        for kind, argv, point in self._calls():
            child = run_child(["-m", "spinthermal.cli", *argv], rundir, budget)
            self._collect(kind, argv, child["code"], child["stdout"], point)
            latencies["raw"].append(child["wall"])
            latencies["cpu"].append(child["cpu"])
            rss = max(rss, child["rss_mb"])
        factor = speed.factor()
        latencies["scaled"] = [t * factor for t in latencies["raw"]]
        times = {clock: (sum(times), times) for clock, times in latencies.items()}
        return times, rss, factor

    def inproc_pass(self, tracer, speed: "Speed") -> tuple[float, float]:
        wall, factors = 0.0, []
        for op, (kind, argv, point) in enumerate(self._calls()):
            if tracer is not None:
                tracer.op = op
            start = time.perf_counter()
            code, stdout = call_main(argv)
            elapsed = time.perf_counter() - start
            factors.append(speed.factor())
            wall += elapsed * factors[-1]
            self._collect(kind, argv, code, stdout, point)
        return wall, statistics.fmean(factors)

    def _check_call(self, key) -> gate.Verdict:
        kind, code = key[0], key[1]
        stdout, text, point = self.outputs[key]
        if kind == "verify":
            return gate.check_verify(code, stdout)
        if kind == "critical":
            return gate.check_critical(code, stdout)
        if kind == "concurrence":
            return gate.check_concurrence(code, stdout, point)
        verdict = gate.Verdict(attempted=1)
        if text is None:
            verdict.failed = 1
            verdict.note(f"figure sweep: exit {code}")
            return verdict
        rows = gate.check_sweep(text, FIGURE, self.rng)
        verdict.malformed = rows.malformed
        verdict.notes = rows.notes
        verdict.route_dev = rows.route_dev
        verdict.closed_attempts, verdict.closed_ok = rows.closed_attempts, rows.closed_ok
        verdict.failed = 1 if rows.failed or rows.malformed else 0
        return verdict

    def check(self) -> gate.Verdict:
        checked = {key: self._check_call(key) for key in self.outputs}
        verdict = gate.Verdict()
        for op, key in zip(self.call_ops, self.call_keys):
            verdict.merge(checked[key])
            if checked[key].failed:
                verdict.failed_ids.add(op)
        verdict.count_once(len(set(self.call_ops)))
        return verdict

    def digests(self) -> list[str]:
        return sorted({f"{key[0]}:{key[2]}:{key[3]}" for key in self.outputs})

    call_samples = staticmethod(_flatten)


def make_workload(name: str, seed: int, rundir: Path):
    if name in SWEEPS:
        return SweepWorkload(name, SWEEPS[name], seed, rundir)
    if name == "crossroute_wide":
        return CrossrouteWorkload(seed, rundir)
    return CliShortWorkload(seed, rundir)


# ---------------------------------------------------------------------------
# measurement

def _self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Speed:
    """How fast the host runs Python right now, against :data:`REFERENCE_S`.

    The host's speed drifts by 15-20 % over tens of seconds, and every
    timed stretch of work drifts with it.  The reference loop is timed in
    the same process right before and after the work (by this object in
    process and around each ``cli_short`` round, by ``probe.py`` in a
    longer child); ``factor()`` scales the work's time to a host on
    which the loop takes ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.last = reference_s()

    def factor(self) -> float:
        """Scale for the pass that ended just now (reference before and after it)."""
        before, self.last = self.last, reference_s()
        return REFERENCE_S / ((before + self.last) / 2.0)


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    Below twenty samples that percentile would fall under the median,
    so the median is reported instead, as the 50th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(name: str, workload, rundir: Path, budget: Budget) -> dict[str, list]:
    """Fresh interpreter to ``import spinthermal.cli`` returning (plus one warm-up
    point on ``crossroute_wide``), on each of :data:`CLOCKS`; the wall
    times come from the shared monotonic clock."""
    if name == "crossroute_wide":
        mode, args = "setup-point", [json.dumps(workload.inputs[0])]
    else:
        mode, args = "setup", []
    times: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
    for _ in range(SETUP_REPEATS):
        child = run_probe(mode, args, rundir, budget)
        if child["code"] != 0:
            raise RuntimeError(f"set-up probe failed: {child['stderr'].strip()[-300:]}")
        for clock in CLOCKS:
            times[clock].append(child["setup"][clock])
    return times


def measure_imports(rundir: Path, budget: Budget) -> tuple[float, float]:
    """Median import cost of numpy and of spinthermal's own modules (``-X importtime``).

    numpy is its cumulative time; spinthermal is the sum of the self
    times of its modules, so the two do not overlap.
    """
    numpy_s, own_s = [], []
    for _ in range(IMPORT_REPEATS):
        child = run_child(["-X", "importtime", "-c", "import spinthermal.cli"], rundir, budget)
        if child["code"] != 0:
            raise RuntimeError(f"import probe failed: {child['stderr'].strip()[-300:]}")
        numpy_us = own_us = 0
        for line in child["stderr"].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue
            if fields[2] == "numpy":
                numpy_us = int(fields[1])
            elif fields[2].split(".")[0] == "spinthermal":
                own_us += int(fields[0])
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return statistics.median(numpy_s), statistics.median(own_s)


def _result(verdict: gate.Verdict, metrics: dict) -> dict:
    return {
        "correct": not verdict.malformed,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed if verdict.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _verdict_record(verdict: gate.Verdict) -> dict:
    return {
        "attempted": verdict.attempted, "failed": verdict.failed,
        "fail_frac": verdict.failed / verdict.attempted if verdict.attempted else None,
        "max_route_dev": verdict.route_dev,
        "closed_ok": verdict.closed_ok, "closed_attempts": verdict.closed_attempts,
        "noroot_rows": verdict.noroot, "malformed": verdict.malformed,
        "notes": verdict.notes,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the full record."""
    rundir = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    budget = Budget()
    workload = make_workload(name, seed, rundir)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": sorted(p.name for p in rundir.iterdir())}
    if trace:
        metrics = _traced(workload, rundir, seconds, budget, record)
    else:
        metrics = _untraced(name, workload, rundir, seconds, budget, record)
    verdict = workload.check()
    if trace:
        passes = len(record["traced_s"]) + len(record["untraced_s"])
        metrics["analysis.critical.noroot"] = (verdict.noroot / passes, "count")
        metrics["concurrence.closed_form.ok_ratio"] = (
            verdict.closed_ok / verdict.closed_attempts if verdict.closed_attempts else 0.0,
            "ratio")
        metrics["concurrence.closed_form.max_route_dev"] = (verdict.route_dev, "concurrence")
        metrics = {key: metrics[key] for key in PER_LAYER}
    record["gate"] = _verdict_record(verdict)
    record["digests"] = workload.digests()
    result = _result(verdict, metrics)
    record["result"] = result
    (rundir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, record


def _time_metrics(workload, setups: list, walls: list, calls: list) -> tuple[dict, dict]:
    """The end-to-end time metrics on one clock, and where ``call_tail_s`` sits."""
    wall = statistics.median(walls)
    calls = workload.call_samples(calls)
    tail, percentile, samples = tail_latency(calls)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (workload.points / wall, "1/s"),
        "call_p50_s": (statistics.median(calls), "s"),
        "call_tail_s": (tail, "s"),
    }, {"percentile": percentile, "samples": samples}


def _untraced(name, workload, rundir, seconds, budget, record) -> dict:
    setups = measure_setup(name, workload, rundir, budget)
    speed = Speed()
    walls: dict[str, list] = {clock: [] for clock in CLOCKS}
    calls: dict[str, list] = {clock: [] for clock in CLOCKS}
    factors, rss = [], 0.0
    start = time.monotonic()
    while True:
        times, peak, factor = workload.timed_pass(rundir, budget, speed)
        for clock, (wall, latencies) in times.items():
            walls[clock].append(wall)
            calls[clock].append(latencies)
        factors.append(factor)
        rss = max(rss, peak)
        if time.monotonic() - start >= seconds and len(factors) >= workload.min_passes:
            break
    metrics, tails = {}, {}
    for clock in CLOCKS:
        metrics[clock], tails[clock] = _time_metrics(workload, setups[clock], walls[clock],
                                                     calls[clock])
    record.update(setup_s=setups["scaled"], pass_s=walls["scaled"], speed_factors=factors,
                  call_tail=tails["scaled"],
                  unscaled={clock: {key: value for key, (value, _) in metrics[clock].items()}
                            for clock in CLOCKS if clock != "scaled"})
    return {**metrics["scaled"], "peak_rss_mb": (rss, "MB")}


def _traced(workload, rundir, seconds, budget, record) -> dict:
    """Alternate untraced and traced in-process passes; per-layer numbers per pass."""
    numpy_s, own_s = measure_imports(rundir, budget)
    speed = Speed()
    untraced, traced, tracers, factors = [], [], [], []
    start = time.monotonic()
    while True:
        # Alternate which side runs first, so warm-up and drift do not bias the overhead.
        for side in ((0, 1) if len(tracers) % 2 == 0 else (1, 0)):
            if side:
                tracer = tracing.Tracer()
                with tracer:
                    wall, factor = workload.inproc_pass(tracer, speed)
                traced.append(wall)
                factors.append(factor)
                tracers.append(tracer)
            else:
                untraced.append(workload.inproc_pass(None, speed)[0])
        if (time.monotonic() - start >= seconds
                and len(traced) + len(untraced) >= workload.min_passes):
            break
    totals: dict[str, float] = {}
    for tracer, factor in zip(tracers, factors):
        for key, value in tracer.totals().items():
            scale = factor if unit_of(key) == "s" else 1.0
            totals[key] = totals.get(key, 0.0) + value * scale
    metrics = {key: (totals.get(key, 0.0) / len(tracers), unit_of(key)) for key in PER_LAYER}
    metrics["cli.import.numpy_s"] = (numpy_s, "s")
    metrics["cli.import.spinthermal_s"] = (own_s, "s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (sum(len(t.spans) for t in tracers) / len(tracers), "count")
    with open(rundir / "spans.csv", "w", encoding="utf-8") as handle:
        handle.write("name,start,end,parent,pass,op\n")
        offset = 0
        for pass_index, tracer in enumerate(tracers):
            offset += tracer.write(handle, pass_index, offset)
    record.update(untraced_s=untraced, traced_s=traced, overhead_s=overhead,
                  speed_factors=factors)
    return metrics
