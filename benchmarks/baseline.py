"""Repeat the benchmark over seeds and summarise it; writes the seed baseline.

    python3 benchmarks/baseline.py --seeds 10 --sets 2 --traced --out benchmarks/baseline.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``.  Each
set runs every workload once per seed (set k uses seeds
``1 + k*seeds ...``), seeds outermost so slow drift of the machine
spreads over all workloads.  For each end-to-end metric it reports the
median, quartiles (``statistics.quantiles(n=4)``), sample count and the
spread ``(q3 - q1) / median`` against the metric's bound in
``BENCHMARK.json``; with two sets, how far the second median moved
from the first.  For the time metrics it also gives the spreads of
the same runs' raw wall and CPU times, which the runner records next
to the scaled ones it reports.  ``--traced`` adds one traced run per
workload, for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One runner process; its result line plus ``elapsed``, the run's wall time,
    and (untraced) the raw wall and CPU times from its record."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.monotonic() - start
    if not trace:
        record = ROOT / ".benchrun" / f"{workload}-seed{seed}" / "record.json"
        result["unscaled"] = json.loads(record.read_text(encoding="utf-8"))["unscaled"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs: dict = {name: [] for name in names}
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = FIRST_SEED + k * args.seeds + i
            for name in names:
                result = run_once(name, seed, seconds, 0)
                runs[name].append({"set": k, "seed": seed, **result})
                print(f"set {k} {name} seed {seed}: {json.dumps(result)}", flush=True)

    summary: dict = {}
    worst = []
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            per_set = [[r["metrics"][metric]["value"] for r in runs[name] if r["set"] == k]
                       for k in range(args.sets)]
            entry = {"unit": runs[name][0]["metrics"][metric]["unit"], "bound": bound,
                     "sets": [summarise(v) for v in per_set]}
            for clock, values in runs[name][0]["unscaled"].items():
                if metric in values:
                    entry[f"{clock}_spreads"] = [
                        summarise([r["unscaled"][clock][metric] for r in runs[name]
                                   if r["set"] == k])["spread"] for k in range(args.sets)]
            first = entry["sets"][0]["median"]
            better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
            if args.sets > 1:
                last = entry["sets"][-1]["median"]
                sign = 1 if better == "lower" else -1
                entry["second_vs_first"] = sign * (last - first) / first
            summary[name][metric] = entry
            for s in entry["sets"]:
                worst.append((s["spread"] / bound, name, metric, s["spread"], bound))
        fail = [r["failed"] / r["attempted"] for r in runs[name]]
        summary[name]["fail_frac"] = summarise(fail) if len(fail) > 1 else {"median": fail[0]}
        summary[name]["correct"] = all(r["correct"] for r in runs[name])
        summary[name]["run_elapsed_s"] = summarise([r["elapsed"] for r in runs[name]])

    print("\nworkload         metric          median       spread  bound  second-vs-first"
          "   raw / cpu spreads")
    for name in names:
        for metric in bounds:
            e = summary[name][metric]
            moved = e.get("second_vs_first")
            spreads = "/".join(f"{s['spread']:.3f}" for s in e["sets"])
            flag = "" if all(s["spread"] < e["bound"] / 3 for s in e["sets"]) else "  WIDE"
            if moved is not None and moved > e["bound"]:
                flag += "  DRIFT"
            unscaled = " ".join("/".join(f"{x:.3f}" for x in e[key])
                                for key in ("raw_spreads", "cpu_spreads") if key in e)
            print(f"{name:<16} {metric:<13} {e['sets'][0]['median']:>12.5g} {spreads:>12} "
                  f"{e['bound']:>6} {'' if moved is None else format(moved, '+.3f'):>8}"
                  f"   {unscaled}{flag}")
        print(f"{name:<16} fail_frac     {summary[name]['fail_frac']['median']:>12.5g}"
              f"   correct={summary[name]['correct']}")
    mean_run = statistics.fmean(r["elapsed"] for name in names for r in runs[name])
    print(f"\nmean run {mean_run:.1f} s; a full pass of 4 + 22 x {len(names)} runs "
          f"would take about {(4 + 22 * len(names)) * mean_run:.0f} s")
    worst.sort(reverse=True)
    print("\nwidest spreads (share of bound):",
          ", ".join(f"{n}/{m} {r:.2f}" for r, n, m, *_ in worst[:5]))

    layers = {}
    if args.traced:
        for name in names:
            result = run_once(name, FIRST_SEED, seconds, 1)
            layers[name] = {m: v["value"] for m, v in result["metrics"].items()}
            print(f"traced {name}: overhead {layers[name]['trace.overhead_s']:.3g} s", flush=True)

    if args.out:
        why = {w["name"]: w["why"] for w in bench["workloads"]}
        payload = {
            "environment": environment(),
            "run_seconds": seconds,
            "seeds": {"first": FIRST_SEED, "per_set": args.seeds, "sets": args.sets},
            "workloads": {name: {"why": why.get(name), "end_to_end": summary[name],
                                 "per_layer": layers.get(name)} for name in names},
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
