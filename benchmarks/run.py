"""spinthermal benchmark runner.

Run from the repository root; the program runs from ``src/`` as it is::

    python3 benchmarks/run.py --workload sweep2d_xxz_tc --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

With one workload, the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``--workload all`` runs each workload in turn, one
runner process at a time, and prints every metric by name and unit with
the correctness verdict and failure fraction of each.

Times are scaled by the host's speed, measured with a fixed reference
loop in the same process as the work (see ``probe.py`` and
``workloads.Speed``), or in the runner around each round of the short
CLI calls of ``cli_short``: they read as seconds on a host where the
loop takes ``workloads.REFERENCE_S``.  Memory and counts are as measured.
The record also keeps each time metric as raw wall time and as CPU
time, unscaled.

``correct`` is false only when an output cannot be checked at all
(wrong header, wrong row count, unparsable text).  A value the gate
finds wrong or missing, or a call that raises, counts in ``failed``.
Inputs, output digests, the gate's findings and (traced) the spans are
written to ``.benchrun/<workload>-seed<n>[-trace]/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args(argv):
    parser = argparse.ArgumentParser(description="spinthermal benchmark runner")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_all(args, names) -> int:
    """Every workload in its own runner process, then one table."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: runner exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        suffix = "-trace" if args.trace else ""
        record = json.loads((ROOT / ".benchrun" / f"{name}-seed{args.seed}{suffix}"
                             / "record.json").read_text(encoding="utf-8"))
        gate = record["gate"]
        print(f"== {name}  seed {args.seed}  correct={result['correct']}  "
              f"failed {result['failed']}/{result['attempted']} "
              f"(fail_frac {gate['fail_frac']:.4g})  max_route_dev {gate['max_route_dev']:.3g}")
        for metric, body in result["metrics"].items():
            print(f"  {metric:<44} {body['value']:>14.6g} {body['unit']}")
        if "call_tail" in record:
            tail = record["call_tail"]
            print(f"  {'(call_tail_s is p' + format(tail['percentile'], '.4g')}"
                  f" of {tail['samples']} calls)")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    # A terminated runner unwinds like an interrupted one: it kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _args(argv)
    if not (ROOT / "src" / "spinthermal" / "cli.py").is_file():
        print(f"no spinthermal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return report_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or all",
              file=sys.stderr)
        return 2

    result, record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    gate = record["gate"]
    print(f"{args.workload} seed {args.seed}: failed {gate['failed']}/{gate['attempted']}, "
          f"max_route_dev {gate['max_route_dev']:.3g}, malformed {gate['malformed']}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
