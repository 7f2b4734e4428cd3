"""Time one spinthermal process between two timings of a reference loop.

    python3 benchmarks/probe.py cli <spinthermal arguments...>
    python3 benchmarks/probe.py setup
    python3 benchmarks/probe.py setup-point <point as JSON>

``cli`` runs ``spinthermal.cli`` as ``python -m spinthermal.cli`` would;
``setup`` imports it; ``setup-point`` imports it and runs one
cross-route point.  The reference loop is timed in this same process
before and after the work, and a shorter slice of it every
``SAMPLE_EVERY`` seconds during the work (from a timer signal), so the
runner can scale the process's time by the speed the host gave it (see
``workloads.Speed``).  The last line of stderr is
``@probe reference pre post work_end ref_cpu setup_cpu``: the mean
reference time, the seconds spent in reference loops before, and during
plus after, the work, the monotonic clock when the work ended, the CPU
seconds of all reference loops, and the process's CPU seconds up to the
end of the work without those of the loops.  The probe imports nothing
before the work that the program would not import itself.
"""

from __future__ import annotations

import signal
import sys
import time

REFERENCE_LOOPS = 150_000
SAMPLE_LOOPS = 15_000
SAMPLE_EVERY = 0.25


def _loop(count: int) -> float:
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(count):
        total += i * 0.5
        table[i & 255] = total
    return time.perf_counter() - start


def reference_s() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    return sorted(_loop(REFERENCE_LOOPS) for _ in range(3))[1]


class _Sampler:
    """Times a slice of the reference loop on every timer signal."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.cpu = 0.0

    def __call__(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        self.samples.append(_loop(SAMPLE_LOOPS) * (REFERENCE_LOOPS / SAMPLE_LOOPS))
        self.spent += time.perf_counter() - start
        self.cpu += time.process_time() - cpu


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    start = time.monotonic()
    cpu = time.process_time()
    before = reference_s()
    pre_cpu = time.process_time() - cpu
    sampler = _Sampler()
    signal.signal(signal.SIGALRM, sampler)
    work_start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
    code = 0
    try:
        if mode == "cli":
            import runpy

            sys.argv = ["spinthermal", *args]
            try:
                runpy.run_module("spinthermal.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        else:
            import spinthermal.cli  # noqa: F401

            if mode == "setup-point":
                import json

                import pipeline

                pipeline.run_point(json.loads(args[0]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        work_end = time.monotonic()
        cpu = time.process_time()
        after = reference_s()
        post = time.monotonic() - work_end + sampler.spent
        ref_cpu = pre_cpu + sampler.cpu + time.process_time() - cpu
        references = [before, *sampler.samples, after]
        sys.stdout.flush()
        print(f"@probe {sum(references) / len(references)!r} {work_start - start!r} "
              f"{post!r} {work_end - sampler.spent!r} {ref_cpu!r} "
              f"{cpu - pre_cpu - sampler.cpu!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
