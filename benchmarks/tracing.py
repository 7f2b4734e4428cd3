"""Timing wrappers around spinthermal's public functions, for traced runs.

Modules bind each other's functions by name (``from .linalg import
hermitian_eigen``), so a wrapper replaces the function in every loaded
spinthermal module that holds it.  Spanned functions record
``(name, start, end, parent, operation)`` in memory; the region
witnesses run millions of times per sweep and are only counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANNED = {
    "analysis": ("sweep", "xx_critical", "xxz_critical"),
    "cli": ("main", "parse_config", "render_csv", "render_json", "run_verification"),
    "concurrence": ("concurrence_general", "concurrence_closed_form",
                    "closed_form_xstate", "concurrence_xstate"),
    "linalg": ("hermitian_eigen", "psd_sqrt"),
    "spinmodel": ("build_hamiltonian",),
    "thermalstate": ("gibbs_density", "partial_trace"),
}
COUNTED = {"analysis": ("xxz_region", "field_region")}
CRITICAL = ("analysis.xx_critical", "analysis.xxz_critical")


class Tracer:
    """Spans and counts of one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []           # (name index, start, end, parent index, op)
        self.counts: dict[str, int] = defaultdict(int)
        self.critical_args: set = set()
        self.op = 0
        self._stack: list[int] = []
        self._bound: list = []          # (module, attribute, original)

    def _spanned(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        critical = name in CRITICAL

        def wrapper(*args, **kwargs):
            if critical:
                self.critical_args.add((index, args))
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent, self.op)
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import spinthermal.cli  # noqa: F401  (load every module before rebinding)

        modules = [m for n, m in sys.modules.items()
                   if n == "spinthermal" or n.startswith("spinthermal.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for short, names in table.items():
                home = sys.modules[f"spinthermal.{short}"]
                for attr in names:
                    original = getattr(home, attr)
                    wrapper = make(f"{short}.{attr}", original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._bound.append((module, key, original))
                                setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bound):
            setattr(module, key, original)
        self._bound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, float]:
        """``<name>.calls``, ``.busy_s`` (inclusive) and ``.self_s`` for this pass.

        Self time is a span minus its direct children; busy time skips
        spans nested inside a span of the same function.
        """
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for slot, (index, start, end, parent, _) in enumerate(self.spans):
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[slot]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != index:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.busy_s"] += end - start
        for name, count in self.counts.items():
            out[f"{name}.calls"] += count
        critical_calls = sum(out[f"{n}.calls"] for n in CRITICAL)
        out["analysis.critical.distinct_ratio"] = (
            len(self.critical_args) / critical_calls if critical_calls else 0.0)
        return out

    def write(self, handle, pass_index: int, row_offset: int) -> int:
        """Append the spans as CSV rows; ``parent`` is a row number of the file.

        Returns the number of rows written, to offset the next pass.
        """
        for index, start, end, parent, op in self.spans:
            parent_row = parent + row_offset if parent >= 0 else -1
            handle.write(f"{self.names[index]},{start:.9f},{end:.9f},{parent_row},"
                         f"{pass_index},{op}\n")
        return len(self.spans)
