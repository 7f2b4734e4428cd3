"""Correctness gate: classifies every benchmark operation as ok or failed.

The oracle is the program's numeric route (Jacobi spectrum, Gibbs
state, partial trace, spin-flip concurrence), plus numpy's ``eigvalsh``
for spectra and the cubic ``4 z^3 + 3 z^2 - 1`` for the XX critical
point.  A value that disagrees with the oracle, a missing value where
one exists, a raised exception or a non-finite result fails its
operation and is counted in ``Verdict.failed``.  Output that cannot be
classified at all (wrong header, wrong row count, unparsable text) is
recorded in ``Verdict.malformed``, which makes the whole run incorrect.
Nothing here raises on bad program output.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from spinthermal import concurrence, spinmodel, thermalstate

C_TOL = 1e-8          # sweep C (printed to 12 digits) against the numeric route
Z_RTOL = 1e-9         # sweep Z against the numeric partition function
ROUTE_TOL = 1e-6      # |C_numeric - C_closed| beyond this is a disagreement
EIG_RTOL = 1e-9       # Jacobi eigenvalues against eigvalsh, relative to 1 + max|E|
C_ZERO = 1e-9         # a concurrence at or below this counts as zero
TC_STEP = 1e-3        # a reported T_c is probed at T_c * (1 -+ TC_STEP)
TC_PROBE_T = 0.002    # per unit |J|: where T_c is empty, entanglement is probed here
CRIT_TOL = 1e-6       # critical constants are printed to six decimals
SWEEP_SAMPLE = 100    # seeded sweep rows compared with the numeric route
MAX_NOTES = 20

_VERIFY_TAIL = re.compile(r"verify: (\d+) checks, 0 failed")


@dataclass
class Verdict:
    """Outcome of checking one or more operations."""

    attempted: int = 0
    failed: int = 0
    malformed: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    route_dev: float = 0.0      # worst |C_numeric - C_closed| where both are finite
    closed_attempts: int = 0
    closed_ok: int = 0
    noroot: int = 0             # rows with an empty T_c although a root exists
    failed_ids: set = field(default_factory=set)  # which operations failed

    def count_once(self, operations: int) -> None:
        """Count each of ``operations`` once, however many passes ran it.

        An operation failed when it failed in any pass, so ``attempted``
        and ``failed`` depend on the inputs, not on how many passes fit
        into the run.
        """
        self.attempted = operations
        self.failed = len(self.failed_ids)

    def note(self, text: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(text)

    def compare_routes(self, numeric: float, closed) -> bool:
        """Record one closed-form attempt; True when it agrees with the numeric C."""
        self.closed_attempts += 1
        if closed is None or not math.isfinite(closed) or not math.isfinite(numeric):
            return False
        dev = abs(numeric - closed)
        self.route_dev = max(self.route_dev, dev)
        if dev > ROUTE_TOL:
            return False
        self.closed_ok += 1
        return True

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failed_ids |= other.failed_ids
        self.malformed.extend(other.malformed)
        for text in other.notes:
            self.note(text)
        self.route_dev = max(self.route_dev, other.route_dev)
        self.closed_attempts += other.closed_attempts
        self.closed_ok += other.closed_ok
        self.noroot += other.noroot


def digest(text: str) -> str:
    """Short content hash, recorded for information only."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def numeric_margin(model: dict, T: float) -> float:
    """``l1 - l2 - l3 - l4`` from the numeric route, for a model given as a field dict.

    Positive exactly when the pair is entangled; the concurrence is its
    maximum with 0.
    """
    spec = spinmodel.ModelSpec(**model)
    rho = thermalstate.gibbs_density(spec, T)
    lams = concurrence.concurrence_general(thermalstate.partial_trace(rho)).lambdas
    return lams[0] - lams[1] - lams[2] - lams[3]


def numeric_c(model: dict, T: float) -> float:
    """Concurrence from the numeric route for a model given as a field dict."""
    return max(numeric_margin(model, T), 0.0)


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepSpec:
    """What a sweep was asked for: fixed model fields, axes and columns.

    ``model`` holds ``variant`` plus every coupling (swept ones carry a
    placeholder); ``axes`` are ``(name, min, max, steps)`` with the
    first axis outermost, as the program orders its rows.
    """

    model: dict
    axes: tuple
    columns: tuple
    fmt: str


def axis_values(lo: float, hi: float, steps: int) -> list[float]:
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps - 1)] + [hi]


def parse_sweep(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Header and rows of a sweep output; empty cells and nulls become None."""
    if fmt == "json":
        payload = json.loads(text)
        columns = list(payload["meta"]["columns"])
        rows = [[row[c] for c in columns] for row in payload["rows"]]
        return columns, rows
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
        rows.append([float(x) if x else None for x in cells])
    return columns, rows


def _close(a, b: float) -> bool:
    return a is not None and abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_sweep(text: str, spec: SweepSpec, rng: np.random.Generator) -> Verdict:
    """Check one sweep output; every grid row is one attempted operation.

    Malformed output fails every row it should have held.
    """
    grids = [axis_values(lo, hi, steps) for _, lo, hi, steps in spec.axes]
    expected = math.prod(len(g) for g in grids)
    verdict = Verdict(attempted=expected)

    def malformed(why: str) -> Verdict:
        verdict.malformed.append(why)
        verdict.failed = expected
        verdict.failed_ids = set(range(expected))
        return verdict

    try:
        columns, rows = parse_sweep(text, spec.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return malformed(f"unparsable {spec.fmt}: {exc}")
    if tuple(columns) != tuple(spec.columns):
        return malformed(f"header {columns} != {list(spec.columns)}")
    if len(rows) != expected:
        return malformed(f"{len(rows)} rows, expected {expected}")
    col = {name: i for i, name in enumerate(columns)}
    names = [name for name, *_ in spec.axes]
    failed: set[int] = set()

    for r, row in enumerate(rows):
        rem = r
        for grid, name in zip(reversed(grids), reversed(names)):
            rem, k = divmod(rem, len(grid))
            if name in col and not _close(row[col[name]], grid[k]):
                failed.add(r)
                verdict.note(f"row {r}: {name}={row[col[name]]} off the grid")

    def model_of(row) -> dict:
        model = dict(spec.model)
        for name in names:
            if name != "T":
                model[name] = row[col[name]]
        return model

    sample = rng.choice(len(rows), size=min(SWEEP_SAMPLE, len(rows)), replace=False)
    for r in sorted(int(i) for i in sample):
        row = rows[r]
        model, T = model_of(row), row[col["T"]]
        margin = numeric_margin(model, T)
        want = max(margin, 0.0)
        if "witness" in col and abs(margin) > C_ZERO:
            witness = row[col["witness"]]
            if witness is None or math.isnan(witness) or (witness > 0.0) != (margin > 0.0):
                failed.add(r)
                verdict.note(f"row {r}: witness={witness} where the numeric route gives "
                             f"l1-l2-l3-l4={margin:.6g}")
        got = row[col["C"]]
        verdict.closed_attempts += 1
        if got is None or not math.isfinite(got):
            failed.add(r)
            verdict.note(f"row {r}: C={got} where the numeric route gives {want:.6g}")
            continue
        verdict.route_dev = max(verdict.route_dev, abs(got - want))
        if abs(got - want) > C_TOL:
            failed.add(r)
            verdict.note(f"row {r}: C={got:.12g}, numeric route {want:.12g}")
        else:
            verdict.closed_ok += 1
        if "Z" in col:
            z_want = thermalstate.partition_function(spinmodel.ModelSpec(**model), T)
            z_got = row[col["Z"]]
            if z_got is None or not abs(z_got - z_want) <= Z_RTOL * abs(z_want):
                failed.add(r)
                verdict.note(f"row {r}: Z={z_got}, numeric route {z_want:.12g}")

    if "T_c" in col:
        _check_tc(rows, col, names, model_of, verdict, failed)
    verdict.failed = len(failed)
    verdict.failed_ids = failed
    return verdict


def _check_tc(rows, col, names, model_of, verdict: Verdict, failed: set) -> None:
    """Every reported T_c must separate C > 0 (below) from C = 0 (above).

    T_c depends on the non-temperature coordinates only, so rows are
    grouped by them.  An empty T_c where the ring is entangled at low
    temperature fails the whole group: the root exists but was not found.
    """
    groups: dict[tuple, list[int]] = {}
    for r, row in enumerate(rows):
        key = tuple(row[col[n]] for n in names if n != "T")
        groups.setdefault(key, []).append(r)
    for key, members in groups.items():
        values = {rows[r][col["T_c"]] for r in members}
        model = model_of(rows[members[0]])
        J, delta = model["J"], model.get("delta", 0.0)
        if len(values) != 1:
            failed.update(members)
            verdict.note(f"{key}: T_c differs between rows of one coupling")
            continue
        if J >= 0.0:
            continue  # only the ferromagnetic ring entangles below T_c
        tc = values.pop()
        if tc is None:
            if delta < 1.0 and numeric_c(model, TC_PROBE_T * abs(J)) > C_ZERO:
                failed.update(members)
                verdict.noroot += len(members)
                verdict.note(f"{key}: T_c empty, yet C > 0 at T={TC_PROBE_T * abs(J):g}")
            continue
        if not (math.isfinite(tc) and tc > 0.0):
            failed.update(members)
            verdict.note(f"{key}: T_c={tc}")
            continue
        below = numeric_c(model, tc * (1.0 - TC_STEP))
        above = numeric_c(model, tc * (1.0 + TC_STEP))
        if not (below > C_ZERO and above <= C_ZERO):
            failed.update(members)
            verdict.note(f"{key}: T_c={tc:.12g} but C={below:.3g} below, {above:.3g} above")


# ---------------------------------------------------------------------------
# short CLI calls

def check_verify(code: int, stdout: str) -> Verdict:
    verdict = Verdict(attempted=1)
    lines = stdout.strip().splitlines()
    match = _VERIFY_TAIL.fullmatch(lines[-1]) if lines else None
    if code != 0 or match is None or int(match.group(1)) == 0:
        verdict.failed = 1
        verdict.note(f"verify: exit {code}, last line {lines[-1] if lines else ''!r}")
    return verdict


def xx_critical_root() -> float:
    """Positive real root of ``4 z^3 + 3 z^2 - 1``, from numpy's companion matrix."""
    roots = np.roots([4.0, 3.0, 0.0, -1.0])
    return float(max(r.real for r in roots if abs(r.imag) < 1e-12))


def check_critical(code: int, stdout: str) -> Verdict:
    verdict = Verdict(attempted=1)
    z = xx_critical_root()
    want = {"z_c": z, "x_c": math.log(z), "T_c/|J|": -1.0 / math.log(z)}
    got = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                got[key] = float(value)
            except ValueError:
                pass
    bad = [k for k, v in want.items() if k not in got or abs(got[k] - v) > CRIT_TOL]
    if code != 0 or bad:
        verdict.failed = 1
        verdict.note(f"critical: exit {code}, off: {bad}")
    return verdict


def check_concurrence(code: int, stdout: str, point: dict) -> Verdict:
    """The single-point command: numeric column against the oracle, then routes."""
    verdict = Verdict(attempted=1)
    lines = stdout.strip().splitlines()
    if code != 0 or len(lines) != 2 or lines[0] != "T,C_numeric,C_closed":
        verdict.failed = 1
        verdict.note(f"concurrence: exit {code}, output {stdout[:80]!r}")
        return verdict
    try:
        _, numeric, closed = (float(x) if x else None for x in lines[1].split(","))
    except ValueError:
        verdict.malformed.append(f"concurrence row {lines[1]!r}")
        return verdict
    model = {k: v for k, v in point.items() if k != "T"}
    want = numeric_c(model, point["T"])
    agree = verdict.compare_routes(numeric, closed)
    if numeric is None or abs(numeric - want) > C_TOL or not agree:
        verdict.failed = 1
        verdict.note(f"concurrence: {lines[1]} vs numeric {want:.12g}")
    return verdict


# ---------------------------------------------------------------------------
# cross-route points

def classify_point(result: dict) -> str:
    """``ok``, ``raised``, ``non-finite`` or ``disagree`` for one pipeline result."""
    if result["numeric_error"] or result["closed_error"]:
        return "raised"
    numeric, closed = result["C_numeric"], result["C_closed"]
    eig = result["eigenvalues"]
    if not (math.isfinite(numeric) and np.isfinite(eig).all()):
        return "non-finite"
    if closed is not None and not math.isfinite(closed):
        return "non-finite"
    if not -C_ZERO <= numeric <= 1.0 + C_ZERO:
        return "disagree"
    ref = np.linalg.eigvalsh(result["h"])
    if float(np.abs(np.sort(eig) - ref).max()) > EIG_RTOL * (1.0 + float(np.abs(ref).max())):
        return "disagree"
    if closed is not None and abs(numeric - closed) > ROUTE_TOL:
        return "disagree"
    return "ok"


def check_points(points: list[dict], results: list[dict]) -> Verdict:
    verdict = Verdict(attempted=len(points))
    for i, (point, result) in enumerate(zip(points, results)):
        status = classify_point(result)
        if point["variant"] != "xyz":
            numeric = result["C_numeric"]
            verdict.compare_routes(numeric if numeric is not None else math.nan,
                                   result["C_closed"])
        if status != "ok":
            verdict.failed += 1
            verdict.failed_ids.add(i)
            error = result["numeric_error"] or result["closed_error"] or ""
            verdict.note(f"point {i} {status}: {point} C_numeric={result['C_numeric']} "
                         f"C_closed={result['C_closed']} {error}".rstrip())
    return verdict
