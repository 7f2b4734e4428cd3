"""Command-line front end.

Usage::

    spinthermal <command> [--config PATH] [--model xx|xxz|xxzfield|xyz]
                [--J v] [--delta v] [--B v] [--T v]
                [--out PATH] [--format csv|json]

with commands ``eig``, ``thermal``, ``concurrence``, ``critical``,
``sweep`` and ``verify``.  Parameters come from a line-oriented config
file (``key = value`` under ``[section]`` headers) and/or command-line
flags; flags win.  Config layout::

    command = sweep
    T = 1.0
    out = data.csv
    format = csv
    columns = T,C

    [model]
    model = xxzfield
    J = 1
    delta = 1
    B = 2

    [grid:T]
    min = 0.02
    max = 4
    steps = 200

Results are emitted as CSV (header row, comma separated, LF endings) or
JSON (one object with ``meta`` and ``rows``), always with 12 significant
digits, to ``--out`` or stdout; a partition function beyond the float
range is printed as ``inf`` (``Infinity`` in JSON).  Identical configs
produce byte-identical output.  Exit codes: 0 ok, 1 verification
failure, 2 config error, 3 numeric failure (including an arithmetic
overflow or division by zero, and a ``ValueError`` such as a Boltzmann
factor that underflowed to 0).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis, concurrence, spinmodel, thermalstate
from .errors import (
    ConfigError,
    InvalidGrid,
    InvalidTemperature,
    NoConvergence,
    NoRoot,
    NotHermitian,
    NotPSD,
    OutOfDomain,
    ParseError,
    UnknownKey,
    UnsupportedModel,
    ValidationError,
)

COMMANDS = ("eig", "thermal", "concurrence", "critical", "sweep", "verify")

_TOP_KEYS = ("command", "T", "out", "format", "columns")
_MODEL_KEYS = ("model", "J", "delta", "B", "J1", "J2", "J3", "B1", "B2", "B3")
_GRID_KEYS = ("min", "max", "steps")
_AXIS_ALIASES = {"t": "T", "j": "J", "delta": "delta", "Δ": "delta", "b": "B"}


@dataclass(frozen=True)
class GridAxis:
    axis: str
    min: float
    max: float
    steps: int


@dataclass
class RunConfig:
    """Fully resolved invocation: command, model fields, grid, output."""

    command: str = ""
    model: dict = field(default_factory=dict)
    grid: list = field(default_factory=list)
    T: float | None = None
    out: str | None = None
    format: str = "csv"
    columns: tuple | None = None


def _parse_number(raw: str, key: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"line {lineno}: {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {lineno}: {key} must be finite, got {raw!r}")
    return value


def _normalize_model_key(key: str) -> str:
    if key in ("Δ", "delta"):
        return "delta"
    return key


def parse_config(text: str) -> RunConfig:
    """Parse config text into a :class:`RunConfig`.

    Raises ``ParseError`` for malformed lines, ``UnknownKey`` for keys a
    section does not accept, and ``ValidationError`` for ill-typed
    values, each with the offending line number.
    """
    cfg = RunConfig()
    section: str | None = None
    grid_open: dict[str, dict] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name == "model":
                section = "model"
            elif name.startswith("grid:"):
                axis_raw = name[len("grid:"):].strip()
                axis = _AXIS_ALIASES.get(axis_raw, _AXIS_ALIASES.get(axis_raw.lower()))
                if axis is None:
                    raise ParseError(f"line {lineno}: unknown grid axis {axis_raw!r}")
                if axis in grid_open:
                    raise ParseError(f"line {lineno}: grid axis {axis!r} repeated")
                grid_open[axis] = {"_line": lineno}
                section = f"grid:{axis}"
            else:
                raise ParseError(f"line {lineno}: unknown section {name!r}")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            if key not in _TOP_KEYS:
                raise UnknownKey(f"line {lineno}: unknown key {key!r}")
            if key == "command":
                if value not in COMMANDS:
                    raise ValidationError(
                        f"line {lineno}: command must be one of {', '.join(COMMANDS)}"
                    )
                cfg.command = value
            elif key == "T":
                cfg.T = _parse_number(value, "T", lineno)
            elif key == "out":
                cfg.out = value
            elif key == "format":
                if value not in ("csv", "json"):
                    raise ValidationError(f"line {lineno}: format must be csv or json")
                cfg.format = value
            elif key == "columns":
                cfg.columns = tuple(c.strip() for c in value.split(",") if c.strip())
        elif section == "model":
            norm = _normalize_model_key(key)
            if norm not in _MODEL_KEYS:
                raise UnknownKey(f"line {lineno}: unknown model key {key!r}")
            if norm == "model":
                cfg.model["model"] = value.lower()
            else:
                cfg.model[norm] = _parse_number(value, key, lineno)
        else:
            axis = section[len("grid:"):]
            if key not in _GRID_KEYS:
                raise UnknownKey(f"line {lineno}: unknown grid key {key!r}")
            if key == "steps":
                number = _parse_number(value, key, lineno)
                if number != int(number):
                    raise ValidationError(f"line {lineno}: steps must be an integer")
                grid_open[axis][key] = int(number)
            else:
                grid_open[axis][key] = _parse_number(value, key, lineno)
    for axis, fields in grid_open.items():
        for key in _GRID_KEYS:
            if key not in fields:
                raise ValidationError(
                    f"line {fields['_line']}: grid axis {axis!r} is missing {key!r}"
                )
        cfg.grid.append(GridAxis(axis=axis, min=fields["min"], max=fields["max"],
                                 steps=fields["steps"]))
    return cfg


def format_config(cfg: RunConfig) -> str:
    """Serialize a config so that re-parsing yields an equal config."""
    lines = []
    if cfg.command:
        lines.append(f"command = {cfg.command}")
    if cfg.T is not None:
        lines.append(f"T = {cfg.T!r}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    lines.append(f"format = {cfg.format}")
    if cfg.columns is not None:
        lines.append("columns = " + ",".join(cfg.columns))
    if cfg.model:
        lines.append("")
        lines.append("[model]")
        for key in _MODEL_KEYS:
            if key in cfg.model:
                value = cfg.model[key]
                lines.append(f"{key} = {value if key == 'model' else repr(value)}")
    for axis in cfg.grid:
        lines.append("")
        lines.append(f"[grid:{axis.axis}]")
        lines.append(f"min = {axis.min!r}")
        lines.append(f"max = {axis.max!r}")
        lines.append(f"steps = {axis.steps}")
    return "\n".join(lines) + "\n"


def build_model(model_fields: dict) -> spinmodel.ModelSpec:
    """Validated :class:`ModelSpec` of the raw [model] mapping, minus unused fields."""
    if "model" not in model_fields:
        raise ValidationError("missing model field: model")
    variant = model_fields["model"]
    names = spinmodel.REQUIRED_FIELDS.get(variant, ())
    try:
        return spinmodel.ModelSpec(
            variant, **{name: model_fields[name] for name in names if name in model_fields}
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# output formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _round12(value):
    if value is None or isinstance(value, (str, int)):
        return value
    return float(format(float(value), ".12g"))


def _all_floats(columns: list[str], rows: list[dict]) -> bool:
    """Whether every row holds a float under every column."""
    cells = map(operator.itemgetter(*columns), rows)
    if len(columns) > 1:
        cells = itertools.chain.from_iterable(cells)
    try:
        return all(map(isinstance, cells, itertools.repeat(float)))
    except KeyError:
        return False


def render_csv(columns: list[str], rows: list[dict]) -> str:
    """Header line, then one line per row, every cell as :func:`_fmt` prints it.

    When every cell is a float, a row is printed by one ``%`` format:
    ``"%.12g" % x`` runs the C routine of ``format(x, ".12g")``, ``inf``,
    ``nan`` and ``-0`` included.
    """
    header = ",".join(columns) + "\n"
    if columns and _all_floats(columns, rows):
        template = ",".join(["%.12g"] * len(columns)) + "\n"
        return header + "".join(map(template.__mod__, map(operator.itemgetter(*columns), rows)))
    lines = [",".join(_fmt(row.get(col)) for col in columns) + "\n" for row in rows]
    return header + "".join(lines)


def render_json(meta: dict, columns: list[str], rows: list[dict]) -> str:
    """``json.dumps(payload, indent=2)`` of meta and the rounded rows.

    The rows, the bulk of a sweep, go through the C encoder in one pass
    (it only runs without ``indent``): the item separator carries the
    indent of a row's fields, and the row braces are spliced in after.
    A JSON string never holds a raw newline, so ``"},\\n      {"`` only
    matches between rows.
    """
    rounded = [{col: _round12(row.get(col)) for col in columns} for row in rows]
    if not rounded or not columns:
        return json.dumps({"meta": meta, "rows": rounded}, indent=2) + "\n"
    head = json.dumps({"meta": meta, "rows": []}, indent=2)[:-len("[]\n}")]
    body = json.dumps(rounded, separators=(",\n      ", ": "))[2:-2]
    body = body.replace("},\n      {", "\n    },\n    {\n      ")
    return head + "[\n    {\n      " + body + "\n    }\n  ]\n}\n"


def _emit(cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    meta = {
        "command": cfg.command,
        "model": dict(cfg.model),
        "T": cfg.T,
        "grid": [asdict(axis) for axis in cfg.grid],
        "format": cfg.format,
        "columns": list(columns),
    }
    if cfg.format == "json":
        text = render_json(meta, columns, rows)
    else:
        text = render_csv(columns, rows)
    if cfg.out:
        with open(cfg.out, "w", newline="\n", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

def _require_T(cfg: RunConfig) -> float:
    if cfg.T is None:
        raise ValidationError("missing field: T")
    return cfg.T


def _cmd_eig(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    from .linalg import hermitian_eigen
    from .spinmodel import build_hamiltonian

    spectrum = hermitian_eigen(build_hamiltonian(model))
    groups = spectrum.degenerate_groups()
    group_of = {}
    for gid, members in enumerate(groups):
        for k in members:
            group_of[k] = gid
    rows = [
        {"k": k, "E": float(spectrum.eigenvalues[k]), "group": group_of[k]}
        for k in range(len(spectrum.eigenvalues))
    ]
    _emit(cfg, ["k", "E", "group"], rows)
    return 0


def _cmd_thermal(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    T = _require_T(cfg)
    Z = thermalstate.partition_function(model, T)
    row = {"T": T, "Z": Z}
    columns = ["T", "Z"]
    if model.variant != "xyz":
        params = thermalstate.xstate_params(model, T)
        row.update({"u": params.u, "v": params.v, "w": params.w, "y": params.y})
        columns += ["u", "v", "w", "y"]
    _emit(cfg, columns, [row])
    return 0


def _cmd_concurrence(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    T = _require_T(cfg)
    rho = thermalstate.gibbs_density(model, T)
    reduced = thermalstate.partial_trace(rho)
    numeric = concurrence.concurrence_general(reduced).C
    row = {"T": T, "C_numeric": numeric, "C_closed": None}
    if model.variant != "xyz" and T > 0.0:
        row["C_closed"] = concurrence.concurrence_closed_form(model, T)
    _emit(cfg, ["T", "C_numeric", "C_closed"], [row])
    return 0


def _format_z_c(z_c: float, x_c: float) -> str:
    """``z_c`` to six significant digits; below the normal float range
    (subnormal or underflowed to 0) from ``x_c = ln z_c`` in decimal."""
    if z_c >= sys.float_info.min:
        return f"{z_c:#.6g}"
    import decimal  # here: importing it costs every CLI start about 1.4 ms

    return format(decimal.Context(Emin=decimal.MIN_EMIN).exp(decimal.Decimal(x_c)), ".5e")


def _cmd_critical(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    if model.variant == "xx":
        point = analysis.xx_critical()
    elif model.variant == "xxz":
        point = analysis.xxz_critical(model.delta)
    else:
        raise ValidationError(
            f"critical supports the xx and xxz models, not {model.variant!r}"
        )
    if point is None:
        print("z_c = none")
        print("x_c = none")
        print("T_c/|J| = none")
        rows = [{"z_c": None, "x_c": None, "Tc_per_J": None}]
    else:
        print(f"z_c = {_format_z_c(point.z_c, point.x_c)}")
        print(f"x_c = {point.x_c:.6f}")
        print(f"T_c/|J| = {point.T_c:#.7g}")
        rows = [{"z_c": point.z_c, "x_c": point.x_c, "Tc_per_J": point.T_c}]
    if cfg.out:
        _emit(cfg, ["z_c", "x_c", "Tc_per_J"], rows)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    if not cfg.grid:
        raise ValidationError("sweep needs at least one [grid:...] section")
    axes = tuple(
        analysis.SweepAxis(name=g.axis, start=g.min, stop=g.max, steps=g.steps)
        for g in cfg.grid
    )
    sweep_cfg = analysis.SweepConfig(model=model, axes=axes, T=cfg.T)
    records = analysis.sweep(sweep_cfg)
    default_cols = [axis.name for axis in axes] + ["C"]
    columns = list(cfg.columns) if cfg.columns else default_cols
    known = set(records[0]) if records else set(default_cols)
    for col in columns:
        if col not in known:
            raise ValidationError(f"unknown output column {col!r}")
    _emit(cfg, columns, records)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    checks = run_verification()
    failed = 0
    for name, ok, detail, tag in checks:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failed += 1
        print(f"{status}  {name:<34} {detail}  [{tag}]")
    print(f"verify: {len(checks)} checks, {failed} failed")
    if cfg.out:
        rows = [
            {"check": name, "status": "PASS" if ok else "FAIL", "detail": detail,
             "basis": tag}
            for name, ok, detail, tag in checks
        ]
        _emit(cfg, ["check", "status", "detail", "basis"], rows)
    return 1 if failed else 0


def run_verification() -> list[tuple[str, bool, str, str]]:
    """Golden-constant and cross-route checks behind ``spinthermal verify``.

    Every expected value states how it is known: an algebraic identity,
    a bisection root, a hand-traced matrix, or agreement between the two
    independent computation routes.
    """
    from .linalg import hermitian_eigen
    from .spinmodel import (
        ModelSpec,
        analytic_eigenstates,
        analytic_energies,
        build_hamiltonian,
    )

    checks: list[tuple[str, bool, str, str]] = []

    def record(name: str, ok: bool, detail: str, tag: str) -> None:
        checks.append((name, bool(ok), detail, tag))

    # Spectra of the three named models against their exact energies.
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(6):
        J = float(rng.uniform(-2, 2)) or 0.5
        delta = float(rng.uniform(-3, 2))
        B = float(rng.uniform(-3, 3))
        for model in (ModelSpec.xx(J), ModelSpec.xxz(J, delta),
                      ModelSpec.xxz_field(J, delta, B)):
            num = np.sort(hermitian_eigen(build_hamiltonian(model)).eigenvalues)
            ana = np.sort(analytic_energies(model))
            worst = max(worst, float(np.abs(num - ana).max()))
    record("spectrum-multisets", worst <= 1e-10, f"max|dE|={worst:.2e}<=1e-10",
           "exact energies")

    # Shared eigenbasis.
    states = analytic_eigenstates()
    worst = 0.0
    for model in (ModelSpec.xx(-1.0), ModelSpec.xxz(1.0, 0.5),
                  ModelSpec.xxz_field(1.0, 1.0, 2.0)):
        h = build_hamiltonian(model)
        energies = analytic_energies(model)
        for k, psi in enumerate(states):
            worst = max(worst, float(np.linalg.norm(h @ psi - energies[k] * psi)))
    record("shared-eigenbasis", worst <= 1e-10, f"max residual={worst:.2e}",
           "exact eigenstates")

    # Reduced-state golden: equal mixture of the two symmetric states.
    mix = sum(np.outer(s, s.conj()) for s in (states[3], states[6]))
    reduced = thermalstate.partial_trace(mix)
    golden = (2.0 / 3.0) * np.array(
        [[0.5, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0.5]], dtype=complex
    )
    dev = float(np.abs(reduced - golden).max())
    record("reduced-state-golden", dev <= 1e-12, f"max|drho|={dev:.2e}", "hand trace")

    # Critical constants.
    point = analysis.xx_critical()
    record("xx-z_c", abs(point.z_c - 0.4554) <= 1e-4,
           f"z_c={point.z_c:.6f} vs 0.4554+-1e-4", "bisection root")
    record("xx-x_c", abs(point.x_c + 0.7866) <= 1e-3,
           f"x_c={point.x_c:.6f} vs -0.7866+-1e-3", "bisection root")
    record("xx-Tc", abs(point.T_c - 1.0 / 0.7866) <= 1e-3,
           f"T_c/|J|={point.T_c:.6f} vs 1/0.7866 "
           "(root-derived; supersedes the sometimes-quoted 1.21736)",
           "bisection root")
    half = analysis.xxz_critical(-0.5)
    record("xxz-half-Tc", abs(half.T_c - 3.0 / math.log(7.0)) <= 1e-6,
           f"T_c/|J|={half.T_c:.9f} vs 3/ln7", "algebraic root")
    quarter = analysis.xxz_critical(0.5)
    record("xxz-plus-half-z_c", abs(quarter.z_c - 0.298) <= 1e-3,
           f"z_c={quarter.z_c:.6f} vs 0.298+-1e-3", "bisection root")
    asym = analysis.xxz_critical(-50.0)
    record("xxz-asymptote", abs(asym.T_c - 3.0 / math.log(4.0)) <= 1e-2,
           f"T_c/|J|={asym.T_c:.6f} vs 3/ln4", "asymptotic")

    # Maximum ferromagnetic concurrence.
    c = concurrence.concurrence_closed_form(spinmodel.ModelSpec.xx(-30.0), 1.0)
    record("xx-max-C", abs(c - 1.0 / 3.0) <= 1e-6, f"C={c:.9f} vs 1/3", "limit value")

    # Field-induction threshold.
    root = analysis.xxx_field_threshold()
    resid = root**6 - 8.0 * root**3 - 2.0
    record("xxx-field-threshold",
           abs(root - 2.02) <= 1e-2 and abs(resid) <= 1e-9,
           f"z*={root:.6f}, residual={resid:.2e}", "algebraic root")

    # Zero-temperature transition values from the numeric route.
    worst = 0.0
    for delta, want in ((1.0, 1.0 / 3.0), (0.5, 2.0 / 9.0), (0.0, 0.0)):
        model = spinmodel.ModelSpec.xxz_field(1.0, delta, 1.0)
        rho = thermalstate.gibbs_density(model, 1e-4)
        value = concurrence.concurrence_general(thermalstate.partial_trace(rho)).C
        worst = max(worst, abs(value - want))
    record("zero-T-transition", worst <= 1e-3,
           f"max|dC|={worst:.2e} over (1/3, 2/9, 0)", "ground degeneracy")

    # Numeric pipeline vs closed forms on a spot grid.
    worst = 0.0
    for J in (-1.5, 0.8):
        for delta in (-0.5, 1.0):
            for B in (0.0, 2.0):
                for T in (0.3, 1.0, 3.0):
                    model = spinmodel.ModelSpec.xxz_field(J, delta, B)
                    rho = thermalstate.gibbs_density(model, T)
                    numeric = concurrence.concurrence_general(
                        thermalstate.partial_trace(rho)).C
                    closed = concurrence.concurrence_closed_form(model, T)
                    worst = max(worst, abs(numeric - closed))
    record("numeric-vs-closed", worst <= 1e-8, f"max|dC|={worst:.2e} on 24 points",
           "cross-route")

    return checks


_DISPATCH = {
    "eig": _cmd_eig,
    "thermal": _cmd_thermal,
    "concurrence": _cmd_concurrence,
    "critical": _cmd_critical,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved config; returns the process exit code."""
    if cfg.command not in COMMANDS:
        raise ValidationError(f"missing or unknown command {cfg.command!r}")
    return _DISPATCH[cfg.command](cfg)


def _config_from_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="spinthermal",
        description="Thermal pairwise entanglement in three-qubit Heisenberg rings.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--model", help="model variant: xx, xxz, xxzfield, xyz")
    parser.add_argument("--J", type=float, help="exchange constant")
    parser.add_argument("--delta", type=float, help="anisotropy")
    parser.add_argument("--B", type=float, help="uniform field")
    parser.add_argument("--T", type=float, help="temperature (k = 1)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    args = parser.parse_args(argv)

    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    else:
        cfg = RunConfig()
    cfg.command = args.command
    if args.model is not None:
        cfg.model["model"] = args.model.lower()
    for name in ("J", "delta", "B", "T"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"--{name} must be finite, got {value!r}")
    for name in ("J", "delta", "B"):
        value = getattr(args, name)
        if value is not None:
            cfg.model[name] = value
    if args.T is not None:
        cfg.T = args.T
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.format = args.format
    return cfg


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(argv)
        return run(cfg)
    except (ConfigError, InvalidGrid, InvalidTemperature, UnsupportedModel,
            OutOfDomain, NoRoot) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, NotPSD, NotHermitian) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
