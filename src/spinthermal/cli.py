"""Command-line front end.

Usage::

    spinthermal <command> [--config PATH] [--model xx|xxz|xxzfield|xyz]
                [--J v] [--delta v] [--B v] [--J1 v] [--J2 v] [--J3 v]
                [--B1 v] [--B2 v] [--B3 v] [--T v] [--out PATH] [--format csv|json]

with commands ``eig``, ``thermal``, ``concurrence``, ``critical``,
``sweep`` and ``verify``.  Parameters come from a line-oriented config file
(``key = value`` under ``[section]`` headers, each key once a section) and/or
command-line flags, each read by its config key's rule (``--J -1e-2`` as
``--J=-1e-2`` after a flag's full name, or after a prefix of one flag's name
alone: ``--del -1e-2`` as ``--delta=-1e-2``); flags win.  Config layout::

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
range is printed as ``inf`` (``Infinity`` in JSON), and so is the sweep
witness ``-inf`` of a ``J = 0`` point (``-Infinity``).  A sweep is
rendered a block at a time as :func:`spinthermal.analysis.sweep_blocks`
yields it, column by column: a column whose cells are all one object is
formatted once, and a column that is the previous block's column (the
axis a sweep walks along) takes that block's texts.  It is written once
after the last block, so a failed sweep leaves ``--out`` unwritten; an
unreadable ``--config`` or unopenable ``--out`` path is a config error,
and an ``--out`` that is a directory or lies in a missing one is
reported before any work or output.
Identical configs produce byte-identical output.  Exit codes: 0 ok, 1 verification
failure, and otherwise the ``exit_code`` of the package error raised
(:mod:`spinthermal.errors`): 2 for a config or domain error, reported as
``config error: ...``, and 3 for a numeric failure such as a NaN result,
reported as ``numeric failure: ...``.  Any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator

from . import analysis, concurrence, linalg, spinmodel, thermalstate
from .errors import (InputError, ParseError, SpinThermalError, UnknownKey, UnsupportedModel,
                     ValidationError)

COMMANDS = ("eig", "thermal", "concurrence", "critical", "sweep", "verify")

_TOP_KEYS = ("command", "T", "out", "format", "columns")
_MODEL_KEYS = ("model", *dict.fromkeys(sum(spinmodel.REQUIRED_FIELDS.values(), ())))
_GRID_KEYS = ("min", "max", "steps")
_AXIS_ALIASES = {"Δ": "delta", **{name.lower(): name for name in ("T", *_MODEL_KEYS[1:])}}
_FLAGS = (*_MODEL_KEYS, "T", "out", "format")  # one --<key> flag each
_FLAG_HELP = {"model": "model variant: " + ", ".join(spinmodel.REQUIRED_FIELDS),
              "J": "exchange constant", "delta": "anisotropy", "B": "uniform field",
              **{f"J{n}": f"xyz coupling of the {a}{a} bonds" for n, a in enumerate("xyz", 1)},
              **{f"B{n}": f"xyz field along z on site {n}" for n in (1, 2, 3)},
              "T": "temperature (k = 1)", "out": "output path (default: stdout)",
              "format": "output format: csv or json"}


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


def _parse_number(raw: str, key: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{where}: {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {key} must be finite, got {raw!r}")
    return value


def _set_key(cfg: RunConfig, section: str | None, key: str, value: str, where: str) -> None:
    """Apply one top-level (``section`` None) or ``[model]`` key to ``cfg``.

    Config lines and command-line flags both come through here, as text;
    ``where`` (``line N`` or ``--J``) prefixes every error.
    """
    if section == "model":
        if key not in _MODEL_KEYS:
            raise UnknownKey(f"{where}: unknown model key {key!r}")
        cfg.model[key] = value.lower() if key == "model" else _parse_number(value, key, where)
    elif key not in _TOP_KEYS:
        raise UnknownKey(f"{where}: unknown key {key!r}")
    elif key == "command":
        if value not in COMMANDS:
            raise ValidationError(f"{where}: command must be one of {', '.join(COMMANDS)}")
        cfg.command = value
    elif key == "T":
        cfg.T = _parse_number(value, "T", where)
    elif key == "out":
        cfg.out = value
    elif key == "format":
        if value not in ("csv", "json"):
            raise ValidationError(f"{where}: format must be csv or json")
        cfg.format = value
    else:
        cfg.columns = tuple(c.strip() for c in value.split(",") if c.strip())
        if not cfg.columns:
            raise ValidationError(f"{where}: columns names no column")
        for k, name in enumerate(cfg.columns):
            if name in cfg.columns[:k]:
                raise ValidationError(f"{where}: column {name!r} repeated")


def parse_config(text: str) -> RunConfig:
    """Parse config text into a :class:`RunConfig`.

    Raises ``ParseError`` for malformed lines and keys set twice in one
    section, ``UnknownKey`` for keys a section does not accept, and
    ``ValidationError`` for ill-typed values, each with the offending line number.
    """
    cfg = RunConfig()
    section: str | None = None
    first_lines: dict[tuple, int] = {}  # (section, key): the line that set it
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
        key = "delta" if key == "Δ" and section == "model" else key
        if (first := first_lines.setdefault((section, key), lineno)) != lineno:
            raise ParseError(f"line {lineno}: key {key!r} repeated (first set on line {first})")
        if section in (None, "model"):
            _set_key(cfg, section, key, value, f"line {lineno}")
        else:
            axis = section[len("grid:"):]
            if key not in _GRID_KEYS:
                raise UnknownKey(f"line {lineno}: unknown grid key {key!r}")
            number = _parse_number(value, key, f"line {lineno}")
            if key == "steps":
                if number != int(number):
                    raise ValidationError(f"line {lineno}: steps must be an integer")
                number = int(number)
            grid_open[axis][key] = number
    for axis, fields in grid_open.items():
        for key in _GRID_KEYS:
            if key not in fields:
                raise ValidationError(
                    f"line {fields['_line']}: grid axis {axis!r} is missing {key!r}"
                )
        cfg.grid.append(analysis.SweepAxis(axis, fields["min"], fields["max"], fields["steps"]))
    return cfg


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
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _round12(value):
    if value is None or isinstance(value, (str, int)):
        return value
    return float(format(float(value), ".12g"))


def _json_floats(values: list) -> list[str]:
    """Texts of floats, each as ``json.dumps(_round12(v))`` prints it.

    Each is printed ``%.12g``.  A normal finite float of at most 12
    significant digits round-trips through a double, so ``repr`` of the
    rounded value ``float(format(x, ".12g"))`` keeps those digits and
    only the notation can differ: integral values (``0`` -> ``0.0``),
    ``inf``, ``-inf`` and ``nan`` (``Infinity``, ``-Infinity``,
    ``NaN``), decimal exponents +12 to +15, where ``repr`` stays
    positional (``1e+12`` -> ``1000000000000.0``), and exponents of -300
    and below, which take in every subnormal, whose shortest text has
    fewer digits (``4.94065645841e-324`` -> ``5e-324``).  So a text with
    no ``.``, or holding ``e+1`` or ``e-3``, is replaced by
    ``json.dumps(float(text))``, which is that value's text by
    construction, once per distinct text.
    """
    cells = list(map("%.12g".__mod__, values))
    memo: dict = {}
    for i, text in enumerate(cells):
        if "." not in text or "e+1" in text or "e-3" in text:
            if text not in memo:
                memo[text] = json.dumps(float(text))
            cells[i] = memo[text]
    return cells


def _json_cells(column: list) -> list[str]:
    """Cell texts of one JSON column, each as ``json.dumps(_round12(v))`` prints it:
    a column of floats goes through :func:`_json_floats`."""
    if set(map(type, column)) <= {float}:
        return _json_floats(column)
    return [json.dumps(_round12(v)) for v in column]


def _csv_cells(column: list) -> list[str]:
    """Cell texts of one CSV column: ``%.12g`` where all cells are exactly
    ``float``, and :func:`_fmt` of each cell otherwise."""
    if set(map(type, column)) <= {float}:
        return list(map("%.12g".__mod__, column))
    return list(map(_fmt, column))


def _block_texts(blocks, cells) -> Iterator[list]:
    """The cell texts of each block's columns, ``cells(column)`` of each column,
    except that a column whose cells are all one object is formatted once, and a
    column that is the previous block's column in its position takes that
    block's texts.  Both tests use ``is``, not ``==``, so ``0.0`` and ``-0.0``,
    and each NaN object, keep their own texts."""
    last: list = []  # (column, texts) of the previous block; holding it pins the ids
    for block in blocks:
        texts = []
        for k, column in enumerate(block):
            if k < len(last) and column is last[k][0]:
                texts.append(last[k][1])
            elif column and column[0] is column[-1] and all(
                    map(operator.is_, column, itertools.repeat(column[0]))):
                texts.append(cells(column[:1]) * len(column))
            else:
                texts.append(cells(column))
        last = list(zip(block, texts))
        yield texts


def _csv_parts(columns: list[str], blocks) -> Iterator[str]:
    """The header line, then the lines of each block's rows as one part.

    Each block holds one list of values per column, printed as
    :func:`_csv_cells` prints it, by :func:`_block_texts`.
    """
    yield ",".join(columns) + "\n"
    for texts in _block_texts(blocks, _csv_cells):
        lines = list(map(",".join, zip(*texts)))
        if lines:
            yield "\n".join(lines) + "\n"


def _json_parts(meta: dict, columns: list[str], blocks) -> Iterator[str]:
    """``json.dumps({"meta": meta, "rows": rows}, indent=2)`` in parts, one per
    block, with ``rows`` the ``column -> value`` objects of the blocks' rows,
    each column's cells as :func:`_json_cells` prints them, by :func:`_block_texts`."""
    fields = ",\n".join(
        "      " + json.dumps(col).replace("%", "%%") + ": %s" for col in columns)
    template = "    {\n" + fields + "\n    }"
    yield json.dumps({"meta": meta, "rows": []}, indent=2)[:-len("[]\n}")]
    separator = "[\n"
    for texts in _block_texts(blocks, _json_cells):
        body = ",\n".join(map(template.__mod__, zip(*texts)))
        if body:
            yield separator + body
            separator = ",\n"
    yield "[]\n}\n" if separator == "[\n" else "\n  ]\n}\n"


def _by_column(columns: list[str], rows: list[dict]) -> list[list]:
    return [[row.get(col) for row in rows] for col in columns]


def render_csv(columns: list[str], rows: list[dict]) -> str:
    """Header line, then one line per row, every cell as :func:`_fmt` prints it."""
    return "".join(_csv_parts(columns, [_by_column(columns, rows)]))


def render_json(meta: dict, columns: list[str], rows: list[dict]) -> str:
    """``json.dumps(payload, indent=2)`` of meta and the rows rounded by :func:`_round12`."""
    return "".join(_json_parts(meta, columns, [_by_column(columns, rows)]))


def _emit(cfg: RunConfig, columns: list[str], blocks) -> None:
    """Render ``blocks`` (see :func:`_csv_parts`) and write the text at once.

    Every block is rendered before anything is written, so an error
    raised while the blocks are produced leaves ``--out`` unwritten.
    """
    meta = {
        "command": cfg.command,
        "model": dict(cfg.model),
        "T": cfg.T,
        "grid": [{"axis": axis.name, "min": axis.start, "max": axis.stop, "steps": axis.steps}
                 for axis in cfg.grid],
        "format": cfg.format,
        "columns": list(columns),
    }
    if cfg.format == "json":
        parts = list(_json_parts(meta, columns, blocks))
    else:
        parts = list(_csv_parts(columns, blocks))
    if cfg.out:
        try:
            handle = open(cfg.out, "w", newline="\n", encoding="utf-8")
        except OSError as exc:
            raise _output_error(cfg.out, exc.strerror) from None
        with handle:
            handle.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _output_error(path: str, reason: str) -> ValidationError:
    return ValidationError(f"cannot open output {path!r}: {reason}")


def _check_output_path(path: str) -> None:
    """Raise :func:`_emit`'s error for an output path that is a directory or
    whose directory is missing, before any work is done; the open itself
    still reports every other error, such as a denied permission."""
    if not os.path.basename(path) or os.path.isdir(path):  # open refuses "x/" as a directory
        raise _output_error(path, os.strerror(errno.EISDIR))
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # a trailing "/" needs a directory
    except OSError as exc:
        raise _output_error(path, exc.strerror) from None


def _emit_rows(cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    _emit(cfg, columns, [_by_column(columns, rows)])


# ---------------------------------------------------------------------------
# commands

def _require_T(cfg: RunConfig) -> float:
    if cfg.T is None:
        raise ValidationError("missing field: T")
    return cfg.T


def _cmd_eig(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    spectrum = linalg.hermitian_eigen(spinmodel.build_hamiltonian(model))
    groups = linalg.degenerate_groups(spectrum.eigenvalues)
    group_of = {}
    for gid, members in enumerate(groups):
        for k in members:
            group_of[k] = gid
    rows = [
        {"k": k, "E": float(spectrum.eigenvalues[k]), "group": group_of[k]}
        for k in range(len(spectrum.eigenvalues))
    ]
    _emit_rows(cfg, ["k", "E", "group"], rows)
    return 0


def _cmd_thermal(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    T = _require_T(cfg)
    Z = thermalstate.partition_function(model, T)
    row = {"T": T, "Z": Z}
    columns = ["T", "Z"]
    with contextlib.suppress(UnsupportedModel):  # the variant has no closed form
        params = concurrence.closed_form_xstate(*model.closed_form_params(), T)
        row.update({"u": params.u, "v": params.v, "w": params.w, "y": params.y})
        columns += ["u", "v", "w", "y"]
    _emit_rows(cfg, columns, [row])
    return 0


def _cmd_concurrence(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    T = _require_T(cfg)
    rho = thermalstate.gibbs_density(model, T)
    reduced = thermalstate.partial_trace(rho)
    numeric = concurrence.concurrence_general(reduced).C
    row = {"T": T, "C_numeric": numeric, "C_closed": None}
    with contextlib.suppress(UnsupportedModel):  # the variant has no closed form
        row["C_closed"] = concurrence.concurrence_closed_form(model, T)
    _emit_rows(cfg, ["T", "C_numeric", "C_closed"], [row])
    return 0


def _format_z_c(z_c: float, x_c: float) -> str:
    """``z_c`` to six significant digits; below the normal float range
    (subnormal or underflowed to 0) from ``x_c = ln z_c`` in decimal."""
    if z_c >= sys.float_info.min:
        return f"{z_c:#.6g}"
    import decimal  # here: importing it costs every CLI start about 1.4 ms

    return format(decimal.Context(Emin=decimal.MIN_EMIN).exp(decimal.Decimal(x_c)), ".5e")


def _cmd_critical(cfg: RunConfig) -> int:
    """Print the ferromagnetic ring's critical point; ``T_c/|J|`` for either sign of ``J``."""
    model = build_model(cfg.model)
    if model.variant not in analysis.CRITICAL_VARIANTS:
        names = " and ".join(analysis.CRITICAL_VARIANTS)
        raise ValidationError(f"critical supports the {names} models, not {model.variant!r}")
    point = analysis.xxz_critical(model.closed_form_params()[1])
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
        _emit_rows(cfg, ["z_c", "x_c", "Tc_per_J"], rows)
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    model = build_model(cfg.model)
    if not cfg.grid:
        raise ValidationError("sweep needs at least one [grid:...] section")
    columns, blocks = analysis.sweep_blocks(
        analysis.SweepConfig(model=model, axes=tuple(cfg.grid), T=cfg.T),
        cfg.columns or [axis.name for axis in cfg.grid] + ["C"])
    _emit(cfg, list(columns), ([block[col] for col in columns] for block in blocks))
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
        _emit_rows(cfg, ["check", "status", "detail", "basis"], rows)
    return 1 if failed else 0


#: ``(J, delta, B)`` of verify's spectrum check: six uniform draws, J in [-2, 2),
#: delta in [-3, 2) and B in [-3, 3).
_SPECTRUM_POINTS = (
    (0.7682878390288406, -0.9441033068940268, -1.8038980194896428),
    (-0.02390584427421505, 1.6599028088805863, -0.02026031823051966),
    (1.5930890687678363, 1.2981344592540474, -2.647446411635091),
    (1.6393825738362349, 0.4175234344345067, 2.920273644020484),
    (1.63999438985685, 0.7294452632600148, -1.0350709764338162),
    (-0.006004955336266438, 1.2587880280743917, 0.26223113850992075),
)


def run_verification() -> list[tuple[str, bool, str, str]]:
    """Golden-constant and cross-route checks behind ``spinthermal verify``.

    Every expected value states how it is known: an algebraic identity,
    a bisection root, a hand-traced matrix, or agreement between the two
    independent computation routes.
    """
    checks: list[tuple[str, bool, str, str]] = []

    def record(name: str, ok: bool, detail: str, tag: str) -> None:
        checks.append((name, bool(ok), detail, tag))

    # Spectra of the three named models against their exact energies.
    worst = 0.0
    for J, delta, B in _SPECTRUM_POINTS:
        for model in (spinmodel.ModelSpec.xx(J), spinmodel.ModelSpec.xxz(J, delta),
                      spinmodel.ModelSpec.xxz_field(J, delta, B)):
            num = sorted(linalg.hermitian_eigen(spinmodel.build_hamiltonian(model)).eigenvalues)
            ana = sorted(spinmodel.analytic_energies(model))
            worst = max(worst, *(abs(a - b) for a, b in zip(num, ana)))
    record("spectrum-multisets", worst <= 1e-10, f"max|dE|={worst:.2e}<=1e-10",
           "exact energies")

    # Shared eigenbasis.
    states = spinmodel.analytic_eigenstates()
    worst = 0.0
    for model in (spinmodel.ModelSpec.xx(-1.0), spinmodel.ModelSpec.xxz(1.0, 0.5),
                  spinmodel.ModelSpec.xxz_field(1.0, 1.0, 2.0)):
        h = spinmodel.build_hamiltonian(model)
        for energy, psi in zip(spinmodel.analytic_energies(model), states):
            residual = [sum(map(operator.mul, row, psi)) - energy * x for row, x in zip(h, psi)]
            worst = max(worst, math.hypot(*map(abs, residual)))
    record("shared-eigenbasis", worst <= 1e-10, f"max residual={worst:.2e}",
           "exact eigenstates")

    # Reduced-state golden: equal mixture of the two symmetric states.
    reduced = thermalstate.partial_trace(linalg.mixture([1.0, 1.0], [states[3], states[6]]))
    golden = [[0.5, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0.5]]
    dev = max(abs(x - 2.0 / 3.0 * g) for row, want in zip(reduced, golden)
              for x, g in zip(row, want))
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
    record("zero-T-transition", worst <= 1e-12,
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
    record("numeric-vs-closed", worst <= 1e-12, f"max|dC|={worst:.2e} on 24 points",
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
    if cfg.out:
        _check_output_path(cfg.out)
    return _DISPATCH[cfg.command](cfg)


def _config_from_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="spinthermal",
        description="Thermal pairwise entanglement in three-qubit Heisenberg rings.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a config file")
    flags = [f"--{name}" for name in _FLAGS]
    for flag, name in zip(flags, _FLAGS):
        parser.add_argument(flag, help=_FLAG_HELP.get(name))
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--J -1e-2" as "--J=-1e-2", and so after the prefix of one flag alone ("--del"):
    # argparse reads a value such as -1e-2 or -inf as an option
    for i in reversed(range(len(argv) - 1)):
        named = [flag for flag in flags if flag.startswith(argv[i])]
        if (argv[i] in flags or len(named) == 1) and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = parser.parse_args(argv)

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", exc)  # the OS reason, or the decoding error
            raise ValidationError(f"cannot read config {args.config!r}: {reason}") from None
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    cfg.command = args.command
    for name in _FLAGS:
        value = getattr(args, name)
        if value is not None:
            _set_key(cfg, "model" if name in _MODEL_KEYS else None, name, value, f"--{name}")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(argv)
        return run(cfg)
    except SpinThermalError as exc:
        label = "config error" if isinstance(exc, InputError) else "numeric failure"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
