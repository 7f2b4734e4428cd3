import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinthermal.analysis import SweepAxis, SweepConfig, sweep, sweep_blocks
from spinthermal.cli import (
    _fmt,
    _round12,
    RunConfig,
    build_model,
    main,
    parse_config,
    render_csv,
    render_json,
)
from spinthermal.errors import (
    InputError,
    ParseError,
    SpinThermalError,
    UnknownKey,
    ValidationError,
)
import spinthermal
import spinthermal.analysis as analysis_module
import spinthermal.cli as cli_module
import spinthermal.concurrence as concurrence_module
from spinthermal import concurrence_general, gibbs_density, partial_trace

FIG6_CONFIG = """\
command = sweep
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
"""


def test_readme_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = tmp_path / "fig.ini"
    config.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    out = tmp_path / "fig.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "T,C" and len(lines) == 201


def test_parse_minimal_config():
    cfg = parse_config(
        "command = concurrence\nT = 1\n\n[model]\nmodel = xx\nJ = -1\n"
    )
    assert cfg.command == "concurrence"
    assert cfg.T == 1.0
    assert cfg.model == {"model": "xx", "J": -1.0}


def test_parse_delta_alias():
    for key in ("delta", "Δ"):
        cfg = parse_config(f"[model]\nmodel = xxz\nJ = -1\n{key} = 0.5\n")
        assert cfg.model["delta"] == 0.5


def test_parse_comments_and_blanks():
    cfg = parse_config("# header\n\ncommand = verify\n# done\n")
    assert cfg.command == "verify"


def test_parse_grid_sections():
    cfg = parse_config(FIG6_CONFIG)
    assert cfg.grid == [SweepAxis(name="T", start=0.02, stop=4.0, steps=200)]
    assert cfg.columns == ("T", "C")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("command = eig\nnonsense line\n")
    with pytest.raises(UnknownKey, match="line 1"):
        parse_config("bogus = 1\n")
    with pytest.raises(UnknownKey, match="line 3"):
        parse_config("[model]\nmodel = xx\ncolor = red\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_config("[model]\nJ = not-a-number\n")
    with pytest.raises(ValidationError, match="steps"):
        parse_config("[grid:T]\nmin = 0\nmax = 1\nsteps = 2.5\n")
    with pytest.raises(ValidationError, match="missing"):
        parse_config("[grid:T]\nmin = 0\nsteps = 5\n")
    with pytest.raises(ParseError, match="unknown section"):
        parse_config("[other]\nx = 1\n")
    with pytest.raises(ParseError, match="unknown grid axis"):
        parse_config("[grid:phi]\nmin = 0\nmax = 1\nsteps = 5\n")


@pytest.mark.parametrize("text, line, key, first", [
    ("T = 1\nT = 2\n", 2, "T", 1),
    ("[model]\nmodel = xx\nJ = 1\n[grid:T]\nmin = 1\nmax = 2\nsteps = 2\n[model]\nJ = -1\n",
     9, "J", 3),
    ("[model]\ndelta = 0.5\nΔ = 0.25\n", 3, "delta", 2),
    ("[grid:T]\nmin = 1\nmax = 2\nsteps = 2\nsteps = 3\n", 5, "steps", 4),
])
def test_parse_rejects_a_key_set_twice_in_one_section(text, line, key, first, tmp_path, capsys):
    message = f"line {line}: key {key!r} repeated (first set on line {first})"
    with pytest.raises(ParseError) as excinfo:
        parse_config(text)
    assert str(excinfo.value) == message
    config = tmp_path / "twice.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["thermal", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_parse_accepts_one_key_in_two_sections():
    cfg = parse_config("T = 1\n[grid:T]\nmin = 1\nmax = 2\nsteps = 2\n"
                       "[grid:B]\nmin = 0\nmax = 1\nsteps = 3\n")
    assert cfg.T == 1.0 and [axis.steps for axis in cfg.grid] == [2, 3]


def test_build_model_names_missing_field():
    with pytest.raises(ValidationError, match="J"):
        build_model({"model": "xx"})
    with pytest.raises(ValidationError, match="delta"):
        build_model({"model": "xxz", "J": 1.0})
    with pytest.raises(ValidationError, match="model"):
        build_model({})


def test_parse_xyz_model_with_format_and_out():
    cfg = parse_config(
        "command = eig\nout = spectrum.json\nformat = json\n\n"
        "[model]\nmodel = xyz\nJ1 = 1.0\nJ2 = -0.5\nJ3 = 0.25\n"
        "B1 = 0.0\nB2 = 0.0\nB3 = 0.5\n"
    )
    assert cfg == RunConfig(
        command="eig",
        model={"model": "xyz", "J1": 1.0, "J2": -0.5, "J3": 0.25,
               "B1": 0.0, "B2": 0.0, "B3": 0.5},
        format="json",
        out="spectrum.json",
    )


def test_parse_grid_axes_are_t_and_the_model_fields_in_any_case():
    text = "".join(f"[grid:{axis}]\nmin = 0\nmax = 1\nsteps = 2\n"
                   for axis in ("t", "Δ", "b3", "J1"))
    assert [axis.name for axis in parse_config(text).grid] == ["T", "delta", "B3", "J1"]
    with pytest.raises(ParseError, match="unknown grid axis 'model'"):
        parse_config("[grid:model]\nmin = 0\nmax = 1\nsteps = 2\n")


def test_cli_sweep_rejects_a_field_axis_outside_the_variant(tmp_path, capsys):
    config = tmp_path / "j1.cfg"
    config.write_text("T = 1\n[grid:J1]\nmin = 0\nmax = 1\nsteps = 2\n")
    assert main(["sweep", "--config", str(config), "--model", "xx", "--J=1"]) == 2
    assert capsys.readouterr().err == (
        "config error: axis 'J1' does not apply to variant 'xx'\n")


XYZ_MODEL = "[model]\nmodel = xyz\nJ1 = 1\nJ2 = 0.5\nJ3 = -0.3\nB1 = 0.1\nB2 = 0\nB3 = 0.4\n"


def test_cli_general_xyz_prints_no_closed_form_columns(tmp_path, capsys):
    config = tmp_path / "xyz.cfg"
    config.write_text(XYZ_MODEL)
    assert main(["thermal", "--config", str(config), "--T=1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "T,Z"
    assert main(["concurrence", "--config", str(config), "--T=1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "T,C_numeric,C_closed" and row.endswith(",")


def test_cli_general_xyz_runs_from_flags_alone(tmp_path, capsys):
    # an entangled point, so the row shows the couplings reached the model
    fields = {"J1": "-1", "J2": "-0.8", "J3": "-0.2", "B1": "0.1", "B2": "0.1", "B3": "0.1"}
    config = tmp_path / "xyz.cfg"
    config.write_text("[model]\nmodel = xyz\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["concurrence", "--config", str(config), "--T=0.4"]) == 0
    from_config = capsys.readouterr().out
    flags = [arg for key, value in fields.items() for arg in (f"--{key}", value)]
    assert main(["concurrence", "--model", "xyz", *flags, "--T", "0.4"]) == 0
    assert capsys.readouterr().out == from_config == "T,C_numeric,C_closed\n0.4,0.28219508617,\n"


def test_render_csv_formatting():
    text = render_csv(["a", "b"], [{"a": 1.0 / 3.0, "b": None}, {"a": 2, "b": "x"}])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "0.333333333333,"
    assert lines[2] == "2,x"
    assert text.endswith("\n") and "\r" not in text


def per_cell_csv(columns, rows):
    """Reference for :func:`render_csv`: every cell through ``_fmt``."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(col)) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 0.1 + 0.2)

# Special values, repeated: 0.0 and -0.0 compare equal and print apart, two NaN
# objects compare unequal.
REPEATED_SPECIALS = [0.0, -0.0, None, float("nan"), float("nan"), math.inf] * 8
REPEATED_ONE_ZERO = [-0.0, None, float("nan"), float("nan"), math.inf, 1.5] * 8


@pytest.mark.parametrize("columns, rows", (
    (["a", "b"], [{"a": x, "b": y} for x in SPECIAL_FLOATS for y in SPECIAL_FLOATS]),
    (["a"], [{"a": x, "b": None} for x in SPECIAL_FLOATS]),
    (["a", "b"], []),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": 0.1 + 0.2, "b": None}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": 0.1 + 0.2, "b": 2}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": -0.0, "b": "x"}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": -0.0}]),
    (["k"], [{"k": 10**20}]),
    (["a", "b"], [{"a": x, "b": y} for x, y in zip(REPEATED_SPECIALS, REPEATED_SPECIALS[1:])]),
    (["a", "b"], [{"a": x, "b": y} for x, y in zip(REPEATED_ONE_ZERO, REPEATED_SPECIALS)]),
))
def test_render_csv_matches_the_per_cell_format(columns, rows):
    assert render_csv(columns, rows) == per_cell_csv(columns, rows)


JSON_META = {"command": "sweep", "model": {"model": "xx", "J": 1.0}, "T": None,
             "grid": [{"axis": "T", "min": 0.1, "max": 1.0, "steps": 2}],
             "columns": ["T", "C", "tag"]}


@pytest.mark.parametrize("rows", (
    [],
    [{"T": 0.25, "C": math.inf, "tag": "x"}],
    [{"T": -0.0, "C": None, "tag": 'Δ "q" },\n      {'},
     {"T": 2, "C": -math.inf, "tag": None},
     {"T": 1e-300, "tag": "}, {"}],
))
def test_render_json_matches_indented_dumps(rows):
    columns = ["T", "C", "tag"]
    payload = {"meta": JSON_META,
               "rows": [{col: row.get(col) for col in columns} for row in rows]}
    assert render_json(JSON_META, columns, rows) == json.dumps(payload, indent=2) + "\n"


def rounded_dumps(meta, columns, rows):
    """Reference for :func:`render_json`: the rounded rows through ``json.dumps``."""
    payload = {"meta": meta,
               "rows": [{col: _round12(row[col]) for col in columns} for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


# Where %.12g and json.dumps part ways: integral values, non-finite values,
# decimal exponents +12 to +15 and subnormals, with their neighbours.
JSON_BOUNDARY_FLOATS = (
    0.0, -0.0, 3.0, -3.0, 1e11, 99999999999.9, 1e12, 999999999999.9, -1.5e13,
    9.99999999999999e15, 1e16, 1e-5, 1e-4, math.inf, -math.inf, math.nan, 5e-324,
    2.225073858507e-308, 1e-307, 1e300, 0.1 + 0.2,
)


def log_uniform_floats(count, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), count)
    return (signs * 10.0 ** rng.uniform(-320.0, 308.0, count)).tolist()


@pytest.mark.parametrize("values", (JSON_BOUNDARY_FLOATS, log_uniform_floats(6000, 17),
                                    REPEATED_SPECIALS, REPEATED_ONE_ZERO),
                         ids=("boundary", "log-uniform", "repeated specials", "repeated one zero"))
@pytest.mark.parametrize("columns", (["x"], ["T", "50%", 'say "q"', "%s", "Z"]),
                         ids=("one column", "five columns"))
def test_render_json_all_float_rows_match_rounded_dumps(values, columns):
    # row k starts at value k, so every value lands in every column
    cycled = list(values) * 2
    rows = [dict(zip(columns, cycled[k:])) for k in range(len(values))]
    assert render_json(JSON_META, columns, rows) == rounded_dumps(JSON_META, columns, rows)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_block_rendering_tests_columns_by_identity(fmt, monkeypatch):
    """A column whose cells are all one object is formatted once, and a column
    that is the previous block's column in its position is not formatted again.
    Both tests use ``is``: ``[0.0] * 3`` after ``[-0.0] * 3`` is equal to it but
    prints ``0``, and ``[0.0, -0.0, 0.0]`` is not one value."""
    zero, nan = 0.0, float("nan")
    inner = [-0.0, 1.5, None]
    blocks = [[[-0.0] * 3, inner, [zero, -0.0, zero]],
              [[zero] * 3, inner, [nan] * 3],
              [[float("nan")] * 3, inner, [None] * 3]]
    columns = ["a", "b", "c"]
    rows = [dict(zip(columns, row)) for block in blocks for row in zip(*block)]
    name = "_json_cells" if fmt == "json" else "_csv_cells"
    cells, lengths = getattr(cli_module, name), []
    monkeypatch.setattr(cli_module, name, lambda column: lengths.append(len(column))
                        or cells(column))
    if fmt == "json":
        text = "".join(cli_module._json_parts(JSON_META, columns, blocks))
        assert text == rounded_dumps(JSON_META, columns, rows)
    else:
        text = "".join(cli_module._csv_parts(columns, blocks))
        assert text == per_cell_csv(columns, rows)
    assert lengths == [1, 3, 3, 1, 1, 1, 1]


FIELD_GRID_CONFIG = """\
command = sweep
columns = T,B,C,witness,Z

[model]
model = xxzfield
J = 1.0
delta = 1.0
B = 0.0

[grid:T]
min = 0.02
max = 4.0
steps = 200

[grid:B]
min = 0.0
max = 3.0
steps = 200
"""

XXZ_TC_GAP_CONFIG = """\
command = sweep
columns = T,delta,C,witness,T_c

[model]
model = xxz
J = -1.0
delta = 0.0

[grid:T]
min = 0.05
max = 4.0
steps = 20

[grid:delta]
min = -3.0
max = 3.0
steps = 30
"""

# The xxz benchmark grid: T_c is a float on every row
XXZ_TC_GRID_CONFIG = """\
command = sweep
columns = T,delta,C,witness,T_c

[model]
model = xxz
J = -1.0
delta = 0.0

[grid:T]
min = 0.05
max = 4.0
steps = 200

[grid:delta]
min = -3.0
max = 0.99
steps = 200
"""


@pytest.mark.parametrize("config_text",
                         (FIELD_GRID_CONFIG, FIG6_CONFIG, XXZ_TC_GAP_CONFIG, XXZ_TC_GRID_CONFIG),
                         ids=("field 200x200", "figure", "xxz with empty T_c", "xxz 200x200"))
def test_cli_json_sweep_matches_rounded_dumps(config_text, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(config_text)
    cfg = parse_config(config_text)
    records = sweep(SweepConfig(build_model(cfg.model), tuple(cfg.grid), cfg.T))
    if config_text is XXZ_TC_GAP_CONFIG:
        assert any(record["T_c"] is None for record in records)
    for fmt in ("csv", "json"):
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text == per_cell_csv(cfg.columns, records)
        else:
            assert text == rounded_dumps(json.loads(text)["meta"], cfg.columns, records)


def xxz_across_delta_one(axes):
    """An xxz sweep of 37 anisotropies over [-1, 2] and 61 temperatures, in
    ``axes`` order: ``T_c`` is a float below delta = 1 and None from there on."""
    text = "command = sweep\ncolumns = T,J,delta,C,witness,Z,T_c\n\n"
    text += "[model]\nmodel = xxz\nJ = -1.0\ndelta = 0.0\n"
    ranges = {"T": "min = 0.05\nmax = 4.0\nsteps = 61",
              "delta": "min = -1.0\nmax = 2.0\nsteps = 37"}
    return text + "".join(f"\n[grid:{axis}]\n{ranges[axis]}\n" for axis in axes)


# ROADMAP item 1's model at low T: C is 0.0 on all but a few of 3000 points (3 blocks)
LOW_T_FIELD_CONFIG = """\
command = sweep
columns = T,C,witness,Z

[model]
model = xxzfield
J = 1.0
delta = -0.5
B = 1.0

[grid:T]
min = 0.005
max = 0.5
steps = 3000
"""

NONE = type(None)


@pytest.mark.parametrize("config_text, T_c_kinds", (
    # one anisotropy a line: lines of float T_c and lines of None, 37 lines of 61 points
    (xxz_across_delta_one(("delta", "T")), {frozenset({float}), frozenset({NONE})}),
    (xxz_across_delta_one(("T", "delta")), {frozenset({float, NONE})}),
    (LOW_T_FIELD_CONFIG, None),
), ids=("delta outer", "T outer", "low-T field"))
def test_cli_block_rendering_matches_the_per_cell_references(config_text, T_c_kinds, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(config_text)
    cfg = parse_config(config_text)
    sweep_config = SweepConfig(build_model(cfg.model), tuple(cfg.grid), cfg.T)
    if T_c_kinds is not None:
        blocks = sweep_blocks(sweep_config)[1]
        assert {frozenset(map(type, block["T_c"])) for block in blocks} == T_c_kinds
    records = sweep(sweep_config)
    if T_c_kinds is None:
        assert sum(record["C"] == 0.0 for record in records) > 0.99 * len(records)
    for fmt in ("csv", "json"):
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text == per_cell_csv(cfg.columns, records)
        else:
            assert text == rounded_dumps(json.loads(text)["meta"], cfg.columns, records)


@pytest.mark.parametrize("axes", (("T", "B"), ("B", "T")), ids=("T outer", "B outer"))
def test_cli_sweep_prints_a_negative_zero_axis_end_in_every_line(axes, tmp_path):
    ranges = {"T": "min = 0.5\nmax = 1\nsteps = 4", "B": "min = -1\nmax = -0.0\nsteps = 3"}
    config_text = ("command = sweep\ncolumns = T,B,C\n[model]\nmodel = xxzfield\nJ = 1\n"
                   "delta = 1\nB = 0\n" + "".join(f"[grid:{a}]\n{ranges[a]}\n" for a in axes))
    config = tmp_path / "sweep.cfg"
    config.write_text(config_text)
    cfg = parse_config(config_text)
    records = sweep(SweepConfig(build_model(cfg.model), tuple(cfg.grid), cfg.T))
    for fmt, zero in (("csv", "-0"), ("json", "-0.0")):
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        if fmt == "csv":
            assert text == per_cell_csv(cfg.columns, records)
            B_cells = [line.split(",")[1] for line in text.splitlines()[1:]]
        else:
            assert text == rounded_dumps(json.loads(text)["meta"], cfg.columns, records)
            rows = text.partition('"rows": [')[2]
            B_cells = [line.split(": ")[1].rstrip(",") for line in rows.splitlines()
                       if line.startswith('      "B": ')]
        assert len(B_cells) == 12 and B_cells.count(zero) == 4  # one point a T


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_cli_sweep_with_a_nan_in_a_later_block_writes_nothing(fmt, monkeypatch, tmp_path,
                                                              capsys):
    inner, calls = analysis_module.route_columns, []

    def nan_in_the_second_block(coordinates, temperatures):
        calls.append(len(temperatures))
        C, Z, *rest = inner(coordinates, temperatures)
        if len(calls) == 2:
            Z[-1] = math.nan
        return C, Z, *rest

    monkeypatch.setattr(analysis_module, "route_columns", nan_in_the_second_block)
    config, out = tmp_path / "sweep.cfg", tmp_path / f"sweep.{fmt}"
    config.write_text(FIELD_GRID_CONFIG)
    assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: Z is NaN at")
    assert calls == [200, 200]  # one call a line; the second block is not yielded
    assert not out.exists()


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("config_text", (
    FIG6_CONFIG.replace("columns = T,C", "columns = T,T,C"),
    XXZ_TC_GAP_CONFIG.replace("columns = T,delta,C,witness,T_c", "columns = T,T,T_c"),
), ids=("all floats", "empty T_c"))
def test_cli_rejects_a_repeated_output_column(config_text, fmt, tmp_path, capsys):
    # the all-float JSON table printed "T" twice per row, a table with a None once
    config, out = tmp_path / "sweep.cfg", tmp_path / f"sweep.{fmt}"
    config.write_text(config_text)
    assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(": column 'T' repeated\n")
    assert not out.exists()


@pytest.mark.parametrize("value", (",", " , ,"))
def test_cli_rejects_a_columns_line_that_names_no_column(value, tmp_path, capsys):
    # it was ignored: the sweep exited 0 with the default columns T,C
    config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    config.write_text(FIG6_CONFIG.replace("columns = T,C", f"columns = {value}"))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: line 3: columns names no column\n"
    assert not out.exists()


# a level weight's exponent overflows to -inf; C there is the T = 0 value,
# 1/3 at B = 1 and 0 beyond the crossing at 3/2
LOW_T_WITNESS_CONFIG = ("command = sweep\ncolumns = B,C\nT = 1e-310\n"
                        "[model]\nmodel = xxzfield\nJ = 1\ndelta = 1\nB = 0\n"
                        "[grid:B]\nmin = 1\nmax = 5\nsteps = 3\n")


def test_cli_sweep_without_the_witness_column_skips_a_nan_witness(tmp_path):
    config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    config.write_text(LOW_T_WITNESS_CONFIG)
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == "B,C\n1,0.333333333333\n3,0\n5,0\n"


def test_cli_sweep_naming_the_witness_column_prints_an_infinite_witness(tmp_path, capsys):
    # the witness was nan and the sweep exited 3; the pair is entangled at every B
    # (|rho_y| falls as exp(-3/T) slower than sqrt(rho00 rho11)), where C underflows
    config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    config.write_text(LOW_T_WITNESS_CONFIG.replace("columns = B,C", "columns = B,C,witness"))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text() == "B,C,witness\n1,0.333333333333,inf\n3,0,inf\n5,0,inf\n"


def test_cli_reports_an_unknown_column_before_evaluating_the_grid(monkeypatch, tmp_path,
                                                                  capsys):
    def never(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(analysis_module, "route_columns", never)
    config = tmp_path / "sweep.cfg"
    config.write_text(FIG6_CONFIG.replace("columns = T,C", "columns = T,Tc"))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "config error: unknown output column 'Tc'\n"


def test_cli_critical_stdout(capsys):
    assert main(["critical", "--model", "xx", "--J", "-1"]) == 0
    out = capsys.readouterr().out
    assert "z_c = 0.455410" in out
    assert "x_c = -0.786557" in out
    assert "T_c/|J| = 1.271364" in out


def test_cli_critical_prints_a_tiny_z_c_in_significant_digits(capsys):
    # z_c = 3**-50 at delta = 0.99; six fixed decimals would print 0.000000
    assert main(["critical", "--model", "xxz", "--J", "-1", "--delta", "0.99"]) == 0
    out = capsys.readouterr().out
    assert "z_c = 1.39296e-24\n" in out
    assert "x_c = -54.930614\n" in out


def test_cli_critical_keeps_its_digits_as_delta_tends_to_one(capsys):
    # z_c = exp(x_c) underflows to 0 at delta = 0.9999, and T_c/|J| falls
    # below the sixth decimal; delta = 0.99 and xx keep their bytes
    assert main(["critical", "--model", "xxz", "--J", "-1", "--delta", "0.9999"]) == 0
    assert capsys.readouterr().out == ("z_c = 2.47586e-2386\nx_c = -5493.061443\n"
                                       "T_c/|J| = 0.0001820478\n")
    assert main(["critical", "--model", "xxz", "--J", "-1", "--delta", "0.999999"]) == 0
    assert "T_c/|J| = 1.820478e-06\n" in capsys.readouterr().out
    assert main(["critical", "--model", "xxz", "--J", "-1", "--delta", "0.99"]) == 0
    assert "T_c/|J| = 0.01820478\n" in capsys.readouterr().out


def test_cli_concurrence_both_routes(capsys):
    assert main(["concurrence", "--model", "xxz", "--J", "-1",
                 "--delta", "-0.5", "--T", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "T,C_numeric,C_closed"
    numeric, closed = (float(x) for x in lines[1].split(",")[1:])
    assert abs(numeric - closed) < 1e-9


@pytest.mark.parametrize("J, delta, B, C", (
    # antiferromagnet: 1/3 for 0 < |B| < J (delta + 1/2), 2/9 on that line, 0 beyond
    (1.0, 1.0, 1.0, 1.0 / 3.0), (1.0, 1.0, 1.5, 2.0 / 9.0), (1.0, 1.0, 2.0, 0.0),
    (2.0, 0.5, 1.0, 1.0 / 3.0), (2.0, 0.5, 2.0, 2.0 / 9.0), (2.0, 0.5, 3.0, 0.0),
    (1.0, 1.0, -1.5, 2.0 / 9.0), (1.0, 1.0, 0.0, 0.0),
    # ferromagnet, delta < 1: 2/3 for 0 < |B| < |J| (1 - delta), 1/3 on that line, 0 beyond
    (-1.0, -3.0, 0.25, 2.0 / 3.0), (-1.0, -3.0, 4.0, 1.0 / 3.0), (-1.0, -3.0, 5.0, 0.0),
    (-2.0, 0.0, 1.0, 2.0 / 3.0), (-2.0, 0.0, 2.0, 1.0 / 3.0), (-2.0, 0.0, 3.0, 0.0),
    (-2.0, 0.0, 0.0, 1.0 / 3.0),
))
def test_cli_concurrence_at_zero_temperature(J, delta, B, C, capsys):
    assert main(["concurrence", "--model", "xxzfield", f"--J={J}", f"--delta={delta}",
                 f"--B={B}", "--T=0"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "T,C_numeric,C_closed"
    T, numeric, closed = row.split(",")
    assert (T, closed) == ("0", format(C, ".12g"))
    assert abs(float(numeric) - C) <= 1e-12


def test_cli_sweep_csv_header(tmp_path, capsys):
    config = tmp_path / "fig6.cfg"
    config.write_text(FIG6_CONFIG)
    out = tmp_path / "fig6.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "T,C"
    assert len(lines) == 202  # header + 200 rows + trailing newline


def test_cli_sweep_is_byte_identical(tmp_path):
    config = tmp_path / "fig6.cfg"
    config.write_text(FIG6_CONFIG)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_writes_only_the_output_path(tmp_path):
    config = tmp_path / "fig6.cfg"
    config.write_text(FIG6_CONFIG)
    out = tmp_path / "only.csv"
    before = set(tmp_path.iterdir())
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    after = set(tmp_path.iterdir())
    assert after - before == {out}


def test_cli_json_output(tmp_path):
    out = tmp_path / "point.json"
    assert main(["concurrence", "--model", "xx", "--J", "-2", "--T", "1",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "concurrence"
    assert payload["meta"]["model"] == {"model": "xx", "J": -2.0}
    assert len(payload["rows"]) == 1
    assert abs(payload["rows"][0]["C_numeric"] - payload["rows"][0]["C_closed"]) < 1e-9


def test_cli_flags_override_config(tmp_path, capsys):
    config = tmp_path / "base.cfg"
    config.write_text("T = 1\n\n[model]\nmodel = xx\nJ = 1\n")
    assert main(["thermal", "--config", str(config), "--J", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["Z"] == "8"  # J = 0 means all eight weights are 1


def test_cli_exit_codes(capsys):
    assert main(["concurrence", "--model", "xx", "--T", "1"]) == 2  # J missing
    assert main(["concurrence", "--model", "xx", "--J", "1", "--T", "-1"]) == 2
    assert main(["critical", "--model", "xxzfield", "--J", "1", "--delta", "1",
                 "--B", "1"]) == 2
    capsys.readouterr()


def test_cli_eig_of_a_norm_beyond_the_float_range_exits_3(capsys):
    # hopping entries of 1e308: m + m^H overflows
    assert main(["eig", "--model", "xx", "--J=1e308"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: the Frobenius norm")


@pytest.mark.parametrize("J, energies", (
    ("1e-170", ("-1e-170",) * 4 + ("0",) * 2 + ("2e-170",) * 2),  # printed eight 0
    ("1e160", ("-1e+160",) * 4 + ("0",) * 2 + ("2e+160",) * 2),  # exited 3
))
def test_cli_eig_prints_the_ring_levels_at_any_scale(J, energies, capsys):
    assert main(["eig", "--model", "xx", f"--J={J}"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1] for row in rows] == list(energies)
    assert [row[2] for row in rows] == ["0"] * 4 + ["1"] * 2 + ["2"] * 2


@pytest.mark.parametrize("argv, row", (
    # C_numeric read 0 beside C_closed, and 1e155 exited 3
    (["--model", "xx", "--J=-1e-170", "--T=1e-170"], "1e-170,0.1065789038,0.1065789038"),
    (["--model", "xx", "--J=-1e155", "--T=1e155"], "1e+155,0.1065789038,0.1065789038"),
    # both routes read 0: DEGENERACY_TOL (1 + |E|) grouped every level at |J| = 1e-9
    (["--model", "xxzfield", "--J=1e-9", "--delta=1", "--B=5e-10", "--T=0"],
     "0,0.333333333333,0.333333333333"),
    (["--model", "xxzfield", "--J=-1e-9", "--delta=-0.5", "--B=5e-10", "--T=0"],
     "0,0.666666666667,0.666666666667"),
))
def test_cli_concurrence_depends_on_the_ratios_alone(argv, row, capsys):
    assert main(["concurrence", *argv]) == 0
    assert capsys.readouterr().out == f"T,C_numeric,C_closed\n{row}\n"


@pytest.mark.parametrize("model", (
    ["--model", "xxz", "--J=1e200", "--delta=1e200"],  # delta * J / 2 is inf
    ["--model", "xxzfield", "--J=1", "--delta=1", "--B=1.7e308"],
))
def test_cli_eig_of_an_overflowing_hamiltonian_exits_3_without_a_warning(model, capsys):
    assert main(["eig", *model]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric failure: a coupling or an entry of the Hamiltonian"
                            " is beyond the float range\n")


@pytest.mark.parametrize("command, model, row", (
    ("concurrence", ["--J=-0.027", "--B=-1.1e5"], "1e-310,0.333333333333,0.333333333333"),
    ("thermal", ["--J=0"], "1e-310,8,3,3,3,0"),  # Z was nan: 1/T overflowed, beta * 0 is nan
))
def test_cli_at_a_subnormal_temperature_warns_nothing(command, model, row, capsys):
    # (E - E_min)/T overflows; the weight is exp(-inf) = 0, not a RuntimeWarning
    assert main([command, "--model", "xx", *model, "--T=1e-310"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == row


@pytest.mark.parametrize("flags", (["--J", "inf", "--T", "1"], ["--J", "1", "--T", "nan"]))
def test_cli_rejects_non_finite_flags(flags, capsys):
    assert main(["concurrence", "--model", "xx", *flags]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", (
    (["--J", "abc"], "--J: J = 'abc' is not a number"),
    (["--J", "inf"], "--J: J must be finite, got 'inf'"),
    (["--format", "xml"], "--format: format must be csv or json"),
    (["--J", "-inf"], "--J: J must be finite, got '-inf'"),
))
def test_cli_reports_a_bad_flag_as_a_config_error(flags, message, capsys):
    # argparse printed its usage and exited through SystemExit for all but the second
    assert main(["concurrence", "--model", "xx", "--J", "1", "--T", "1", *flags]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("value, row", (("-1e-2", "1,0,0"),
                                        ("-1E2", "1,0.333333333333,0.333333333333")))
def test_cli_reads_a_negative_flag_value_in_exponent_form(value, row, capsys):
    # argparse read -1e-2 as an option: "argument --J: expected one argument", exit 2
    assert main(["concurrence", "--model", "xx", "--J", value, "--T", "1"]) == 0
    assert capsys.readouterr() == (f"T,C_numeric,C_closed\n{row}\n", "")
    assert main(["concurrence", "--model", "xx", f"--J={value}", "--T", "1"]) == 0
    assert capsys.readouterr().out == f"T,C_numeric,C_closed\n{row}\n"


def test_cli_reads_a_negative_value_after_the_prefix_of_one_flag(capsys):
    # only exact flags took a value starting with "-": "--del -1e-2" exited 2 with the usage
    want = "T,C_numeric,C_closed\n1,0.108985460365,0.108985460365\n"
    for flags in (["--J", "-1", "--del", "-1e-2"], ["--J", "-1", "--d", "-1e-2"],
                  ["--J=-1", "--delta=-1e-2"]):
        assert main(["concurrence", "--model", "xxz", *flags, "--T", "1"]) == 0
        assert capsys.readouterr() == (want, "")
    # the exact flag --J wins over --J1, --J2 and --J3, of which it is a prefix
    assert main(["concurrence", "--model", "xyz", "--J", "-1", "--J2", "1", "--J3", "1",
                 "--B1", "0", "--B2", "0", "--B3", "0", "--T", "1"]) == 2
    assert capsys.readouterr().err == "config error: variant 'xyz' requires field 'J1'\n"


def test_cli_flags_and_config_lines_give_the_same_json(tmp_path, capsys):
    config = tmp_path / "point.cfg"
    config.write_text("T = 0.7\nformat = json\n[model]\nmodel = XXZfield\n"
                      "J = -1\nΔ = 0.5\nB = 2\n")
    assert main(["thermal", "--config", str(config)]) == 0
    from_config = capsys.readouterr().out
    assert main(["thermal", "--model", "XXZfield", "--J=-1", "--delta", "0.5", "--B", "2",
                 "--T", "0.7", "--format", "json"]) == 0
    from_flags = capsys.readouterr().out
    assert from_flags == from_config
    assert json.loads(from_flags)["meta"]["model"] == {"model": "xxzfield", "J": -1.0,
                                                       "delta": 0.5, "B": 2.0}


EXPORTED_ERRORS = [error for error in map(vars(spinthermal).get, spinthermal.__all__)
                   if isinstance(error, type) and issubclass(error, SpinThermalError)]


#: The errors that exit with 2: the request is outside the accepted input or domain.
INPUT_ERRORS = {"InputError", "ConfigError", "ParseError", "ValidationError", "UnknownKey",
                "InvalidGrid", "InvalidTemperature", "UnsupportedModel", "OutOfDomain", "NoRoot"}


@pytest.mark.parametrize("error", EXPORTED_ERRORS, ids=lambda error: error.__name__)
def test_main_exits_with_the_code_of_the_error_raised(error, monkeypatch, capsys):
    def fail(cfg):
        raise error("synthetic fault")

    monkeypatch.setattr(cli_module, "run", fail)
    assert issubclass(error, InputError) == (error.__name__ in INPUT_ERRORS)
    if issubclass(error, InputError):
        assert main(["eig"]) == 2
        assert capsys.readouterr().err == "config error: synthetic fault\n"
    else:
        assert main(["eig"]) == 3
        assert capsys.readouterr().err == "numeric failure: synthetic fault\n"


@pytest.mark.parametrize("path, reason", (
    ("missing.cfg", "No such file or directory"),
    ("a-directory", "Is a directory"),
    ("latin1.cfg", "'utf-8' codec can't decode byte 0xe9"),
), ids=("missing", "directory", "not utf-8"))
def test_cli_reports_an_unreadable_config_path(path, reason, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "latin1.cfg").write_bytes("command = eig\n# \u00e9\n".encode("latin-1"))
    before = set(tmp_path.iterdir())
    out = tmp_path / "eig.csv"
    assert main(["eig", "--model", "xx", "--J", "1", "--config", str(tmp_path / path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config "
                                   f"{str(tmp_path / path)!r}: {reason}")
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("path, reason", (
    ("no-such-directory/out.csv", "No such file or directory"),
    ("a-directory", "Is a directory"),
), ids=("missing directory", "directory"))
def test_cli_reports_an_unopenable_output_path(path, reason, monkeypatch, tmp_path, capsys):
    def never(*args):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(analysis_module, "route_columns", never)
    (tmp_path / "a-directory").mkdir()
    config = tmp_path / "fig6.cfg"
    config.write_text(FIG6_CONFIG)
    before = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")}
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: cannot open output "
                            f"{str(tmp_path / path)!r}: {reason}\n")
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("command", ("critical", "verify"))
@pytest.mark.parametrize("path, reason", (
    ("no-such-directory/out.csv", "No such file or directory"),
    ("a-directory", "Is a directory"),
    ("no-such-name/", "Is a directory"),
    ("a-file/out.csv", "Not a directory"),
), ids=("missing directory", "directory", "trailing separator", "file as directory"))
def test_cli_reports_an_unopenable_output_path_before_printing(command, path, reason,
                                                               tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("")
    out = f"{tmp_path}/{path}"  # a Path would drop the trailing separator
    before = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")}
    assert main([command, "--model", "xx", "--J", "-1", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"config error: cannot open output {out!r}: {reason}\n")
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")} == before


def test_main_lets_a_foreign_exception_through(monkeypatch):
    def fail(cfg):
        raise ZeroDivisionError("a bug, not a numeric failure")

    monkeypatch.setattr(cli_module, "run", fail)
    with pytest.raises(ZeroDivisionError):
        main(["eig"])


SPAN_REPROS = (  # each axis spans [-1.7e308, 1.7e308], whose width overflows
    ("xxz", "delta", ["--J=-1", "--delta=0", "--T=1"]),  # T_c bisection hung on a NaN delta
    ("xxz", "J", ["--J=-1", "--delta=0", "--T=1"]),
    ("xxzfield", "B", ["--J=-1", "--delta=0", "--B=0", "--T=1"]),
    ("xxz", "T", ["--J=-1", "--delta=0"]),
)


@pytest.mark.parametrize("variant, axis, flags", SPAN_REPROS,
                         ids=[axis for _, axis, _ in SPAN_REPROS])
def test_cli_rejects_an_axis_whose_span_overflows(variant, axis, flags, tmp_path, capsys):
    config = tmp_path / "span.cfg"
    config.write_text(f"[grid:{axis}]\nmin = -1.7e308\nmax = 1.7e308\nsteps = 3\n")
    assert main(["sweep", "--config", str(config), "--model", variant, *flags]) == 2
    assert "finite span" in capsys.readouterr().err


SWEEP_AXES = {"xx": ("T", "J"), "xxz": ("T", "J", "delta"),
              "xxzfield": ("T", "J", "delta", "B"), "xyz": ("T",)}


def seeded_invocations(seed, count):
    """``count`` argument lists over every command, variant and format.

    ``T`` is log-uniform on [1e-3, 10], ``|J|/T`` and ``|B|/T`` on
    [1e-3, 1e3] with either sign, ``delta`` uniform on [-50, 50]; a sweep
    draws its axis ends the same way (its T ends from the low decade, so
    the ratios stay in range) and 2 to 5 steps.
    """
    rng = np.random.default_rng(seed)

    def ratio():
        return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0))

    variants = tuple(SWEEP_AXES)
    commands = ("eig", "thermal", "concurrence", "critical", "sweep")
    for k in range(count):
        variant, command = variants[k % 4], commands[(k // 4) % 5]
        T = float(10.0 ** rng.uniform(-3.0, 1.0))
        lines = [f"model = {variant}"]
        if variant == "xyz":
            lines += [f"{name} = {ratio() * T!r}"
                      for name in ("J1", "J2", "J3", "B1", "B2", "B3")]
        else:
            lines += [f"J = {ratio() * T!r}", f"delta = {rng.uniform(-50.0, 50.0)!r}",
                      f"B = {ratio() * T!r}"]
        text = "T = %r\n\n[model]\n%s\n" % (T, "\n".join(lines))
        if command == "sweep":
            T_low = float(10.0 ** rng.uniform(-3.0, -1.0))
            for axis in rng.permutation(SWEEP_AXES[variant])[:rng.integers(1, 3)]:
                if axis == "T":
                    ends = sorted(10.0 ** rng.uniform(-3.0, -1.0, 2))
                elif axis == "delta":
                    ends = sorted(rng.uniform(-50.0, 50.0, 2))
                else:
                    ends = sorted((ratio() * T_low, ratio() * T_low))
                text += (f"\n[grid:{axis}]\nmin = {float(ends[0])!r}\n"
                         f"max = {float(ends[1])!r}\nsteps = {rng.integers(2, 6)}\n")
        yield text, [command, "--format", ("csv", "json")[k % 2]]


def test_cli_seeded_inputs_exit_with_a_documented_code(tmp_path, capsys):
    config = tmp_path / "point.cfg"
    codes = []
    for text, argv in seeded_invocations(29, 400):
        config.write_text(text)
        codes.append(main([*argv, "--config", str(config)]))
    for variant, axis, flags in SPAN_REPROS:
        config.write_text(f"[grid:{axis}]\nmin = -1.7e308\nmax = 1.7e308\nsteps = 3\n")
        codes.append(main(["sweep", "--config", str(config), "--model", variant, *flags]))
    codes.append(main(["verify", "--format", "json", "--out", str(tmp_path / "v.json")]))
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3}
    assert codes.count(0) > len(codes) // 2


def test_build_model_turns_model_errors_into_validation_errors():
    with pytest.raises(ValidationError, match="finite"):
        build_model({"model": "xx", "J": math.inf})
    with pytest.raises(ValidationError, match="bogus"):
        build_model({"model": "bogus", "J": 1.0})


def test_cli_sweep_from_T_0_001_has_finite_concurrence(tmp_path):
    config = tmp_path / "cold.cfg"
    config.write_text("command = sweep\ncolumns = T,C\n\n[model]\nmodel = xx\nJ = 1\n\n"
                      "[grid:T]\nmin = 0.001\nmax = 2\nsteps = 50\n")
    out = tmp_path / "cold.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert float(rows[0][0]) == 0.001
    assert all(math.isfinite(float(C)) for _, C in rows)


def numeric_margin(model, T):
    """``l1 - l2 - l3 - l4`` of the numeric route: positive exactly when entangled."""
    lams = concurrence_general(partial_trace(gibbs_density(model, T))).lambdas
    return lams[0] - lams[1] - lams[2] - lams[3]


@pytest.mark.parametrize("model, low, high", (
    ("model = xx\nJ = 1", 0.002, 0.004),  # the z-power witnesses overflowed
    ("model = xxzfield\nJ = 1\ndelta = 1\nB = 1", 0.005, 0.01),
    ("model = xx\nJ = -1", 0.0005, 0.002),  # z = exp(J/T) underflowed to 0
    ("model = xxz\nJ = -1\ndelta = 0.5", 0.0005, 0.002),
    ("model = xxzfield\nJ = 1.5816716374061637\ndelta = 2.4711978460694217\n"
     "B = -1.6701749347434303", 0.0145, 0.0146),  # the witness was nan
), ids=("xx overflow", "xxzfield overflow", "xx underflow", "xxz underflow", "xxzfield nan"))
def test_cli_low_temperature_sweep_has_finite_witness(model, low, high, tmp_path, capsys):
    config = tmp_path / "cold.cfg"
    config.write_text(f"command = sweep\ncolumns = T,C,witness\n\n[model]\n{model}\n\n"
                      f"[grid:T]\nmin = {low}\nmax = {high}\nsteps = 5\n")
    assert main(["sweep", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
    assert len(rows) == 5
    spec = build_model(parse_config(config.read_text()).model)
    for T, C, witness in rows:
        assert math.isfinite(C) and math.isfinite(witness)
        # no row sits near the boundary: the numeric margin is about 1/3 or about 0
        assert (witness > 0.0) == (numeric_margin(spec, T) > 1e-9)


def test_cli_eig_lists_degenerate_groups(capsys):
    assert main(["eig", "--model", "xx", "--J", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,E,group"
    groups = [line.split(",")[2] for line in lines[1:]]
    assert groups == ["0", "0", "0", "0", "1", "1", "2", "2"]


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    summary = out.strip().split("\n")[-1]
    assert summary.startswith("verify:") and summary.endswith("0 failed")


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import spinthermal.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "run_verification",
        lambda: [("doomed", False, "synthetic failure", "test hook")],
    )
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  doomed" in out
    assert out.strip().endswith("1 failed")


GOLDENS = Path(__file__).resolve().parent / "goldens"

#: The configs of the texts in ``tests/goldens``, each printed with blocks of
#: :data:`GOLDEN_BLOCK` points: the xxz map with ``T_c`` (``T`` outer), the
#: field map as JSON (``T`` inner), and the field model's low-``T`` band at
#: ``J = 1``, ``delta = -1/2``, whose witness takes the log-domain fallback.
GOLDEN_SWEEPS = {
    "xxz_tc.csv": "command = sweep\ncolumns = T,delta,C,witness,T_c\n"
                  "[model]\nmodel = xxz\nJ = -1\ndelta = 0\n"
                  "[grid:T]\nmin = 0.05\nmax = 4\nsteps = 8\n"
                  "[grid:delta]\nmin = -3\nmax = 0.99\nsteps = 9\n",
    "field_t_inner.json": "command = sweep\nformat = json\ncolumns = T,B,C,witness,Z\n"
                          "[model]\nmodel = xxzfield\nJ = 1\ndelta = 1\nB = 0\n"
                          "[grid:B]\nmin = 0\nmax = 3\nsteps = 6\n"
                          "[grid:T]\nmin = 0.02\nmax = 4\nsteps = 8\n",
    "field_low_T.csv": "command = sweep\ncolumns = T,B,C,witness,Z\n"
                       "[model]\nmodel = xxzfield\nJ = 1\ndelta = -0.5\nB = 0\n"
                       "[grid:T]\nmin = 0.001\nmax = 0.05\nsteps = 8\n"
                       "[grid:B]\nmin = 0\nmax = 3\nsteps = 6\n",
}
GOLDEN_BLOCK = 5


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_prints_its_golden_text(name, monkeypatch, tmp_path):
    """Every printed byte of three sweeps that cross several blocks, as pinned;
    a change in any printed digit fails here."""
    calls = []
    log_witness = concurrence_module._log_witness
    monkeypatch.setattr(concurrence_module, "_log_witness",
                        lambda *args: calls.append(args) or log_witness(*args))
    monkeypatch.setattr(analysis_module, "SWEEP_BLOCK", GOLDEN_BLOCK)
    config, out = tmp_path / "sweep.cfg", tmp_path / name
    config.write_text(GOLDEN_SWEEPS[name])
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    text = out.read_bytes()
    assert text == (GOLDENS / name).read_bytes()
    assert text.count(b"\n") > 8 * GOLDEN_BLOCK  # several blocks
    if name == "field_low_T.csv":
        assert calls  # the witness of the points whose weights underflow


#: The two sweeps of the benchmark (``SWEEPS`` in ``benchmarks/workloads.py``, as
#: its ``sweep_config`` writes them, less the ``out`` line), each with the
#: sha256 of the text it prints.
BENCHMARK_SWEEPS = {
    "sweep2d_xxz_tc": (
        "command = sweep\nformat = csv\ncolumns = T,delta,C,witness,T_c\n\n"
        "[model]\nmodel = xxz\nJ = -1.0\ndelta = 0.0\n\n"
        "[grid:T]\nmin = 0.05\nmax = 4.0\nsteps = 200\n\n"
        "[grid:delta]\nmin = -3.0\nmax = 0.99\nsteps = 200\n",
        "c7b0187d266ea3c9ce7e1b6d550f92849bd61498b8e43779e689b2665d4bf73f"),
    "sweep2d_field": (
        "command = sweep\nformat = json\ncolumns = T,B,C,witness,Z\n\n"
        "[model]\nmodel = xxzfield\nJ = 1.0\ndelta = 1.0\nB = 0.0\n\n"
        "[grid:T]\nmin = 0.02\nmax = 4.0\nsteps = 200\n\n"
        "[grid:B]\nmin = 0.0\nmax = 3.0\nsteps = 200\n",
        "dbdcf91477b32ad944c500cc8b10919901c5a4e8781973657f34555bbe45f48d"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SWEEPS))
def test_benchmark_sweep_prints_its_pinned_text(name, tmp_path):
    """Every byte of the benchmark's two 200 x 200 sweeps, by digest."""
    config_text, digest = BENCHMARK_SWEEPS[name]
    config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.out"
    config.write_text(config_text)
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
