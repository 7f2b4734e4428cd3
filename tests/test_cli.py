import json
import math

import pytest

from spinthermal.cli import (
    GridAxis,
    _fmt,
    RunConfig,
    build_model,
    format_config,
    main,
    parse_config,
    render_csv,
    render_json,
)
from spinthermal.errors import ParseError, UnknownKey, ValidationError

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
    assert cfg.grid == [GridAxis(axis="T", min=0.02, max=4.0, steps=200)]
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


def test_build_model_names_missing_field():
    with pytest.raises(ValidationError, match="J"):
        build_model({"model": "xx"})
    with pytest.raises(ValidationError, match="delta"):
        build_model({"model": "xxz", "J": 1.0})
    with pytest.raises(ValidationError, match="model"):
        build_model({})


def test_config_round_trip():
    cfg = parse_config(FIG6_CONFIG)
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_round_trip_with_xyz_model():
    cfg = RunConfig(
        command="eig",
        model={"model": "xyz", "J1": 1.0, "J2": -0.5, "J3": 0.25,
               "B1": 0.0, "B2": 0.0, "B3": 0.5},
        format="json",
        out="spectrum.json",
    )
    assert parse_config(format_config(cfg)) == cfg


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


@pytest.mark.parametrize("columns, rows", (
    (["a", "b"], [{"a": x, "b": y} for x in SPECIAL_FLOATS for y in SPECIAL_FLOATS]),
    (["a"], [{"a": x, "b": None} for x in SPECIAL_FLOATS]),
    (["a", "b"], []),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": 0.1 + 0.2, "b": None}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": 0.1 + 0.2, "b": 2}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": -0.0, "b": "x"}]),
    (["a", "b"], [{"a": 0.5, "b": 1e16}, {"a": -0.0}]),
    (["k"], [{"k": 10**20}]),
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


@pytest.mark.parametrize("flags", (["--J", "inf", "--T", "1"], ["--J", "1", "--T", "nan"]))
def test_cli_rejects_non_finite_flags(flags, capsys):
    assert main(["concurrence", "--model", "xx", *flags]) == 2
    assert "must be finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("model, low, high", (
    ("model = xx\nJ = 1", 0.002, 0.004),
    ("model = xxzfield\nJ = 1\ndelta = 1\nB = 1", 0.005, 0.01),
))
def test_cli_sweep_overflow_is_a_numeric_failure(model, low, high, tmp_path, capsys):
    config = tmp_path / "overflow.cfg"
    config.write_text(f"command = sweep\n\n[model]\n{model}\n\n"
                      f"[grid:T]\nmin = {low}\nmax = {high}\nsteps = 5\n")
    assert main(["sweep", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: OverflowError")
    assert captured.out == ""


@pytest.mark.parametrize("model", (
    "model = xx\nJ = -1",
    "model = xxz\nJ = -1\ndelta = 0.5",
))
def test_cli_sweep_underflow_is_a_numeric_failure(model, tmp_path, capsys):
    # exp(J/T) underflows to 0 below T = |J|/745, which the witness rejects
    config = tmp_path / "underflow.cfg"
    config.write_text(f"command = sweep\n\n[model]\n{model}\n\n"
                      "[grid:T]\nmin = 0.0005\nmax = 0.002\nsteps = 5\n")
    assert main(["sweep", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: ValueError: z must be positive")
    assert captured.out == ""


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
