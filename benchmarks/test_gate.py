"""The benchmark's correctness gate fires on wrong sweep output."""

import math

import numpy as np
import pytest

import gate
from spinthermal import analysis, cli, spinmodel

SPEC = gate.SweepSpec(
    model={"variant": "xxz", "J": -1.0, "delta": 0.0},
    axes=(("T", 0.1, 2.0, 5), ("delta", -1.0, 0.5, 4)),
    columns=("T", "delta", "C", "witness", "T_c"), fmt="csv")


def sweep_csv() -> str:
    axes = tuple(analysis.SweepAxis(name, lo, hi, steps) for name, lo, hi, steps in SPEC.axes)
    records = analysis.sweep(analysis.SweepConfig(model=spinmodel.ModelSpec.xxz(-1.0, 0.0),
                                                  axes=axes))
    return cli.render_csv(list(SPEC.columns), records)


def edit(text: str, rows: list[int], column: str, value: str) -> str:
    lines = text.split("\n")
    index = SPEC.columns.index(column)
    for r in rows:
        cells = lines[r + 1].split(",")
        cells[index] = value
        lines[r + 1] = ",".join(cells)
    return "\n".join(lines)


def check(text: str) -> gate.Verdict:
    return gate.check_sweep(text, SPEC, np.random.default_rng(0))


def test_clean_sweep_passes():
    verdict = check(sweep_csv())
    assert (verdict.attempted, verdict.failed, verdict.malformed) == (20, 0, [])
    assert verdict.closed_ok == verdict.closed_attempts == 20


def test_altered_concurrence_fails_its_row():
    text = sweep_csv()
    row = next(r for r, line in enumerate(text.split("\n")[1:-1]) if float(line.split(",")[2]) > 0)
    value = float(text.split("\n")[row + 1].split(",")[2])
    verdict = check(edit(text, [row], "C", format(value * 1.001, ".12g")))
    assert verdict.failed == 1 and not verdict.malformed


def test_flipped_witness_fails_its_row():
    text = sweep_csv()
    lines = text.split("\n")[1:-1]
    row = next(r for r, line in enumerate(lines) if float(line.split(",")[3]) > 0.01)
    witness = float(lines[row].split(",")[3])
    verdict = check(edit(text, [row], "witness", format(-witness, ".12g")))
    assert verdict.failed == 1 and not verdict.malformed


def test_blanked_critical_temperature_fails_its_rows():
    text = sweep_csv()
    group = [r for r in range(20) if r % 4 == 1]  # one delta, every temperature
    verdict = check(edit(text, group, "T_c", ""))
    assert verdict.failed == len(group) and verdict.noroot == len(group)
    verdict = check(edit(text, group[:1], "T_c", ""))
    assert verdict.failed == len(group) and verdict.noroot == 0


def test_repeated_passes_count_each_row_once():
    text = sweep_csv()
    group = [r for r in range(20) if r % 4 == 1]
    total = gate.Verdict()
    for _ in range(3):
        total.merge(check(edit(text, group, "T_c", "")))
    total.count_once(20)
    assert (total.attempted, total.failed) == (20, len(group))


def test_wrong_critical_temperature_fails_its_rows():
    text = sweep_csv()
    group = [r for r in range(20) if r % 4 == 2]
    tc = float(text.split("\n")[group[0] + 1].split(",")[4])
    verdict = check(edit(text, group, "T_c", format(tc * 1.01, ".12g")))
    assert verdict.failed == len(group)


def test_wrong_header_or_row_count_is_malformed():
    text = sweep_csv()
    for bad in (text.replace("T_c", "Tc", 1), text.rsplit("\n", 2)[0] + "\n"):
        verdict = check(bad)
        assert verdict.malformed and verdict.failed == verdict.attempted == 20


@pytest.mark.parametrize("change, status", [
    ({}, "ok"),
    ({"C_closed": None, "closed_error": "OverflowError: math range error"}, "raised"),
    ({"C_closed": math.nan}, "non-finite"),
    ({"C_closed": 0.0}, "disagree"),
])
def test_cross_route_classification(change, status):
    h = spinmodel.build_hamiltonian(spinmodel.ModelSpec.xx(-1.0))
    result = {"h": h, "eigenvalues": np.linalg.eigvalsh(h), "C_numeric": 1.0 / 3.0,
              "C_closed": 1.0 / 3.0, "numeric_error": None, "closed_error": None}
    result.update(change)
    assert gate.classify_point(result) == status
