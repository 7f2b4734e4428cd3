"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go)."""

import math
from contextlib import contextmanager

import numpy as np

from spinthermal import (
    ModelSpec,
    SHIFT_PHASES,
    SweepAxis,
    SweepConfig,
    analytic_eigenstates,
    analytic_energies,
    build_hamiltonian,
    concurrence_closed_form,
    concurrence_general,
    cyclic_shift,
    gibbs_density,
    hermitian_eigen,
    partial_trace,
    sweep,
    xx_critical,
    xxx_field_threshold,
    xxz_critical,
)
from spinthermal.cli import main

from paper_conditions import P1, P2, field_curves_half, zero_temperature_concurrence

STATES = np.asarray(analytic_eigenstates())


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def named_models(J, delta, B):
    return (ModelSpec.xx(J), ModelSpec.xxz(J, delta), ModelSpec.xxz_field(J, delta, B))


def pipeline_concurrence(model, T):
    return concurrence_general(partial_trace(gibbs_density(model, T))).C


def test_criterion_01_spectrum_goldens():
    with criterion("1 spectrum goldens, 20 random draws, 1e-10"):
        rng = np.random.default_rng(101)
        for _ in range(20):
            J = float(rng.uniform(-2.0, 2.0))
            delta = float(rng.uniform(-3.0, 2.0))
            B = float(rng.uniform(-3.0, 3.0))
            for model in named_models(J, delta, B):
                numeric = np.sort(
                    hermitian_eigen(build_hamiltonian(model)).eigenvalues
                )
                exact = np.sort(analytic_energies(model))
                assert np.abs(numeric - exact).max() <= 1e-10


def test_criterion_02_eigenstate_invariance():
    with criterion("2 shared eigenbasis + shift phases, 1e-10"):
        for model in named_models(-1.3, 0.6, 1.7):
            h = build_hamiltonian(model)
            energies = analytic_energies(model)
            for k, psi in enumerate(STATES):
                assert np.linalg.norm(h @ psi - energies[k] * psi) <= 1e-10
        # shift eigenphases: the symmetric four carry 1, the chiral pairs
        # carry conjugate primitive cube roots (1 with 4, 2 with 5)
        p = np.asarray(cyclic_shift())
        for k, psi in enumerate(STATES):
            assert np.linalg.norm(p @ psi - SHIFT_PHASES[k] * psi) <= 1e-12
        q = SHIFT_PHASES[1]
        assert abs(q**3 - 1.0) < 1e-14 and abs(q - 1.0) > 0.5
        assert SHIFT_PHASES[1] == SHIFT_PHASES[4]
        assert SHIFT_PHASES[2] == SHIFT_PHASES[5]
        assert abs(SHIFT_PHASES[2] - np.conj(SHIFT_PHASES[1])) < 1e-15


def test_criterion_03_reduced_matrix_goldens():
    with criterion("3 reduced-matrix goldens, 1e-12"):
        combos = {
            (0, 7): np.diag([1.0, 0.0, 0.0, 1.0]),
            (1, 2, 4, 5): (2.0 / 3.0) * np.array(
                [[1, 0, 0, 0], [0, 2, -1, 0], [0, -1, 2, 0], [0, 0, 0, 1]],
                dtype=float,
            ),
            (3, 6): (2.0 / 3.0) * np.array(
                [[0.5, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0.5]]
            ),
            (0, 1, 2): (2.0 / 3.0) * np.array(
                [[2.5, 0, 0, 0], [0, 1, -0.5, 0], [0, -0.5, 1, 0], [0, 0, 0, 0]]
            ),
            (1, 2): (2.0 / 3.0) * np.array(
                [[1, 0, 0, 0], [0, 1, -0.5, 0], [0, -0.5, 1, 0], [0, 0, 0, 0]]
            ),
        }
        for indices, golden in combos.items():
            mixed = sum(np.outer(STATES[k], STATES[k].conj()) for k in indices)
            reduced = partial_trace(mixed)
            assert np.abs(reduced - golden).max() <= 1e-12


def test_criterion_04_oracle_equivalence():
    with criterion("4 numeric vs closed forms, >= 500 points, 1e-11"):
        points = 0
        worst = 0.0
        for J in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            for T in (0.05, 0.25, 1.0, 2.2, 5.0):
                model = ModelSpec.xx(J)
                worst = max(worst, abs(
                    pipeline_concurrence(model, T) - concurrence_closed_form(model, T)
                ))
                points += 1
        for J in (-2.0, -0.7, 0.9, 1.6):
            for delta in (-3.0, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0):
                for T in (0.05, 0.8, 5.0):
                    model = ModelSpec.xxz(J, delta)
                    worst = max(worst, abs(
                        pipeline_concurrence(model, T)
                        - concurrence_closed_form(model, T)
                    ))
                    points += 1
        for J in (-1.8, -0.6, 0.75, 2.0):
            for delta in (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                for B in (-3.0, -1.2, 0.0, 0.4, 0.8, 3.0):
                    for T in (0.05, 0.9, 5.0):
                        model = ModelSpec.xxz_field(J, delta, B)
                        worst = max(worst, abs(
                            pipeline_concurrence(model, T)
                            - concurrence_closed_form(model, T)
                        ))
                        points += 1
        assert points >= 500
        assert worst <= 1e-11
        print(f"  ({points} points, max deviation {worst:.2e})", end=" ")


def test_criterion_05_critical_constants():
    with criterion("5 critical constants"):
        point = xx_critical()
        assert abs(point.z_c - 0.4554) <= 1e-4
        assert abs(point.x_c - (-0.7866)) <= 1e-3
        # root-derived ratio; the sometimes-quoted 1.21736 is inconsistent
        # with the boundary root itself (see README)
        assert abs(point.T_c - 1.0 / 0.7866) <= 1e-3

        half = xxz_critical(-0.5)
        assert abs(half.T_c - 3.0 / math.log(7.0)) <= 1e-6

        plus_half = xxz_critical(0.5)
        assert abs(plus_half.z_c - 0.298) <= 1e-3

        asym = xxz_critical(-50.0)
        assert abs(asym.T_c - 3.0 / math.log(4.0)) <= 1e-2


def test_criterion_06_no_entanglement_regions():
    with criterion("6 never-entangled families, exact zeros"):
        rng = np.random.default_rng(106)
        for _ in range(100):  # antiferromagnetic side, any anisotropy
            model = ModelSpec.xxz(rng.uniform(1e-3, 3.0), rng.uniform(-3.0, 2.0))
            assert concurrence_closed_form(model, rng.uniform(0.05, 5.0)) == 0.0
        for _ in range(100):  # ferromagnetic side at or above isotropy
            model = ModelSpec.xxz(rng.uniform(-3.0, -1e-3), rng.uniform(1.0, 3.0))
            assert concurrence_closed_form(model, rng.uniform(0.05, 5.0)) == 0.0
        for _ in range(20):  # numeric route spot check on both families
            m1 = ModelSpec.xxz(rng.uniform(1e-3, 3.0), rng.uniform(-3.0, 2.0))
            m2 = ModelSpec.xxz(rng.uniform(-3.0, -1e-3), rng.uniform(1.0, 3.0))
            assert pipeline_concurrence(m1, rng.uniform(0.1, 5.0)) == 0.0
            assert pipeline_concurrence(m2, rng.uniform(0.1, 5.0)) == 0.0


def test_criterion_07_maximum_concurrence():
    with criterion("7 ferromagnetic maximum C = 1/3, 1e-6"):
        closed = concurrence_closed_form(ModelSpec.xx(-30.0), 1.0)
        assert abs(closed - 1.0 / 3.0) <= 1e-6
        numeric = pipeline_concurrence(ModelSpec.xx(-30.0), 1.0)
        assert abs(numeric - 1.0 / 3.0) <= 1e-6


def test_criterion_08_field_induction_thresholds():
    with criterion("8 field-induction thresholds"):
        root = xxx_field_threshold()
        assert abs(root - 2.02) <= 1e-2
        assert abs(root**6 - 8.0 * root**3 - 2.0) <= 1e-9

        # isotropic model: below the threshold no field helps, above it a
        # strong field entangles (direct closed-form evaluation)
        def xxx_field_c(z, beta_B):
            J = math.log(z)
            return concurrence_closed_form(
                ModelSpec.xxz_field(J, 1.0, beta_B), 1.0
            )

        assert xxx_field_c(root - 0.05, 50.0) == 0.0
        assert xxx_field_c(root + 0.05, 50.0) > 0.0

        # anisotropy -1/2 classification in p = z**-3
        assert field_curves_half(P1 - 1e-9).case == 1
        assert field_curves_half(P1 + 1e-9).case == 2
        assert field_curves_half(P2).case == 2
        assert field_curves_half(np.nextafter(P2, 8.0)).case == 3

        def half_c(p, beta_B):
            z = p ** (-1.0 / 3.0)
            return concurrence_closed_form(
                ModelSpec.xxz_field(math.log(z), -0.5, beta_B), 1.0
            )

        # below p1 even an enormous field leaves the state separable;
        # between p1 and p2 a strong field entangles but a weak one does
        # not; beyond p2 any field (even none) finds entanglement
        assert half_c(P1 - 1e-6, 60.0) == 0.0
        assert half_c(P1 + 1e-2, 60.0) > 0.0
        assert half_c(P1 + 1e-2, 0.1) == 0.0
        assert half_c(P2 - 1e-3, 0.0) == 0.0
        assert half_c(P2 + 1e-3, 1e-6) > 0.0


def test_criterion_09_qpt_limits():
    with criterion("9 zero-temperature transition values, 1e-3"):
        cases = ((1.0, 1.0 / 3.0), (0.5, 2.0 / 9.0), (0.0, 0.0))
        for delta, expected in cases:
            model = ModelSpec.xxz_field(1.0, delta, 1.0)
            numeric = pipeline_concurrence(model, 1e-4)
            assert abs(numeric - expected) <= 1e-3
            assert zero_temperature_concurrence(delta, 1.0) == expected


def test_criterion_10_figure_data_properties():
    with criterion("10 figure-data property checks"):
        # anisotropy scan of the critical temperature: decreasing, with
        # the known asymptote on the far negative side
        records = sweep(SweepConfig(
            model=ModelSpec.xxz(-1.0, 0.0),
            axes=(SweepAxis("delta", -10.0, 1.0, 45),),
            T=1.0,
        ))
        tc = [r["T_c"] for r in records]
        present = [v for v in tc if v is not None]
        assert all(b < a for a, b in zip(present, present[1:]))
        assert abs(tc[0] - 2.164) <= 1e-2

        # temperature scan at B = 2: cold limit dark, warm peak inside
        records = sweep(SweepConfig(
            model=ModelSpec.xxz_field(1.0, 1.0, 2.0),
            axes=(SweepAxis("T", 0.02, 4.0, 200),),
        ))
        values = [r["C"] for r in records]
        peak = values.index(max(values))
        assert values[0] < 1e-3
        assert 0 < peak < len(values) - 1
        assert values[peak] > values[0] and values[peak] > values[-1]

        # field-exchange plane of the isotropic model: dark ferromagnetic
        # half-plane, concurrence even in the field
        records = sweep(SweepConfig(
            model=ModelSpec.xxz_field(1.0, 1.0, 0.0),
            axes=(SweepAxis("B", -3.0, 3.0, 13), SweepAxis("J", -2.0, 2.0, 9)),
            T=1.0,
        ))
        grid = {(r["B"], r["J"]): r["C"] for r in records}
        for (B, J), c in grid.items():
            if J < 0:
                assert c == 0.0
            assert abs(c - grid[(-B, J)]) <= 1e-10


def test_criterion_11_sweep_determinism(tmp_path):
    with criterion("11 byte-identical sweep outputs"):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "command = sweep\nformat = csv\ncolumns = T,C\n\n"
            "[model]\nmodel = xxzfield\nJ = 1\ndelta = 1\nB = 2\n\n"
            "[grid:T]\nmin = 0.02\nmax = 4\nsteps = 200\n"
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        out_json = tmp_path / "a.json"
        assert main(["sweep", "--config", str(config), "--out", str(out_json),
                     "--format", "json"]) == 0
        assert out_json.read_bytes()
