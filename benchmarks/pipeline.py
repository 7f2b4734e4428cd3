"""One cross-route point: the numeric pipeline and the closed form.

Kept apart from the runner so that the set-up probe (a fresh interpreter
that imports the program and runs one warm-up point) imports nothing
but this file and spinthermal.  Program functions are looked up on
their modules at call time, so the traced run's rebinding reaches them.
"""

from __future__ import annotations

from spinthermal import concurrence, linalg, spinmodel, thermalstate


def point_spec(point: dict) -> spinmodel.ModelSpec:
    """The model of a generated point (a dict of variant and couplings)."""
    fields = {k: v for k, v in point.items() if k not in ("variant", "T")}
    return spinmodel.ModelSpec(point["variant"], **fields)


def run_point(point: dict) -> dict:
    """Run both routes on one point; an exception becomes a recorded error.

    The numeric route is ``build_hamiltonian -> hermitian_eigen ->
    gibbs_density -> partial_trace -> concurrence_general``; the closed
    route (every variant but ``xyz``) is ``concurrence_closed_form``.
    """
    spec = point_spec(point)
    T = point["T"]
    out = {"h": None, "eigenvalues": None, "C_numeric": None, "C_closed": None,
           "numeric_error": None, "closed_error": None}
    try:
        h = spinmodel.build_hamiltonian(spec)
        out["h"] = h
        out["eigenvalues"] = linalg.hermitian_eigen(h).eigenvalues
        rho = thermalstate.gibbs_density(spec, T)
        out["C_numeric"] = concurrence.concurrence_general(
            thermalstate.partial_trace(rho)).C
    except Exception as exc:  # a failing point is classified by the gate, never fatal
        out["numeric_error"] = f"{type(exc).__name__}: {exc}"
    if spec.variant != "xyz":
        try:
            out["C_closed"] = concurrence.concurrence_closed_form(spec, T)
        except Exception as exc:  # same boundary as above, for the closed route
            out["closed_error"] = f"{type(exc).__name__}: {exc}"
    return out
