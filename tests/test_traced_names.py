"""The benchmark tracer rebinds library functions by name; each must exist.

``benchmarks/tracing.py`` wraps the functions named in its ``SPANNED`` and
``COUNTED`` tables, looked up on their home modules.  A name that no
longer resolves stops a traced benchmark run with an ``AttributeError``,
so it is checked here with the rest of the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_the_tracer_wraps_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(importlib.import_module(f"spinthermal.{short}"), attr)
             for table in (tracing.SPANNED, tracing.COUNTED)
             for short, attrs in table.items() for attr in attrs]
    missing = [f"{home.__name__}.{attr}" for home, attr in names if not hasattr(home, attr)]
    assert missing == []
    originals = [getattr(home, attr) for home, attr in names]
    with tracing.Tracer():
        assert all(getattr(home, attr) is not original
                   for (home, attr), original in zip(names, originals))
    assert all(getattr(home, attr) is original
               for (home, attr), original in zip(names, originals))
