"""Guard for the benchmark tracer: the methods and functions that
``perfbench/tracing.py`` wraps, and the attributes it reads, must exist
where it looks for them, or per-layer tracing breaks without a failing run.

The tracer is read from its file and executed in a fresh namespace, so no
bytecode is written next to it.
"""

from __future__ import annotations

import importlib
import pathlib
import types

import numpy as np

from loopjet import JetContext, Series

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_extra_method_is_in_its_class_dict():
    tracing = _tracing()
    for short, paths in tracing.EXTRA.items():
        mod = importlib.import_module(f"loopjet.{short}")
        for path in paths:
            if "." in path:
                cls_name, meth = path.split(".")
                assert meth in vars(getattr(mod, cls_name)), path
            else:
                assert callable(getattr(mod, path, None)), path


def test_every_public_name_of_a_traced_module_exists():
    for short in _tracing().MODULES:
        mod = importlib.import_module(f"loopjet.{short}")
        missing = [n for n in getattr(mod, "__all__", ())
                   if getattr(mod, n, None) is None]
        assert not missing, (short, missing)


def test_a_series_exposes_what_the_tracer_reads():
    ctx = JetContext(("t1",), 1, 2, -4, 2)
    x = Series.identity(ctx).with_eps(Series.zeros(ctx))
    assert x.E == len(x.slabs) == 2
    assert all(isinstance(a, np.ndarray) for s in x.slabs
               for a in (s.data, s.tlo, s.slo, s.shi, s.thi))
