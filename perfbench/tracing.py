"""Spans around the calls into loopjet's public functions, recorded from
outside the package.

``Tracer.install`` wraps every public function of every loopjet module (the
names in each module's ``__all__``, plus ``cli.main``) and a few kernel and
set-up methods.  A function is rebound in every loopjet module that holds it,
so a call through a ``from ... import`` binding (``factorize_jet`` in
``scenario`` and ``virasoro``, say) is timed like a call through its home
module.  Spans are kept in memory as ``[name, parent, start, end]`` rows in
the ``time.perf_counter`` clock, which is system-wide on Linux, so the parent
benchmark process can put the workload's start on the same axis.

``layer_metrics`` turns the spans into the per-layer metrics; it needs no
loopjet import, so ``run.py`` can call it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
import weakref

MODULES = ("context", "series", "splitting", "hierarchy", "scattering", "tau",
           "virasoro", "checks", "scenario", "cli")

# methods and entry points that are not in a module's ``__all__``
EXTRA = {
    "context": ("JetContext.__init__",),
    "series": ("Series.matmul", "Series.inv", "Series.pairing"),
    "scenario": ("Scenario.__init__", "ScenarioConfig.from_dict"),
    "cli": ("main",),
}

FACTORIZE = "scattering.factorize_jet"
RUN_SCENARIO = "scenario.run_scenario"
CLI_MAIN = "cli.main"

# per-layer self times: metric -> span names whose self times it sums
SELF_GROUPS = {
    "series.matmul.self_s": ("series.Series.matmul",),
    "series.inv.self_s": ("series.Series.inv",),
    "series.pairing.self_s": ("series.Series.pairing",),
    "series.exp.self_s": ("series.exp_series", "series.jet_exp"),
    "splitting.sample.self_s": ("splitting.sample_negative_element",),
    "splitting.reality_check.self_s": ("splitting.reality_check",),
    "hierarchy.vacuum_frame.self_s": ("hierarchy.vacuum_frame",),
    "hierarchy.flows.self_s": ("hierarchy.flow_rhs",
                               "hierarchy.named_flow_residual",
                               "hierarchy.q_recursion_vector_akns"),
    "scattering.factorize.self_s": (FACTORIZE,),
    "scattering.oracle.self_s": ("scattering.factorize_oracle",),
    "scattering.stabilizer.self_s": ("scattering.stabilizer_h_check",
                                     "scattering.stabilizer_k_check"),
    "tau.ln_tau.self_s": ("tau.ln_tau_jet",),
    "tau.identity_suite.self_s": ("tau.identity_suite",),
    "virasoro.t76.self_s": ("virasoro.theorem76_operator",),
    "virasoro.bracket.self_s": ("virasoro.bracket_defect",),
    "virasoro.induced.self_s": ("virasoro.induced_frame_variation",
                                "virasoro.induced_lntau_variation"),
    "scenario.self_s": (RUN_SCENARIO,),
}

CALL_GROUPS = {
    "series.matmul.calls": ("series.Series.matmul",),
    "series.inv.calls": ("series.Series.inv",),
    "series.pairing.calls": ("series.Series.pairing",),
    "scattering.factorize.calls": (FACTORIZE,),
    "tau.ln_tau.calls": ("tau.ln_tau_jet",),
    "tau.first_partial_pairing.calls": ("tau.first_partial_pairing",),
}


class Tracer:
    """In-memory span recorder; span 0 is the workload process itself."""

    def __init__(self, t_start: float):
        self.spans: list[list] = [["workload", -1, t_start, 0.0]]
        self.stack = [0]
        self.eps_spans: list[int] = []
        self.factorize_inputs: list[str] = []
        self.fpp_results: dict[int, weakref.ref] = {}
        self.counters = {"series.matmul.flop_computed": 0,
                         "context.pairs": 0, "series.nfft": 0,
                         "tau.first_partial_pairing.results": 0}

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def add(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere, under the currently open span."""
        self.spans.append([name, self.stack[-1], start, end])

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def finish(self, t_end: float) -> None:
        self.spans[0][3] = t_end

    def _wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1], clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if note is not None:
                note(idx, args, kwargs, out)
            return out

        return traced

    # -- counters taken at the wrapped boundaries --------------------------

    def _note_matmul(self, idx, args, kwargs, out):
        a, b = args[0], args[1]
        ctx = a.ctx
        products = 1 if a.E == 1 and b.E == 1 else 3
        self.counters["series.matmul.flop_computed"] += (
            products * ctx.pair_a.size * ctx.nfft * ctx.n ** 3)

    def _note_factorize(self, idx, args, kwargs, out):
        ctx, f = args[2], args[3]
        var_choice = kwargs.get("var_choice",
                                args[4] if len(args) > 4 else "first")
        if f.E > 1:
            self.eps_spans.append(idx)
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((ctx.variables, ctx.order, ctx.n, ctx.lo, ctx.hi,
                       var_choice, f.ctx.T)).encode())
        for s in f.slabs:
            for arr in (s.data, s.tlo, s.slo, s.shi, s.thi):
                h.update(arr.tobytes())
        self.factorize_inputs.append(h.hexdigest())

    def _note_first_partial(self, idx, args, kwargs, out):
        result = args[0]
        ref = self.fpp_results.get(id(result))
        if ref is None or ref() is not result:
            self.fpp_results[id(result)] = weakref.ref(result)
            self.counters["tau.first_partial_pairing.results"] += 1

    def _note_scenario(self, idx, args, kwargs, out):
        ctx = args[0].ctx
        self.counters["context.pairs"] += int(ctx.pair_a.size)
        self.counters["series.nfft"] = max(self.counters["series.nfft"],
                                           int(ctx.nfft))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loopjet module (which must
        already be imported)."""
        mods = {m: sys.modules[f"loopjet.{m}"] for m in MODULES}
        notes = {"series.Series.matmul": self._note_matmul,
                 FACTORIZE: self._note_factorize,
                 "tau.first_partial_pairing": self._note_first_partial,
                 "scenario.Scenario.__init__": self._note_scenario}
        for short, mod in mods.items():
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))]
            for path in names + list(EXTRA.get(short, ())):
                span = f"{short}.{path}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(
                            self._wrap(raw.__func__, span, notes.get(span))))
                    else:
                        setattr(cls, meth, self._wrap(raw, span,
                                                      notes.get(span)))
                else:
                    orig = getattr(mod, path)
                    if hasattr(orig, "__wrapped__"):
                        continue  # re-exported and wrapped already
                    wrapped = self._wrap(orig, span, notes.get(span))
                    for holder in sys.modules.values():
                        name = getattr(holder, "__name__", "")
                        if name != "loopjet" and not name.startswith("loopjet."):
                            continue
                        for key, val in list(vars(holder).items()):
                            if val is orig:
                                setattr(holder, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "eps_spans": self.eps_spans,
                "factorize_inputs": self.factorize_inputs,
                "counters": self.counters}


# ---------------------------------------------------------------------------
# metrics from a dumped trace


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover
    (children of one parent never overlap: the workload is single-threaded)."""
    out = [s[3] - s[2] for s in spans]
    for s in spans[1:]:
        out[s[1]] -= s[3] - s[2]
    return out


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent, a parent
    recorded after its child, or an unclosed span."""
    bad = []
    for i, (name, parent, start, end) in enumerate(spans):
        if end < start:
            bad.append(f"span {i} {name} ends before it starts")
        if i == 0:
            continue
        if not 0 <= parent < i:
            bad.append(f"span {i} {name} has parent {parent}")
            continue
        p = spans[parent]
        if start < p[2] or end > p[3]:
            bad.append(f"span {i} {name} lies outside its parent {p[0]}")
    return bad


def layer_metrics(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    selfs = self_times(spans)
    wall = spans[0][3] - spans[0][2]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def self_of(names):
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def dur(i):
        return spans[i][3] - spans[i][2]

    m: dict[str, float] = {}
    m["context.build_s"] = sum(dur(i) for i in
                               by_name.get("context.JetContext.__init__", ()))
    for metric, names in SELF_GROUPS.items():
        m[metric] = self_of(names)
    for metric, names in CALL_GROUPS.items():
        m[metric] = sum(len(by_name.get(n, ())) for n in names)
    counters = trace["counters"]
    for key in ("context.pairs", "series.nfft", "series.matmul.flop_computed"):
        m[key] = counters[key]

    inputs = trace["factorize_inputs"]
    m["scattering.factorize.eps_calls"] = len(trace["eps_spans"])
    m["scattering.factorize.distinct_ratio"] = (
        len(set(inputs)) / len(inputs) if inputs else 1.0)
    m["virasoro.eps_refactor.calls"] = len(trace["eps_spans"])
    m["virasoro.eps_refactor.total_s"] = sum(dur(i) for i in trace["eps_spans"])
    results = counters["tau.first_partial_pairing.results"]
    m["tau.first_partial_pairing.per_result"] = (
        m["tau.first_partial_pairing.calls"] / results if results else 0.0)

    # the first factorization under each scenario run is its prerequisite
    prereq, config, write = 0.0, 0.0, 0.0
    first_child: dict[int, int] = {}
    for i in by_name.get(FACTORIZE, ()):
        first_child.setdefault(spans[i][1], i)
    for run in by_name.get(RUN_SCENARIO, ()):
        if run in first_child:
            prereq += dur(first_child[run])
        main = spans[run][1]
        if spans[main][0] == CLI_MAIN:
            config += spans[run][2] - spans[main][2]
            write += spans[main][3] - spans[run][3]
    m["scattering.prereq_s"] = prereq
    m["cli.config_s"] = config
    m["cli.report_write_s"] = write

    m["series.kernel_share"] = module_self_times(trace).get("series", 0.0) / wall
    m["trace.wall_s"] = wall
    m["trace.coverage"] = sum(selfs[1:]) / wall
    return m


def module_self_times(trace: dict) -> dict[str, float]:
    """Self time per loopjet module (the first part of each span name)."""
    spans = trace["spans"]
    out: dict[str, float] = {}
    for s, t in zip(spans[1:], self_times(spans)[1:]):
        mod = s[0].split(".")[0]
        out[mod] = out.get(mod, 0.0) + t
    return out
