"""Scenario configuration, suite execution and report assembly.

A scenario fixes a hierarchy family, a splitting variant, a truncation
budget and a scattering datum, then runs the requested verification suites
(factorization, flows, tau, virasoro, proof_identities, recovery).  The
report is a JSON document: one record per check with the identity anchor,
the measured defect and its tolerance, plus the convention notes resolved
along the way (bracket orientation, detected constants, flow signs).
Everything is deterministic given the configuration and seed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .checks import CATALOG, CheckRecord, detect, record
from .context import default_window, fft_length
from .errors import ConfigError, LoopjetError, ResourceError
from .hierarchy import (LaxFlows, VacuumSequence, akns_sequence,
                        gl_sequence, kdv_sequence, named_flow_residual,
                        named_flows, odd_akns_sequence,
                        q_recursion_vector_akns)
from .scattering import (FactorizationResult, e_ode_defect, factorize_jet,
                         factorize_oracle, frame_variation_defect,
                         l_minus_stray, lax_residual, m_ode_defect,
                         reality_propagation_check, stabilizer_h_check,
                         stabilizer_k_check)
from .series import Series, exp_series
from .splitting import (SplitMix64, SplittingSpec, reality_check,
                        sample_negative_element)
from .tau import (conjugation_invariance_check, identity_suite, ln_tau_jet,
                  shift_constancy_check, tau_route_defects,
                  vector_akns_recovery, xi_helpers)
from .virasoro import (bracket_defect, c_ell_const_defect, datum_fields,
                       eps_perturbed_result, eta_bracket_defect,
                       eta_tangency_defect, gamma_xi0, gl_frame_variation,
                       induced_frame_variation, induced_lntau_variation,
                       masked_scalar_defect, proof_identities_check,
                       tangency_defect, theorem76_operator, thm56_defect,
                       zeta_v_formula)

__all__ = ["ScenarioConfig", "Scenario", "Report", "run_scenario",
           "SCHEMA", "REPORT_SCHEMA", "ALL_SUITES"]

SCHEMA = "loopjet-scenario/1"
REPORT_SCHEMA = "loopjet-report/1"
ALL_SUITES = ("factorization", "flows", "tau", "virasoro",
              "proof_identities", "recovery")
# the suites that read the stabilizer factorizations, and the Lax bracket
STABILIZER_SUITES = ("factorization", "tau", "recovery")
LAX_SUITES = ("factorization", "flows")
# the variants whose sigma twist flips lambda -> -lambda: their vacuum
# sequences keep only the odd exponents
ODD_VARIANTS = ("sigma_twisted", "tau_sigma")
# the largest jet value (T x W x n^2 complex128 entries, every row live) a
# config may ask for: a run holds a few hundred values at its peak, so a
# 64 MiB value already means tens of GB
VALUE_BUDGET_BYTES = 64 << 20


def _sl2_sequence(cfg: "ScenarioConfig") -> VacuumSequence:
    a = np.diag(cfg.a_diag or [1j, -1j])
    if cfg.variant in ODD_VARIANTS:
        return odd_akns_sequence(a, cfg.num_flows)
    return akns_sequence(2, cfg.num_flows, a)


# family -> (the n it fixes or None, its a_diag rule, its vacuum sequence);
# the a_diag rule is "fixed" (the family fixes its own a), "required" or
# "optional"
FAMILIES = {
    "akns_sl2": (2, "optional", _sl2_sequence),
    "vector_akns": (None, "fixed",
                    lambda cfg: akns_sequence(cfg.n, cfg.num_flows)),
    "gl_n": (None, "required", lambda cfg: gl_sequence(
        cfg.a_diag, cfg.num_flows,
        parity="odd" if cfg.variant in ODD_VARIANTS else "all")),
    "kdv_twisted": (2, "fixed", lambda cfg: kdv_sequence(cfg.num_flows)),
}
# (family, variant) -> its SplittingSpec options: the accepted pairs
PAIRS = {
    ("akns_sl2", "standard"): {},
    ("akns_sl2", "u_real"): {},
    ("akns_sl2", "sigma_twisted"): {
        "sigma_conjugator": np.array([[0, 1], [1, 0]], dtype=complex)},
    ("akns_sl2", "tau_sigma"): {"sigma_mode": "transpose_inv"},
    ("vector_akns", "standard"): {},
    ("vector_akns", "u_real"): {},
    ("gl_n", "standard"): {},
    ("gl_n", "sigma_twisted"): {"sigma_mode": "transpose_inv"},
    ("gl_n", "tau_sigma"): {"tau_mode": "real", "sigma_mode": "transpose_inv"},
    ("kdv_twisted", "standard"): {"variant": "kdv_twisted"},
    ("kdv_twisted", "kdv_twisted"): {"variant": "kdv_twisted"},
}


class JetShape(NamedTuple):
    """The sizes of a context: T jet rows, C(vars + order, order); the
    window width W; the FFT length; the (a, b) pairs of the product table,
    C(2 vars + order, order); and the bytes of a jet value with every row
    live, the most one stores, and of one spectrum of every jet row, the
    unit of the series spectrum budget."""
    T: int
    W: int
    nfft: int
    pairs: int
    value_bytes: int
    spectrum_bytes: int


@dataclass
class ScenarioConfig:
    family: str
    n: int
    variant: str = "standard"
    a_diag: list[complex] | None = None
    num_flows: int = 3
    order: int = 3
    window: tuple[int, int] | None = None
    f_seed: int = 1
    f_depth: int = 3
    f_amplitude: float = 0.3
    f_explicit: list | None = None      # [[degree, row, col, re, im], ...]
    suites: tuple[str, ...] = ("factorization",)
    virasoro_ells: tuple[int, ...] = (-1, 0, 1, 2, 3)
    virasoro_gammas: tuple[str, ...] = ("zero",)
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        get = _Reader(raw)
        get("schema", str, among=(SCHEMA,))
        n = get("n", int, low=2)
        a_diag = get("a_diag", [[float]], None)
        if a_diag is not None:
            if any(len(z) != 2 for z in a_diag):
                raise ConfigError("field 'a_diag' must be a list of [re, im] "
                                  "pairs")
            a_diag = [complex(re, im) for re, im in a_diag]
        window = None
        if get("window", dict, None) is not None:
            window = (get("window.lo", int), get("window.hi", int))
            if not window[0] <= 0 <= window[1]:
                raise ConfigError(f"field 'window' must have lo <= 0 <= hi, "
                                  f"got {raw['window']!r}")
        if get("f_source.kind", str, "seeded",
               among=("seeded", "explicit")) == "seeded":
            src = dict(f_seed=get("f_source.seed", int, 1),
                       f_depth=get("f_source.depth", int, 3, low=1),
                       f_amplitude=get("f_source.amplitude", float, 0.3))
        else:
            src = dict(f_explicit=_explicit_coeffs(
                get("f_source.coeffs", [list]), n))
        cfg = cls(
            family=get("family", str, among=FAMILIES), n=n,
            variant=get("variant", str, "standard"), a_diag=a_diag,
            num_flows=get("flows", int, 3, low=1),
            order=get("order", int, 3, low=1), window=window, **src,
            suites=tuple(get("suites", [str], ["factorization"],
                             among=ALL_SUITES)),
            virasoro_ells=tuple(get("virasoro.ells", [int], [-1, 0, 1, 2, 3],
                                    low=-1)),
            virasoro_gammas=tuple(get("virasoro.gammas", [str], ["zero"],
                                      among=("zero", "xi0"))),
            tolerances={cid: get(f"tolerances.{cid}", float, None, low=0.0)
                        for cid in get("tolerances", dict, {})})
        get.reject_unknown()
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if (self.family, self.variant) not in PAIRS:
            takes = [v for f, v in PAIRS if f == self.family]
            raise ConfigError(f"field 'variant': the {self.family} family "
                              f"takes {takes}, got {self.variant!r}")
        fixed_n, a_rule, _ = FAMILIES[self.family]
        if fixed_n not in (None, self.n):
            raise ConfigError(f"field 'n': the {self.family} family requires "
                              f"n = {fixed_n}, got {self.n}")
        if a_rule == "fixed" and self.a_diag is not None:
            raise ConfigError(f"field 'a_diag': the {self.family} family "
                              f"fixes its own a; leave a_diag null")
        if a_rule == "required" and self.a_diag is None:
            raise ConfigError(f"field 'a_diag': the {self.family} family "
                              f"needs an a_diag of length n")
        if self.a_diag is not None and (len(self.a_diag) != self.n or
                                        len(set(self.a_diag)) != self.n):
            raise ConfigError("field 'a_diag' must hold n pairwise distinct "
                              "entries (a regular a)")
        for suite in self.suites:
            if self.suites.count(suite) > 1:
                raise ConfigError(f"field 'suites' lists {suite!r} more "
                                  f"than once")
            need = self._family_for(suite)
            if need is not None:
                raise ConfigError(f"field 'suites': suite {suite!r} needs "
                                  f"{need}, got {self.family} with n = "
                                  f"{self.n}")
            low = self._min_order(suite)
            if self.order < low:
                raise ConfigError(f"field 'order': suite {suite!r} needs "
                                  f"order >= {low} for this {self.family} "
                                  f"config, got {self.order}")
        for cid in self.tolerances:
            if cid not in CATALOG:
                raise ConfigError(f"field 'tolerances.{cid}': unknown check id")
        self._check_size()

    def jet_shape(self) -> "JetShape":
        """The sizes of the context this config builds, from the config
        alone, with neither a context nor a vacuum sequence built."""
        nvars = self.num_flows * (self.n if self.family == "gl_n" else 1)
        # kdv and the odd variants keep the exponents 1, 3, ..., 2 flows - 1
        odd = self.family == "kdv_twisted" or self.variant in ODD_VARIANTS
        lo, hi = self.window or default_window(
            self.order, 2 * self.num_flows - 1 if odd else self.num_flows)
        T, W, nfft = (math.comb(nvars + self.order, self.order),
                      hi - lo + 1, fft_length(lo, hi))
        entry = self.n ** 2 * 16  # bytes of one complex n x n matrix
        return JetShape(T, W, nfft,
                        math.comb(2 * nvars + self.order, self.order),
                        T * W * entry, T * nfft * entry)

    def _check_size(self) -> None:
        """Refuse a config one of whose jet values would exceed
        VALUE_BUDGET_BYTES, naming the first of n, window, flows and order
        that breaks it with the later ones at their least."""
        for name, least in (("n", dict(num_flows=1, order=1, window=None)),
                            ("window", dict(num_flows=1, order=1)),
                            ("flows", dict(order=1)), ("order", {})):
            shape = replace(self, **least).jet_shape()
            if shape.value_bytes > VALUE_BUDGET_BYTES:
                raise ConfigError(
                    f"field {name!r}: one jet value would take "
                    f"{shape.value_bytes:.3g} bytes ({shape.T} jet rows x "
                    f"{shape.W} degrees of {self.n}x{self.n} matrices), over "
                    f"the budget of {VALUE_BUDGET_BYTES} bytes")

    def _family_for(self, suite: str) -> str | None:
        """What ``suite`` needs of the family, or None when this config
        has it: proof_identities reads the diagonal gl coordinates and
        recovery the vector AKNS blocks."""
        if suite == "proof_identities" and self.family != "gl_n":
            return "the gl_n family"
        if suite == "recovery" and (self.family != "vector_akns"
                                    or self.n < 3):
            return "the vector_akns family with n >= 3"
        return None

    def _min_order(self, suite: str) -> int:
        """Least jet order at which ``suite`` can read every jet it checks
        (found by running each shipped family at orders 1 to 3)."""
        akns = (self.family == "vector_akns" or (
            self.family == "akns_sl2" and self.variant not in ODD_VARIANTS))
        if suite == "flows" and akns:
            return 2  # the q-recursion leading-term law reads Q_{-3} at t = 0
        # the Theorem 7.6 checks run when the gl flow exponents are
        # consecutive: every one on the standard variant, only exponent 1
        # on the twisted ones, which keep the odd exponents (the config
        # twin of VacuumSequence.full_grid: no sequence exists here yet)
        if suite == "virasoro" and self.family == "gl_n" and (
                self.variant == "standard" or self.num_flows == 1):
            return 2
        if suite == "recovery" and self.family == "vector_akns":
            return self.n  # the jet order _recovery_pieces requires
        return 1

    def echo(self) -> dict:
        out = {
            "schema": SCHEMA, "family": self.family, "n": self.n,
            "variant": self.variant, "flows": self.num_flows,
            "order": self.order, "suites": list(self.suites),
            "virasoro": {"ells": list(self.virasoro_ells),
                         "gammas": list(self.virasoro_gammas)},
            "tolerances": self.tolerances,
            "prng": "splitmix64",
        }
        if self.a_diag is not None:
            out["a_diag"] = [[z.real, z.imag] for z in self.a_diag]
        if self.window is not None:
            out["window"] = {"lo": self.window[0], "hi": self.window[1]}
        if self.f_explicit is not None:
            out["f_source"] = {"kind": "explicit", "coeffs": self.f_explicit}
        else:
            out["f_source"] = {"kind": "seeded", "seed": self.f_seed,
                               "depth": self.f_depth,
                               "amplitude": self.f_amplitude}
        return out


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}


def _check(value, kind, name: str, low=None, among=None):
    """``value`` as a config field of ``kind``: an ``int`` takes a JSON
    integer, a ``float`` any finite JSON number (returned as a float),
    ``[kind]`` a list of that kind; ``low`` and ``among`` bound each value.
    Anything else, booleans, fractions and non-finite numbers included, is
    a :class:`ConfigError` naming the field, never silently coerced."""
    if isinstance(kind, list):
        return [_check(v, kind[0], name, low, among)
                for v in _check(value, list, name)]
    ok = (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
          if kind is float else isinstance(value, kind))  # inf, NaN fail
    if not ok or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be {_KINDS[kind]}, "
                          f"got {value!r}")
    value = float(value) if kind is float else value
    if among is not None and value not in among:
        raise ConfigError(f"field {name!r} must be one of "
                          f"{', '.join(map(repr, among))}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"field {name!r} must be >= {low}, got {value}")
    return value


class _Reader:
    """The one reader of config fields: ``get(path, kind, default, low=,
    among=)`` reads the field at a dotted path (``"f_source.depth"``; an
    object field such as ``f_source`` defaults to ``{}``) through
    :func:`_check`.  A field without a default is required, and null counts
    as absent only for a field whose default is None.  Every path read is
    remembered, so that :meth:`reject_unknown` can name any other key."""

    def __init__(self, raw: dict):
        self.raw, self.read = raw, set()

    def __call__(self, path: str, kind, default=_REQUIRED, low=None,
                 among=None):
        holder, key = self.raw, path
        if "." in path:  # split once: check ids may contain dots
            head, key = path.split(".", 1)
            holder = self(head, dict, {})
        self.read.add(path)
        value = holder.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required field {path!r}")
        if value is None and default is None:
            return None
        return _check(value, kind, path, low, among)

    def reject_unknown(self) -> None:
        for key, value in self.raw.items():
            inner = value if isinstance(value, dict) else {}
            for path in [key] + [f"{key}.{k}" for k in inner]:
                if path not in self.read:
                    raise ConfigError(f"unknown field {path!r}")


def _explicit_coeffs(coeffs: list, n: int) -> list:
    """Validate an explicit coefficient table ``[[degree, row, col, re, im],
    ...]`` (rows and columns 1-based); the entries are kept as given."""
    rows = range(1, n + 1)
    for i, entry in enumerate(coeffs):
        name = f"f_source.coeffs[{i}]"
        if len(entry) != 5:
            raise ConfigError(f"field {name!r} must be [degree, row, col, "
                              f"re, im], got {entry!r}")
        for j, kind, among in zip(range(5), (int, int, int, float, float),
                                  (None, rows, rows, None, None)):
            _check(entry[j], kind, f"{name}[{j}]", among=among)
    return coeffs


class Scenario:
    """A configured scenario: splitting, sequence, context and datum."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()  # a config built by hand, too
        self.cfg = cfg
        self.spec = SplittingSpec(**{"variant": cfg.variant, "n": cfg.n,
                                     **PAIRS[cfg.family, cfg.variant]})
        self.seq = FAMILIES[cfg.family][2](cfg)
        self.ctx = self.seq.context(cfg.order, cfg.window)
        with _stage("scattering datum"):
            self.f = self._make_f()

    def _make_f(self) -> Series:
        cfg = self.cfg
        if cfg.f_explicit is not None:
            coeffs: dict[int, np.ndarray] = {}
            for i, (deg, row, col, re, im) in enumerate(cfg.f_explicit):
                if not self.ctx.lo <= int(deg) <= 0:
                    raise ConfigError(
                        f"field 'f_source.coeffs[{i}]': degree {deg} is outside "
                        f"{self.ctx.lo}..0 (the window floor and L-)")
                m = coeffs.setdefault(int(deg),
                                      np.zeros((self.seq.n, self.seq.n),
                                               dtype=complex))
                m[int(row) - 1, int(col) - 1] += float(re) + 1j * float(im)
            # explicit tables are treated as window-truncated data (same
            # trust floor a seeded datum carries), so dump/reload round
            # trips reproduce reports bit for bit
            f = Series.from_degree_matrices(self.ctx, coeffs, exact=False)
            stray = l_minus_stray(f)
            if stray is not None:
                raise ConfigError(f"field 'f_source.coeffs': the degree-0 "
                                  f"entries must sum to I (off by {stray:.3e})")
            bad = reality_check(self.spec, f)
            if bad > 1e-8 * max(1.0, f.max_abs()):
                raise ConfigError(f"field 'f_source.coeffs': f violates the "
                                  f"{self.spec.variant} reality condition "
                                  f"(defect {bad:.3e})")
            return f
        if cfg.f_depth > -self.ctx.lo:  # checked before any draw
            raise ConfigError(f"field 'f_source.depth': degree -{cfg.f_depth} "
                              f"is below the window floor {self.ctx.lo}")
        return sample_negative_element(self.spec, self.ctx, cfg.f_seed,
                                       cfg.f_depth, cfg.f_amplitude)


@dataclass
class Report:
    scenario: dict
    checks: list[CheckRecord]
    conventions: dict
    timing: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "checks": [c.as_dict() for c in self.checks],
            "conventions": self.conventions,
            "passed": self.passed,
            "timing_s": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1,
                          allow_nan=False)


class _Runner:
    def __init__(self, scen: Scenario):
        self.scen = scen
        self.cfg = scen.cfg
        self.records: list[CheckRecord] = []
        self.conventions: dict = {}
        self.timing: dict = {}
        self.result: FactorizationResult | None = None
        self.stabilizers: dict | None = None

    def add(self, cid: str, value: float, note: str = "") -> None:
        self.records.append(record(cid, value, note,
                                   self.cfg.tolerances.get(cid)))

    def run(self) -> Report:
        order = list(self.cfg.suites)
        # the stabilizer results and the Lax bracket go once the last suite
        # that reads them ran
        last_stab, last_lax = (max((i for i, suite in enumerate(order)
                                    if suite in readers), default=-1)
                               for readers in (STABILIZER_SUITES, LAX_SUITES))
        self._ensure_factorized()  # prerequisite of every suite
        for i, suite in enumerate(order):
            t0 = time.perf_counter()
            with _stage(f"suite {suite}"):
                getattr(self, f"_suite_{suite}")()
            self.timing[suite] = round(time.perf_counter() - t0, 3)
            if i == last_stab:
                self.stabilizers = None
            if i == last_lax:
                self.result.forget("lax")
        return Report(self.cfg.echo(), self.records, self.conventions,
                      self.timing)

    def _ensure_factorized(self) -> None:
        if self.result is None:
            s = self.scen
            with _stage("prerequisite factorization"):
                self.result = factorize_jet(s.spec, s.seq, s.ctx, s.f)

    def _ensure_stabilizers(self) -> dict:
        """The stabilizer checks of the variant's samples, run once: "h"
        and "k" map to the check's dict plus its sample, when it has one."""
        if self.stabilizers is None:
            s, res = self.scen, self.result
            self.stabilizers = {}
            h, k = _commuting_h(s), _commuting_k(s)
            if h is not None:
                self.stabilizers["h"] = dict(stabilizer_h_check(res, h), h=h)
            if k is not None:
                self.stabilizers["k"] = dict(stabilizer_k_check(res, k), k=k)
        return self.stabilizers

    # -- suites ------------------------------------------------------------

    def _suite_factorization(self) -> None:
        s, res = self.scen, self.result
        self.add("reality_of_f", reality_check(s.spec, s.f))
        self.add("vacuum_commuting", s.seq.commutation_defect(s.ctx))
        v = res.V
        worst = float(np.abs(v.coeff(0, 0) - np.eye(s.ctx.n)).max())
        for var in s.seq.variables:
            jv = s.seq.generator(s.ctx, var)
            worst = max(worst, (v.partial(var) - jv * v).max_abs())
        self.add("vacuum_frame_ode", worst)
        self.add("fact_soundness", (res.Minv * res.E - res.vfinv).max_abs())
        norm = float(np.abs(res.E.coeff(0, 0) - np.eye(s.ctx.n)).max())
        norm = max(norm, Series.from_rows(s.ctx, [0], res.M - s.f,
                                          [0]).max_abs())
        self.add("fact_normalization", norm)
        oracle = factorize_oracle(s.seq, s.ctx, s.f)
        self.add("fact_oracle", (res.M - oracle).max_abs())
        self.add("fact_path_independence", m_ode_defect(res))
        alt = factorize_jet(s.spec, s.seq, s.ctx, s.f, var_choice="last")
        self.add("fact_tie_break", (res.M - alt.M).max_abs())
        del alt  # read by no other check: it dies before the stabilizers
        self.add("e_ode", e_ode_defect(res))
        lax = lax_residual(res)
        self.add("lax_defining", lax["defining"],
                 note=f"alternate orientation residual {lax['alternate']:.3e}")
        self.conventions["lax_bracket"] = lax["convention"]
        mask = s.seq.y_shape_mask()
        stray = (res.u - res.u.hadamard(mask.astype(float))).max_abs()
        self.add("u_shape", stray)
        if s.seq.family == "gl":
            c = np.array(s.seq.c)
            weights = -(c[:, None] - c[None, :])
            self.add("gl_u_v_relation",
                     (res.u - res.v.hadamard(weights)).max_abs())
        for cid, val in reality_propagation_check(res).items():
            self.add("reality_propagation", val, note=cid)
        stab = self._ensure_stabilizers()
        if "h" in stab:
            chk = stab["h"]
            self.add("stabilizer_h", max(chk["u_unchanged"],
                                         chk["reduced_frame_translates"]))
        if "k" in stab:
            chk = stab["k"]
            self.add("stabilizer_k", max(chk["u_conjugates"],
                                         chk["m_conjugates"],
                                         chk["e_conjugates"]))
            self.add("stabilizer_k_form", _k_form_defect(s, res, chk))

    def _suite_flows(self) -> None:
        s, res = self.scen, self.result
        flows = LaxFlows(s.seq, res.u, res.q_series(), res.lax_bracket())
        worst = 0.0
        for var in s.seq.variables:
            worst = max(worst, (res.u.partial(var) - flows.rhs(var)).max_abs())
        self.add("flow_rhs_match", worst)
        for name in named_flows(s.seq, s.spec.variant):
            checks = named_flow_residual(s.seq, res.u, name, s.spec.variant)
            val = max(c.residual for c in checks)
            signs = {c.component: c.sign for c in checks}
            self.add(f"flow_{name}", val,
                     note="signs " + json.dumps(signs, sort_keys=True))
            self.conventions[f"flow_sign/{name}"] = signs
        if s.seq.family == "akns":
            self._q_recursion_checks()

    def _q_recursion_checks(self) -> None:
        s, res = self.scen, self.result
        depth = min(4, s.ctx.order)
        q_rec, P, T = q_recursion_vector_akns(s.seq, res.u, depth)
        q_scat = res.q_series()
        self.add("q_recursion_match",
                 (q_rec - q_scat).restrict_degrees(-depth, s.ctx.hi).max_abs())
        lam2 = Series.from_degree_matrices(s.ctx, {2: np.eye(s.ctx.n)})
        self.add("q_conjugacy",
                 ((q_rec * q_rec + lam2)
                  .restrict_degrees(-(depth - 1), s.ctx.hi)).max_abs())
        a_s = Series.monomial(s.ctx, s.seq.a)
        u = res.u
        ux = s.seq.partial_x(u)
        qm1 = (a_s * (ux.scale(-1.0) + u * u)).scale(0.5)
        worst = (P[1] + T[1] - qm1).max_abs()
        if depth >= 2:
            uxx = s.seq.partial_x(ux)
            qm2 = (uxx.scale(-0.25) + (u * u * u).scale(0.5)
                   - (u * ux - ux * u).scale(0.25))
            worst = max(worst, (P[2] + T[2] - qm2).max_abs())
        self.add("q_recursion_closed", worst)
        self.add("q_leading_term", _leading_term_defect(s))
        self.add("trace_g1", _trace_g1_defect(s))

    def _suite_tau(self) -> None:
        s, res = self.scen, self.result
        d = tau_route_defects(res)
        self.add("tau_defining", d["defining"])
        self.add("tau_closedness", d["closedness"])
        self.add("tau_second_routes", d["routes"])
        self.add("tau_symmetry", d["symmetry"])
        if s.seq.family != "gl":
            self.add("tau_t1tj_route", d["t1tj"])
        for rec in identity_suite(res):
            self.add(rec.check_id, rec.max_defect, rec.note)
            if rec.check_id == "akns_tau_t1t2":
                self.conventions["akns_tau_kappa"] = rec.note
                avals = np.diag(s.seq.a)
                self.conventions["akns_a"] = (
                    "diag(%s, %s); second-derivative identities hold with "
                    "the detected constant" % (avals[0], avals[1]))
            if rec.check_id == "tau_uu_u_form":
                self.conventions["tau_uu_scaling"] = rec.note
        stab = self._ensure_stabilizers()
        if "h" in stab:
            chk = stab["h"]
            self.add("tau_shift_constancy",
                     shift_constancy_check(res, chk["result_h"], chk["h"]))
        if "k" in stab:
            self.add("tau_conjugation",
                     conjugation_invariance_check(res, stab["k"]["result_k"]))
        if s.seq.family == "akns" and s.ctx.n >= 3:
            self.add("xi_trace_identity",
                     xi_helpers(res)["trace_identity"])
        # every second partial is cached by (j, k): no later call needs the
        # d_lam (M J_k M^-1)_+ operands
        for r in [res] + [c[f"result_{x}"] for x, c in stab.items()]:
            r.forget("dplus")

    def _suite_virasoro(self) -> None:
        s, res = self.scen, self.result
        # one family of fields at f: each product that depends on neither l
        # nor Gamma, and each Z_l(f), is built once for every check below
        fields = datum_fields(res)
        gammas = [None if g == "zero" else gamma_xi0(s.ctx.n)
                  for g in self.cfg.virasoro_gammas]
        ells = list(self.cfg.virasoro_ells)
        worst_tan, worst_br = 0.0, 0.0
        for gamma in gammas:
            for j in ells:
                worst_tan = max(worst_tan, tangency_defect(fields, j, gamma))
            worst_br = max(worst_br, bracket_defect(fields, ells, gamma))
        self.add("virasoro_tangent", worst_tan)
        self.add("virasoro_bracket", worst_br)
        self._variation_laws()
        worst_frame, worst_lk, worst_gl = 0.0, 0.0, 0.0
        for gamma in gammas:
            for ell in ells:
                frame, lk, gl = self._eps_defects(fields, ell, gamma)
                worst_frame = max(worst_frame, frame)
                worst_lk = max(worst_lk, lk)
                worst_gl = max(worst_gl, gl)
        self.add("induced_frame_eps", worst_frame)
        self.add("induced_lntau_eps", worst_lk)
        if s.seq.family == "gl" and s.seq.full_grid:
            self.add("induced_frame_gl", worst_gl)
            self._t76_checks(ells)
        worst_c = 0.0
        for ell in ells:
            if ell <= 1:
                worst_c = max(worst_c, abs(fields.c_ell(ell)))
        self.add("c_ell_const", max(c_ell_const_defect(res, ells), worst_c),
                 note="c_l = 0 for l <= 1 included")
        if s.spec.variant in ODD_VARIANTS:
            worst_t = max(eta_tangency_defect(s.spec, fields, j)
                          for j in (0, 1, 2))
            worst_b = eta_bracket_defect(fields, (0, 1))
            self.add("eta_tangency", worst_t)
            self.add("eta_bracket", worst_b)

    def _eps_defects(self, fields, ell: int, gamma) -> tuple:
        """The frame, ln tau and (gl, Gamma = 0, full grid; else 0) v_f
        defects of the induced variations against one eps refactorization,
        which dies on return, before the next is built."""
        s, res = self.scen, self.result
        eps = eps_perturbed_result(res, fields(ell, gamma))
        fv = induced_frame_variation(res, ell, gamma)
        frame = (fv - eps.M.eps_part() * res.Minv).max_abs()
        lk = (induced_lntau_variation(res, ell, gamma)
              - ln_tau_jet(eps).eps_part()).max_abs()
        gl = 0.0
        if s.seq.family == "gl" and gamma is None and s.seq.full_grid:
            gl = (fv - gl_frame_variation(res, ell)).max_abs()
            v_eps = eps.M.eps_part().degree_slice(-1).hadamard(
                1.0 - np.eye(s.ctx.n))
            gl = max(gl, (zeta_v_formula(res, ell) - v_eps).max_abs())
        return frame, lk, gl

    def _variation_laws(self) -> None:
        """Both general variation laws, read off one refactorization of
        f + eps df for the tangent sample df."""
        eps = eps_perturbed_result(self.result, _tangent_sample(self.scen))
        self.add("frame_variation", frame_variation_defect(eps))
        self.add("lntau_variation", thm56_defect(eps))

    def _t76_checks(self, ells) -> None:
        res = self.result
        worst = {"proof": 0.0, "printed": 0.0}
        worst_jet = 0.0
        for ell in ells:
            lt = induced_lntau_variation(res, ell, None)
            for which in ("proof", "printed"):
                op, _ = theorem76_operator(res, ell, coefficients=which)
                worst[which] = max(worst[which], (op - lt).max_abs())
            op_j, masked = theorem76_operator(res, ell, partials="jet")
            worst_jet = max(worst_jet, masked_scalar_defect(op_j, lt, masked))
        best, residual, other = detect(worst)
        self.add("t76_operator", residual,
                 note=f"quadratic coefficients: {best} version "
                      f"(other {other:.3e})")
        self.conventions["t76_coeffs"] = best
        self.add("t76_jet_route", worst_jet)

    def _suite_proof_identities(self) -> None:
        s, res = self.scen, self.result
        agg: dict[str, float] = {}
        for i in range(1, s.ctx.n + 1):
            for key, val in proof_identities_check(res, i).items():
                agg[key] = max(agg.get(key, 0.0), val)
        self.add("proof_b_square", agg["b_square"])
        self.add("proof_b_linear", agg["b_linear"])
        self.add("proof_b_deriv", agg["b_deriv"])
        self.add("proof_b_trace", agg["b_trace"])
        self.add("proof_xi_entry", max(agg["xi_entry"], agg["xi_support"]))
        self.add("proof_q_quadratic", agg["q_quadratic"])

    def _suite_recovery(self) -> None:
        res = self.result
        k_chk = self._ensure_stabilizers().get("k", {})
        out = vector_akns_recovery(res, k_chk.get("result_k"))
        if out.get("degenerate"):
            self.add("recovery_degenerate", 0.0,
                     note="S or R singular at this datum; recovery skipped")
            self.conventions["recovery"] = "degenerate (S or R singular)"
            return
        self.add("recovery_q", out["recovery_q"])
        self.add("recovery_r", out["recovery_r"])
        if "k_invariance" in out:
            self.add("recovery_k_invariance", out["k_invariance"])


# -- helpers ---------------------------------------------------------------

@contextlib.contextmanager
def _stage(name: str):
    """Raise numpy overflow and invalid operations inside a stage as a
    :class:`LoopjetError` naming it, so a blow-up fails where it happens
    instead of at a later check, and running out of memory as a
    :class:`ResourceError` naming it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise LoopjetError(f"{name}: {e}") from None
    except MemoryError as e:
        raise ResourceError(f"{name}: out of memory"
                            + (f" ({e})" if str(e) else "")) from None


def _commuting_h(scen: Scenario) -> Series | None:
    """A sample h in the variant's negative subgroup commuting with J_1."""
    seq, ctx = scen.seq, scen.ctx
    if seq.family == "kdv":
        j = seq.base_series(ctx, "J")
        return exp_series(j.shift(-2) * 0.2 + j.shift(-4) * (0.1 + 0.05j))
    diag = np.diag(0.1 * np.arange(1, seq.n + 1)
                   + 0.05j * np.arange(seq.n, 0, -1))
    if scen.spec.variant == "u_real":
        diag = 1j * np.diag(np.arange(1, seq.n + 1) * 0.1)
    elif scen.spec.variant != "standard":
        return None
    xi = Series.monomial(ctx, diag, -1) + Series.monomial(ctx, 0.5 * diag, -2)
    return exp_series(xi)


def _commuting_k(scen: Scenario) -> np.ndarray | None:
    seq = scen.seq
    if seq.family == "kdv":
        return None
    if scen.spec.variant == "standard":
        vals = [1.1 + 0.2j * i for i in range(seq.n - 1)]
        last = 1.0 / np.prod(vals) if seq.n == 2 else 0.7 - 0.1j
        return np.diag(vals + [last])
    if scen.spec.variant == "u_real":
        if seq.n == 2:
            return np.diag([np.exp(0.3j), np.exp(-0.3j)])
        phases = np.exp(1j * 0.3 * np.arange(1, seq.n + 1))
        return np.diag(phases)
    if seq.family == "gl" and scen.spec.variant in ODD_VARIANTS:
        signs = [(-1.0) ** i for i in range(seq.n)]
        return np.diag(signs)
    return None


def _k_form_defect(scen, res, chk) -> float:
    seq, k = scen.seq, chk["k"]
    if seq.family == "akns" and seq.n == 2:
        c = k[0, 0]
        q = res.u.entry_jet(0, 1, 0)
        r = res.u.entry_jet(1, 0, 0)
        uk = chk["result_k"].u
        return max((uk.entry_jet(0, 1, 0) - q * c ** 2).max_abs(),
                   (uk.entry_jet(1, 0, 0) - r * c ** -2).max_abs())
    if seq.family == "gl":
        worst = 0.0
        vk = chk["result_k"].v
        for i, j in itertools.permutations(range(seq.n), 2):
            expect = res.v.entry_jet(i, j, 0) * (k[i, i] / k[j, j])
            worst = max(worst, (vk.entry_jet(i, j, 0) - expect).max_abs())
        return worst
    uk = chk["result_k"].u
    return (uk - res.u.conjugate_by(k)).max_abs()


def _tangent_sample(scen: Scenario) -> Series:
    df = sample_negative_element(SplittingSpec("standard", scen.seq.n),
                                 scen.ctx, scen.cfg.f_seed + 104729, 2,
                                 scen.cfg.f_amplitude)
    return df - Series.identity(scen.ctx)


def _leading_term_defect(scen: Scenario) -> float:
    """Leading-term law of the recursion: with u = t_1**j c / j!, the
    off-diagonal part of Q_{-j} at t = 0 is (-a/2)**j c, and for
    u = t_1 c the diagonal part of Q_{-3} at t = 0 is -(a/2)**3 c^2."""
    seq, ctx = scen.seq, scen.ctx
    n = ctx.n
    gen = np.zeros((n, n), dtype=complex)
    gen[: n - 1, n - 1] = 0.7
    gen[n - 1, : n - 1] = -0.4 + 0.3j
    worst = 0.0
    for j in range(1, min(3, ctx.order) + 1):
        u = Series.monomial(ctx, gen / math.factorial(j),
                            alpha=ctx.unit_index("t1", j))
        _, P, T = q_recursion_vector_akns(seq, u, j)
        expect = np.linalg.matrix_power(-seq.a / 2.0, j) @ gen
        worst = max(worst, float(np.abs(P[j].coeff(0, 0) - expect).max()))
    if ctx.order >= 1:
        u = Series.monomial(ctx, gen, alpha=ctx.unit_index("t1"))
        _, P, T = q_recursion_vector_akns(seq, u, 3)
        expect = -np.linalg.matrix_power(seq.a / 2.0, 3) @ gen @ gen
        worst = max(worst, float(np.abs(T[3].coeff(0, 0) - expect).max()))
    return worst


def _trace_g1_defect(scen: Scenario) -> float:
    """tr(v a v) = 0 for every v in the off-diagonal block part."""
    seq, ctx = scen.seq, scen.ctx
    n = ctx.n
    gen = SplitMix64(2024)
    worst = 0.0
    for _ in range(4):
        v = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            v[i, n - 1] = gen.complex_entry(1.0)
            v[n - 1, i] = gen.complex_entry(1.0)
        worst = max(worst, abs(np.trace(v @ seq.a @ v)))
    return worst


def run_scenario(cfg: ScenarioConfig) -> Report:
    with _stage("set-up"):
        scen = Scenario(cfg)
    return _Runner(scen).run()
