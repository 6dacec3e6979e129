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
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .checks import CATALOG, CheckRecord, detect, record
from .context import JetContext
from .errors import ConfigError, LoopjetError
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
from .splitting import SplittingSpec, reality_check, sample_negative_element
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
FAMILIES = ("akns_sl2", "vector_akns", "gl_n", "kdv_twisted")


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
        if raw.get("schema") != SCHEMA:
            raise ConfigError(f"expected schema {SCHEMA!r}, got "
                              f"{raw.get('schema')!r}")
        try:
            family = raw["family"]
            n = _at_least(2, _convert(int, raw["n"], "n"), "n")
        except KeyError as e:
            raise ConfigError(f"missing required field {e}") from None
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}")
        a_diag = None
        if raw.get("a_diag") is not None:
            try:
                pairs = [(re, im) for re, im in raw["a_diag"]]
            except (TypeError, ValueError):
                raise ConfigError("a_diag must be a list of [re, im] "
                                  "pairs") from None
            a_diag = [complex(_convert(float, re, "a_diag"),
                              _convert(float, im, "a_diag"))
                      for re, im in pairs]
        window = None
        if raw.get("window") is not None:
            w = raw["window"]
            if not isinstance(w, dict):
                raise ConfigError("window must be an object {lo, hi}")
            window = (_convert(int, w.get("lo"), "window.lo"),
                      _convert(int, w.get("hi"), "window.hi"))
            if not window[0] <= 0 <= window[1]:
                raise ConfigError(f"field 'window' must have lo <= 0 <= hi, "
                                  f"got {w!r}")
        src = raw.get("f_source", {"kind": "seeded"})
        if not isinstance(src, dict):
            raise ConfigError("f_source must be an object")
        explicit = None
        seed, depth, amp = 1, 3, 0.3
        if src.get("kind") == "explicit":
            explicit = _explicit_coeffs(src.get("coeffs"), n)
        elif src.get("kind") == "seeded":
            seed = _convert(int, src.get("seed", 1), "f_source.seed")
            depth = _at_least(1, _convert(int, src.get("depth", 3),
                                          "f_source.depth"), "f_source.depth")
            amp = _convert(float, src.get("amplitude", 0.3),
                           "f_source.amplitude")
        else:
            raise ConfigError("f_source.kind must be 'seeded' or 'explicit'")
        suites = tuple(_list_of(raw.get("suites", ["factorization"]),
                                "suites"))
        for s in suites:
            if s not in ALL_SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        vira = raw.get("virasoro", {})
        if not isinstance(vira, dict):
            raise ConfigError("virasoro must be an object {ells, gammas}")
        gammas = tuple(_list_of(vira.get("gammas", ["zero"]),
                                "virasoro.gammas"))
        for g in gammas:
            if g not in ("zero", "xi0"):
                raise ConfigError(f"unknown gamma preset {g!r}")
        ells = tuple(_at_least(-1, _convert(int, ell, "virasoro.ells"),
                               "virasoro.ells")
                     for ell in _list_of(vira.get("ells", [-1, 0, 1, 2, 3]),
                                         "virasoro.ells"))
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances must be an object {check id: value}")
        tolerances = {cid: _tolerance(tol, f"tolerances.{cid}")
                      for cid, tol in tolerances.items()}
        cfg = cls(
            family=family, n=n, variant=raw.get("variant", "standard"),
            a_diag=a_diag,
            num_flows=_at_least(1, _convert(int, raw.get("flows", 3), "flows"),
                                "flows"),
            order=_convert(int, raw.get("order", 3), "order"), window=window,
            f_seed=seed, f_depth=depth, f_amplitude=amp, f_explicit=explicit,
            suites=suites,
            virasoro_ells=ells,
            virasoro_gammas=gammas,
            tolerances=tolerances,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.family == "kdv_twisted":
            if self.n != 2:
                raise ConfigError("kdv_twisted requires n = 2")
            if self.variant not in ("kdv_twisted", "standard"):
                raise ConfigError("kdv_twisted family uses its own splitting")
        if self.family == "akns_sl2" and self.n != 2:
            raise ConfigError("akns_sl2 requires n = 2")
        if self.family in ("vector_akns", "kdv_twisted") and \
                self.a_diag is not None:
            raise ConfigError(f"field 'a_diag': the {self.family} family "
                              f"fixes its own a; leave a_diag null")
        if self.family == "gl_n" and self.a_diag is None:
            raise ConfigError("gl_n needs an a_diag of length n")
        if self.a_diag is not None and (len(self.a_diag) != self.n or
                                        len(set(self.a_diag)) != self.n):
            raise ConfigError("field 'a_diag' must hold n pairwise distinct "
                              "entries (a regular a)")
        if self.order < 1:
            raise ConfigError("order must be >= 1")
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
            self.family == "akns_sl2"
            and self.variant not in ("sigma_twisted", "tau_sigma")))
        if suite == "flows" and akns:
            return 2  # the q-recursion leading-term law reads Q_{-3} at t = 0
        # the Theorem 7.6 checks run when the gl flow exponents are
        # consecutive: every one on the standard variant, only exponent 1
        # on the twisted ones, which keep the odd exponents
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


def _convert(kind, value, name: str):
    """A config field of type ``kind``: an ``int`` field takes a JSON
    integer, a ``float`` field any finite JSON number; strings, booleans,
    fractions and non-finite values are a :class:`ConfigError` naming the
    field, never silently coerced."""
    ok = (isinstance(value, int) if kind is int else
          isinstance(value, (int, float))
          and abs(value) <= sys.float_info.max)  # False for inf and NaN
    if not ok or isinstance(value, bool):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
    return kind(value)


def _list_of(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    return value


def _at_least(low, value, name: str):
    if value < low:
        raise ConfigError(f"field {name!r} must be >= {low}, got {value}")
    return value


def _tolerance(value, name: str) -> float | None:
    """A tolerance override; null keeps the catalog default."""
    if value is None:
        return None
    return _at_least(0.0, _convert(float, value, name), name)


def _explicit_coeffs(coeffs, n: int) -> list:
    """Validate an explicit coefficient table ``[[degree, row, col, re, im],
    ...]`` (rows and columns 1-based); the entries are kept as given."""
    if not isinstance(coeffs, list):
        raise ConfigError("field 'f_source.coeffs' must be a list of "
                          "[degree, row, col, re, im] entries")
    for i, entry in enumerate(coeffs):
        name = f"f_source.coeffs[{i}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise ConfigError(f"field {name!r} must be [degree, row, col, "
                              f"re, im], got {entry!r}")
        _convert(int, entry[0], name)
        for label, idx in (("row", entry[1]), ("col", entry[2])):
            if not 1 <= _convert(int, idx, name) <= n:
                raise ConfigError(f"field {name!r}: {label} {idx!r} is "
                                  f"outside 1..{n}")
        _convert(float, entry[3], name)
        _convert(float, entry[4], name)
    return coeffs


class Scenario:
    """A configured scenario: splitting, sequence, context and datum."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.spec, self.seq = _build_family(cfg)
        self.ctx = self.seq.context(cfg.order, cfg.window)
        self.fctx = JetContext((), 0, self.seq.n, self.ctx.lo, self.ctx.hi)
        with _stage("scattering datum"):
            self.f = self._make_f()

    def _make_f(self) -> Series:
        cfg = self.cfg
        if cfg.f_explicit is not None:
            coeffs: dict[int, np.ndarray] = {}
            for i, (deg, row, col, re, im) in enumerate(cfg.f_explicit):
                if not self.fctx.lo <= int(deg) <= 0:
                    raise ConfigError(
                        f"field 'f_source.coeffs[{i}]': degree {deg} is outside "
                        f"{self.fctx.lo}..0 (the window floor and L-)")
                m = coeffs.setdefault(int(deg),
                                      np.zeros((self.seq.n, self.seq.n),
                                               dtype=complex))
                m[int(row) - 1, int(col) - 1] += float(re) + 1j * float(im)
            # explicit tables are treated as window-truncated data (same
            # trust floor a seeded datum carries), so dump/reload round
            # trips reproduce reports bit for bit
            f = Series.from_degree_matrices(self.fctx, coeffs, exact=False)
            stray = l_minus_stray(f)
            if stray is not None:
                raise ConfigError(f"field 'f_source.coeffs': the degree-0 "
                                  f"entries must sum to I (off by {stray:.3e})")
            bad = reality_check(self.spec, f)
            if bad > 1e-8 * max(1.0, f.max_abs()):
                raise ConfigError(f"explicit f violates the {self.spec.variant} "
                                  f"reality condition (defect {bad:.3e})")
            return f
        return sample_negative_element(self.spec, self.fctx, cfg.f_seed,
                                       cfg.f_depth, cfg.f_amplitude)


def _build_family(cfg: ScenarioConfig) -> tuple[SplittingSpec, VacuumSequence]:
    v = cfg.variant
    if cfg.family == "akns_sl2":
        a = np.diag(cfg.a_diag) if cfg.a_diag else np.diag([1j, -1j])
        if v in ("sigma_twisted", "tau_sigma"):
            seq = odd_akns_sequence(a, cfg.num_flows)
        else:
            seq = akns_sequence(2, cfg.num_flows, a)
        spec = _sl2_spec(v, cfg)
        return spec, seq
    if cfg.family == "vector_akns":
        seq = akns_sequence(cfg.n, cfg.num_flows)
        if v not in ("standard", "u_real"):
            raise ConfigError("vector_akns supports standard or u_real")
        return SplittingSpec(v, cfg.n), seq
    if cfg.family == "gl_n":
        if v == "standard":
            return (SplittingSpec("standard", cfg.n),
                    gl_sequence(cfg.a_diag, cfg.num_flows))
        # the twisted restrictions only keep the odd-exponent generators
        seq = gl_sequence(cfg.a_diag, cfg.num_flows, parity="odd")
        if v == "sigma_twisted":
            return SplittingSpec(v, cfg.n, sigma_mode="transpose_inv"), seq
        if v == "tau_sigma":
            return SplittingSpec(v, cfg.n, tau_mode="real",
                                 sigma_mode="transpose_inv"), seq
        raise ConfigError(f"gl_n does not support variant {v!r}")
    if cfg.family == "kdv_twisted":
        return SplittingSpec("kdv_twisted", 2), kdv_sequence(cfg.num_flows)
    raise ConfigError(f"unknown family {cfg.family!r}")


def _sl2_spec(v: str, cfg: ScenarioConfig) -> SplittingSpec:
    if v == "standard":
        return SplittingSpec("standard", 2)
    if v == "u_real":
        return SplittingSpec("u_real", 2)
    if v == "sigma_twisted":
        c = np.array([[0, 1], [1, 0]], dtype=complex)
        return SplittingSpec(v, 2, sigma_mode="conj", sigma_conjugator=c)
    if v == "tau_sigma":
        return SplittingSpec(v, 2, tau_mode="hermitian",
                             sigma_mode="transpose_inv")
    raise ConfigError(f"akns_sl2 does not support variant {v!r}")


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
        self._ensure_factorized()  # prerequisite of every suite
        for suite in order:
            t0 = time.perf_counter()
            with _stage(f"suite {suite}"):
                getattr(self, f"_suite_{suite}")()
            self.timing[suite] = round(time.perf_counter() - t0, 3)
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
        norm = max(norm, (res.M - s.f.embed(s.ctx)).restrict_degrees(
            s.ctx.lo, s.ctx.hi).at_zero().max_abs())
        self.add("fact_normalization", norm)
        oracle = factorize_oracle(s.spec, s.seq, s.ctx, s.f, V=res.V)
        self.add("fact_oracle", (res.M - oracle).max_abs())
        self.add("fact_path_independence", m_ode_defect(res))
        alt = factorize_jet(s.spec, s.seq, s.ctx, s.f, var_choice="last",
                            V=res.V)
        self.add("fact_tie_break", (res.M - alt.M).max_abs())
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
        flows = LaxFlows(s.seq, res.u, res.q_series())
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
            if self.cfg.tolerances.get(rec.check_id) is not None:
                rec = record(rec.check_id, rec.max_defect, rec.note,
                             self.cfg.tolerances[rec.check_id])
            self.records.append(rec)
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
                eps = eps_perturbed_result(res, fields(ell, gamma))
                fv = induced_frame_variation(res, ell, gamma)
                fv_eps = eps.M.eps_part() * res.Minv
                worst_frame = max(worst_frame, (fv - fv_eps).max_abs())
                lt = induced_lntau_variation(res, ell, gamma)
                lt_eps = ln_tau_jet(eps).eps_part()
                worst_lk = max(worst_lk, (lt - lt_eps).max_abs())
                if s.seq.family == "gl" and gamma is None and \
                        _full_grid(s.seq):
                    worst_gl = max(worst_gl,
                                   (fv - gl_frame_variation(res, ell)).max_abs())
                    vf = zeta_v_formula(res, ell)
                    off = 1.0 - np.eye(s.ctx.n)
                    v_eps = eps.M.eps_part().degree_slice(-1).hadamard(off)
                    worst_gl = max(worst_gl, (vf - v_eps).max_abs())
        self.add("induced_frame_eps", worst_frame)
        self.add("induced_lntau_eps", worst_lk)
        if s.seq.family == "gl" and _full_grid(s.seq):
            self.add("induced_frame_gl", worst_gl)
            self._t76_checks(ells)
        worst_c = 0.0
        for ell in ells:
            if ell <= 1:
                worst_c = max(worst_c, abs(fields.c_ell(ell)))
        self.add("c_ell_const", max(c_ell_const_defect(res, ells), worst_c),
                 note="c_l = 0 for l <= 1 included")
        if s.spec.variant in ("sigma_twisted", "tau_sigma"):
            worst_t = max(eta_tangency_defect(s.spec, fields, j)
                          for j in (0, 1, 2))
            worst_b = eta_bracket_defect(fields, (0, 1))
            self.add("eta_tangency", worst_t)
            self.add("eta_bracket", worst_b)

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
    instead of at a later check."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise LoopjetError(f"{name}: {e}") from None


def _full_grid(seq) -> bool:
    flows = sorted({shift + 1 for _, shift in seq.gens.values()})
    return flows == list(range(1, max(flows) + 1))


def _commuting_h(scen: Scenario) -> Series | None:
    """A sample h in the variant's negative subgroup commuting with J_1."""
    seq, fctx = scen.seq, scen.fctx
    if seq.family == "kdv":
        j = seq.base_series(fctx, "J")
        return exp_series(j.shift(-2) * 0.2 + j.shift(-4) * (0.1 + 0.05j))
    diag = np.diag(0.1 * np.arange(1, seq.n + 1)
                   + 0.05j * np.arange(seq.n, 0, -1))
    if scen.spec.variant == "u_real":
        diag = 1j * np.diag(np.arange(1, seq.n + 1) * 0.1)
    elif scen.spec.variant != "standard":
        return None
    xi = Series.monomial(fctx, diag, -1) + Series.monomial(fctx, 0.5 * diag, -2)
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
    if seq.family == "gl" and scen.spec.variant in ("sigma_twisted",
                                                    "tau_sigma"):
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
        for i in range(seq.n):
            for j in range(seq.n):
                if i == j:
                    continue
                expect = res.v.entry_jet(i, j, 0) * (k[i, i] / k[j, j])
                worst = max(worst, (vk.entry_jet(i, j, 0) - expect).max_abs())
        return worst
    uk = chk["result_k"].u
    return (uk - res.u.conjugate_by(k)).max_abs()


def _tangent_sample(scen: Scenario) -> Series:
    df = sample_negative_element(SplittingSpec("standard", scen.seq.n),
                                 scen.fctx, scen.cfg.f_seed + 104729, 2,
                                 scen.cfg.f_amplitude)
    return df - Series.identity(scen.fctx)


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
    import math as _math
    for j in range(1, min(3, ctx.order) + 1):
        u = Series.monomial(ctx, gen / _math.factorial(j),
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
    from .splitting import SplitMix64
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
    return _Runner(Scenario(cfg)).run()
