"""Tau-function calculus on the reduced frame.

ln tau_f is realized as a scalar jet anchored at ln tau_f(0) = 0 (the base
point factors trivially both ways) and built from its defining first
derivatives (ln tau)_{t_v} = <J_v, M^-1 d_lam M>_{-1} by integrating jet
order by jet order.  Second partials come from two independent routes (jet
differentiation versus the reduced-frame pairing), and the identity suite
evaluates the closed-form relations between ln tau and the solution u_f
family by family, auto-detecting the handful of constants whose printed
values disagree with their own derivations and recording the winner.
"""

from __future__ import annotations

import numpy as np

from .checks import CheckRecord, detect, record
from .context import JetContext
from .errors import ShapeError
from .scattering import FactorizationResult
from .series import ScalarJet, Series

__all__ = ["ln_tau_jet", "first_partial_pairing",
           "second_partial_formula", "second_partial_via_j1",
           "tau_route_defects", "identity_suite", "vector_akns_recovery",
           "xi_helpers"]


def ln_tau_jet(result: FactorizationResult,
               var_choice: str = "first") -> ScalarJet:
    """Integrate (ln tau)_{t_v} = <J_v, M^-1 M_lam>_{-1} from ln tau(0) = 0.

    ``var_choice`` selects the integration path per multi-index; closedness
    of the defining one-form makes the choice irrelevant, which the
    closedness check verifies by comparing "first" against "last".  One
    value per result and ``var_choice``, shared: callers must not modify it.
    """
    def build() -> ScalarJet:
        ctx = result.ctx
        integrands = [first_partial_pairing(result, *result.seq.gens[var])
                      for var in ctx.variables]
        X = ScalarJet.zeros(ctx)
        for by_var in ctx.integration_steps(var_choice).values():
            for v, (rows, src, exps) in by_var.items():
                X = X.with_rows(rows, integrands[v], src, divisor=exps)
        return X

    return result.cached(("ln_tau", var_choice), build)


def first_partial_pairing(result: FactorizationResult, base_key: str,
                          shift: int) -> ScalarJet:
    """(ln tau)_{t_v} for the generator (base) lam**shift, evaluated through
    the reduced frame; well defined even for flow times outside the active
    variable set.  Computed once per result (an eps refactorization takes
    component 0 from its base result's): the value is shared, so callers
    must not modify it."""
    def build() -> ScalarJet:
        j_v = result.seq.base_series(result.ctx, base_key).shift(shift)
        return j_v.pairing(result.xi, -1, base=None if result.base is None
                           else first_partial_pairing(result.base, base_key,
                                                      shift))

    return result.cached(("first_partial", base_key, shift), build)


def second_partial_formula(result: FactorizationResult,
                           gen_j: tuple[str, int],
                           gen_k: tuple[str, int]) -> ScalarJet:
    """(ln tau)_{t_j t_k} = <M J_j M^-1, d_lam (M J_k M^-1)_+>_{-1},
    computed once per result and (gen_j, gen_k), its right operand once per
    result and gen_k, and shared like :func:`first_partial_pairing`."""
    def dplus() -> Series:
        wk = result.conjugated_base(gen_k[0]).shift(gen_k[1])
        return wk.plus().dlambda()

    def build() -> ScalarJet:
        wj = result.conjugated_base(gen_j[0]).shift(gen_j[1])
        return wj.pairing(result.cached(("dplus", tuple(gen_k)), dplus), -1)

    return result.cached(("second_partial", tuple(gen_j), tuple(gen_k)),
                         build)


def second_partial_via_j1(result: FactorizationResult,
                          gen_j: tuple[str, int]) -> ScalarJet:
    """(ln tau)_{t_1 t_j} = <M J_j M^-1, d_lam J_1>_{-1}."""
    wj = result.conjugated_base(gen_j[0]).shift(gen_j[1])
    return wj.pairing(result.seq.j1(result.ctx).dlambda(), -1)


def tau_route_defects(result: FactorizationResult) -> dict:
    """Cross-checks between the defining relation, jet differentiation, the
    second-partial pairing, its (t_1, t_j) specialization and symmetry."""
    seq = result.seq
    gens = seq.gens
    X = ln_tau_jet(result)
    defining = 0.0
    for var in seq.variables:
        iv = first_partial_pairing(result, *gens[var])
        defining = max(defining, (X.partial(var) - iv).max_abs())
    closed = (X - ln_tau_jet(result, var_choice="last")).max_abs()

    routes = 0.0
    symmetry = 0.0
    for vj in seq.variables:
        for vk in seq.variables:
            form = second_partial_formula(result, gens[vj], gens[vk])
            jet = X.partial(vj).partial(vk)
            routes = max(routes, (jet - form).max_abs())
            if vj < vk:
                other = second_partial_formula(result, gens[vk], gens[vj])
                symmetry = max(symmetry, (form - other).max_abs())
    t1tj = 0.0
    if seq.family != "gl":
        for vk in seq.variables:
            a_route = second_partial_formula(result, gens["t1"], gens[vk])
            t1tj = max(t1tj, (a_route - second_partial_via_j1(
                result, gens[vk])).max_abs())
    return {"defining": defining, "closedness": closed, "routes": routes,
            "symmetry": symmetry, "t1tj": t1tj}


# ---------------------------------------------------------------------------
# family identities

_KAPPAS = (0.5 + 0j, -0.5 + 0j, 0.5j, -0.5j)


def identity_suite(result: FactorizationResult) -> list[CheckRecord]:
    """Closed-form identities between ln tau and u_f for the active family."""
    seq = result.seq
    out: list[CheckRecord] = []
    if seq.family == "akns" and seq.n == 2:
        out.extend(_akns_identities(result))
    if seq.family == "kdv":
        r = result.u.entry_jet(1, 0, 0)
        y11 = second_partial_formula(result, seq.gens["t1"], seq.gens["t1"])
        out.append(record("kdv_tau_t1t1", (y11 + r).max_abs()))
    if seq.family == "gl":
        out.extend(_gl_identities(result))
    return out


def _akns_identities(result: FactorizationResult) -> list[CheckRecord]:
    seq = result.seq
    out = []
    q, r = result.u.entry_jet(0, 1, 0), result.u.entry_jet(1, 0, 0)
    y1 = second_partial_formula(result, seq.gens["t1"], seq.gens["t1"])
    out.append(record("akns_tau_qr", (y1 + q * r).max_abs()))
    if "t2" not in seq.variables:
        return out
    y2 = second_partial_formula(result, seq.gens["t1"], seq.gens["t2"])
    qx = seq.partial_x(q)
    rx = seq.partial_x(r)
    bracket = qx * r - rx * q
    k, best, _ = detect({kappa: (y2 - bracket * kappa).max_abs()
                         for kappa in _KAPPAS})
    out.append(record("akns_tau_t1t2", best, note=f"kappa = {k}"))
    # first-order ODE system relating u_f to y_1, y_2 (denominator-cleared);
    # substituting the detected constant into the printed system fixes the
    # signs of its (y_1)_{t_1} terms.
    y1x = seq.partial_x(y1)
    res_q = y1 * qx + y2 * q * (1.0 / (2.0 * k)) - y1x * q * 0.5
    res_r = y1 * rx - y2 * r * (1.0 / (2.0 * k)) - y1x * r * 0.5
    generic = abs(y1.coeff(0)) > 1e-3
    out.append(record("akns_tau_ode",
                      max(res_q.max_abs(), res_r.max_abs()) if generic else 0.0,
                      note="" if generic else "skipped: y_1(0) ~ 0 (degenerate)"))
    return out


def _gl_identities(result: FactorizationResult) -> list[CheckRecord]:
    seq = result.seq
    out = []
    n = seq.n
    c = seq.c
    v = result.v
    u = result.u
    twisted = result.spec.variant in ("sigma_twisted", "tau_sigma")
    worst_vv = worst_sigma = worst_u_div = worst_u_mul = 0.0
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            y = second_partial_formula(result, (f"e{i+1}", 0), (f"e{k+1}", 0))
            vik = v.entry_jet(i, k, 0)
            vki = v.entry_jet(k, i, 0)
            worst_vv = max(worst_vv, (y + vik * vki).max_abs())
            if twisted:
                worst_sigma = max(worst_sigma, (y + vik * vik).max_abs())
            uik = u.entry_jet(i, k, 0)
            uki = u.entry_jet(k, i, 0)
            scale = (c[i] - c[k]) ** 2
            worst_u_div = max(worst_u_div, (y - uik * uki * (1.0 / scale)).max_abs())
            worst_u_mul = max(worst_u_mul, (y - uik * uki * scale).max_abs())
    out.append(record("thm7.1_tau_uu", worst_vv))
    scaling, worst_u, _ = detect({"divide": worst_u_div,
                                  "multiply": worst_u_mul})
    out.append(record("tau_uu_u_form", worst_u,
                      note=f"scaling = {scaling} by (c_i - c_k)^2"))
    if twisted:
        out.append(record("sigma_tau_vv", worst_sigma))
    return out


def shift_constancy_check(result: FactorizationResult,
                          result_h: FactorizationResult,
                          h: Series) -> float:
    """(ln tau_{fh})_{t_j} - (ln tau_f)_{t_j} must be the t-independent
    constant <J_j, h_lam h^-1>_{-1}."""
    ctx, seq = result.ctx, result.seq
    hterm = h.dlambda() * h.inv()
    worst = 0.0
    for var in seq.variables:
        gen = seq.gens[var]
        delta = (first_partial_pairing(result_h, *gen)
                 - first_partial_pairing(result, *gen))
        expect = seq.generator(ctx, var).pairing(hterm, -1)
        worst = max(worst, (delta - expect).max_abs())
    return worst


def conjugation_invariance_check(result: FactorizationResult,
                                 result_k: FactorizationResult) -> float:
    """Second partials of ln tau agree for f and k f k^-1."""
    seq = result.seq
    worst = 0.0
    for vj in seq.variables:
        for vk in seq.variables:
            gj, gk = seq.gens[vj], seq.gens[vk]
            a = second_partial_formula(result, gj, gk)
            b = second_partial_formula(result_k, gj, gk)
            worst = max(worst, (a - b).max_abs())
    return worst


# ---------------------------------------------------------------------------
# vector AKNS: xi helpers and the constructive recovery of u_f

def xi_helpers(result: FactorizationResult) -> dict:
    """The exact trace identity tr(u^(i) u^(j)) = q^(i).r^(j) + q^(j).r^(i)
    that the helpers xi_j = tr(u a^j u^(j)) rest on, for every i, j up to
    2(n - 1) - 1 or the jet order, whichever is lower."""
    seq = result.seq
    if seq.family != "akns":
        raise ShapeError("xi helpers need the vector AKNS family")
    top = min(2 * (seq.n - 1) - 1, result.ctx.order)
    derivs = seq.x_derivatives(result.u, top)
    uq, ur = seq.qr_blocks(result.u)
    qs = seq.x_derivatives(uq, top)
    rs = seq.x_derivatives(ur, top)
    worst = 0.0
    for i in range(len(qs)):
        for j in range(len(qs)):
            lhs = (derivs[i] * derivs[j]).trace_coeff(0)
            rhs = ((qs[i] * rs[j]).trace_coeff(0)
                   + (qs[j] * rs[i]).trace_coeff(0))
            worst = max(worst, (lhs - rhs).max_abs())
    return {"trace_identity": worst}


def _recovery_pieces(result: FactorizationResult):
    """S (rows q^(i-1)), R (columns r^(j-1)), C = S R, b = q^(n) R, and the
    mirrored b_r = S r^(n), as padded block jets."""
    seq = result.seq
    ctx = result.ctx
    nv = seq.n - 1
    if ctx.order < nv + 1:
        raise ShapeError("recovery needs jet order >= n + 1 in t_1")
    uq, ur = seq.qr_blocks(result.u)
    qs = seq.x_derivatives(uq, nv)
    rs = seq.x_derivatives(ur, nv)
    entries_s = {}
    entries_r = {}
    for i in range(nv):
        for k in range(nv):
            entries_s[(i, k)] = qs[i].entry_jet(k, nv, 0)
            entries_r[(k, i)] = rs[i].entry_jet(nv, k, 0)
    S = _from_entries(ctx, entries_s)
    R = _from_entries(ctx, entries_r)
    qn_row = _from_entries(ctx, {(nv, k): qs[nv].entry_jet(k, nv, 0)
                                 for k in range(nv)})
    rn_col = _from_entries(ctx, {(k, nv): rs[nv].entry_jet(nv, k, 0)
                                 for k in range(nv)})
    C = S * R
    b = qn_row * R
    b_r = S * rn_col
    return S, R, C, b, b_r, qn_row, rn_col


def _from_entries(ctx: JetContext, entries: dict) -> Series:
    """Degree-zero matrix jet assembled from scalar-jet entries."""
    out = Series.zeros(ctx)
    for (i, j), sj in entries.items():
        if sj.E != 1:
            raise ShapeError("recovery runs on base (non-epsilon) data")
        unit = Series.monomial(ctx, np.outer(np.eye(ctx.n)[i], np.eye(ctx.n)[j]))
        rows = np.flatnonzero(sj.slabs[0])
        out = out + Series.from_rows(ctx, rows, unit, np.zeros_like(rows),
                                     factor=sj.slabs[0][rows], vorder=sj.vorder)
    return out


def vector_akns_recovery(result: FactorizationResult,
                         result_k: FactorizationResult | None = None) -> dict:
    """Constructive recovery q^(n) = W S (and the mirrored relation for r)
    plus, when a conjugated run is supplied, invariance of the entries of
    C = S R and b = q^(n) R under f -> k f k^-1."""
    ctx = result.ctx
    nv = result.seq.n - 1
    S, R, C, b, b_r, qn_row, rn_col = _recovery_pieces(result)
    fill = Series.monomial(ctx, _complement_diag(ctx.n, nv))
    c0 = C.coeff(0, 0) + _complement_diag(ctx.n, nv)
    if abs(np.linalg.det(c0)) < 1e-10 or np.linalg.cond(c0) > 1e10:
        return {"degenerate": True}
    cinv = (C + fill).inv()
    w_row = b * cinv
    res_q = (w_row * S - qn_row).max_abs()
    w_col = cinv * b_r
    res_r = (R * w_col - rn_col).max_abs()
    out = {"degenerate": False, "recovery_q": res_q, "recovery_r": res_r}
    if result_k is not None:
        S2, R2, C2, b2, br2, _, _ = _recovery_pieces(result_k)
        out["k_invariance"] = max((C - C2).max_abs(), (b - b2).max_abs(),
                                  (b_r - br2).max_abs())
    return out


def _complement_diag(n: int, nv: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    for i in range(nv, n):
        m[i, i] = 1.0
    return m
