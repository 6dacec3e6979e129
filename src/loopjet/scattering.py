"""Order-by-order Birkhoff factorization of V(t) f^-1 and its consequences.

Writing V(t) f^-1 = M(t)^-1 E(t) with M in the negative subgroup and E in
the positive one, the reduced frame M solves
(d/dt_v M) M^-1 = -(M J_v M^-1)_-, M(0) = f, which the factorization
integrates jet order by jet order: the coefficient of t^alpha is read off
the product -(M J_v M^-1)_- M at alpha - e_v for the first admissible
variable v.  The frame is recovered as E = M V f^-1 in one product chain
(its own ODE is kept as a cross-check), and the formal inverse scattering
solution is u_f = (M J_1 M^-1)_+ - J_1, a degree-zero jet with the phase
space shape of the family.

An independent oracle solves the same factorization directly from the
splitting property of M V f^-1 (no flow ODEs involved) and is used by the
tests to validate the recursion.
"""

from __future__ import annotations

import numpy as np

from .context import JetContext
from .errors import ShapeError, WindowExhausted
from .hierarchy import VacuumSequence, lax_bracket, vacuum_frame
from .series import Series, commutator
from .splitting import SplittingSpec, reality_check

__all__ = ["FactorizationResult", "factorize_jet", "factorize_oracle",
           "lax_residual", "e_ode_defect", "m_ode_defect",
           "frame_variation_defect", "reality_propagation_check",
           "stabilizer_h_check", "stabilizer_k_check"]

L_MINUS_TOL = 1e-10
REALITY_TOL = 1e-8


class FactorizationResult:
    """Reduced frame, frame, and the solution extracted from them."""

    def __init__(self, spec, seq, ctx, f, M, Minv, E, V, vfinv, u, v):
        self.spec = spec
        self.seq = seq
        self.ctx = ctx
        self.f = f
        self.M = M
        self.Minv = Minv
        self.E = E
        self.V = V
        self.vfinv = vfinv
        self.u = u
        self.v = v
        self._cache: dict = {}

    def cached(self, key, build):
        """``build()``, computed once per result and key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def Einv(self) -> Series:
        return self.cached("Einv", self.E.inv)

    @property
    def xi(self) -> Series:
        """xi = M^-1 d_lam M (degrees <= -2)."""
        return self.cached("xi", lambda: self.Minv * self.M.dlambda())

    def conjugated_base(self, key: str) -> Series:
        """M J_base M^-1, cached per base element."""
        return self.cached(("conj", key), lambda: (
            self.M * self.seq.base_series(self.ctx, key) * self.Minv))

    def conjugated_generator(self, var: str) -> Series:
        base, shift = self.seq.gens[var]
        return self.conjugated_base(base).shift(shift)

    def q_series(self) -> Series:
        """Q(u_f) = M J_1 M^-1."""
        if self.seq.family == "kdv":
            return self.conjugated_base("J")
        if self.seq.family == "gl":
            out = None
            for k, ck in enumerate(self.seq.c, start=1):
                term = self.conjugated_base(f"e{k}") * ck
                out = term if out is None else out + term
            return out
        if self.seq.family == "gl_power":
            return self.conjugated_base("a1")
        return self.conjugated_base("J1")


def _window_budget_check(seq: VacuumSequence, ctx: JetContext) -> None:
    """Fail fast if the window cannot supply the degrees the downstream
    formulas read (tau needs -1, Virasoro needs shifted -1 reads, and the
    recursion erodes the trusted floor by about j_max per jet order)."""
    need = ctx.order * seq.j_max + seq.j_max + 6
    if ctx.lo > -need:
        raise WindowExhausted(
            f"factorize_jet: window floor {ctx.lo} too shallow for order "
            f"{ctx.order} with generator degree {seq.j_max} (need <= {-need})")


def _check_f(spec: SplittingSpec, f: Series) -> None:
    ident = Series.identity(f.ctx)
    stray = (f - ident).plus().max_abs()
    if stray > L_MINUS_TOL * max(1.0, f.max_abs()):
        raise ShapeError(f"factorize_jet: f has non-negative degrees "
                         f"({stray:.3e}); not in the negative subgroup")
    bad = reality_check(spec, f.base_part(), level="group")
    if bad > REALITY_TOL * max(1.0, f.max_abs()):
        raise ShapeError(f"factorize_jet: f violates the {spec.variant} "
                         f"reality condition (defect {bad:.3e})")


def factorize_jet(spec: SplittingSpec, seq: VacuumSequence, ctx: JetContext,
                  f: Series, var_choice: str = "first",
                  V: Series | None = None) -> FactorizationResult:
    """Factor V(t) f^-1 = M^-1 E to jet order ctx.order.

    ``var_choice`` picks which admissible variable integrates each
    multi-index ("first" is the production tie-break; "last" exists so the
    tests can confirm the choice does not matter).  A precomputed vacuum
    frame may be passed in when many data share one scenario.
    """
    _window_budget_check(seq, ctx)
    f = f.embed(ctx)
    _check_f(spec, f)

    if V is None:
        V = vacuum_frame(seq, ctx)
    vfinv = V * f.inv()

    nE = f.E
    work = []
    for e in range(nE):
        s = f.slabs[e]
        work.append({"data": s.data.copy(), "tlo": s.tlo.copy(),
                     "slo": s.slo.copy(), "shi": s.shi.copy(),
                     "thi": s.thi.copy()})

    def current() -> Series:
        from .series import _Slab
        return Series(ctx, tuple(_Slab(w["data"], w["tlo"], w["slo"],
                                       w["shi"], w["thi"]) for w in work),
                      ctx.order)

    nv = len(ctx.variables)
    for ell in range(1, ctx.order + 1):
        M = current()
        cap = ell - 1  # everything this order reads lives at order ell-1
        Minv = M.inv(cap)
        conj = {key: M.matmul(seq.base_series(ctx, key), cap).matmul(Minv, cap)
                for key in seq.bases}
        rows = [i for i in range(ctx.T) if ctx.totals[i] == ell]
        needed_vars = set()
        for i in rows:
            alpha = ctx.midx[i]
            order_v = range(nv) if var_choice == "first" else range(nv - 1, -1, -1)
            v = next(p for p in order_v if alpha[p] >= 1)
            needed_vars.add(v)
        gvs = {}
        for v in needed_vars:
            var = ctx.variables[v]
            base, shift = seq.gens[var]
            gvs[v] = (-(conj[base].shift(shift).minus())).matmul(M, cap)
        for i in rows:
            alpha = ctx.midx[i]
            order_v = range(nv) if var_choice == "first" else range(nv - 1, -1, -1)
            v = next(p for p in order_v if alpha[p] >= 1)
            beta = alpha.copy()
            beta[v] -= 1
            src = ctx.index_of[tuple(beta)]
            g = gvs[v]
            for e in range(nE):
                gs = g.slabs[e] if e < g.E else None
                if gs is None:
                    continue
                work[e]["data"][i] = gs.data[src] / alpha[v]
                work[e]["tlo"][i] = gs.tlo[src]
                work[e]["slo"][i] = gs.slo[src]
                work[e]["shi"][i] = gs.shi[src]
                work[e]["thi"][i] = gs.thi[src]

    M = current()
    Minv = M.inv()
    E = M * vfinv
    # E lives in the positive subgroup; assert it and certify the support
    # floor (which also restores full trust below degree zero)
    spill = E.minus().max_abs()
    if spill > 1e-9 * max(1.0, E.max_abs()):
        raise ShapeError(f"factorize_jet: frame E has negative degrees "
                         f"({spill:.3e}); factorization failed")
    E = E.plus()
    result = FactorizationResult(spec, seq, ctx, f, M, Minv, E, V, vfinv,
                                 u=None, v=None)
    j1 = seq.j1(ctx)
    w1 = result.q_series()
    u_full = w1.plus() - j1
    spill = (u_full - u_full.degree_slice(0)).max_abs()
    if spill > 1e-9 * max(1.0, u_full.max_abs()):
        raise ShapeError(f"factorize_jet: u_f has nonzero lambda degrees "
                         f"({spill:.3e})")
    result.u = u_full.degree_slice(0)
    if seq.family in ("gl", "gl_power"):
        offdiag = 1.0 - np.eye(ctx.n)
        result.v = M.degree_slice(-1).hadamard(offdiag)
    return result


def factorize_oracle(spec: SplittingSpec, seq: VacuumSequence, ctx: JetContext,
                     f: Series, V: Series | None = None) -> Series:
    """Independent reduced frame: enforce (M V f^-1)_- = 0 order by order.

    With K = (partial M) V f^-1 known below jet order l, the order-l
    correction must cancel the negative part of K against f^-1, giving
    M_alpha = -(K_alpha)_- f.  Uses only the splitting property, no flow
    ODEs, so it cross-checks the recursion in :func:`factorize_jet`.
    """
    f = f.embed(ctx)
    if V is None:
        V = vacuum_frame(seq, ctx)
    vfinv = V * f.inv()
    from .series import _Slab
    s0 = f.slabs[0]
    work = {"data": s0.data.copy(), "tlo": s0.tlo.copy(), "slo": s0.slo.copy(),
            "shi": s0.shi.copy(), "thi": s0.thi.copy()}
    for ell in range(1, ctx.order + 1):
        M = Series(ctx, (_Slab(work["data"], work["tlo"], work["slo"],
                               work["shi"], work["thi"]),), ctx.order)
        corr = (-(M.matmul(vfinv, ell).minus())).matmul(f, ell)
        rows = [i for i in range(ctx.T) if ctx.totals[i] == ell]
        cs = corr.slabs[0]
        for i in rows:
            work["data"][i] = cs.data[i]
            work["tlo"][i] = cs.tlo[i]
            work["slo"][i] = cs.slo[i]
            work["shi"][i] = cs.shi[i]
            work["thi"][i] = cs.thi[i]
    return Series(ctx, (_Slab(work["data"], work["tlo"], work["slo"],
                              work["shi"], work["thi"]),), ctx.order)


# ---------------------------------------------------------------------------
# residual checks

def lax_residual(result: FactorizationResult) -> dict:
    """Residuals of both bracket orientations of the Lax condition; the
    defining orientation [d/dx - (J_1 + u), M J_1 M^-1] is the one expected
    to vanish, and the report records which one did."""
    q = result.q_series()
    scale = max(1.0, q.max_abs())
    minus_sign = lax_bracket(result.seq, result.u, q, sign=-1).max_abs() / scale
    plus_sign = lax_bracket(result.seq, result.u, q, sign=+1).max_abs() / scale
    return {
        "defining": minus_sign,
        "alternate": plus_sign,
        "convention": "[d/dx - (J1+u), Q] = 0" if minus_sign <= plus_sign
        else "[d/dx + J1 + u, Q] = 0",
    }


def e_ode_defect(result: FactorizationResult) -> float:
    """max_v || (d/dt_v E) E^-1 - (M J_v M^-1)_+ ||."""
    worst = 0.0
    for var in result.seq.variables:
        lhs = result.E.jet_partial(var) * result.Einv
        rhs = result.conjugated_generator(var).plus()
        worst = max(worst, (lhs - rhs).max_abs())
    return worst


def m_ode_defect(result: FactorizationResult) -> float:
    """max_v || d/dt_v M + (M J_v M^-1)_- M ||; holding for every variable
    is exactly independence of the integration path."""
    worst = 0.0
    for var in result.seq.variables:
        lhs = result.M.jet_partial(var)
        rhs = -(result.conjugated_generator(var).minus()) * result.M
        worst = max(worst, (lhs - rhs).max_abs())
    return worst


def frame_variation_defect(result_eps: FactorizationResult) -> float:
    """Variation law of the reduced frame: for the tangent perturbation df
    of a factorization of f + eps df, (delta M) M^-1 = (E (df) f^-1 E^-1)_-."""
    res = result_eps
    m0 = res.M.base_part()
    dm = res.M.eps_part()
    lhs = dm * m0.inv()
    e0 = res.E.base_part()
    rhs = (e0 * res.f.eps_part() * res.f.base_part().inv() * e0.inv()).minus()
    return (lhs - rhs).max_abs()


def reality_propagation_check(result: FactorizationResult) -> dict:
    """Shape of u_f (or v_f) forced by the reality condition of the variant."""
    spec, seq, u = result.spec, result.seq, result.u
    out = {}
    if spec.variant == "u_real":
        nv = seq.n - 1
        q = u.block_mask(range(nv), [nv])
        r = u.block_mask([nv], range(nv))
        out["r_equals_minus_q_conj_t"] = (r + q.conj_coeffs().transpose()).max_abs()
    elif spec.variant == "tau_sigma":
        if seq.family == "gl":
            v = result.v
            out["v_symmetric"] = (v - v.transpose()).max_abs()
            out["v_real"] = (v - v.conj_coeffs()).max_abs()
        else:
            out["u_antisymmetric"] = (u + u.transpose()).max_abs()
            out["u_real"] = (u - u.conj_coeffs()).max_abs()
    elif spec.variant == "sigma_twisted":
        if seq.family == "gl":
            v = result.v
            out["v_symmetric"] = (v - v.transpose()).max_abs()
        else:
            out["u_symmetric"] = (u - u.transpose()).max_abs()
    elif spec.variant == "kdv_twisted":
        out["q_block_zero"] = (u - u.block_mask([1], [0])).max_abs()
    return out


def stabilizer_h_check(result: FactorizationResult, h: Series) -> dict:
    """Right translation by h in the negative subgroup commuting with J_1
    leaves u_f unchanged and maps M to M h; ``result`` factorizes f."""
    res = result
    h = h.embed(res.ctx)
    j1 = res.seq.j1(res.ctx)
    comm = commutator(h, j1).max_abs()
    if comm > 1e-9 * max(1.0, h.max_abs()):
        raise ShapeError(f"stabilizer_h_check: [h, J_1] != 0 ({comm:.3e})")
    res_h = factorize_jet(res.spec, res.seq, res.ctx, res.f * h, V=res.V)
    return {
        "u_unchanged": (res_h.u - res.u).max_abs(),
        "reduced_frame_translates": (res_h.M - res.M * h).max_abs(),
        "result_h": res_h,
    }


def stabilizer_k_check(result: FactorizationResult, k: np.ndarray) -> dict:
    """Conjugation by a constant k commuting with the vacuum sequence maps
    f to k f k^-1, M to k M k^-1, E to k E k^-1 and u to k u k^-1;
    ``result`` factorizes f."""
    res = result
    k = np.asarray(k, dtype=complex)
    for key, coeffs in res.seq.bases.items():
        for m in coeffs.values():
            if np.abs(k @ m - m @ k).max() > 1e-12 * max(1.0, np.abs(m).max()):
                raise ShapeError("stabilizer_k_check: k does not commute "
                                 f"with generator base {key}")
    res_k = factorize_jet(res.spec, res.seq, res.ctx, res.f.conjugate_by(k),
                          V=res.V)
    return {
        "u_conjugates": (res_k.u - res.u.conjugate_by(k)).max_abs(),
        "m_conjugates": (res_k.M - res.M.conjugate_by(k)).max_abs(),
        "e_conjugates": (res_k.E - res.E.conjugate_by(k)).max_abs(),
        "result_k": res_k,
    }
