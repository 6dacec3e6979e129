"""Order-by-order Birkhoff factorization of V(t) f^-1 and its consequences.

Writing V(t) f^-1 = M(t)^-1 E(t) with M in the negative subgroup and E in
the positive one, the reduced frame M solves
(d/dt_v M) M^-1 = -(M J_v M^-1)_-, M(0) = f, which the factorization
integrates jet order by jet order: the coefficient of t^alpha is read off
the product -(M J_v M^-1)_- M at alpha - e_v for the first admissible
variable v.  Each order computes only the rows of that product its
variables integrate, and M^-1 grows by one jet grade per order: each
order's inverse, and the final one, start from the previous order's, so
each jet row of M^-1 is solved once.  The frame is recovered as
E = M V f^-1 in one product chain (its own ODE is kept as a cross-check),
and the formal inverse scattering solution is u_f = (M J_1 M^-1)_+ - J_1,
a degree-zero jet with the phase space shape of the family.

Every value of a run lives in its one jet context: the datum f = M(0), a
sample h or a tangent df is a jet-constant value there, stored as one jet
row.  J_1 and V are the vacuum sequence's, each built once per context.

An independent oracle solves the same factorization directly from the
splitting property of M V f^-1 (no flow ODEs involved) and is used by the
tests to validate the recursion.
"""

from __future__ import annotations

import numpy as np

from .checks import detect
from .context import JetContext, Memo
from .errors import ShapeError, WindowExhausted
from .hierarchy import VacuumSequence, lax_bracket
from .series import Series, commutator
from .splitting import SplittingSpec, reality_check

__all__ = ["FactorizationResult", "factorize_jet", "factorize_oracle",
           "l_minus_stray", "lax_residual", "e_ode_defect", "m_ode_defect",
           "frame_variation_defect", "reality_propagation_check",
           "stabilizer_h_check", "stabilizer_k_check"]

L_MINUS_TOL = 1e-10
REALITY_TOL = 1e-8


def _grades_below(x: Series, ell: int, vorder: int) -> Series:
    """x's rows of grade < ``ell`` in fresh arrays, every later row certified
    zero, at trusted jet order ``vorder``."""
    rows = np.arange(x.ctx.upto[ell - 1])
    return Series.from_rows(x.ctx, rows, x, rows, vorder=vorder)


class FactorizationResult(Memo):
    """Reduced frame, frame, and the solution extracted from them.

    M and M^-1 are built by :func:`factorize_jet`.  V f^-1, the frame E, the
    solution u_f and (gl) v_f are built the first time something reads
    them, E and u_f each with its spill check: a factorization from scratch
    reads all of them before it returns, so its checks fail inside the same
    call, while an eps refactorization along a base result builds none of
    them, since the variation checks read only its M, M^-1 and ln tau.

    The result of an eps refactorization keeps the eps-free ``base`` result
    it was computed along; the component 0 of its values, at every jet order
    of the run, is then the base result's value (M and M^-1 share it, and
    the values it builds later, conjugates, xi, V f^-1 and E, take it from
    the base's)."""

    def __init__(self, spec, seq, ctx, f, M, Minv, var_choice: str = "first",
                 base: "FactorizationResult | None" = None):
        self.spec = spec
        self.seq = seq
        self.ctx = ctx
        self.f = f
        self.M = M
        self.Minv = Minv
        self.var_choice = var_choice
        self.base = base

    def _base_value(self, name: str) -> Series | None:
        return None if self.base is None else getattr(self.base, name)

    @property
    def V(self) -> Series:
        """The vacuum frame V(t) of the context."""
        return self.seq.frame(self.ctx)

    @property
    def vfinv(self) -> Series:
        """V f^-1."""
        return self.cached("vfinv", lambda: self.V.matmul(
            self.f.inv(), base=self._base_value("vfinv")))

    @property
    def E(self) -> Series:
        """E = M V f^-1, which lives in the positive subgroup: asserted, and
        its support floor certified (which also restores full trust below
        degree zero)."""
        def build() -> Series:
            E = self.M.matmul(self.vfinv, base=self._base_value("E"))
            spill = E.minus().max_abs()
            if spill > 1e-9 * max(1.0, E.max_abs()):
                raise ShapeError(f"factorize_jet: frame E has negative "
                                 f"degrees ({spill:.3e}); factorization "
                                 f"failed")
            return E.plus()

        return self.cached("E", build)

    @property
    def u(self) -> Series:
        """u_f = (M J_1 M^-1)_+ - J_1, asserted to be of degree zero."""
        def build() -> Series:
            u_full = self.q_series().plus() - self.seq.j1(self.ctx)
            spill = (u_full - u_full.degree_slice(0)).max_abs()
            if spill > 1e-9 * max(1.0, u_full.max_abs()):
                raise ShapeError(f"factorize_jet: u_f has nonzero lambda "
                                 f"degrees ({spill:.3e})")
            return u_full.degree_slice(0)

        return self.cached("u", build)

    @property
    def v(self) -> Series | None:
        """The off-diagonal part of M's degree -1 coefficient (gl family
        only, else None)."""
        if self.seq.family != "gl":
            return None
        return self.cached("v", lambda: self.M.degree_slice(-1).hadamard(
            1.0 - np.eye(self.ctx.n)))

    @property
    def Einv(self) -> Series:
        return self.cached("Einv", self.E.inv)

    @property
    def xi(self) -> Series:
        """xi = M^-1 d_lam M (degrees <= -2)."""
        return self.cached("xi", lambda: self.Minv.matmul(
            self.M.dlambda(), base=self._base_value("xi")))

    def conjugated_base(self, key: str) -> Series:
        """M J_base M^-1, cached per base element."""
        def build() -> Series:
            mj = self.M.matmul(self.seq.base_series(self.ctx, key))
            return mj.matmul(self.Minv, base=None if self.base is None
                             else self.base.conjugated_base(key))

        return self.cached(("conj", key), build)

    def conjugated_generator(self, var: str) -> Series:
        base, shift = self.seq.gens[var]
        return self.conjugated_base(base).shift(shift)

    def q_series(self) -> Series:
        """Q(u_f) = M J_1 M^-1, the x-combination of the conjugated
        generators."""
        return self.seq.x_sum(self.conjugated_generator)

    def lax_bracket(self) -> tuple[Series, Series]:
        """:func:`~loopjet.hierarchy.lax_bracket` at (u_f, Q), built once."""
        return self.cached(("lax",), lambda: lax_bracket(self.seq, self.u,
                                                         self.q_series()))


def _window_budget_check(seq: VacuumSequence, ctx: JetContext) -> None:
    """Fail fast if the window cannot supply the degrees the downstream
    formulas read (tau needs -1, Virasoro needs shifted -1 reads, and the
    recursion erodes the trusted floor by about j_max per jet order)."""
    need = ctx.order * seq.j_max + seq.j_max + 6
    if ctx.lo > -need:
        raise WindowExhausted(
            f"factorize_jet: window floor {ctx.lo} too shallow for order "
            f"{ctx.order} with generator degree {seq.j_max} (need <= {-need})")


def l_minus_stray(f: Series) -> float | None:
    """The size of the degrees >= 0 of f - I when it exceeds rounding (f is
    then not in the negative subgroup), else None."""
    stray = (f - Series.identity(f.ctx)).plus().max_abs()
    return stray if stray > L_MINUS_TOL * max(1.0, f.max_abs()) else None


def _check_f(spec: SplittingSpec, f: Series) -> None:
    stray = l_minus_stray(f)
    if stray is not None:
        raise ShapeError(f"factorize_jet: f has non-negative degrees "
                         f"({stray:.3e}); not in the negative subgroup")
    bad = reality_check(spec, f.base_part())
    if bad > REALITY_TOL * max(1.0, f.max_abs()):
        raise ShapeError(f"factorize_jet: f violates the {spec.variant} "
                         f"reality condition (defect {bad:.3e})")


def _require_base(base: FactorizationResult, seq: VacuumSequence,
                  ctx: JetContext, f: Series, var_choice: str) -> None:
    """Refuse a base result that is not the factorization of this run's
    base value."""
    why = None
    if f.E == 1 or base.f.E != 1:
        why = "f must carry tangent data and the base result none"
    elif not (base.ctx.compatible(ctx) and base.seq is seq):
        why = "the context or vacuum sequence differs"
    elif base.var_choice != var_choice:
        why = f"var_choice {var_choice!r} differs from {base.var_choice!r}"
    elif not f.same_base(base.f):
        why = "the base value of f differs"
    if why is not None:
        raise ShapeError(f"factorize_jet: cannot refactorize along this "
                         f"base: {why}")


def factorize_jet(spec: SplittingSpec, seq: VacuumSequence, ctx: JetContext,
                  f: Series, var_choice: str = "first",
                  base: FactorizationResult | None = None
                  ) -> FactorizationResult:
    """Factor V(t) f^-1 = M^-1 E to jet order ctx.order.

    ``var_choice`` picks which admissible variable integrates each
    multi-index ("first" is the production tie-break; "last" exists so the
    tests can confirm the choice does not matter).  f lives in ``ctx``; the
    vacuum frame is the sequence's, built once per context.

    ``base``, the result for the base value of an eps datum f, makes this
    an eps refactorization along it (the forward-mode sweep over a recorded
    primal trace): at every order, component 0 of every value is read off
    ``base``, each order's M, M^-1 and M J M^-1 being the grades of
    ``base.M``, ``base.Minv`` and ``base.conjugated_base`` below it, and only
    the tangent components are computed.  The base must match f,
    ``var_choice`` and the context, or ShapeError is raised.

    Either way the run builds M and M^-1.  A run from scratch also reads E,
    u_f and v_f before it returns, so their spill checks fail here; an eps
    refactorization leaves them to be built on first read (see
    :class:`FactorizationResult`), because the variation checks read only
    its M, M^-1 and ln tau.
    """
    _window_budget_check(seq, ctx)
    ctx.require_compatible(f.ctx)
    _check_f(spec, f)
    if base is not None:
        _require_base(base, seq, ctx, f, var_choice)

    M = Series.from_rows(ctx, [0], f, [0])  # M(0) = f, not an alias
    Minv, along = None, base is not None
    for ell, by_var in sorted(ctx.integration_steps(var_choice).items()):
        cap = ell - 1  # everything this order reads lives at order ell-1
        if along:  # M's base rows so far are base.M's
            M = Series(ctx, _grades_below(base.M, ell, M.vorder).slabs
                       + M.slabs[1:], M.vorder)
        # M agrees with the previous order's M up to it, so that inverse
        # gives the grades below cap and only grade cap is solved for
        Minv = M.inv(cap, start=Minv, base=_grades_below(
            base.Minv, ell, cap) if along else None)

        # the operands M J and -(conj)_- die with these calls, and with
        # them their cached spectra
        def conjugate(key: str) -> Series:
            mj = M.matmul(seq.base_series(ctx, key), cap)
            return mj.matmul(Minv, cap, base=_grades_below(
                base.conjugated_base(key), ell, cap) if along else None)

        # along a base, M stands in for the integrand's base component: the
        # base rows it writes are replaced by base.M's after this order
        def integrand(gen: str, shift: int, src) -> Series:
            return (-(conj[gen].shift(shift).minus())).matmul(
                M, cap, base=M if along else None, rows=src)

        conj = {key: conjugate(key) for key in seq.bases}
        nxt = M
        for v, (rows, src, exps) in by_var.items():
            gen, shift = seq.gens[ctx.variables[v]]
            nxt = nxt.with_rows(rows, integrand(gen, shift, src), src,
                                divisor=exps)
        M = nxt
    if along:
        M = Series(ctx, base.M.slabs[:1] + M.slabs[1:], M.vorder)

    result = FactorizationResult(
        spec, seq, ctx, f, M, M.inv(base=None if base is None else base.Minv,
                                    start=Minv),
        var_choice=var_choice, base=base)
    if base is None:  # E and u_f run their spill checks in this call
        result.E, result.u, result.v  # noqa: B018
    return result


def factorize_oracle(seq: VacuumSequence, ctx: JetContext, f: Series
                     ) -> Series:
    """Independent reduced frame: enforce (M V f^-1)_- = 0 order by order.

    With K = (partial M) V f^-1 known below jet order l, the order-l
    correction must cancel the negative part of K against f^-1, giving
    M_alpha = -(K_alpha)_- f.  Uses only the splitting property, no flow
    ODEs, so it cross-checks the recursion in :func:`factorize_jet`.
    """
    ctx.require_compatible(f.ctx)
    vfinv = seq.frame(ctx) * f.inv()
    M = f.base_part()
    for ell in range(1, ctx.order + 1):
        corr = (-(M.matmul(vfinv, ell).minus())).matmul(f, ell)
        rows = np.flatnonzero(ctx.totals == ell)
        M = M.with_rows(rows, corr.base_part(), rows)
    return M


# ---------------------------------------------------------------------------
# residual checks

def lax_residual(result: FactorizationResult) -> dict:
    """Residuals of both bracket orientations of the Lax condition; the
    defining orientation [d/dx - (J_1 + u), M J_1 M^-1] is the one expected
    to vanish, and the report records which one did."""
    scale = max(1.0, result.q_series().max_abs())
    qx, c = result.lax_bracket()
    minus_sign = (qx - c).max_abs() / scale
    plus_sign = (qx + c).max_abs() / scale
    convention, _, _ = detect({"[d/dx - (J1+u), Q] = 0": minus_sign,
                               "[d/dx + J1 + u, Q] = 0": plus_sign})
    return {"defining": minus_sign, "alternate": plus_sign,
            "convention": convention}


def e_ode_defect(result: FactorizationResult) -> float:
    """max_v || (d/dt_v E) E^-1 - (M J_v M^-1)_+ ||."""
    worst = 0.0
    for var in result.seq.variables:
        lhs = result.E.partial(var) * result.Einv
        rhs = result.conjugated_generator(var).plus()
        worst = max(worst, (lhs - rhs).max_abs())
    return worst


def m_ode_defect(result: FactorizationResult) -> float:
    """max_v || d/dt_v M + (M J_v M^-1)_- M ||; holding for every variable
    is exactly independence of the integration path."""
    worst = 0.0
    for var in result.seq.variables:
        lhs = result.M.partial(var)
        rhs = -(result.conjugated_generator(var).minus()) * result.M
        worst = max(worst, (lhs - rhs).max_abs())
    return worst


def frame_variation_defect(result_eps: FactorizationResult) -> float:
    """Variation law of the reduced frame: for the tangent perturbation df
    of a factorization of f + eps df, (delta M) M^-1 = (E (df) f^-1 E^-1)_-;
    M^-1, E and E^-1 are the base result's when it was computed along one."""
    res = result_eps
    base = res.base or res  # from scratch: its own base parts
    minv, e, einv = (x.base_part() for x in (base.Minv, base.E, base.Einv))
    lhs = res.M.eps_part() * minv
    rhs = (e * res.f.eps_part() * res.f.base_part().inv() * einv).minus()
    return (lhs - rhs).max_abs()


def reality_propagation_check(result: FactorizationResult) -> dict:
    """Shape of u_f (or v_f) forced by the reality condition of the variant."""
    spec, seq, u = result.spec, result.seq, result.u
    out = {}
    if spec.variant == "u_real":
        q, r = seq.qr_blocks(u)
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
    j1 = res.seq.j1(res.ctx)
    comm = commutator(h, j1).max_abs()
    if comm > 1e-9 * max(1.0, h.max_abs()):
        raise ShapeError(f"stabilizer_h_check: [h, J_1] != 0 ({comm:.3e})")
    res_h = factorize_jet(res.spec, res.seq, res.ctx, res.f * h)
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
    res_k = factorize_jet(res.spec, res.seq, res.ctx, res.f.conjugate_by(k))
    return {
        "u_conjugates": (res_k.u - res.u.conjugate_by(k)).max_abs(),
        "m_conjugates": (res_k.M - res.M.conjugate_by(k)).max_abs(),
        "e_conjugates": (res_k.E - res.E.conjugate_by(k)).max_abs(),
        "result_k": res_k,
    }
