"""Positive-half Virasoro actions on scattering data, frames and ln tau.

The vector fields on the negative subgroup are
Z_l(f) = -(lam**(l+1) f_lam f^-1 + lam**l f Gamma f^-1)_- f for l >= -1,
parameterized by the constant matrix Gamma (zero, or the diagonal
(1/n) diag(0, 1, ..., n-1) preset).  They and the induced frame variations
share one operand X_Gamma(f) = lam f_lam f^-1 + f Gamma f^-1, built once
per field family and Gamma: Z_l(f) = -(lam**l X_Gamma(f))_- f and
delta_l(M) M^-1 = -(lam**l E X_Gamma(f) E^-1)_-.  The induced variations of
the reduced frame and of ln tau are evaluated both through their closed
pairing formulas and through the exact epsilon route (perturb f,
refactorize, take the epsilon part), and for the diagonal gl coordinates
the ln tau variation is also produced by a differential operator in ln tau
whose coefficient convention is detected rather than assumed (the stated
and derived constants of its quadratic part differ by a factor two).
"""

from __future__ import annotations

import numpy as np

from .context import Memo
from .errors import ShapeError
from .scattering import FactorizationResult, factorize_jet
from .series import ScalarJet, Series
from .splitting import SplittingSpec, reality_check
from .tau import first_partial_pairing, ln_tau_jet, second_partial_formula

__all__ = ["gamma_xi0", "VirasoroFields", "datum_fields", "tangency_defect",
           "bracket_defect", "induced_frame_variation", "gl_frame_variation",
           "script_j", "induced_lntau_variation", "eps_perturbed_result",
           "c_ell_const_defect", "theorem76_operator", "masked_scalar_defect",
           "proof_identities_check", "zeta_v_formula", "eta_tangency_defect",
           "eta_bracket_defect", "thm56_defect"]


def gamma_xi0(n: int) -> np.ndarray:
    """The preset Gamma = (1/n) diag(0, 1, ..., n-1)."""
    return np.diag(np.arange(n) / n).astype(complex)


class VirasoroFields(Memo):
    """The fields Z_l at one point f, for every l >= -1 and Gamma.

    f^-1 and f_lam f^-1 depend on neither l nor Gamma, and the operand
    X_Gamma(f) not on l: each is built once, as is each Z_l(f) and the
    square (f_lam f^-1)^2 that gives the constants c_l(f).  Values are
    shared, so callers must not modify them."""

    def __init__(self, f: Series):
        self.f = f
        self.finv = f.inv()
        self.log = f.dlambda() * self.finv  # f_lam f^-1

    def operand(self, gamma: np.ndarray | None = None) -> Series:
        """X_Gamma(f) = lam f_lam f^-1 + f Gamma f^-1."""
        def build() -> Series:
            x = self.log.shift(1)
            if gamma is None:
                return x
            g = Series.monomial(self.f.ctx, np.asarray(gamma, dtype=complex))
            return x + self.f * g * self.finv

        return self.cached(("X", _gamma_key(gamma)), build)

    def __call__(self, ell: int, gamma: np.ndarray | None = None) -> Series:
        """Z_l(f) = -(lam**l X_Gamma(f))_- f, tangent to the negative
        subgroup at f."""
        if ell < -1:
            raise ShapeError("Z_l needs l >= -1")
        return self.cached(("Z", ell, _gamma_key(gamma)), lambda: -(
            self.operand(gamma).shift(ell).minus()) * self.f)

    def eta(self, j: int) -> Series:
        """eta_j(f) = (1/2) Z_{2j}(f) with Gamma = 0, tangent to the
        sigma-twisted subgroup."""
        if j < 0:
            raise ShapeError("eta_j needs j >= 0")
        return self(2 * j).scale(0.5)

    def c_ell(self, ell: int) -> complex:
        """c_l(f) = <lam**(l+2) (f_lam f^-1)^2>_0 (vanishes for l <= 1)."""
        if ell < -1:
            raise ShapeError("c_l needs l >= -1")
        log2 = self.cached("log2", lambda: self.log * self.log)
        return log2.trace_coeff(-(ell + 2)).coeff(0)


def datum_fields(result: FactorizationResult) -> VirasoroFields:
    """The fields at the datum f = M(0) of ``result``, built once per
    result."""
    return result.cached("datum_fields", lambda: VirasoroFields(
        result.f.base_part()))


def tangency_defect(fields: VirasoroFields, ell: int,
                    gamma: np.ndarray | None) -> float:
    """|| (Z_l(f) f^-1)_+ ||, zero when Z_l is tangent at f."""
    return (fields(ell, gamma) * fields.finv).plus().max_abs()


def _bracket_worst(fields: VirasoroFields, ells, field) -> float:
    """max over j, k in ``ells`` of || [Z_j, Z_k](f) - (k - j) Z_{j+k}(f) ||
    for the field family ``Z_l(g) = field(VirasoroFields(g), l)`` at
    ``fields.f``, the vector-field bracket computed exactly through
    directional derivatives: one pass over f with a tangent component per
    Z_j gives D Z_k(f)[Z_j] for every j."""
    ext = VirasoroFields(fields.f.with_eps(*(field(fields, j) for j in ells)))
    dz = {}
    for k in ells:
        out = field(ext, k)
        for i, j in enumerate(ells):
            dz[j, k] = out.eps_part(i)  # D Z_k(f)[Z_j]
    worst = 0.0
    for j in ells:
        for k in ells:
            lhs = dz[j, k] - dz[k, j]
            if k == j:
                worst = max(worst, lhs.max_abs())
            else:
                rhs = field(fields, j + k) * float(k - j)
                worst = max(worst, (lhs - rhs).max_abs())
    return worst


def bracket_defect(fields: VirasoroFields, ells,
                   gamma: np.ndarray | None) -> float:
    """max over j, k in ``ells`` of || [Z_j, Z_k](f) - (k - j) Z_{j+k}(f) ||."""
    return _bracket_worst(fields, ells, lambda g, ell: g(ell, gamma))


# ---------------------------------------------------------------------------
# induced variations

def _gamma_key(gamma: np.ndarray | None):
    return None if gamma is None else np.asarray(gamma, dtype=complex).tobytes()


def _conjugated_operand(result: FactorizationResult,
                        gamma: np.ndarray | None) -> Series:
    """E X_Gamma(f) E^-1, built once per result and Gamma (it does not
    depend on l) from the fields' own operand at the datum."""
    return result.cached(("operand", _gamma_key(gamma)), lambda: result.E
                         * datum_fields(result).operand(gamma) * result.Einv)


def _e_log(result: FactorizationResult) -> Series:
    """E_lam E^-1, built once per result."""
    return result.cached("E_log", lambda: result.E.dlambda() * result.Einv)


def induced_frame_variation(result: FactorizationResult, ell: int,
                            gamma: np.ndarray | None) -> Series:
    """delta_l(M) M^-1 = -(lam**l E (lam f_lam f^-1 + f Gamma f^-1) E^-1)_-."""
    return -(_conjugated_operand(result, gamma).shift(ell)).minus()


def script_j(result: FactorizationResult) -> Series:
    """The diagonal-coordinate weight element sum_{i,j} j t_{i,j} e_ii lam^j;
    equals lam V_lam V^-1 for the gl vacuum frame."""
    seq, ctx = result.seq, result.ctx
    if seq.family != "gl":
        raise ShapeError("script_j is defined for the gl family")
    out = Series.zeros(ctx)
    for var in seq.variables:
        base, shift = seq.gens[var]
        j = shift + 1
        e = seq.bases[base][1]
        out = out + Series.monomial(ctx, j * e, degree=j,
                                    alpha=ctx.unit_index(var))
    return out


def _m_log(result: FactorizationResult) -> Series:
    """M_lam M^-1, built once per result."""
    return result.cached("M_log", lambda: result.M.dlambda() * result.Minv)


def _gl_operand(result: FactorizationResult, ell: int) -> Series:
    """lam**(l+1) M_lam M^-1 + lam**l M J M^-1 for the diagonal gl
    coordinates; M J M^-1 is built once per result."""
    mjm = result.cached("M_script_j", lambda: result.M * script_j(result)
                        * result.Minv)
    return _m_log(result).shift(ell + 1) + mjm.shift(ell)


def gl_frame_variation(result: FactorizationResult, ell: int) -> Series:
    """zeta_l(M) M^-1 = -(lam**(l+1) M_lam M^-1 + lam**l M J M^-1)_- in the
    diagonal gl coordinates (Gamma = 0)."""
    return -(_gl_operand(result, ell).minus())


def eps_perturbed_result(result: FactorizationResult, df: Series
                         ) -> FactorizationResult:
    """Refactorize f + eps df (the exact variation route) along
    ``result``: at every jet order, component 0 of every value is read off
    ``result``'s own values and only the tangent is computed (see
    :func:`~loopjet.scattering.factorize_jet`)."""
    f0 = result.f.base_part()
    return factorize_jet(result.spec, result.seq, result.ctx,
                         f0.with_eps(df), var_choice=result.var_choice,
                         base=result)


def induced_lntau_variation(result: FactorizationResult, ell: int,
                            gamma: np.ndarray | None) -> ScalarJet:
    """delta_l(ln tau) = <lam**l E (lam f_lam f^-1 + f Gamma f^-1) E^-1,
    lam E_lam E^-1>_0; the index-(-1) reading without the lam shift is
    asserted equal (the two appear interchangeably).  Computed once per
    result, l and Gamma: the value is shared, so callers must not modify
    it."""
    def build() -> ScalarJet:
        g = _conjugated_operand(result, gamma).shift(ell)
        e_log = _e_log(result)
        out = g.pairing(e_log.shift(1), 0)
        alt = g.pairing(e_log, -1)
        if (out - alt).max_abs() > 1e-9 * max(1.0, out.max_abs()):
            raise ShapeError("pairing-index readings of the ln tau variation "
                             "disagree; window too shallow")
        return out

    return result.cached(("lntau_variation", ell, _gamma_key(gamma)), build)


def thm56_defect(result_eps: FactorizationResult) -> float:
    """General variation law: d/d eps ln tau = -<M_eps M^-1, E_lam E^-1>_{-1};
    M^-1 and E_lam E^-1 are the base result's when it was computed along
    one."""
    lhs = ln_tau_jet(result_eps).eps_part()
    base = result_eps.base or result_eps  # from scratch: its own base parts
    rhs = -(result_eps.M.eps_part() * base.Minv.base_part()).pairing(
        _e_log(base).base_part(), -1)
    return (lhs - rhs).max_abs()


# ---------------------------------------------------------------------------
# constants and the differential-operator form

def c_ell_const_defect(result: FactorizationResult, ells) -> float:
    """max over l in ``ells`` of the t-dependence of
    <lam**l (E lam f_lam f^-1 E^-1)^2>_0, which must be the constant c_l(f)."""
    ctx = result.ctx
    fields = datum_fields(result)
    g = _conjugated_operand(result, None)
    gg = g * g
    return max((gg.trace_coeff(-ell) - ScalarJet.const(ctx, fields.c_ell(ell))
                ).max_abs() for ell in ells)


_T76_COEFFS = {"proof": (0.5, 0.5), "printed": (1.0, 0.5)}


def theorem76_operator(result: FactorizationResult, ell: int,
                       partials: str = "formula",
                       coefficients: str = "proof"
                       ) -> tuple[ScalarJet, list[str]]:
    """The differential-operator form of the ln tau Virasoro action for the
    diagonal gl coordinates with Gamma = 0:

        zeta_l X = sum_{i,j} j t_{i,j} X_{t_{i,j+l}}
                   [+ sum_i sum_{j=1}^{l-1} (ca X_{t_{i,j}} X_{t_{i,l-j}}
                                             + cb X_{t_{i,j} t_{i,l-j}})]
                   - 1/2 c_l(f),

    with X_{t_{i,0}} = 0.  ``partials="formula"`` reads every partial
    through the reduced-frame pairings (exact for indices outside the
    active variable set); ``partials="jet"`` differentiates the stored jet
    and *drops* out-of-range terms, returning the variables whose
    coefficients are no longer comparable (never extrapolating).
    ``coefficients`` picks the quadratic constants: the stated pair
    ("printed", ca = 1) or the pair its own derivation produces
    ("proof", ca = 1/2).
    """
    seq, ctx = result.seq, result.ctx
    if seq.family != "gl":
        raise ShapeError("theorem76_operator is for the gl family")
    ca, cb = _T76_COEFFS[coefficients]
    X = ln_tau_jet(result)
    op = ScalarJet.zeros(ctx)
    masked: list[str] = []
    if not seq.full_grid:
        raise ShapeError("theorem76_operator needs the full (consecutive) "
                         "flow grid of the untwisted hierarchy")

    def f1(i: int, k: int) -> ScalarJet | None:
        if k == 0:
            return None  # X_{t_{i,0}} = 0
        if partials == "formula":
            return first_partial_pairing(result, f"e{i}", k - 1)
        var = f"t{i}_{k}"
        if var in seq.gens:
            return X.partial(var)
        return "out-of-range"

    for var in seq.variables:
        base, shift = seq.gens[var]
        i = int(base[1:])
        j = shift + 1
        term = f1(i, j + ell)
        if term is None:
            continue
        if isinstance(term, str):
            masked.append(var)
            continue
        op = op + term.times_var(var) * float(j)
    for i in range(1, seq.n + 1):
        for j in range(1, ell):
            a, b = f1(i, j), f1(i, ell - j)
            if isinstance(a, str) or isinstance(b, str):
                raise ShapeError("theorem76_operator: quadratic term needs "
                                 f"t_{{i,{j}}} and t_{{i,{ell - j}}} active")
            sec = (second_partial_formula(result, (f"e{i}", j - 1),
                                          (f"e{i}", ell - j - 1))
                   if partials == "formula" else a.partial(f"t{i}_{ell - j}"))
            op = op + a * b * ca + sec * cb
    op = op - ScalarJet.const(ctx, 0.5 * datum_fields(result).c_ell(ell))
    return op, masked


def masked_scalar_defect(a: ScalarJet, b: ScalarJet,
                         masked_vars: list[str]) -> float:
    """Defect of a - b on jet coefficients with zero exponent in every
    masked variable (terms the jet route could not evaluate)."""
    diff = a - b
    ctx = a.ctx
    keep = np.ones(ctx.T, dtype=bool)
    for var in masked_vars:
        keep &= ctx.midx[:, ctx.var_index(var)] == 0
    keep &= ctx.totals <= diff.vorder
    return max(float(np.abs(v * keep).max()) for v in diff.slabs)


# ---------------------------------------------------------------------------
# auxiliary identities from the operator-form derivation

def proof_identities_check(result: FactorizationResult, i: int) -> dict:
    """B_i = M(I - 2 e_ii) lam M^-1 satisfies B_i = lam I - 2 Q_i,
    B_i^2 = lam^2 I, lam dB/dlam = [P, B] + B, tr(B dB/dlam) = n lam;
    xi = M^-1 M_lam has only degrees <= -2 with X_{t_{i,j}} = xi_{ii,-(j+1)};
    and the quadratic relation for Q_{i,-1}."""
    seq, ctx = result.seq, result.ctx
    if seq.family != "gl":
        raise ShapeError("proof identities are for the gl family")
    n = ctx.n
    e = np.zeros((n, n), dtype=complex)
    e[i - 1, i - 1] = 1.0
    b_i = np.eye(n) - 2 * e
    B = result.M * Series.from_degree_matrices(ctx, {1: b_i}) * result.Minv
    Q = result.conjugated_base(f"e{i}")
    P = _m_log(result).shift(1)
    out = {}
    lam2 = Series.from_degree_matrices(ctx, {2: np.eye(n)})
    lam1 = Series.from_degree_matrices(ctx, {1: np.eye(n)})
    out["b_square"] = (B * B - lam2).max_abs()
    out["b_linear"] = (B - (lam1 - Q * 2.0)).max_abs()
    dB = B.dlambda()
    out["b_deriv"] = (dB.shift(1) - (P * B - B * P + B)).max_abs()
    b_db = B * dB
    trace = b_db.trace_coeff(1) - ScalarJet.const(ctx, float(n))
    worst_tr = trace.max_abs()
    for k in range(-2 * ctx.order - 2, 3):
        if k == 1:
            continue
        worst_tr = max(worst_tr, b_db.trace_coeff(k).max_abs())
    out["b_trace"] = worst_tr
    xi = result.xi
    out["xi_support"] = max(xi.plus().max_abs(), xi.degree_slice(-1).max_abs())
    worst = 0.0
    for var in seq.variables:
        base, shift = seq.gens[var]
        if base != f"e{i}":
            continue
        j = shift + 1
        worst = max(worst, (ln_tau_jet(result).partial(var)
                            - xi.entry_jet(i - 1, i - 1, -(j + 1))).max_abs())
    out["xi_entry"] = worst
    q0 = Q.degree_slice(0)
    qm1 = Q.degree_slice(-1)
    es = Series.monomial(ctx, e)
    out["q_quadratic"] = (q0 * q0 - qm1 + es * qm1 + qm1 * es).max_abs()
    return out


def zeta_v_formula(result: FactorizationResult, ell: int) -> Series:
    """zeta_l(v_f) = -pi_1(Res_lam(lam**(l+1) M_lam M^-1 + lam**l M J M^-1))."""
    offdiag = 1.0 - np.eye(result.ctx.n)
    return (-1.0) * _gl_operand(result, ell).degree_slice(-1).hadamard(offdiag)


# ---------------------------------------------------------------------------
# the sigma-restricted half action

def eta_tangency_defect(spec: SplittingSpec, fields: VirasoroFields,
                        j: int) -> float:
    """First-order invariance of the sigma reality condition along eta_j."""
    ext = fields.f.with_eps(fields.eta(j))
    return reality_check(spec, ext)


def eta_bracket_defect(fields: VirasoroFields, js) -> float:
    """max over j, k in ``js`` of || [eta_j, eta_k](f) - (k - j) eta_{j+k}(f) ||."""
    return _bracket_worst(fields, js, VirasoroFields.eta)
