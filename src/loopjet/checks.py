"""Catalog of named checks with their identity anchors and tolerances.

Every check a suite can emit is registered here, and nothing else, so the
CLI lists exactly what a report can hold and reports stay uniform.  The
anchor string is the mathematical identity being tested, written inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LoopjetError

__all__ = ["CheckRecord", "CATALOG", "record", "detect", "catalog_entries"]


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    max_defect: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"id": self.check_id, "anchor": self.anchor,
                "max_defect": self.max_defect, "tolerance": self.tolerance,
                "passed": self.passed, "note": self.note}


# check id -> (anchor, default tolerance)
CATALOG: dict[str, tuple[str, float]] = {
    # kernel / splitting
    "reality_of_f": ("scattering datum satisfies its reality condition", 1e-9),
    "vacuum_commuting": ("[J_v, J_w] = 0", 1e-12),
    "vacuum_frame_ode": ("d/dt_v V = J_v V, V(0) = I", 1e-12),
    # scattering
    "fact_soundness": ("M^-1 E = V f^-1", 1e-9),
    "fact_normalization": ("M(0) = f, E(0) = I", 1e-12),
    "fact_oracle": ("ODE recursion = direct-splitting oracle", 1e-9),
    "fact_path_independence": ("d/dt_v M = -(M J_v M^-1)_- M for every v", 1e-9),
    "fact_tie_break": ("first/last admissible variable give the same M", 1e-9),
    "e_ode": ("(d/dt_v E) E^-1 = (M J_v M^-1)_+", 1e-9),
    "lax_defining": ("[d/dx - (J_1 + u_f), M J_1 M^-1] = 0", 1e-9),
    "u_shape": ("u_f = (M J_1 M^-1)_+ - J_1 lies in Y", 1e-9),
    "q_recursion_match": ("recursion Q(u_f) = M J_1 M^-1", 1e-8),
    "q_recursion_closed": ("Q_-1 = (a/2)(-u_x + u^2), Q_-2 closed form", 1e-10),
    "q_conjugacy": ("Q^2 = -lam^2 I", 1e-9),
    "q_leading_term": ("G1 part of Q_-j - (-a/2)^j u^(j) has low order", 1e-10),
    "trace_g1": ("tr(v a v) = 0 for v in G_1", 1e-13),
    "flow_rhs_match": ("d/dt_j u_f = [d/dx - (J_1+u), (Q lam^s)_+]", 1e-9),
    "flow_akns_t2": ("q_t = -(i/2)(q_xx - 2 q^2 r), r_t = (i/2)(r_xx - 2 q r^2)", 1e-8),
    "flow_akns_t3": ("q_t = -(1/4)(q_xxx - 6 q q_x r); r-part up to orientation", 1e-8),
    "flow_nls": ("r_t = (i/2)(r_xx + 2 |r|^2 r)", 1e-8),
    "flow_mkdv": ("r_t = (1/4)(r_xxx + 6 r^2 r_x) up to orientation", 1e-8),
    "flow_cmkdv": ("q_t = (1/4)(q_xxx - 6 q^2 q_x)", 1e-8),
    "flow_kdv": ("r_t = (1/4)(r_xxx - 6 r r_x)", 1e-8),
    "flow_vector_akns_t2": ("q_t = (i/2)(-q_xx + 2 q r q) and r-part", 1e-8),
    "flow_vector_akns_t3": ("q_t = (1/4)(-q_xxx + 3qrq_x + qr_xq + 2q_xrq)", 1e-8),
    "flow_vector_nls": ("q_t = -(i/2)(q_xx + 2 ||q||^2 q)", 1e-8),
    "flow_n_wave": ("u_t = ad(b)ad(a)^-1 u_x - [u, ad(b)ad(a)^-1 u]", 1e-8),
    "reality_propagation": ("u_f keeps the real-form shape of the variant", 1e-9),
    "stabilizer_h": ("u_{fh} = u_f and M~ = M h for [h, J_1] = 0", 1e-9),
    "stabilizer_k": ("u_{kfk^-1} = k u_f k^-1, M~ = kMk^-1, E~ = kEk^-1", 1e-9),
    "stabilizer_k_form": ("k u k^-1 = [[0, c^2 q],[c^-2 r, 0]] / (k_i/k_j) v_ij", 1e-9),
    "frame_variation": ("(dM) M^-1 = (E (df) f^-1 E^-1)_-", 1e-9),
    "gl_u_v_relation": ("u_ij = -(c_i - c_j) v_ij with v = pi_1(m_-1)", 1e-9),
    # tau
    "tau_defining": ("(ln tau)_{t_j} = <J_j, M^-1 d_lam M>_{-1}", 1e-9),
    "tau_closedness": ("integration path independence of ln tau", 1e-9),
    "tau_second_routes": ("d_j d_k ln tau = <M J_j M^-1, d_lam (M J_k M^-1)_+>_{-1}", 1e-9),
    "tau_symmetry": ("second-partial pairing symmetric in (j,k)", 1e-9),
    "tau_t1tj_route": ("<M J_j M^-1, d_lam J_1>_{-1} route agrees", 1e-9),
    "akns_tau_qr": ("(ln tau)_{t1 t1} = -q r", 1e-8),
    "akns_tau_t1t2": ("(ln tau)_{t1 t2} = kappa (q_x r - r_x q), kappa detected", 1e-8),
    "akns_tau_ode": ("q_x, r_x solved from y_1, y_2 (first-order ODE system)", 1e-7),
    "kdv_tau_t1t1": ("(ln tau)_{t1 t1} = -r (twisted-splitting construction)", 1e-8),
    "thm7.1_tau_uu": ("(ln tau)_{t_{i,1} t_{k,1}} = -v_ik v_ki", 1e-8),
    "tau_uu_u_form": ("(ln tau)_{t_{i,1} t_{k,1}} = u_ik u_ki / (c_i-c_k)^2", 1e-8),
    "sigma_tau_vv": ("(ln tau)_{t_{i,1} t_{j,1}} = -v_ij^2 (symmetric restriction)", 1e-8),
    "tau_shift_constancy": ("(ln tau_{fh})_{t_j} - (ln tau_f)_{t_j} = <J_j, h_lam h^-1>_{-1}", 1e-9),
    "tau_conjugation": ("second partials of ln tau equal for f and k f k^-1", 1e-9),
    "xi_trace_identity": ("tr(u^(i) u^(j)) = q^(i).r^(j) + q^(j).r^(i)", 1e-12),
    "recovery_q": ("q^(n) = W S with W = (q^(n) R)(S R)^-1", 1e-6),
    "recovery_r": ("r^(n) = R W_r with W_r = (S R)^-1 (S r^(n))", 1e-6),
    "recovery_k_invariance": ("entries of C = S R and b = q^(n) R are K-invariant", 1e-8),
    "recovery_degenerate": ("singular S or R is declared degenerate, never guessed", 0.0),
    # virasoro
    "virasoro_tangent": ("Z_l(f) f^-1 has only negative degrees", 1e-13),
    "virasoro_bracket": ("[Z_j, Z_k] = (k - j) Z_{j+k}", 1e-8),
    "eta_tangency": ("f + eps eta_j(f) satisfies the sigma condition to order eps", 1e-9),
    "eta_bracket": ("[eta_j, eta_k] = (k - j) eta_{j+k}", 1e-8),
    "lntau_variation": ("d/d eps ln tau = -<M_eps M^-1, E_lam E^-1>_{-1}", 1e-9),
    "induced_frame_eps": ("pairing form of delta_l(M) M^-1 = eps-route", 1e-8),
    "induced_frame_gl": ("E-form = M-form of the frame variation (gl)", 1e-8),
    "induced_lntau_eps": ("pairing form of delta_l ln tau = eps-route", 1e-8),
    "t76_operator": ("delta_l ln tau is the stated differential operator", 1e-7),
    "t76_jet_route": ("operator with jet partials agrees on comparable orders", 1e-7),
    "c_ell_const": ("c_l(f) = <lam^{l+2}(f_lam f^-1)^2>_0 is t-independent", 1e-9),
    "proof_b_square": ("B_i^2 = lam^2 I", 1e-9),
    "proof_b_linear": ("B_i = lam I - 2 Q_i", 1e-9),
    "proof_b_deriv": ("lam dB_i/dlam = [P, B_i] + B_i", 1e-9),
    "proof_b_trace": ("tr(B_i dB_i/dlam) = n lam", 1e-9),
    "proof_xi_entry": ("(ln tau)_{t_{i,j}} = xi_{ii, -(j+1)}", 1e-9),
    "proof_q_quadratic": ("Q_{i,0}^2 - Q_{i,-1} + e_ii Q_{i,-1} + Q_{i,-1} e_ii = 0", 1e-9),
}


def record(check_id: str, value: float, note: str = "",
           tolerance: float | None = None) -> CheckRecord:
    """Check record; a defect that is not finite (overflow, NaN) is a
    numerical failure of the check, never a value in the report."""
    if not math.isfinite(value):
        raise LoopjetError(f"check {check_id}: defect is {value}")
    anchor, default_tol = CATALOG[check_id]
    tol = default_tol if tolerance is None else tolerance
    return CheckRecord(check_id, anchor, float(value), tol,
                       bool(value <= tol), note)


def detect(residuals: dict) -> tuple:
    """The detected convention among ``residuals`` (candidate label ->
    residual, in candidate order): ``(label, residual, runner-up
    residual)`` for the smallest residual; an exact tie goes to the first
    candidate."""
    (label, best), (_, other) = sorted(residuals.items(),
                                       key=lambda kv: kv[1])[:2]  # stable
    return label, best, other


def catalog_entries() -> list[tuple[str, str, float]]:
    return [(cid, anchor, tol) for cid, (anchor, tol) in sorted(CATALOG.items())]
