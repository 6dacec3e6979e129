"""Virasoro tests: fields, brackets, induced variations, the operator form."""

from __future__ import annotations

import numpy as np
import pytest

from loopjet import JetContext, Series
from loopjet.hierarchy import akns_sequence, gl_sequence
from loopjet.scattering import factorize_jet
from loopjet.splitting import SplittingSpec, sample_negative_element
from loopjet.tau import ln_tau_jet
from loopjet.virasoro import (bracket_defect, c_ell, c_ell_const_defect,
                              eps_perturbed_result, eta_bracket_defect,
                              eta_field, eta_tangency_defect, gamma_xi0,
                              gl_frame_variation, induced_frame_variation,
                              induced_lntau_variation, masked_scalar_defect,
                              proof_identities_check, script_j, tangency_defect,
                              theorem76_operator, thm56_defect, virasoro_field,
                              zeta_v_formula)

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def fctx(n=2, lo=-26, hi=11):
    return JetContext((), 0, n, lo, hi)


@pytest.fixture(scope="module")
def f2():
    ctx = fctx()
    return sample_negative_element(SplittingSpec("standard", 2), ctx,
                                   seed=11, depth=3, amplitude=0.3)


@pytest.fixture(scope="module")
def gl2_setup():
    seq = gl_sequence([1.0, -0.7 + 0.3j], 3)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 2)
    f = sample_negative_element(spec, JetContext((), 0, 2, ctx.lo, ctx.hi),
                                seed=11, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, ln_tau_jet(res)


def test_field_trivial_and_fixture_values():
    ctx = fctx()
    ident = Series.identity(ctx)
    for ell in (-1, 0, 2):
        assert virasoro_field(ident, ell, None).max_abs() == 0.0
    f = ident + Series.monomial(ctx, E21, -1)
    z_m1 = virasoro_field(f, -1, None)
    assert (z_m1 - Series.monomial(ctx, E21, -2)).max_abs() < 1e-13
    z_0 = virasoro_field(f, 0, None)
    assert (z_0 - Series.monomial(ctx, E21, -1)).max_abs() < 1e-13


def test_tangency(f2):
    for gamma in (None, gamma_xi0(2)):
        for ell in (-1, 0, 1, 2, 3):
            assert tangency_defect(f2, ell, gamma) < 1e-13


def test_bracket_relations(f2):
    for gamma in (None, gamma_xi0(2)):
        assert bracket_defect(f2, (-1, 0, 1, 2, 3), gamma) < 1e-8


def _pairwise_bracket(field, f, j, k):
    """Reference: one directional-derivative pass per (j, k) pair."""
    from loopjet import directional_derivative
    zj, zk = field(f, j), field(f, k)
    lhs = (directional_derivative(lambda g: field(g, k), f, zj)
           - directional_derivative(lambda g: field(g, j), f, zk))
    if k == j:
        return lhs.max_abs()
    return (lhs - field(f, j + k) * float(k - j)).max_abs()


def test_stacked_bracket_equals_pairwise_reference(f2):
    ells = (-1, 0, 1, 2, 3)
    for gamma in (None, gamma_xi0(2)):
        field = lambda g, ell: virasoro_field(g, ell, gamma)  # noqa: E731
        ref = max(_pairwise_bracket(field, f2, j, k)
                  for j in ells for k in ells)
        assert bracket_defect(f2, ells, gamma) == ref
    spec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    f3 = sample_negative_element(spec, fctx(n=3), seed=71, depth=3,
                                 amplitude=0.3)
    ref = max(_pairwise_bracket(eta_field, f3, j, k)
              for j in (0, 1) for k in (0, 1))
    assert eta_bracket_defect(f3, (0, 1)) == ref


def test_bracket_diagonal_trivial(f2):
    assert bracket_defect(f2, [-1], None) < 1e-14
    assert bracket_defect(f2, [2], gamma_xi0(2)) < 1e-14


def test_c_ell_values(f2):
    ctx = fctx()
    ident = Series.identity(ctx)
    for ell in (-1, 0, 1, 2, 3):
        assert abs(c_ell(ident, ell)) == 0.0
        if ell <= 1:
            assert abs(c_ell(f2, ell)) < 1e-13
    nil = ident + Series.monomial(ctx, E21, -1)
    assert abs(c_ell(nil, 3)) < 1e-15
    # brute-force coefficient oracle
    x = f2.dlambda() * f2.inv()
    coeffs = {k: x.coeff(0, k) for k in range(ctx.lo + 8, 0)}
    for ell in (2, 3):
        want = 0j
        for ka, ma in coeffs.items():
            for kb, mb in coeffs.items():
                if ka + kb == -(ell + 2):
                    want += np.trace(ma @ mb)
        assert abs(c_ell(f2, ell) - want) < 1e-12


def test_eta_tangency_and_bracket():
    spec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    ctx = fctx(n=3)
    f = sample_negative_element(spec, ctx, seed=71, depth=3, amplitude=0.3)
    for j in (0, 1, 2):
        assert eta_tangency_defect(spec, f, j) < 1e-9
    assert eta_bracket_defect(f, (0, 1)) < 1e-8
    # eta = zeta_{2j}/2 by definition
    assert (eta_field(f, 1) - virasoro_field(f, 2, None).scale(0.5)).max_abs() == 0.0


def test_script_j_is_log_derivative_of_vacuum(gl2_setup):
    _, _, _, _, res, _ = gl2_setup
    sj = script_j(res)
    lam_v = (res.V.dlambda() * res.V.inv()).shift(1)
    assert (sj - lam_v).max_abs() < 1e-12


def test_frame_and_lntau_variations_both_gammas(gl2_setup):
    _, _, _, f, res, _ = gl2_setup
    for gamma in (None, gamma_xi0(2)):
        for ell in (-1, 1, 3):
            eps = eps_perturbed_result(res, virasoro_field(f, ell, gamma))
            fv = induced_frame_variation(res, ell, gamma)
            fv_eps = eps.M.eps_part() * eps.M.base_part().inv()
            assert (fv - fv_eps).max_abs() < 1e-8
            lt = induced_lntau_variation(res, ell, gamma)
            lt_eps = ln_tau_jet(eps).X.eps_part()
            assert (lt - lt_eps).max_abs() < 1e-8
            if gamma is None:
                assert (fv - gl_frame_variation(res, ell)).max_abs() < 1e-8
                off = 1.0 - np.eye(2)
                v_eps = eps.M.eps_part().degree_slice(-1).hadamard(off)
                assert (zeta_v_formula(res, ell) - v_eps).max_abs() < 1e-8


def test_variations_at_base_point(gl2_setup):
    # at t = 0 the frame variation reduces to Z_l(f) f^-1
    _, _, ctx, f, res, _ = gl2_setup
    for ell in (-1, 0, 2):
        fv = induced_frame_variation(res, ell, None)
        z = virasoro_field(f, ell, None) * f.inv()
        zero = (0,) * len(ctx.variables)
        for k in range(-4, 0):
            assert np.abs(fv.coeff(zero, k) - z.coeff(0, k)).max() < 1e-12


def test_thm56_general_variation(gl2_setup):
    spec, seq, ctx, f, res, _ = gl2_setup
    df = sample_negative_element(SplittingSpec("standard", 2),
                                 JetContext((), 0, 2, ctx.lo, ctx.hi),
                                 seed=99, depth=2, amplitude=0.2) \
        - Series.identity(JetContext((), 0, 2, ctx.lo, ctx.hi))
    assert thm56_defect(eps_perturbed_result(res, df)) < 1e-9


def test_theorem76_operator_routes(gl2_setup):
    _, _, _, f, res, tau = gl2_setup
    for ell in (-1, 0, 1, 2, 3):
        lt = induced_lntau_variation(res, ell, None)
        op, masked = theorem76_operator(res, tau, ell)
        assert not masked
        assert (op - lt).max_abs() < 1e-7
        op_jet, masked = theorem76_operator(res, tau, ell, partials="jet")
        assert masked_scalar_defect(op_jet, lt, masked) < 1e-7
    # the stated quadratic coefficient (1 instead of 1/2) fails for l >= 2
    lt = induced_lntau_variation(res, 3, None)
    op_bad, _ = theorem76_operator(res, tau, 3, coefficients="printed")
    assert (op_bad - lt).max_abs() > 1e-3


def test_trivial_data_gives_zero_operator():
    seq = gl_sequence([1.0, -0.7 + 0.3j], 2)
    ctx = seq.context(2)
    spec = SplittingSpec("standard", 2)
    res = factorize_jet(spec, seq, ctx, Series.identity(ctx))
    tau = ln_tau_jet(res)
    for ell in (-1, 0, 2):
        op, _ = theorem76_operator(res, tau, ell)
        assert op.max_abs() < 1e-13
        assert induced_lntau_variation(res, ell, None).max_abs() < 1e-13


def test_c_ell_t_independence(gl2_setup):
    _, _, _, _, res, _ = gl2_setup
    assert c_ell_const_defect(res, 3) < 1e-9


def test_proof_identities(gl2_setup):
    _, _, _, _, res, tau = gl2_setup
    for i in (1, 2):
        out = proof_identities_check(res, tau, i)
        for key, val in out.items():
            assert val < 1e-9, key


def test_lntau_variation_e21_fixture_at_zero():
    seq = akns_sequence(2, 2)
    ctx = seq.context(2)
    spec = SplittingSpec("standard", 2)
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    res = factorize_jet(spec, seq, ctx, f)
    for ell in (-1, 0, 1):
        lt = induced_lntau_variation(res, ell, None)
        assert abs(lt.coeff((0, 0))) < 1e-13


def test_eps_route_matches_finite_differences_on_field(f2):
    # the nilpotent route equals central differences for the vector field map
    from loopjet import directional_derivative
    df = virasoro_field(f2, 1, None)
    exact = directional_derivative(lambda g: virasoro_field(g, 2, None), f2, df)
    h = 1e-5
    plus = virasoro_field(f2 + df.scale(h), 2, None)
    minus = virasoro_field(f2 - df.scale(h), 2, None)
    fd = (plus - minus).scale(1.0 / (2 * h))
    scale = max(exact.max_abs(), 1.0)
    assert (exact - fd).max_abs() / scale < 1e-6
