"""Scattering tests: the factorization recursion, its oracle, invariances."""

from __future__ import annotations

import numpy as np
import pytest

from loopjet import JetContext, Series, ShapeError, WindowExhausted
from loopjet.hierarchy import akns_sequence, gl_sequence, kdv_sequence
from loopjet.scattering import (e_ode_defect, factorize_jet, factorize_oracle,
                                frame_variation_defect, lax_residual,
                                m_ode_defect, reality_propagation_check,
                                stabilizer_h_check, stabilizer_k_check)
from loopjet.series import exp_series
from loopjet.splitting import SplittingSpec, sample_negative_element

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def akns_setup(seed=7, order=3, flows=3, variant="standard"):
    seq = akns_sequence(2, flows)
    ctx = seq.context(order)
    spec = SplittingSpec(variant, 2)
    f = sample_negative_element(spec, ctx, seed=seed, depth=3, amplitude=0.3)
    return spec, seq, ctx, f


def test_factorize_at_zero_is_trivial():
    spec, seq, ctx, f = akns_setup()
    res = factorize_jet(spec, seq, ctx, f)
    zero = (0,) * len(ctx.variables)
    assert np.abs(res.E.coeff(zero, 0) - np.eye(2)).max() < 1e-12
    for k in range(-3, 1):
        assert np.abs(res.M.coeff(zero, k) - f.coeff(0, k)).max() < 1e-14


def test_e21_fixture_constant_solution():
    spec, seq, ctx, _ = akns_setup()
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    res = factorize_jet(spec, seq, ctx, f)
    assert (res.M - f.embed(ctx)).max_abs() < 1e-12
    expect_u = Series.monomial(ctx, 2j * E21)
    assert (res.u - expect_u).max_abs() < 1e-12
    lax = lax_residual(res)
    assert lax["defining"] < 1e-12


def test_recursion_matches_direct_splitting_oracle():
    spec, seq, ctx, f = akns_setup()
    res = factorize_jet(spec, seq, ctx, f)
    oracle = factorize_oracle(spec, seq, ctx, f)
    assert (res.M - oracle).max_abs() < 1e-9


def test_factorization_soundness_and_tie_break():
    spec, seq, ctx, f = akns_setup()
    res = factorize_jet(spec, seq, ctx, f)
    assert (res.Minv * res.E - res.vfinv).max_abs() < 1e-9
    alt = factorize_jet(spec, seq, ctx, f, var_choice="last")
    assert (res.M - alt.M).max_abs() < 1e-9
    assert m_ode_defect(res) < 1e-9
    assert e_ode_defect(res) < 1e-9


def test_lax_sign_convention_resolved():
    spec, seq, ctx, f = akns_setup()
    lax = lax_residual(factorize_jet(spec, seq, ctx, f))
    assert lax["defining"] < 1e-9
    assert lax["alternate"] > 1e-3          # the printed + orientation fails
    assert lax["convention"].startswith("[d/dx - (J1+u)")


def test_f_preconditions_rejected():
    spec, seq, ctx, _ = akns_setup()
    not_negative = Series.identity(ctx) + Series.monomial(ctx, E21, 1)
    with pytest.raises(ShapeError):
        factorize_jet(spec, seq, ctx, not_negative)
    spec_u = SplittingSpec("u_real", 2)
    f_bad = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    with pytest.raises(ShapeError):
        factorize_jet(spec_u, seq, ctx, f_bad)


def test_window_budget_fails_fast():
    seq = akns_sequence(2, 3)
    shallow = JetContext(seq.variables, 3, 2, -6, 4)
    spec = SplittingSpec("standard", 2)
    f = sample_negative_element(spec, shallow, seed=1, depth=2, amplitude=0.3)
    with pytest.raises(WindowExhausted):
        factorize_jet(spec, seq, shallow, f)


def test_frame_variation_law():
    spec, seq, ctx, f = akns_setup()
    df = sample_negative_element(spec, ctx, seed=99, depth=2, amplitude=0.2) \
        - Series.identity(ctx)
    res_eps = factorize_jet(spec, seq, ctx, f.embed(ctx).with_eps(df.embed(ctx)))
    assert frame_variation_defect(res_eps) < 1e-9


def test_stabilizer_translation():
    spec, seq, ctx, f = akns_setup()
    diag = np.diag([0.2 + 0.1j, -0.3])
    h = exp_series(Series.monomial(ctx, diag, -1)
                   + Series.monomial(ctx, 0.4 * diag, -2))
    res = factorize_jet(spec, seq, ctx, f)
    chk = stabilizer_h_check(res, h)
    assert chk["u_unchanged"] < 1e-9
    assert chk["reduced_frame_translates"] < 1e-9
    bad = exp_series(Series.monomial(ctx, E21, -1))
    with pytest.raises(ShapeError):
        stabilizer_h_check(res, bad)


def test_stabilizer_conjugation_and_printed_form():
    spec, seq, ctx, f = akns_setup()
    c = 1.3 - 0.4j
    k = np.diag([c, 1.0 / c])
    res = factorize_jet(spec, seq, ctx, f)
    chk = stabilizer_k_check(res, k)
    assert chk["u_conjugates"] < 1e-9
    assert chk["m_conjugates"] < 1e-9
    assert chk["e_conjugates"] < 1e-9
    res_k = chk["result_k"]
    q = res.u.entry_jet(0, 1, 0)
    r = res.u.entry_jet(1, 0, 0)
    assert (res_k.u.entry_jet(0, 1, 0) - q * c ** 2).max_abs() < 1e-9
    assert (res_k.u.entry_jet(1, 0, 0) - r * c ** -2).max_abs() < 1e-9


def test_gl_diagonal_action_on_v():
    c_diag = [1.0, -0.4 + 0.8j, 0.2 - 1.1j]
    seq = gl_sequence(c_diag, 2)
    ctx = seq.context(2)
    spec = SplittingSpec("standard", 3)
    f = sample_negative_element(spec, ctx, seed=5, depth=2, amplitude=0.3)
    k = np.diag([1.2, 0.7 + 0.3j, 1.0 - 0.2j])
    res = factorize_jet(spec, seq, ctx, f)
    res_k = stabilizer_k_check(res, k)["result_k"]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expect = res.v.entry_jet(i, j, 0) * (k[i, i] / k[j, j])
            assert (res_k.v.entry_jet(i, j, 0) - expect).max_abs() < 1e-9


@pytest.mark.parametrize("variant,mkseq", [
    ("u_real", lambda: akns_sequence(2, 3)),
    ("u_real", lambda: akns_sequence(3, 2)),
    ("kdv_twisted", lambda: kdv_sequence(2)),
])
def test_reality_propagation(variant, mkseq):
    seq = mkseq()
    spec = SplittingSpec(variant, seq.n)
    ctx = seq.context(3)
    f = sample_negative_element(spec, ctx, seed=11, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    for name, val in reality_propagation_check(res).items():
        assert val < 1e-9, name


def test_gl_coordinate_change():
    from loopjet.hierarchy import gl_power_sequence
    c = [1.0, -0.4 + 0.8j, 0.2 - 1.1j]
    seq_t = gl_sequence(c, 2)
    seq_s = gl_power_sequence(c, 2)
    ctx_t = seq_t.context(2)
    ctx_s = JetContext(seq_s.variables, 2, 3, ctx_t.lo, ctx_t.hi)
    spec = SplittingSpec("standard", 3)
    fctx = JetContext((), 0, 3, ctx_t.lo, ctx_t.hi)
    f = sample_negative_element(spec, fctx, seed=5, depth=3, amplitude=0.3)
    rt = factorize_jet(spec, seq_t, ctx_t, f)
    rs = factorize_jet(spec, seq_s, ctx_s, f)

    def chain(u_t, i, j):
        out = None
        for k in range(1, 4):
            term = u_t.jet_partial(f"t{k}_{j}") * (c[k - 1] ** i)
            out = term if out is None else out + term
        return out

    worst = 0.0
    zero_t = (0,) * len(ctx_t.variables)
    zero_s = (0,) * len(ctx_s.variables)
    for i in range(1, 4):
        for j in range(1, 3):
            dus = rs.u.jet_partial(f"s{i}_{j}")
            dut = chain(rt.u, i, j)
            worst = max(worst, float(np.abs(dus.coeff(zero_s, 0)
                                            - dut.coeff(zero_t, 0)).max()))
            for i2 in range(1, 4):
                d2s = dus.jet_partial(f"s{i2}_1")
                d2t = None
                for k in range(1, 4):
                    term = dut.jet_partial(f"t{k}_1") * (c[k - 1] ** i2)
                    d2t = term if d2t is None else d2t + term
                worst = max(worst, float(np.abs(d2s.coeff(zero_s, 0)
                                                - d2t.coeff(zero_t, 0)).max()))
    assert worst < 1e-9


def test_trivial_stabilizers_have_zero_defect():
    spec, seq, ctx, f = akns_setup(order=2, flows=2)
    res = factorize_jet(spec, seq, ctx, f)
    chk = stabilizer_h_check(res, Series.identity(ctx))
    assert chk["u_unchanged"] < 1e-13
    assert chk["reduced_frame_translates"] < 1e-13
    chk2 = stabilizer_k_check(res, np.eye(2))
    assert chk2["u_conjugates"] < 1e-13
    assert chk2["m_conjugates"] < 1e-13
    assert chk2["e_conjugates"] < 1e-13


def test_eps_route_matches_finite_differences_on_u():
    spec, seq, ctx, f = akns_setup(order=2, flows=2)
    df = sample_negative_element(spec, ctx, seed=5, depth=2, amplitude=0.2) \
        - Series.identity(ctx)
    ext = factorize_jet(spec, seq, ctx, f.embed(ctx).with_eps(df.embed(ctx)))
    exact = ext.u.eps_part()
    h = 1e-5
    up = factorize_jet(spec, seq, ctx, f.embed(ctx) + df.embed(ctx).scale(h)).u
    dn = factorize_jet(spec, seq, ctx, f.embed(ctx) - df.embed(ctx).scale(h)).u
    fd = (up - dn).scale(1.0 / (2 * h))
    scale = max(exact.max_abs(), 1.0)
    assert (exact - fd).max_abs() / scale < 1e-6


def test_pipeline_stable_under_window_deepening():
    spec, seq, ctx, f = akns_setup(order=3, flows=3)
    from loopjet.tau import ln_tau_jet
    deep_ctx = JetContext(seq.variables, 3, 2, ctx.lo - 8, ctx.hi)
    f_deep = sample_negative_element(spec, deep_ctx, seed=7, depth=3,
                                     amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    res_deep = factorize_jet(spec, seq, deep_ctx, f_deep)
    worst = 0.0
    for row in range(ctx.T):
        alpha = tuple(ctx.midx[row])
        for k in range(res.M.slabs[0].tlo[row]
                       if res.M.slabs[0].tlo[row] > ctx.lo else ctx.lo, 1):
            worst = max(worst, float(np.abs(res.M.coeff(alpha, k)
                                            - res_deep.M.coeff(alpha, k)).max()))
        worst = max(worst, float(np.abs(res.u.coeff(alpha, 0)
                                        - res_deep.u.coeff(alpha, 0)).max()))
    x1 = ln_tau_jet(res).X
    x2 = ln_tau_jet(res_deep).X
    worst = max(worst, max(abs(x1.coeff(i) - x2.coeff(i))
                           for i in range(ctx.T)))
    assert worst < 1e-12
