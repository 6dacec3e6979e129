"""Tau-function tests: defining relation, routes, family identities, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from loopjet import JetContext, Series
from loopjet.hierarchy import akns_sequence, gl_sequence, kdv_sequence
from loopjet.scattering import factorize_jet, stabilizer_h_check, stabilizer_k_check
from loopjet.series import exp_series
from loopjet.splitting import SplittingSpec, sample_negative_element
from loopjet.tau import (conjugation_invariance_check, first_partial_pairing,
                         identity_suite, ln_tau_jet, second_partial_formula,
                         shift_constancy_check, tau_route_defects,
                         vector_akns_recovery, xi_helpers)

from helpers import kdv_restriction_formula_check

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


@pytest.fixture(scope="module")
def akns():
    seq = akns_sequence(2, 3)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 2)
    f = sample_negative_element(spec, ctx, seed=7, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, ln_tau_jet(res)


@pytest.fixture(scope="module")
def gl3():
    seq = gl_sequence([1.0, -0.4 + 0.8j, 0.2 - 1.1j], 2)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 3)
    f = sample_negative_element(spec, ctx, seed=5, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, ln_tau_jet(res)


def test_lntau_normalization_and_trivial_data(akns):
    spec, seq, ctx, f, res, tau = akns
    assert tau.coeff((0, 0, 0)) == 0.0
    res_i = factorize_jet(spec, seq, ctx, Series.identity(ctx))
    assert ln_tau_jet(res_i).max_abs() < 1e-14


def test_lntau_e21_fixture_vanishes(akns):
    spec, seq, ctx, _, _, _ = akns
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    res = factorize_jet(spec, seq, ctx, f)
    assert ln_tau_jet(res).max_abs() < 1e-12
    # M^-1 M_lam = -lam^-2 e21 by hand, and tr(a e21) = 0 kills the pairing
    xi = res.Minv * res.M.dlambda()
    expect = Series.monomial(ctx, -E21, -2)
    assert (xi - expect).max_abs() < 1e-12


def test_tau_routes(akns):
    _, _, _, _, res, tau = akns
    d = tau_route_defects(res)
    assert d["defining"] < 1e-9
    assert d["closedness"] < 1e-9
    assert d["routes"] < 1e-9
    assert d["symmetry"] < 1e-9
    assert d["t1tj"] < 1e-9


def test_pairings_are_computed_once_per_result(akns):
    _, seq, ctx, _, res, tau = akns
    first = first_partial_pairing(res, "J1", 1)
    assert first_partial_pairing(res, "J1", 1) is first
    expect = seq.generator(ctx, "t2").pairing(res.xi, -1)
    assert np.array_equal(first.slabs[0], expect.slabs[0])
    gens = (seq.gens["t1"], seq.gens["t2"])
    assert second_partial_formula(res, *gens) is second_partial_formula(res, *gens)


def test_akns_identities_and_detected_constants(akns):
    _, _, _, _, res, tau = akns
    recs = {r.check_id: r for r in identity_suite(res)}
    assert recs["akns_tau_qr"].max_defect < 1e-8
    assert recs["akns_tau_t1t2"].max_defect < 1e-8
    assert recs["akns_tau_t1t2"].note == "kappa = 0.5j"
    assert recs["akns_tau_ode"].max_defect < 1e-7


def test_kdv_tau_both_constructions():
    assert kdv_restriction_formula_check() < 1e-10
    seq = kdv_sequence(2)
    ctx = seq.context(3)
    spec = SplittingSpec("kdv_twisted", 2)
    f = sample_negative_element(spec, ctx, seed=31, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    recs = {r.check_id: r for r in identity_suite(res)}
    assert recs["kdv_tau_t1t1"].max_defect < 1e-8


def test_gl_tau_vv_all_pairs(gl3):
    _, seq, ctx, _, res, tau = gl3
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            y = second_partial_formula(res, (f"e{i+1}", 0), (f"e{k+1}", 0))
            prod = res.v.entry_jet(i, k, 0) * res.v.entry_jet(k, i, 0)
            assert (y + prod).max_abs() < 1e-8
    recs = {r.check_id: r for r in identity_suite(res)}
    assert recs["thm7.1_tau_uu"].max_defect < 1e-8
    assert recs["tau_uu_u_form"].max_defect < 1e-8
    assert "divide" in recs["tau_uu_u_form"].note


def test_sigma_gl_symmetric_square():
    seq = gl_sequence([1.0, -0.4, 0.2], 2, parity="odd")
    ctx = seq.context(3)
    spec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    f = sample_negative_element(spec, ctx, seed=71, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    assert (res.v - res.v.transpose()).max_abs() < 1e-9
    recs = {r.check_id: r for r in identity_suite(res)}
    assert recs["sigma_tau_vv"].max_defect < 1e-8


def test_shift_constancy_and_conjugation_invariance(akns):
    spec, seq, ctx, f, res, _ = akns
    diag = np.diag([0.2 + 0.1j, -0.3])
    h = exp_series(Series.monomial(ctx, diag, -1))
    chk = stabilizer_h_check(res, h)
    assert shift_constancy_check(res, chk["result_h"], h) < 1e-9
    k = np.diag([1.2 - 0.3j, 1.0 / (1.2 - 0.3j)])
    chk2 = stabilizer_k_check(res, k)
    assert conjugation_invariance_check(res, chk2["result_k"]) < 1e-9


@pytest.fixture(scope="module")
def vector3():
    seq = akns_sequence(3, 3)
    ctx = seq.context(4)
    spec = SplittingSpec("standard", 3)
    f = sample_negative_element(spec, ctx, seed=21, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res


def test_vector_recovery_and_k_invariance(vector3):
    spec, seq, ctx, f, res = vector3
    k = np.diag([1.3 + 0.1j, 0.8, 1.0 / (0.9 - 0.2j)])
    chk = stabilizer_k_check(res, k)
    out = vector_akns_recovery(res, chk["result_k"])
    assert not out["degenerate"]
    assert out["recovery_q"] < 1e-6
    assert out["recovery_r"] < 1e-6
    assert out["k_invariance"] < 1e-8


def test_vector_recovery_degenerate(vector3):
    spec, seq, ctx, _, _ = vector3
    res = factorize_jet(spec, seq, ctx, Series.identity(ctx))
    assert vector_akns_recovery(res)["degenerate"]


def test_ln_tau_is_one_shared_value_per_result_and_path(akns):
    _, _, _, _, res, tau = akns
    assert ln_tau_jet(res) is tau
    last = ln_tau_jet(res, var_choice="last")
    assert ln_tau_jet(res, var_choice="last") is last
    assert last is not tau


def test_xi_helpers_exact_identity(vector3):
    _, _, _, _, res = vector3
    out = xi_helpers(res)
    assert out["trace_identity"] < 1e-12


def test_recovery_reduces_to_scalar_case(akns):
    # one component field: the same construction the first-order ODE
    # relation comes from, now through S = [q], R = [r]
    _, _, _, _, res, _ = akns
    out = vector_akns_recovery(res)
    assert not out["degenerate"]
    assert out["recovery_q"] < 1e-6
    assert out["recovery_r"] < 1e-6
