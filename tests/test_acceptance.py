"""Acceptance criteria, one test per criterion, each printing a verdict line.

Scenario defaults: jet order 3-4, matrices up to 3x3, scattering depth 3,
windows from the default rule, seeded data with amplitude 0.3.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from loopjet import JetContext, Series
from loopjet.hierarchy import (akns_sequence, gl_sequence, kdv_sequence,
                               named_flow_residual, odd_akns_sequence,
                               q_recursion_vector_akns)
from loopjet.scattering import (factorize_jet, frame_variation_defect,
                                lax_residual, reality_propagation_check,
                                stabilizer_h_check, stabilizer_k_check)
from loopjet.series import cocycle, commutator, exp_series, pairing_k, series_mul
from loopjet.splitting import SplittingSpec, sample_negative_element
from loopjet.tau import (conjugation_invariance_check, identity_suite,
                         kdv_restriction_formula_check, ln_tau_jet,
                         shift_constancy_check, tau_route_defects,
                         vector_akns_recovery)
from loopjet.virasoro import (bracket_defect, eps_perturbed_result,
                              eta_bracket_defect, eta_tangency_defect,
                              gamma_xi0, gl_frame_variation,
                              induced_frame_variation,
                              induced_lntau_variation, proof_identities_check,
                              theorem76_operator, thm56_defect, virasoro_field)

from helpers import random_laurent_dict, rng, series_from_dict

AMP = 0.3
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def verdict(criterion: str, worst: float, tol: float, extra: str = "") -> None:
    status = "PASS" if worst <= tol else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} (max defect {worst:.3e}, tol {tol:.1e})"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert worst <= tol, line


def _setup(spec, seq, order, seed, depth=3):
    ctx = seq.context(order)
    f = sample_negative_element(spec, ctx, seed=seed, depth=depth, amplitude=AMP)
    t0 = time.perf_counter()
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def akns():
    return _setup(SplittingSpec("standard", 2), akns_sequence(2, 3), 4, 7)


@pytest.fixture(scope="module")
def vector():
    return _setup(SplittingSpec("standard", 3), akns_sequence(3, 3), 4, 21)


@pytest.fixture(scope="module")
def gl3():
    seq = gl_sequence([1.0, -0.4 + 0.8j, 0.2 - 1.1j], 2)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 3)
    f = sample_negative_element(spec, JetContext((), 0, 3, ctx.lo, ctx.hi),
                                seed=5, depth=3, amplitude=AMP)
    t0 = time.perf_counter()
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gl2():
    seq = gl_sequence([1.0, -0.7 + 0.3j], 3)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 2)
    f = sample_negative_element(spec, JetContext((), 0, 2, ctx.lo, ctx.hi),
                                seed=11, depth=3, amplitude=AMP)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, 0.0


@pytest.fixture(scope="module")
def kdv():
    return _setup(SplittingSpec("kdv_twisted", 2), kdv_sequence(2), 4, 31)


@pytest.fixture(scope="module")
def nls():
    return _setup(SplittingSpec("u_real", 2), akns_sequence(2, 3), 4, 61)


@pytest.fixture(scope="module")
def mkdv():
    return _setup(SplittingSpec("tau_sigma", 2, sigma_mode="transpose_inv"),
                  odd_akns_sequence(np.diag([1j, -1j]), 2), 4, 41)


@pytest.fixture(scope="module")
def cmkdv():
    spec = SplittingSpec("sigma_twisted", 2, sigma_mode="conj",
                         sigma_conjugator=np.array([[0, 1], [1, 0]], complex))
    return _setup(spec, odd_akns_sequence(np.diag([1.0, -1.0]), 2), 4, 51)


def test_criterion_1_factorization_soundness(akns, vector, gl3, kdv):
    worst = 0.0
    slowest = 0.0
    for name, (spec, seq, ctx, f, res, dt) in (("akns", akns),
                                               ("vector", vector),
                                               ("gl3", gl3), ("kdv", kdv)):
        worst = max(worst, (res.Minv * res.E - res.vfinv).max_abs())
        slowest = max(slowest, dt)
    assert slowest < 10.0, f"factorization took {slowest:.1f} s"
    verdict("1 factorization-soundness", worst, 1e-9,
            extra=f"slowest run {slowest:.2f} s")


def test_criterion_2_flow_fixtures(akns, nls, mkdv, cmkdv, kdv):
    worst = 0.0
    notes = []
    for name, fix in (("akns_t2", akns), ("akns_t3", akns), ("nls", nls),
                      ("mkdv", mkdv), ("cmkdv", cmkdv), ("kdv", kdv)):
        spec, seq, ctx, f, res, _ = fix
        for chk in named_flow_residual(seq, res.u, name):
            worst = max(worst, chk.residual)
            if chk.sign != 1:
                notes.append(f"{name}/{chk.component} orientation flipped")
    # the closed-form fixture: constant solution r = 2i, q = 0
    spec, seq, ctx, _, _, _ = akns
    f21 = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    res21 = factorize_jet(spec, seq, ctx, f21)
    fixture = (res21.u - Series.monomial(ctx, 2j * E21)).max_abs()
    assert fixture < 1e-12, fixture
    verdict("2 flow-fixtures", worst, 1e-8,
            extra=f"e21 fixture {fixture:.1e}; " + "; ".join(notes))


def test_criterion_3_lax_and_q_recursion(vector):
    spec, seq, ctx, f, res, _ = vector
    depth = 4
    q_rec, P, T = q_recursion_vector_akns(seq, res.u, depth)
    q_scat = res.q_series()
    worst_match = (q_rec - q_scat).restrict_degrees(-depth, ctx.hi).max_abs()
    lam2 = Series.from_degree_matrices(ctx, {2: np.eye(ctx.n)})
    conj = ((q_rec * q_rec + lam2)
            .restrict_degrees(-(depth - 1), ctx.hi)).max_abs()
    a_s = Series.monomial(ctx, seq.a)
    u, ux = res.u, seq.partial_x(res.u)
    uxx = seq.partial_x(ux)
    qm1 = (a_s * (ux.scale(-1.0) + u * u)).scale(0.5)
    qm2 = (uxx.scale(-0.25) + (u * u * u).scale(0.5)
           - (u * ux - ux * u).scale(0.25))
    closed = max((P[1] + T[1] - qm1).max_abs(), (P[2] + T[2] - qm2).max_abs())
    lax = lax_residual(res)
    assert lax["defining"] < 1e-9
    assert lax["alternate"] > 1e-3
    verdict("3 lax-and-q-recursion", max(worst_match, closed),
            1e-8, extra=f"Q^2 defect {conj:.1e}; convention {lax['convention']}")
    assert conj < 1e-9


def test_criterion_4_tau_calculus(akns, gl3):
    worst = 0.0
    for fix in (akns, gl3):
        spec, seq, ctx, f, res, _ = fix
        d = tau_route_defects(res, ln_tau_jet(res))
        worst = max(worst, d["closedness"], d["routes"], d["symmetry"],
                    d["defining"])
    verdict("4 tau-calculus", worst, 1e-9)


def test_criterion_5_tau_identities(akns, gl3):
    worst = 0.0
    notes = []
    spec, seq, ctx, f, res, _ = akns
    recs = {r.check_id: r for r in identity_suite(res, ln_tau_jet(res))}
    worst = max(worst, recs["akns_tau_qr"].max_defect,
                recs["akns_tau_t1t2"].max_defect)
    notes.append(recs["akns_tau_t1t2"].note)
    # both KdV constructions of the same tau identity
    worst = max(worst, kdv_restriction_formula_check())
    kseq = kdv_sequence(2)
    kctx = kseq.context(3)
    kspec = SplittingSpec("kdv_twisted", 2)
    kf = sample_negative_element(kspec, kctx, seed=31, depth=3, amplitude=AMP)
    kres = factorize_jet(kspec, kseq, kctx, kf)
    krecs = {r.check_id: r for r in identity_suite(kres, ln_tau_jet(kres))}
    worst = max(worst, krecs["kdv_tau_t1t1"].max_defect)
    # gl_3, all off-diagonal pairs
    spec, seq, ctx, f, res, _ = gl3
    grecs = {r.check_id: r for r in identity_suite(res, ln_tau_jet(res))}
    worst = max(worst, grecs["thm7.1_tau_uu"].max_defect)
    # symmetric restriction
    sseq = gl_sequence([1.0, -0.4, 0.2], 2, parity="odd")
    sctx = sseq.context(3)
    sspec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    sf = sample_negative_element(sspec, JetContext((), 0, 3, sctx.lo, sctx.hi),
                                 seed=71, depth=3, amplitude=AMP)
    sres = factorize_jet(sspec, sseq, sctx, sf)
    srecs = {r.check_id: r for r in identity_suite(sres, ln_tau_jet(sres))}
    worst = max(worst, srecs["sigma_tau_vv"].max_defect)
    verdict("5 tau-identities", worst, 1e-8, extra="; ".join(notes))


def test_criterion_6_invariance_suite(akns, nls, kdv):
    worst = 0.0
    spec, seq, ctx, f, res, _ = akns
    diag = np.diag([0.2 + 0.1j, -0.3])
    h = exp_series(Series.monomial(ctx, diag, -1)
                   + Series.monomial(ctx, 0.4 * diag, -2))
    chk = stabilizer_h_check(res, h)
    worst = max(worst, chk["u_unchanged"], chk["reduced_frame_translates"])
    worst = max(worst, shift_constancy_check(res, chk["result_h"], h))
    c = 1.3 - 0.4j
    chk2 = stabilizer_k_check(res, np.diag([c, 1 / c]))
    worst = max(worst, chk2["u_conjugates"], chk2["m_conjugates"],
                chk2["e_conjugates"])
    worst = max(worst, conjugation_invariance_check(res, chk2["result_k"]))
    for fix in (nls, kdv):
        _, _, _, _, r2, _ = fix
        for name, val in reality_propagation_check(r2).items():
            worst = max(worst, val)
    verdict("6 invariance-suite", worst, 1e-9)


def test_criterion_7_virasoro_brackets_and_variations(akns, gl2):
    fctx = JetContext((), 0, 2, -26, 11)
    f = sample_negative_element(SplittingSpec("standard", 2), fctx,
                                seed=11, depth=3, amplitude=AMP)
    worst_br = 0.0
    for gamma in (None, gamma_xi0(2)):
        worst_br = max(worst_br, bracket_defect(f, (-1, 0, 1, 2, 3), gamma))
    verdict("7a virasoro-brackets", worst_br, 1e-8)

    worst_eps = 0.0
    spec, _, ctx, _, res, _ = akns
    df = sample_negative_element(spec, ctx, seed=104729, depth=2,
                                 amplitude=0.2) - Series.identity(ctx)
    res_eps = eps_perturbed_result(res, df)
    worst_eps = max(worst_eps, frame_variation_defect(res_eps))
    worst_eps = max(worst_eps, thm56_defect(res_eps))
    verdict("7b variation-laws", worst_eps, 1e-9)

    sspec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    sctx = JetContext((), 0, 3, -26, 11)
    sf = sample_negative_element(sspec, sctx, seed=71, depth=3, amplitude=AMP)
    worst_eta = max(max(eta_tangency_defect(sspec, sf, j) for j in (0, 1, 2)),
                    eta_bracket_defect(sf, (0, 1)))
    verdict("7c eta-half-action", worst_eta, 1e-8)


def test_criterion_8_operator_form(gl2, gl3):
    worst_triple = 0.0
    worst_frame = 0.0
    worst_proof = 0.0
    note = ""
    for fix in (gl2, gl3):
        spec, seq, ctx, f, res, _ = fix
        tau = ln_tau_jet(res)
        for ell in (-1, 0, 1, 2, 3):
            lt = induced_lntau_variation(res, ell, None)
            eps = eps_perturbed_result(res, virasoro_field(f, ell, None))
            lt_eps = ln_tau_jet(eps).X.eps_part()
            op, masked = theorem76_operator(res, tau, ell)
            assert not masked
            worst_triple = max(worst_triple, (lt - lt_eps).max_abs(),
                               (op - lt).max_abs())
            fv = induced_frame_variation(res, ell, None)
            fv_eps = eps.M.eps_part() * eps.M.base_part().inv()
            worst_frame = max(worst_frame, (fv - fv_eps).max_abs(),
                              (fv - gl_frame_variation(res, ell)).max_abs())
        for i in range(1, ctx.n + 1):
            for key, val in proof_identities_check(res, tau, i).items():
                worst_proof = max(worst_proof, val)
    verdict("8a operator-triple-agreement", worst_triple, 1e-7,
            extra="quadratic coefficients: derived (1/2, 1/2)")
    verdict("8b frame-variation-forms", worst_frame, 1e-8)
    verdict("8c proof-identities", worst_proof, 1e-9)


def test_criterion_9_recovery(vector):
    spec, seq, ctx, f, res, _ = vector
    k = np.diag([1.3 + 0.1j, 0.8, 1.0 / (0.9 - 0.2j)])
    chk = stabilizer_k_check(res, k)
    out = vector_akns_recovery(res, chk["result_k"])
    assert not out["degenerate"]
    degenerate = vector_akns_recovery(
        factorize_jet(spec, seq, ctx, Series.identity(ctx), V=res.V))
    assert degenerate["degenerate"]
    verdict("9 recovery", max(out["recovery_q"], out["recovery_r"]), 1e-6,
            extra=f"K-invariance {out['k_invariance']:.1e}; "
                  "u = 0 reported degenerate")
    assert out["k_invariance"] < 1e-8


def test_criterion_10_kernel_properties():
    ctx = JetContext((), 0, 2, -18, 6)
    worst_jac = 0.0
    worst_compat = 0.0
    worst_ad = 0.0
    worst_der = 0.0
    for seed in (1, 2, 3):
        gen = rng(seed)
        x = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
        y = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
        z = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
        worst_jac = max(worst_jac, abs(
            cocycle(commutator(x, y), z).coeff(0)
            + cocycle(commutator(y, z), x).coeff(0)
            + cocycle(commutator(z, x), y).coeff(0)))
        worst_compat = max(worst_compat,
                           abs(cocycle(x.plus(), y.plus()).coeff(0)),
                           abs(cocycle(x.minus(), y.minus()).coeff(0)))
        for k in (-1, 0, 1):
            worst_ad = max(worst_ad, abs(
                pairing_k(commutator(z, x), y, k).coeff(0)
                + pairing_k(x, commutator(z, y), k).coeff(0)))
        worst_der = max(worst_der, (
            (x * y).dlambda() - x.dlambda() * y - x * y.dlambda()).max_abs())
    # window deepening leaves trusted coefficients fixed
    gen = rng(9)
    da = random_laurent_dict(gen, 2, -8, 2)
    db = random_laurent_dict(gen, 2, -8, 2)
    shallow = JetContext((), 0, 2, -8, 2)
    deep = JetContext((), 0, 2, -20, 2)
    cs = series_mul(series_from_dict(shallow, da, exact=False),
                    series_from_dict(shallow, db, exact=False))
    cd = series_mul(series_from_dict(deep, da, exact=False),
                    series_from_dict(deep, db, exact=False))
    worst_win = max(np.abs(cs.coeff(0, k) - cd.coeff(0, k)).max()
                    for k in range(cs.trusted_lo, 3))
    verdict("10 kernel-properties",
            max(worst_jac / 1e-9, worst_compat / 1e-12, worst_ad / 1e-9,
                worst_der / 1e-12, worst_win / 1e-12), 1.0,
            extra=f"jacobi {worst_jac:.1e}, compat {worst_compat:.1e}, "
                  f"ad-inv {worst_ad:.1e}, derivation {worst_der:.1e}, "
                  f"window {worst_win:.1e}")
