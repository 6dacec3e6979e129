"""Hierarchy tests: vacuum frames, the vector AKNS recursion, flow forms."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from loopjet import JetContext, Series, ShapeError
from loopjet.checks import detect
from loopjet.hierarchy import (LaxFlows, akns_sequence, gl_sequence,
                               kdv_sequence, lax_bracket, odd_akns_sequence,
                               q_recursion_vector_akns, vacuum_frame)
from loopjet.splitting import SplitMix64, SplittingSpec, sample_negative_element
from loopjet.scattering import factorize_jet
from loopjet.scenario import Scenario, ScenarioConfig, _Runner

from helpers import repeated_products, rng

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_vacuum_frame_single_generator():
    seq = akns_sequence(2, 1)
    ctx = JetContext(seq.variables, 1, 2, -8, 4)
    v = vacuum_frame(seq, ctx)
    assert np.abs(v.coeff((0,), 0) - np.eye(2)).max() < 1e-15
    assert np.abs(v.coeff((1,), 1) - seq.a).max() < 1e-15


def test_vacuum_frame_ode_all_families():
    for seq in (akns_sequence(2, 3), akns_sequence(3, 2),
                gl_sequence([1.0, -0.5 + 0.4j], 2), kdv_sequence(2),
                odd_akns_sequence(np.diag([1.0, -1.0]), 2)):
        ctx = seq.context(2)
        assert seq.commutation_defect(ctx) < 1e-12
        v = vacuum_frame(seq, ctx)
        assert np.abs(v.coeff((0,) * len(seq.variables), 0)
                      - np.eye(seq.n)).max() < 1e-14
        for var in seq.variables:
            jv = seq.generator(ctx, var)
            assert (v.partial(var) - jv * v).max_abs() < 1e-12


def _random_u(seq, ctx, seed, scale=0.5):
    gen = SplitMix64(seed)
    mask = seq.y_shape_mask()
    out = Series.zeros(ctx)
    for row in range(ctx.T):
        m = np.zeros((ctx.n, ctx.n), dtype=complex)
        for i in range(ctx.n):
            for j in range(ctx.n):
                if mask[i, j]:
                    m[i, j] = gen.complex_entry(scale)
        out = out + Series.monomial(ctx, m, alpha=row)
    return out


def test_q_recursion_closed_forms():
    for n in (2, 3):
        seq = akns_sequence(n, 1)
        ctx = seq.context(3)
        u = _random_u(seq, ctx, seed=n)
        q, P, T = q_recursion_vector_akns(seq, u, 2)
        assert np.abs(P[0].coeff(0, 0) - u.coeff(0, 0)).max() == 0.0
        a_s = Series.monomial(ctx, seq.a)
        ux = u.partial("t1")
        qm1 = (a_s * (ux.scale(-1.0) + u * u)).scale(0.5)
        assert (P[1] + T[1] - qm1).max_abs() < 1e-13
        uxx = ux.partial("t1")
        qm2 = (uxx.scale(-0.25) + (u * u * u).scale(0.5)
               - (u * ux - ux * u).scale(0.25))
        assert (P[2] + T[2] - qm2).max_abs() < 1e-13
        # conjugacy within the computed depth
        lam2 = Series.from_degree_matrices(ctx, {2: np.eye(n)})
        qq = (q * q + lam2).restrict_degrees(-1, ctx.hi)
        assert qq.max_abs() < 1e-12
        # the Lax bracket annihilates to the available depth
        qx, c = lax_bracket(seq, u, q)
        lb = (qx - c).restrict_degrees(-1, ctx.hi)
        assert lb.max_abs() < 1e-12


def test_q_recursion_vacuum_normalization():
    seq = akns_sequence(2, 1)
    ctx = seq.context(2)
    q, P, T = q_recursion_vector_akns(seq, Series.zeros(ctx), 3)
    expect = Series.from_degree_matrices(ctx, {1: seq.a})
    assert (q - expect).max_abs() == 0.0


def test_q_recursion_rejects_bad_shape():
    seq = akns_sequence(2, 1)
    ctx = seq.context(2)
    bad = Series.monomial(ctx, np.diag([1.0, 2.0]))
    with pytest.raises(ShapeError):
        q_recursion_vector_akns(seq, bad, 1)


def test_trace_g1_exact():
    seq = akns_sequence(3, 1)
    gen = rng(7)
    for _ in range(5):
        v = np.zeros((3, 3), dtype=complex)
        v[:2, 2] = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        v[2, :2] = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        assert abs(np.trace(v @ seq.a @ v)) < 1e-13


def test_flow_rhs_first_flow_is_translation_and_vacuum_stationary():
    spec = SplittingSpec("standard", 2)
    seq = akns_sequence(2, 2)
    ctx = seq.context(3)
    f = sample_negative_element(spec, ctx, seed=3, depth=2, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    q = res.q_series()
    r1 = LaxFlows(seq, res.u, q).rhs("t1")
    assert (r1 - seq.partial_x(res.u)).max_abs() < 1e-12
    # vacuum data: u = 0, Q = J_1, all flows stationary
    zero_u = Series.zeros(ctx)
    j1 = seq.j1(ctx)
    for var in seq.variables:
        assert LaxFlows(seq, zero_u, j1).rhs(var).max_abs() < 1e-14


def test_flow_rhs_validates_lax_precondition():
    seq = akns_sequence(2, 2)
    ctx = seq.context(2)
    bad_q = Series.from_degree_matrices(ctx, {1: seq.a, 0: np.eye(2)})
    u = _random_u(seq, ctx, seed=9)
    with pytest.raises(ShapeError):
        LaxFlows(seq, u, bad_q).rhs("t2")


def test_mixed_partials_commute_exactly():
    spec = SplittingSpec("standard", 2)
    seq = akns_sequence(2, 3)
    ctx = seq.context(3)
    f = sample_negative_element(spec, ctx, seed=13, depth=2, amplitude=0.3)
    u = factorize_jet(spec, seq, ctx, f).u
    a = u.partial("t1").partial("t2")
    b = u.partial("t2").partial("t1")
    assert (a - b).max_abs() == 0.0


def test_vector_nls_and_vector_mkdv_restrictions():
    from loopjet.hierarchy import named_flow_residual
    from loopjet.scattering import reality_propagation_check
    seq = akns_sequence(3, 3)
    ctx = seq.context(4)
    spec = SplittingSpec("u_real", 3)
    f = sample_negative_element(spec, ctx, seed=81, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    assert reality_propagation_check(res)["r_equals_minus_q_conj_t"] < 1e-9
    for chk in named_flow_residual(seq, res.u, "vector_nls", "u_real"):
        assert chk.residual < 1e-8

    seqm = odd_akns_sequence(np.diag([1j, 1j, -1j]), 2)
    specm = SplittingSpec("tau_sigma", 3, sigma_mode="transpose_inv")
    ctxm = seqm.context(4)
    fm = sample_negative_element(specm, ctxm, seed=91, depth=3, amplitude=0.3)
    resm = factorize_jet(specm, seqm, ctxm, fm)
    u = resm.u
    uq = u.block_mask(range(2), [2])
    ur = u.block_mask([2], range(2))
    assert (uq + ur.transpose()).max_abs() < 1e-9   # q = -r^t
    assert (u - u.conj_coeffs()).max_abs() < 1e-9   # real entries
    for chk in named_flow_residual(seqm, resm.u, "vector_mkdv", "tau_sigma"):
        assert chk.residual < 1e-8
        assert chk.sign == 1  # the derived orientation is built in here


def test_partial_x_commutes_with_entry_reads_exactly():
    # d/dx of the gl family is a three-term x-combination; the one d/dx
    # gives bit-identical results on a matrix jet and on its scalar entries
    seq = gl_sequence([1.0, -0.4 + 0.8j, 0.2 - 1.1j], 2)
    ctx = seq.context(3)
    f = sample_negative_element(SplittingSpec("standard", 3), ctx, 5, 3, 0.3)
    u = factorize_jet(SplittingSpec("standard", 3), seq, ctx, f).u
    ux = seq.partial_x(u)
    for i in range(3):
        for j in range(3):
            a = ux.entry_jet(i, j, 0)
            b = seq.partial_x(u.entry_jet(i, j, 0))
            assert a.vorder == b.vorder
            assert np.array_equal(a.slabs[0], b.slabs[0])
    assert ux.max_abs() > 0.0


def test_flows_suite_makes_no_repeat_product():
    # the Lax condition is checked once per (u, Q) and the powers of Q are
    # shared by the variables
    raw = json.loads((CONFIGS / "gl3_full.json").read_text())
    cfg = ScenarioConfig.from_dict(dict(raw, order=2, suites=["flows"]))
    runner = _Runner(Scenario(cfg))
    runner._ensure_factorized()
    with repeated_products() as count:
        runner._suite_flows()
    assert count["products"] > 0
    assert count["repeats"] == 0


def test_detect_takes_the_first_candidate_on_an_exact_tie():
    # every detected convention (flow signs, bracket orientation, kappa,
    # the gl scaling, the Theorem 7.6 coefficients) comes from this rule
    assert detect({1: 0.5, -1: 0.5}) == (1, 0.5, 0.5)
    assert detect({"a": 2.0, "b": 1.0, "c": 1.0}) == ("b", 1.0, 1.0)
    assert detect({"a": 3.0, "b": 1.0, "c": 2.0}) == ("b", 1.0, 2.0)
