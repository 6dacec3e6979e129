"""Virasoro tests: fields, brackets, induced variations, the operator form."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from loopjet import JetContext, Series, ShapeError
from loopjet.context import Memo
from loopjet.hierarchy import VacuumSequence, akns_sequence, gl_sequence
from loopjet.scattering import FactorizationResult, factorize_jet
from loopjet.scenario import Scenario, ScenarioConfig
from loopjet.splitting import SplittingSpec, sample_negative_element
from loopjet.tau import ln_tau_jet
from loopjet.virasoro import (VirasoroFields, _conjugated_operand,
                              bracket_defect, c_ell_const_defect, datum_fields,
                              eps_perturbed_result, eta_bracket_defect,
                              eta_tangency_defect, gamma_xi0,
                              gl_frame_variation, induced_frame_variation,
                              induced_lntau_variation, masked_scalar_defect,
                              proof_identities_check, script_j, tangency_defect,
                              theorem76_operator, thm56_defect,
                              zeta_v_formula)

from helpers import repeated_products, same_value

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

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
    f = sample_negative_element(spec, ctx, seed=11, depth=3, amplitude=0.3)
    res = factorize_jet(spec, seq, ctx, f)
    return spec, seq, ctx, f, res, ln_tau_jet(res)


def test_field_trivial_and_fixture_values():
    ctx = fctx()
    ident = Series.identity(ctx)
    for ell in (-1, 0, 2):
        assert VirasoroFields(ident)(ell).max_abs() == 0.0
    f = ident + Series.monomial(ctx, E21, -1)
    z_m1 = VirasoroFields(f)(-1)
    assert (z_m1 - Series.monomial(ctx, E21, -2)).max_abs() < 1e-13
    z_0 = VirasoroFields(f)(0)
    assert (z_0 - Series.monomial(ctx, E21, -1)).max_abs() < 1e-13


def test_tangency(f2):
    for gamma in (None, gamma_xi0(2)):
        for ell in (-1, 0, 1, 2, 3):
            assert tangency_defect(VirasoroFields(f2), ell, gamma) < 1e-13


def test_bracket_relations(f2):
    for gamma in (None, gamma_xi0(2)):
        assert bracket_defect(VirasoroFields(f2), (-1, 0, 1, 2, 3),
                              gamma) < 1e-8


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
        field = lambda g, ell: VirasoroFields(g)(ell, gamma)  # noqa: E731
        ref = max(_pairwise_bracket(field, f2, j, k)
                  for j in ells for k in ells)
        assert bracket_defect(VirasoroFields(f2), ells, gamma) == ref
    spec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    f3 = sample_negative_element(spec, fctx(n=3), seed=71, depth=3,
                                 amplitude=0.3)
    eta = lambda g, j: VirasoroFields(g).eta(j)  # noqa: E731
    ref = max(_pairwise_bracket(eta, f3, j, k)
              for j in (0, 1) for k in (0, 1))
    assert eta_bracket_defect(VirasoroFields(f3), (0, 1)) == ref


def test_bracket_diagonal_trivial(f2):
    assert bracket_defect(VirasoroFields(f2), [-1], None) < 1e-14
    assert bracket_defect(VirasoroFields(f2), [2], gamma_xi0(2)) < 1e-14


def test_c_ell_values(f2):
    ctx = fctx()
    ident = Series.identity(ctx)
    for ell in (-1, 0, 1, 2, 3):
        assert abs(VirasoroFields(ident).c_ell(ell)) == 0.0
        if ell <= 1:
            assert abs(VirasoroFields(f2).c_ell(ell)) < 1e-13
    nil = ident + Series.monomial(ctx, E21, -1)
    assert abs(VirasoroFields(nil).c_ell(3)) < 1e-15
    # brute-force coefficient oracle
    x = f2.dlambda() * f2.inv()
    coeffs = {k: x.coeff(0, k) for k in range(ctx.lo + 8, 0)}
    for ell in (2, 3):
        want = 0j
        for ka, ma in coeffs.items():
            for kb, mb in coeffs.items():
                if ka + kb == -(ell + 2):
                    want += np.trace(ma @ mb)
        assert abs(VirasoroFields(f2).c_ell(ell) - want) < 1e-12


def test_eta_tangency_and_bracket():
    spec = SplittingSpec("sigma_twisted", 3, sigma_mode="transpose_inv")
    ctx = fctx(n=3)
    f = sample_negative_element(spec, ctx, seed=71, depth=3, amplitude=0.3)
    fields = VirasoroFields(f)
    for j in (0, 1, 2):
        assert eta_tangency_defect(spec, fields, j) < 1e-9
    assert eta_bracket_defect(fields, (0, 1)) < 1e-8
    # eta = zeta_{2j}/2 by definition
    assert (fields.eta(1) - fields(2).scale(0.5)).max_abs() == 0.0


def test_script_j_is_log_derivative_of_vacuum(gl2_setup):
    _, _, _, _, res, _ = gl2_setup
    sj = script_j(res)
    lam_v = (res.V.dlambda() * res.V.inv()).shift(1)
    assert (sj - lam_v).max_abs() < 1e-12


def test_frame_and_lntau_variations_both_gammas(gl2_setup):
    _, _, _, f, res, _ = gl2_setup
    for gamma in (None, gamma_xi0(2)):
        for ell in (-1, 1, 3):
            eps = eps_perturbed_result(res, VirasoroFields(f)(ell, gamma))
            fv = induced_frame_variation(res, ell, gamma)
            fv_eps = eps.M.eps_part() * eps.M.base_part().inv()
            assert (fv - fv_eps).max_abs() < 1e-8
            lt = induced_lntau_variation(res, ell, gamma)
            lt_eps = ln_tau_jet(eps).eps_part()
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
        z = VirasoroFields(f)(ell) * f.inv()
        zero = (0,) * len(ctx.variables)
        for k in range(-4, 0):
            assert np.abs(fv.coeff(zero, k) - z.coeff(0, k)).max() < 1e-12


def test_thm56_general_variation(gl2_setup):
    spec, seq, ctx, f, res, _ = gl2_setup
    df = sample_negative_element(SplittingSpec("standard", 2), ctx,
                                 seed=99, depth=2, amplitude=0.2) \
        - Series.identity(ctx)
    assert thm56_defect(eps_perturbed_result(res, df)) < 1e-9


def test_theorem76_operator_routes(gl2_setup):
    _, _, _, f, res, _ = gl2_setup
    for ell in (-1, 0, 1, 2, 3):
        lt = induced_lntau_variation(res, ell, None)
        op, masked = theorem76_operator(res, ell)
        assert not masked
        assert (op - lt).max_abs() < 1e-7
        op_jet, masked = theorem76_operator(res, ell, partials="jet")
        assert masked_scalar_defect(op_jet, lt, masked) < 1e-7
    # the stated quadratic coefficient (1 instead of 1/2) fails for l >= 2
    lt = induced_lntau_variation(res, 3, None)
    op_bad, _ = theorem76_operator(res, 3, coefficients="printed")
    assert (op_bad - lt).max_abs() > 1e-3


def test_trivial_data_gives_zero_operator():
    seq = gl_sequence([1.0, -0.7 + 0.3j], 2)
    ctx = seq.context(2)
    spec = SplittingSpec("standard", 2)
    res = factorize_jet(spec, seq, ctx, Series.identity(ctx))
    for ell in (-1, 0, 2):
        op, _ = theorem76_operator(res, ell)
        assert op.max_abs() < 1e-13
        assert induced_lntau_variation(res, ell, None).max_abs() < 1e-13


def test_c_ell_t_independence(gl2_setup):
    _, _, _, _, res, _ = gl2_setup
    assert c_ell_const_defect(res, (-1, 0, 1, 2, 3)) < 1e-9


def test_proof_identities(gl2_setup):
    _, _, _, _, res, _ = gl2_setup
    for i in (1, 2):
        out = proof_identities_check(res, i)
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
    df = VirasoroFields(f2)(1)
    exact = directional_derivative(lambda g: VirasoroFields(g)(2), f2, df)
    h = 1e-5
    plus = VirasoroFields(f2 + df.scale(h))(2)
    minus = VirasoroFields(f2 - df.scale(h))(2)
    fd = (plus - minus).scale(1.0 / (2 * h))
    scale = max(exact.max_abs(), 1.0)
    assert (exact - fd).max_abs() / scale < 1e-6


@pytest.fixture(scope="module")
def gl3_order2():
    raw = json.loads((CONFIGS / "gl3_full.json").read_text())
    scen = Scenario(ScenarioConfig.from_dict(dict(raw, order=2)))
    res = factorize_jet(scen.spec, scen.seq, scen.ctx, scen.f)
    return scen, res, ln_tau_jet(res)


def test_proof_identities_make_no_repeat_product(gl3_order2):
    scen, res, _ = gl3_order2
    with repeated_products() as count:
        for i in range(1, scen.ctx.n + 1):
            proof_identities_check(res, i)
    assert count["products"] > 0
    assert count["repeats"] == 0


def test_virasoro_l_loop_makes_no_repeat_product(gl3_order2):
    # what the Virasoro suite builds for each l: the fields and their
    # tangency at f, the gl frame-variation forms and the constants c_l
    scen, res, _ = gl3_order2
    with repeated_products() as count:
        fields = datum_fields(res)
        for gamma in (None, gamma_xi0(scen.ctx.n)):
            for ell in scen.cfg.virasoro_ells:
                fields(ell, gamma)
                tangency_defect(fields, ell, gamma)
                if gamma is None:
                    gl_frame_variation(res, ell)
                    zeta_v_formula(res, ell)
                    fields.c_ell(ell)
        c_ell_const_defect(res, scen.cfg.virasoro_ells)
    assert count["products"] > 0
    assert count["repeats"] == 0


def test_one_memo(gl3_order2):
    # every holder of values built once per key uses the one Memo rule
    scen, res, _ = gl3_order2
    fields = datum_fields(res)
    holders = (scen.ctx, scen.seq, res, fields)
    assert [type(h) for h in holders] == [JetContext, VacuumSequence,
                                          FactorizationResult, VirasoroFields]
    own = {"_cache", "_cached", "inv_memo", "_steps", "_j1", "_frame"}
    for h in holders:
        assert isinstance(h, Memo) and type(h).cached is Memo.cached
        assert not own & set(vars(type(h)))
        assert not own & set(getattr(type(h), "__dataclass_fields__", {}))
        assert set(vars(h)) & own <= {"_cache"}
        first = h.cached("probe", object)
        assert h.cached("probe", object) is first
    ctx = scen.ctx
    assert scen.seq.j1(ctx) is scen.seq.j1(ctx)
    assert scen.seq.frame(ctx) is res.V
    assert ctx.integration_steps("last") is ctx.integration_steps("last")
    gamma = gamma_xi0(ctx.n)
    assert fields.operand(gamma) is fields.operand(gamma.copy())
    assert fields(2, gamma) is fields(2, gamma)


def _shipped(name: str) -> Scenario:
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    return Scenario(ScenarioConfig.from_dict(raw))


@pytest.mark.parametrize("name", ["gl3_full", "akns_standard"])
def test_operand_moves_no_bit(name):
    # Z_l(f) = -(lam**l X_Gamma(f))_- f is the two-shift form
    # -(lam**(l+1) f_lam f^-1 + lam**l f Gamma f^-1)_- f bit for bit, and the
    # conjugated operand is E (lam f_lam f^-1 + f Gamma f^-1) E^-1
    scen = _shipped(name)
    res = factorize_jet(scen.spec, scen.seq, scen.ctx, scen.f)
    fields = datum_fields(res)
    f, n = fields.f, scen.ctx.n
    for gamma in (None, gamma_xi0(n)):
        conj = (None if gamma is None else
                f * Series.monomial(scen.ctx, gamma) * fields.finv)
        for ell in range(-1, 4):
            x = fields.log.shift(ell + 1)
            if conj is not None:
                x = x + conj.shift(ell)
            assert same_value(fields(ell, gamma), -(x.minus()) * f)
        x = fields.log.shift(1)
        if conj is not None:
            x = x + conj
        assert same_value(_conjugated_operand(res, gamma),
                          res.E * x * res.Einv)


@pytest.mark.parametrize("name", ["gl3_order2", "akns_standard"])
def test_eps_refactorization_defers_frame_and_solution(request, name):
    scen = (request.getfixturevalue(name)[0] if name == "gl3_order2"
            else _shipped("akns_standard"))
    res = factorize_jet(scen.spec, scen.seq, scen.ctx, scen.f)
    fields = VirasoroFields(scen.f)
    df = fields(1)
    eps = eps_perturbed_result(res, df)
    # the run builds only M and M^-1
    deferred = ("vfinv", "E", "u", "v")
    assert not set(deferred) & (set(vars(eps).get("_cache", {}))
                                | set(vars(eps)))
    # read later, each equals its value in a run from scratch bit for bit
    scratch = factorize_jet(scen.spec, scen.seq, scen.ctx,
                            res.f.base_part().with_eps(df))
    for field in deferred:
        want, got = getattr(scratch, field), getattr(eps, field)
        assert got is None if want is None else same_value(got, want), field
    assert (eps.v is None) == (scen.seq.family != "gl")
    # and the read runs the spill checks: a reduced frame off by a constant
    # in its tangent gives E negative degrees and u_f a degree-one term
    bad = eps_perturbed_result(res, df)
    bump = np.arange(1, scen.ctx.n ** 2 + 1).reshape(scen.ctx.n, -1) * 0.1
    bad.M = bad.M + Series.zeros(scen.ctx).with_eps(
        Series.monomial(scen.ctx, bump.astype(complex)))
    with pytest.raises(ShapeError, match="frame E has negative degrees"):
        bad.E
    with pytest.raises(ShapeError, match="u_f has nonzero lambda degrees"):
        bad.u
