"""Scattering tests: the factorization recursion, its oracle, invariances."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

import loopjet.hierarchy as hierarchy
import loopjet.series as series
from loopjet import JetContext, Series, ShapeError, WindowExhausted
from loopjet.hierarchy import akns_sequence, gl_sequence, kdv_sequence
from loopjet.scattering import (e_ode_defect, factorize_jet, factorize_oracle,
                                frame_variation_defect, lax_residual,
                                m_ode_defect, reality_propagation_check,
                                stabilizer_h_check, stabilizer_k_check)
from loopjet.scenario import Scenario, ScenarioConfig, _Runner
from loopjet.series import exp_series
from loopjet.splitting import SplittingSpec, sample_negative_element
from loopjet.tau import ln_tau_jet
from loopjet.virasoro import VirasoroFields, eps_perturbed_result, gamma_xi0

from helpers import dense, gl_power_sequence, same_value

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

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
    assert (res.M - f).max_abs() < 1e-12
    expect_u = Series.monomial(ctx, 2j * E21)
    assert (res.u - expect_u).max_abs() < 1e-12
    lax = lax_residual(res)
    assert lax["defining"] < 1e-12


def test_recursion_matches_direct_splitting_oracle():
    spec, seq, ctx, f = akns_setup()
    res = factorize_jet(spec, seq, ctx, f)
    oracle = factorize_oracle(seq, ctx, f)
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
    res_eps = factorize_jet(spec, seq, ctx, f.with_eps(df))
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
    c = [1.0, -0.4 + 0.8j, 0.2 - 1.1j]
    seq_t = gl_sequence(c, 2)
    seq_s = gl_power_sequence(c, 2)
    ctx_t = seq_t.context(2)
    ctx_s = JetContext(seq_s.variables, 2, 3, ctx_t.lo, ctx_t.hi)
    spec = SplittingSpec("standard", 3)

    def run(seq, ctx):  # the same datum, sampled in each context
        f = sample_negative_element(spec, ctx, seed=5, depth=3, amplitude=0.3)
        return factorize_jet(spec, seq, ctx, f)

    rt, rs = run(seq_t, ctx_t), run(seq_s, ctx_s)

    def chain(u_t, i, j):
        out = None
        for k in range(1, 4):
            term = u_t.partial(f"t{k}_{j}") * (c[k - 1] ** i)
            out = term if out is None else out + term
        return out

    worst = 0.0
    zero_t = (0,) * len(ctx_t.variables)
    zero_s = (0,) * len(ctx_s.variables)
    for i in range(1, 4):
        for j in range(1, 3):
            dus = rs.u.partial(f"s{i}_{j}")
            dut = chain(rt.u, i, j)
            worst = max(worst, float(np.abs(dus.coeff(zero_s, 0)
                                            - dut.coeff(zero_t, 0)).max()))
            for i2 in range(1, 4):
                d2s = dus.partial(f"s{i2}_1")
                d2t = None
                for k in range(1, 4):
                    term = dut.partial(f"t{k}_1") * (c[k - 1] ** i2)
                    d2t = term if d2t is None else d2t + term
                worst = max(worst, float(np.abs(d2s.coeff(zero_s, 0)
                                                - d2t.coeff(zero_t, 0)).max()))
    assert worst < 1e-9


def test_j1_and_q_are_the_x_combination_bit_for_bit():
    # J_1 and Q = M J_1 M^-1 are the x-combination of the generators and of
    # the conjugated generators; they equal the per-family values bit for
    # bit, and a coefficient of 1 keeps the cached conjugate itself
    c = [1.0, -0.4 + 0.8j, 0.2 - 1.1j]
    cases = [(SplittingSpec("standard", 2), akns_sequence(2, 2)),
             (SplittingSpec("kdv_twisted", 2), kdv_sequence(2)),
             (SplittingSpec("standard", 3), gl_sequence(c, 2))]
    for spec, seq in cases:
        ctx = seq.context(2)
        f = sample_negative_element(spec, ctx, seed=5, depth=2, amplitude=0.3)
        res = factorize_jet(spec, seq, ctx, f)
        if seq.family == "akns":
            q = res.conjugated_base("J1")
            j1 = Series.from_degree_matrices(ctx, {1: seq.a})
            assert res.q_series() is q
        elif seq.family == "kdv":
            q = res.conjugated_base("J")
            j1 = seq.base_series(ctx, "J")
        else:
            q = None
            for k, ck in enumerate(seq.c, start=1):
                term = res.conjugated_base(f"e{k}") * ck
                q = term if q is None else q + term
            j1 = Series.from_degree_matrices(ctx, {1: np.diag(seq.c)})
        assert same_value(res.q_series(), q), seq.family
        assert same_value(seq.j1(ctx), j1), seq.family


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
    ext = factorize_jet(spec, seq, ctx, f.with_eps(df))
    exact = ext.u.eps_part()
    h = 1e-5
    up = factorize_jet(spec, seq, ctx, f + df.scale(h)).u
    dn = factorize_jet(spec, seq, ctx, f - df.scale(h)).u
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
    x1 = ln_tau_jet(res)
    x2 = ln_tau_jet(res_deep)
    worst = max(worst, max(abs(x1.coeff(i) - x2.coeff(i))
                           for i in range(ctx.T)))
    assert worst < 1e-12


# -- eps refactorization along a base result --------------------------------

def _scenario(name: str, order: int | None = None) -> Scenario:
    cfg = ScenarioConfig.from_dict(
        json.loads((CONFIGS / f"{name}.json").read_text()))
    if order is not None:
        cfg.order = order
    return Scenario(cfg)


@pytest.fixture(scope="module", params=[("akns_standard", None),
                                        ("gl3_full", 2)],
                ids=["akns_standard", "gl3_order2"])
def scen(request):
    return _scenario(*request.param)


@pytest.fixture(scope="module", params=[("akns_standard", None),
                                        ("gl3_full", 3)],
                ids=["akns_standard", "gl3_order3"])
def scen3(request):
    return _scenario(*request.param)


def test_eps_runs_along_a_base_equal_runs_from_scratch(scen3):
    s = scen3
    res = factorize_jet(s.spec, s.seq, s.ctx, s.f)
    for ell, gamma in ((1, None), (2, gamma_xi0(s.ctx.n))):
        df = VirasoroFields(s.f)(ell, gamma)
        along = eps_perturbed_result(res, df)
        scratch = factorize_jet(s.spec, s.seq, s.ctx,
                                res.f.base_part().with_eps(df))
        assert along.base is res and scratch.base is None
        for name in ("M", "Minv", "E", "u", "v", "vfinv"):
            if getattr(scratch, name) is not None:
                assert same_value(getattr(along, name),
                                  getattr(scratch, name)), (ell, name)
        assert same_value(along.q_series(), scratch.q_series())
        assert same_value(along.xi, scratch.xi)
        assert same_value(ln_tau_jet(along).eps_part(),
                          ln_tau_jet(scratch).eps_part())
    # the base values are the base result's own
    for name in ("M", "Minv", "vfinv"):
        assert getattr(along, name).slabs[0] is getattr(res, name).slabs[0]


def test_base_run_values_at_every_order_are_grades_of_its_final_ones(scen3):
    # rebuilt as the base run builds them, each order's capped M^-1 and
    # M J M^-1, order 1's included, are the rows of grade <= cap of the
    # final values, which an eps run reads off its base at every order
    s = scen3
    ctx = s.ctx
    res = factorize_jet(s.spec, s.seq, ctx, s.f)

    def rows_of(x, cap, vorder):
        rows = np.arange(ctx.upto[cap])
        return Series.from_rows(ctx, rows, x, rows, vorder=vorder)

    Minv = None
    for ell in range(1, ctx.order + 1):
        cap = ell - 1
        M = rows_of(res.M, cap, res.M.vorder)
        Minv = M.inv(cap, start=Minv)
        assert same_value(Minv, rows_of(res.Minv, cap, cap)), ell
        for key in s.seq.bases:
            conj = M.matmul(s.seq.base_series(ctx, key), cap).matmul(Minv, cap)
            assert same_value(conj, rows_of(res.conjugated_base(key), cap,
                                            cap)), (ell, key)


def test_every_eps_run_makes_the_same_products(monkeypatch, scen3):
    s = scen3
    res = factorize_jet(s.spec, s.seq, s.ctx, s.f)
    # the base result's own memos that eps runs read are built by their
    # first reader, as the suites build them before any eps run
    ln_tau_jet(res)
    for key in s.seq.bases:
        res.conjugated_base(key)
    slab_mul = series._slab_mul
    calls = []

    def counted(ctx, a, b, cap=None, want=None):
        live = bool(len(a.data) and len(b.data))  # neither is zero
        calls.append((live, live and not (a.jet_const() or b.jet_const())))
        return slab_mul(ctx, a, b, cap, want)

    monkeypatch.setattr(series, "_slab_mul", counted)

    def run(df):
        calls.clear()
        ln_tau_jet(eps_perturbed_result(res, df))
        return list(calls)

    # along a zero direction every tangent is certified zero, so a live
    # product is a product of base values: none takes the general path
    zero = Series.zeros(s.ctx)
    first, second = run(zero), run(zero)
    assert first == second
    assert not any(general for _, general in first)
    df = VirasoroFields(s.f)(1)
    first, second = run(df), run(df)
    assert first == second and any(general for _, general in first)


@pytest.mark.parametrize("name,order", [("akns_standard", None),
                                        ("gl3_full", 3)])
def test_reduced_frame_inverse_is_at_rounding_level_per_grade(name, order):
    # M^-1 is solved grade by grade from its polished row 0 on: at every
    # jet grade M M^-1 and M^-1 M are the identity to two ulps
    s = _scenario(name, order)
    res = factorize_jet(s.spec, s.seq, s.ctx, s.f)
    ident = Series.identity(s.ctx)
    for x, y in ((res.M, res.Minv), (res.Minv, res.M)):
        r = dense((x * y - ident).slabs[0])
        for g in range(s.ctx.order + 1):
            assert np.abs(r[s.ctx.totals == g]).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_f_inverse_is_at_rounding_level(name):
    # f^-1 (read by V f^-1, E and the Virasoro fields) is the polished row-0
    # inverse that M^-1 starts from: f f^-1 and f^-1 f are the identity to
    # two ulps on every shipped config
    s = _scenario(name)
    f = s.f
    ident = Series.identity(s.ctx)
    for x, y in ((f, f.inv()), (f.inv(), f)):
        r = dense((x * y - ident).slabs[0])
        assert np.abs(r).max() <= 2 * np.finfo(float).eps


def test_vacuum_frame_is_built_once_per_context(monkeypatch):
    # a whole gl3_full run, and any factorization or oracle in its context
    # after it, reads the one frame of the context
    built = []
    build = hierarchy.vacuum_frame

    def counted(seq, ctx):
        built.append(ctx)
        return build(seq, ctx)

    monkeypatch.setattr(hierarchy, "vacuum_frame", counted)
    s = _scenario("gl3_full")
    runner = _Runner(s)
    assert runner.run().passed
    assert built == [s.ctx]
    assert runner.result.V is s.seq.frame(s.ctx)
    factorize_oracle(s.seq, s.ctx, s.f)
    factorize_jet(s.spec, s.seq, s.ctx, s.f)
    assert built == [s.ctx]
    other = s.seq.context(s.ctx.order - 1, (s.ctx.lo, s.ctx.hi))
    assert s.seq.frame(other) is s.seq.frame(other)
    assert built == [s.ctx, other]


def test_mismatched_base_is_refused(scen):
    s = scen
    res = factorize_jet(s.spec, s.seq, s.ctx, s.f)
    df = VirasoroFields(s.f)(0)
    f0 = res.f.base_part()
    other = sample_negative_element(s.spec, s.ctx, seed=s.cfg.f_seed + 1,
                                    depth=3, amplitude=0.3)
    # the datum and direction again, in a context of one order less
    low = JetContext(s.ctx.variables, s.ctx.order - 1, s.ctx.n, s.ctx.lo,
                     s.ctx.hi)
    f_low = sample_negative_element(s.spec, low, s.cfg.f_seed,
                                    s.cfg.f_depth, s.cfg.f_amplitude)
    attempts = {
        "f": lambda: factorize_jet(s.spec, s.seq, s.ctx, other.with_eps(df),
                                   base=res),
        "var_choice": lambda: factorize_jet(
            s.spec, s.seq, s.ctx, f0.with_eps(df), var_choice="last",
            base=res),
        "context": lambda: factorize_jet(
            s.spec, s.seq, low, f_low.with_eps(VirasoroFields(f_low)(0)),
            base=res),
        "no tangent": lambda: factorize_jet(s.spec, s.seq, s.ctx, f0,
                                            base=res),
    }
    for attempt in attempts.values():
        with pytest.raises(ShapeError, match="along this base"):
            attempt()
    eps = eps_perturbed_result(res, df)
    with pytest.raises(ShapeError, match="along this base"):
        eps_perturbed_result(eps, df)
