"""Kernel tests: Laurent/jet arithmetic, trust propagation, epsilon calculus."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopjet import (JetContext, ScalarJet, Series, ShapeError, TrustError,
                     WindowExhausted, cocycle, directional_derivative,
                     jet_exp, pairing_k, series_dlambda, series_inv,
                     series_mul)
from loopjet.context import NEG, POS
from loopjet.series import _cap_top, _finalize_tlo

from helpers import (conv_oracle, jet_conv_oracle, random_jet_series,
                     random_laurent_dict, random_matrix, rng, series_from_dict)

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def fctx(lo=-12, hi=6, n=2):
    return JetContext((), 0, n, lo, hi)


# -- series_mul --------------------------------------------------------------

def test_mul_identity_shift():
    ctx = fctx()
    lam = Series.monomial(ctx, np.eye(2), 1)
    lam_inv = Series.monomial(ctx, np.eye(2), -1)
    assert (lam * lam_inv - Series.identity(ctx)).max_abs() < 1e-15


def test_mul_nilpotent_cancellation():
    ctx = fctx()
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    g = Series.identity(ctx) - Series.monomial(ctx, E21, -1)
    assert (f * g - Series.identity(ctx)).max_abs() < 1e-15


def test_mul_matches_bruteforce_and_trusted_lo():
    gen = rng(123)
    ctx = JetContext((), 0, 2, -8, 2)
    da = random_laurent_dict(gen, 2, -8, 2)
    db = random_laurent_dict(gen, 2, -8, 2)
    A = series_from_dict(ctx, da, exact=False)
    B = series_from_dict(ctx, db, exact=False)
    C = series_mul(A, B)
    assert C.trusted_lo == -6
    oracle = conv_oracle(da, db)
    for k in range(-6, 3):
        assert np.abs(C.coeff(0, k) - oracle[k]).max() < 1e-12
    with pytest.raises(TrustError):
        C.coeff(0, -7)


def test_mul_trusted_window_sound_under_deepening():
    gen = rng(7)
    da = random_laurent_dict(gen, 2, -8, 2)
    db = random_laurent_dict(gen, 2, -8, 2)
    shallow = JetContext((), 0, 2, -8, 2)
    deep = JetContext((), 0, 2, -16, 2)
    cs = series_mul(series_from_dict(shallow, da, exact=False),
                    series_from_dict(shallow, db, exact=False))
    cd = series_mul(series_from_dict(deep, da, exact=False),
                    series_from_dict(deep, db, exact=False))
    for k in range(cs.trusted_lo, 3):
        assert np.abs(cs.coeff(0, k) - cd.coeff(0, k)).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_ring_laws(seed, n):
    gen = rng(seed)
    ctx = JetContext((), 0, n, -9, 3)
    a = series_from_dict(ctx, random_laurent_dict(gen, n, -3, 1))
    b = series_from_dict(ctx, random_laurent_dict(gen, n, -3, 1))
    c = series_from_dict(ctx, random_laurent_dict(gen, n, -3, 1))
    scale = max((a * b * c).max_abs(), 1.0)
    assert ((a * b) * c - a * (b * c)).max_abs() / scale < 1e-12
    assert (a * (b + c) - (a * b + a * c)).max_abs() / scale < 1e-12


def test_jet_ring_laws():
    ctx = JetContext(("t1", "t2"), 3, 2, -9, 4)
    gen = rng(11)
    a = random_jet_series(ctx, gen, -2, 1)
    b = random_jet_series(ctx, gen, -2, 1)
    c = random_jet_series(ctx, gen, -2, 1)
    scale = max((a * b * c).max_abs(), 1.0)
    assert ((a * b) * c - a * (b * c)).max_abs() / scale < 1e-12
    assert (a * (b + c) - (a * b + a * c)).max_abs() / scale < 1e-12


# -- series_inv --------------------------------------------------------------

def test_inv_nilpotent():
    ctx = fctx()
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    finv = series_inv(f)
    expect = Series.identity(ctx) - Series.monomial(ctx, E21, -1)
    assert (finv - expect).max_abs() < 1e-14
    # nilpotent termination keeps the inverse exact everywhere
    assert finv.trusted_lo == ctx.lo
    assert np.abs(finv.coeff(0, ctx.lo)).max() == 0.0


def test_inv_constant():
    ctx = fctx()
    f = Series.identity(ctx).scale(2.0)
    assert (series_inv(f) - Series.identity(ctx).scale(0.5)).max_abs() < 1e-15


def test_inv_geometric_matches_scalar_series():
    ctx = fctx(lo=-10)
    d = np.diag([1.0, 0.0]).astype(complex)
    f = Series.identity(ctx) + Series.monomial(ctx, d, -1)
    finv = series_inv(f)
    for k in range(0, 11):
        expect = (-1.0) ** k * d + (np.eye(2) - d) * (1.0 if k == 0 else 0.0)
        assert np.abs(finv.coeff(0, -k) - expect).max() < 1e-13
    assert (f * finv - Series.identity(ctx)).max_abs() < 1e-13


def test_inv_lplus_shape():
    ctx = fctx()
    f = Series.identity(ctx) + Series.monomial(ctx, np.diag([0.5, 0.25]).astype(complex), 1)
    finv = series_inv(f)
    assert ((f * finv) - Series.identity(ctx)).max_abs() < 1e-13
    with pytest.raises(TrustError):
        # true support extends past the window top: reads there must fail
        finv.coeff(0, ctx.hi + 1)


def test_inv_singular_and_mixed_shapes():
    ctx = fctx()
    with pytest.raises(ShapeError):
        series_inv(Series.monomial(ctx, E21, 0))
    mixed = (Series.identity(ctx) + Series.monomial(ctx, np.eye(2) * 0.3, 1)
             + Series.monomial(ctx, np.eye(2) * 0.3, -1))
    with pytest.raises(ShapeError):
        series_inv(mixed)


def test_jet_inverse():
    ctx = JetContext(("t1", "t2"), 3, 2, -12, 4)
    gen = rng(5)
    m = random_jet_series(ctx, gen, -2, 0, scale=0.3)
    a = Series.identity(ctx) + m
    ainv = a.inv()
    assert (a * ainv - Series.identity(ctx)).max_abs() < 1e-11


# -- derivative in lambda ------------------------------------------------------

def test_dlambda_basics():
    ctx = fctx()
    assert series_dlambda(Series.identity(ctx)).max_abs() == 0.0
    a = random_matrix(rng(3), 2)
    d = series_dlambda(Series.monomial(ctx, a, 2))
    assert np.abs(d.coeff(0, 1) - 2 * a).max() < 1e-15
    d2 = series_dlambda(Series.monomial(ctx, E21, -1))
    assert np.abs(d2.coeff(0, -2) + E21).max() < 1e-15


def test_dlambda_is_derivation():
    gen = rng(17)
    ctx = fctx(lo=-14)
    a = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    b = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    lhs = series_dlambda(a * b)
    rhs = series_dlambda(a) * b + a * series_dlambda(b)
    assert (lhs - rhs).max_abs() < 1e-12


# -- jets ---------------------------------------------------------------------

def test_jet_partial_and_monomials():
    ctx = JetContext(("t1", "t2"), 3, 2, -6, 3)
    a = random_matrix(rng(23), 2)
    x = Series.monomial(ctx, a, 0, alpha=(2, 0))  # t1^2 a
    d = x.jet_partial("t1")
    assert np.abs(d.coeff((1, 0), 0) - 2 * a).max() < 1e-15
    assert d.vorder == 2
    y = x.times_var("t2")
    assert np.abs(y.coeff((2, 1), 0) - a).max() < 1e-15


def test_jet_mul_matches_bruteforce():
    ctx = JetContext(("t1", "t2", "t3"), 3, 2, -6, 3)
    gen = rng(29)
    da = {tuple(ctx.midx[i]): random_matrix(gen, 2, 0.6) for i in range(ctx.T)}
    db = {tuple(ctx.midx[i]): random_matrix(gen, 2, 0.6) for i in range(ctx.T)}
    A = Series.zeros(ctx)
    B = Series.zeros(ctx)
    for al, m in da.items():
        A = A + Series.monomial(ctx, m, 0, alpha=al)
    for al, m in db.items():
        B = B + Series.monomial(ctx, m, 0, alpha=al)
    C = A * B
    oracle = jet_conv_oracle(da, db, ctx.order)
    for al, m in oracle.items():
        assert np.abs(C.coeff(al, 0) - m).max() < 1e-12


def test_jet_mul_nilpotent():
    ctx = JetContext(("t1",), 2, 2, -4, 2)
    a = random_matrix(rng(31), 2)
    one = Series.identity(ctx)
    ta = Series.monomial(ctx, a, 0, alpha=(1,))
    prod = (one + ta) * (one - ta)
    expect = one - Series.monomial(ctx, a @ a, 0, alpha=(2,))
    assert (prod - expect).max_abs() < 1e-14


def test_jet_exp():
    ctx = JetContext(("t1",), 2, 2, -4, 4)
    a = np.diag([1j, -1j])
    x = Series.monomial(ctx, a, 1, alpha=(1,))
    v = jet_exp(x)
    assert np.abs(v.coeff((0,), 0) - np.eye(2)).max() < 1e-15
    assert np.abs(v.coeff((1,), 1) - a).max() < 1e-15
    assert np.abs(v.coeff((2,), 2) - 0.5 * a @ a).max() < 1e-15
    assert (jet_exp(Series.zeros(ctx)) - Series.identity(ctx)).max_abs() == 0.0
    with pytest.raises(ShapeError):
        jet_exp(Series.identity(ctx))


def test_jet_exp_commuting_factorizes():
    ctx = JetContext(("t1", "t2"), 4, 2, -4, 12)
    a = np.diag([1j, -1j])
    x = Series.monomial(ctx, a, 1, alpha=(1, 0))
    y = Series.monomial(ctx, a, 3, alpha=(0, 1))
    assert (jet_exp(x + y) - jet_exp(x) * jet_exp(y)).max_abs() < 1e-12


# -- projections ----------------------------------------------------------------

def test_projections_split_exactly():
    gen = rng(37)
    ctx = fctx()
    x = series_from_dict(ctx, random_laurent_dict(gen, 2, -4, 3))
    assert (x.plus() + x.minus() - x).max_abs() == 0.0
    assert (x.plus().plus() - x.plus()).max_abs() == 0.0
    assert (x.minus().minus() - x.minus()).max_abs() == 0.0
    assert x.plus().minus().max_abs() == 0.0


def test_plus_projection_restores_trust():
    gen = rng(41)
    ctx = fctx()
    x = series_from_dict(ctx, random_laurent_dict(gen, 2, -4, 3), exact=False)
    lam3 = Series.monomial(ctx, np.eye(2), 3)
    eroded = x * lam3  # trusted only from lo+3 up
    with pytest.raises(TrustError):
        eroded.coeff(0, ctx.lo)
    restored = eroded.plus()
    assert restored.coeff(0, ctx.lo) is not None
    assert np.abs(restored.coeff(0, -1)).max() == 0.0


# -- pairings -------------------------------------------------------------------

def test_pairing_examples():
    ctx = fctx()
    gen = rng(43)
    a = random_matrix(gen, 2)
    b = random_matrix(gen, 2)
    assert abs(pairing_k(Series.monomial(ctx, a, 2), Series.monomial(ctx, b, -3), -1)
               .coeff(0) - np.trace(a @ b)) < 1e-13
    assert abs(pairing_k(Series.monomial(ctx, a, 1), Series.monomial(ctx, b, -1), -1)
               .coeff(0)) == 0.0


def test_pairing_shift_identity():
    gen = rng(47)
    ctx = fctx()
    x = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    y = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    lhs = pairing_k(x.shift(1), y, 0).coeff(0)
    rhs = pairing_k(x, y, -1).coeff(0)
    assert abs(lhs - rhs) < 1e-12


def test_cocycle_values():
    ctx = fctx()
    e11 = np.diag([1.0, 0.0]).astype(complex)
    up = Series.monomial(ctx, e11, 1)
    dn = Series.monomial(ctx, e11, -1)
    assert abs(cocycle(up, dn).coeff(0) - 1.0) < 1e-14
    assert abs(cocycle(dn, up).coeff(0) + 1.0) < 1e-14


# -- epsilon extension ------------------------------------------------------------

def test_directional_derivative_identity_and_square():
    gen = rng(53)
    ctx = fctx()
    f = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 0, 0.4))
    df = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 0, 0.4))
    out = directional_derivative(lambda g: g, f, df)
    assert (out - df).max_abs() == 0.0
    out2 = directional_derivative(lambda g: g * g, f, df)
    assert (out2 - (f * df + df * f)).max_abs() < 1e-13


def test_directional_derivative_inverse_vs_finite_differences():
    gen = rng(59)
    ctx = fctx(lo=-16)
    f = Series.identity(ctx) + series_from_dict(
        ctx, random_laurent_dict(gen, 2, -3, -1, 0.3))
    df = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, -1, 0.3))
    exact = directional_derivative(lambda g: g.inv(), f, df)
    closed = -(f.inv() * df * f.inv())
    assert (exact - closed).max_abs() < 1e-12
    h = 1e-5
    fd = ((f + df.scale(h)).inv() - (f + df.scale(-h)).inv()).scale(1.0 / (2 * h))
    scale = max(exact.max_abs(), 1.0)
    assert (exact - fd).max_abs() / scale < 1e-6


def test_eps_never_produces_second_order():
    gen = rng(61)
    ctx = fctx()
    f = series_from_dict(ctx, random_laurent_dict(gen, 2, -2, 0, 0.4))
    df = series_from_dict(ctx, random_laurent_dict(gen, 2, -2, 0, 0.4))
    ext = f.with_eps(df)
    sq = ext * ext
    # eps part of the square is f df + df f, never contains df df
    assert (sq.eps_part() - (f * df + df * f)).max_abs() < 1e-13
    assert sq.E == 2


# -- scalar jets --------------------------------------------------------------

def test_scalar_jet_algebra():
    ctx = JetContext(("t1", "t2"), 3, 1, -2, 2)
    t1 = ScalarJet(ctx, (np.eye(ctx.T, dtype=np.complex128)[ctx.index_of[(1, 0)]],),
                   ctx.order)
    prod = t1 * t1
    assert abs(prod.coeff((2, 0)) - 1.0) < 1e-15
    assert abs(prod.partial("t1").coeff((1, 0)) - 2.0) < 1e-15
    assert abs(t1.times_var("t2").coeff((1, 1)) - 1.0) < 1e-15


def test_series_mul_empty_trusted_window_raises():
    ctx = JetContext((), 0, 2, -4, 4)
    gen = rng(71)
    a = series_from_dict(ctx, random_laurent_dict(gen, 2, -4, 4), exact=False)
    b = a * a          # trusted floor rises, trusted top caps at the window
    with pytest.raises(WindowExhausted):
        series_mul(b, b)


# -- product kernel vs brute-force oracles --------------------------------------

class _Laurent:
    """Laurent coefficient dict whose ``@`` is the brute-force convolution,
    so ``jet_conv_oracle`` runs the jet and degree double sums together."""

    def __init__(self, coeffs: dict):
        self.coeffs = coeffs

    def __matmul__(self, other: "_Laurent") -> "_Laurent":
        return _Laurent(conv_oracle(self.coeffs, other.coeffs))

    def __add__(self, other: "_Laurent") -> "_Laurent":
        out = dict(self.coeffs)
        for k, m in other.coeffs.items():
            out[k] = out.get(k, 0) + m
        return _Laurent(out)

    def __radd__(self, other):  # the oracle starts each sum from 0
        return self if other == 0 else self + other


def _mixed_jet_operand(ctx, gen, dead_rows):
    """Series with its own degree range and exactness on every jet row; the
    ``dead_rows`` are then certified zero but keep stale non-zero data.
    Returns the series and the oracle dict of its live rows."""
    out = Series.zeros(ctx)
    live = {}
    for row in range(ctx.T):
        lo = int(gen.integers(-5, 1))
        hi = int(gen.integers(lo, 4))
        coeffs = random_laurent_dict(gen, ctx.n, lo, hi, 0.7)
        out = out + Series.from_degree_matrices(
            ctx, coeffs, alpha=row, exact=bool(gen.integers(2)))
        if row not in dead_rows:
            live[tuple(ctx.midx[row])] = _Laurent(coeffs)
    slab = out.slabs[0]
    for row in dead_rows:
        assert np.abs(slab.data[row]).max() > 0
        slab.shi[row], slab.slo[row] = NEG, POS
        slab.tlo[row], slab.thi[row] = NEG, POS
    return out, live


def _pair_table_bounds(ctx, a, b, top):
    """Degree bounds of a product from the pair table, one pair at a time."""
    shi = np.full(ctx.T, NEG, dtype=np.int64)
    slo = np.full(ctx.T, POS, dtype=np.int64)
    tlo = np.full(ctx.T, NEG, dtype=np.int64)
    thi = np.full(ctx.T, POS, dtype=np.int64)
    for ia, ib, ic in zip(ctx.pair_a, ctx.pair_b, ctx.pair_c):
        if a.shi[ia] == NEG or b.shi[ib] == NEG or ctx.totals[ic] > top:
            continue
        shi[ic] = max(shi[ic], a.shi[ia] + b.shi[ib])
        slo[ic] = min(slo[ic], a.slo[ia] + b.slo[ib])
        tlo[ic] = max(tlo[ic], a.tlo[ia] + b.shi[ib], b.tlo[ib] + a.shi[ia])
        ta = POS if a.thi[ia] == POS else a.thi[ia] + b.slo[ib]
        tb = POS if b.thi[ib] == POS else b.thi[ib] + a.slo[ia]
        thi[ic] = min(thi[ic], ta, tb)
    return (_finalize_tlo(ctx, tlo, slo), slo, shi, _cap_top(ctx, shi, thi))


def _assert_data_matches(ctx, slab, oracle):
    """Every stored coefficient of ``slab`` equals the oracle's (zero where
    the oracle has no term)."""
    for row in range(ctx.T):
        want = oracle.get(tuple(ctx.midx[row]), _Laurent({})).coeffs
        for p, k in enumerate(ctx.degrees):
            expect = want.get(int(k), np.zeros((ctx.n, ctx.n)))
            assert np.abs(slab.data[row, p] - expect).max() < 1e-12


@pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_slab_mul_matches_oracle(n, cap):
    ctx = JetContext(("t1", "t2"), 3, n, -9, 5)
    gen = rng(100 * n + (cap if cap is not None else 9))
    A, da = _mixed_jet_operand(ctx, gen, dead_rows=(2, 7))
    B, db = _mixed_jet_operand(ctx, gen, dead_rows=(1, 5, 9))
    out = A.matmul(B, cap).slabs[0]
    top = ctx.order if cap is None else cap
    _assert_data_matches(ctx, out, jet_conv_oracle(da, db, top))
    ref = _pair_table_bounds(ctx, A.slabs[0], B.slabs[0], top)
    for got, expect in zip((out.tlo, out.slo, out.shi, out.thi), ref):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("b_const", [True, False])
def test_slab_mul_const_ignores_stale_rows(b_const):
    ctx = JetContext(("t1", "t2"), 2, 3, -9, 5)
    gen = rng(7 if b_const else 8)
    full, dfull = _mixed_jet_operand(ctx, gen, dead_rows=(1, 4))
    cst, dcst = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    assert cst.slabs[0].jet_const()
    A, B, da, db = (full, cst, dfull, dcst) if b_const else (cst, full, dcst, dfull)
    _assert_data_matches(ctx, A.matmul(B).slabs[0],
                         jet_conv_oracle(da, db, ctx.order))


@pytest.mark.parametrize("variables,order", [((), 0), (("t1",), 4),
                                              (("t1", "t2", "t3"), 3)])
def test_row_prefix_table_matches_pair_table(variables, order):
    ctx = JetContext(variables, order, 2, -4, 2)
    from_rows = set()
    for a in range(ctx.T):
        outs = ctx.row_out[a]
        assert outs.size == ctx.upto[order - ctx.totals[a]]
        assert len(set(outs.tolist())) == outs.size
        for b, c in enumerate(outs):
            assert np.array_equal(ctx.midx[a] + ctx.midx[b], ctx.midx[c])
            from_rows.add((a, b, int(c)))
    pairs = set(zip(ctx.pair_a.tolist(), ctx.pair_b.tolist(),
                    ctx.pair_c.tolist()))
    assert from_rows == pairs and len(pairs) == ctx.pair_a.size


@pytest.mark.parametrize("b_const", [True, False])
def test_slab_mul_const_keeps_dead_rows_dead(b_const):
    ctx = JetContext(("t1", "t2"), 2, 2, -9, 5)
    gen = rng(17 if b_const else 18)
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(1, 4))
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    out = (full.matmul(cst) if b_const else cst.matmul(full)).slabs[0]
    for row in (1, 4):
        assert (out.shi[row], out.slo[row]) == (NEG, POS)
        assert (out.tlo[row], out.thi[row]) == (NEG, POS)
        assert not np.any(out.data[row])
    assert np.all(out.shi[[0, 2, 3, 5]] != NEG)
    # the product of two jet-constant operands is jet-constant
    cst2, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    assert cst.matmul(cst2).slabs[0].jet_const()


# -- tangent components and the inverse memo ----------------------------------

def _same_slab(x, y):
    return (np.array_equal(x.data, y.data)
            and all(np.array_equal(getattr(x, b), getattr(y, b))
                    for b in ("tlo", "slo", "shi", "thi")))


@pytest.mark.parametrize("K", [0, 1, 3])
def test_tangent_components_equal_single_direction_runs(K):
    ctx = JetContext(("t1", "t2"), 2, 2, -14, 4)
    gen = rng(300 + K)
    ident = Series.identity(ctx)
    A = ident + random_jet_series(ctx, gen, -3, -1, 0.3)
    B = ident + random_jet_series(ctx, gen, -2, 0, 0.3)
    da = [random_jet_series(ctx, gen, -3, 0, 0.3) for _ in range(K)]
    db = [random_jet_series(ctx, gen, -2, 0, 0.3) for _ in range(K)]
    a, b = A.with_eps(*da), B.with_eps(*db)
    assert a.E == b.E == K + 1
    ops = {
        "matmul": (lambda x, y: x.matmul(y), lambda r: r.slabs, _same_slab),
        "matmul_cap": (lambda x, y: x.matmul(y, 1), lambda r: r.slabs,
                       _same_slab),
        "matmul_plain_right": (lambda x, y: x.matmul(y.base_part()),
                               lambda r: r.slabs, _same_slab),
        "inv": (lambda x, y: x.inv(), lambda r: r.slabs, _same_slab),
        "pairing": (lambda x, y: x.pairing(y, -1), lambda r: r.vals,
                    np.array_equal),
    }
    for name, (op, parts, same) in ops.items():
        stacked = parts(op(a, b))
        assert len(stacked) == K + 1, name
        assert same(stacked[0], parts(op(A, B))[0]), name
        for i in range(K):
            single = parts(op(A.with_eps(da[i]), B.with_eps(db[i])))
            assert same(stacked[1 + i], single[1]), (name, i)
    vals = [gen.standard_normal(ctx.T) + 1j * gen.standard_normal(ctx.T)
            for _ in range(2 * K + 2)]
    x = ScalarJet(ctx, tuple(vals[:K + 1]), ctx.order)
    y = ScalarJet(ctx, tuple(vals[K + 1:]), ctx.order)
    prod = (x * y).vals
    assert len(prod) == K + 1
    assert np.array_equal(prod[0], (x.base_part() * y.base_part()).vals[0])
    for i in range(K):
        xi = ScalarJet(ctx, (vals[0], vals[1 + i]), ctx.order)
        yi = ScalarJet(ctx, (vals[K + 1], vals[K + 2 + i]), ctx.order)
        assert np.array_equal(prod[1 + i], (xi * yi).vals[1])
        assert np.array_equal((x * y).eps_part(i).vals[0], (xi * yi).vals[1])


def test_laurent_inv_memo_matches_uncached_call():
    from loopjet.series import _laurent_inv, _neumann_inv
    ctx = fctx(lo=-16)
    gen = rng(71)
    neg = Series.identity(ctx) + series_from_dict(
        ctx, random_laurent_dict(gen, 2, -3, -1, 0.3))
    pos = Series.identity(ctx) + series_from_dict(
        ctx, random_laurent_dict(gen, 2, 1, 2, 0.3))
    cut = series_from_dict(ctx, {k: neg.coeff(0, k) for k in range(-3, 1)},
                           exact=False)
    for s in (neg, pos, cut):
        slab = s.slabs[0]
        first = _laurent_inv(ctx, slab)
        assert _same_slab(first, _neumann_inv(ctx, slab))
        first.data[0] += 1.0
        first.tlo[0], first.shi[0] = 3, -7
        again = _laurent_inv(ctx, slab)
        assert again is not first
        assert _same_slab(again, _neumann_inv(ctx, slab))
    # one entry per distinct (row-0 data, trusted floor)
    assert len(ctx.inv_memo) == 3
