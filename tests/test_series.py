"""Kernel tests: Laurent/jet arithmetic, trust propagation, epsilon calculus."""

from __future__ import annotations

import json
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopjet import (DimensionMismatch, JetContext, ScalarJet, Series,
                     ShapeError, TrustError, WindowExhausted, cocycle,
                     directional_derivative, exp_series)
from loopjet.context import NEG, POS
from loopjet import series
from loopjet.scenario import Scenario, ScenarioConfig, _Runner
from loopjet.series import _slab_mul

from helpers import (cap_top, conv_oracle, dense, finalize_tlo,
                     jet_conv_oracle, live_pairs, product_bounds,
                     random_jet_series, random_laurent_dict, random_matrix,
                     random_scalar_jet, reference_pairing,
                     reference_slab_product, require_window, rng, same_slab,
                     same_value, series_from_dict, trim, trusted_lo)

E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def fctx(lo=-12, hi=6, n=2):
    return JetContext((), 0, n, lo, hi)


# -- products ----------------------------------------------------------------

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
    C = A * B
    require_window(C)
    assert trusted_lo(C) == -6
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
    cs = (series_from_dict(shallow, da, exact=False)
          * series_from_dict(shallow, db, exact=False))
    cd = (series_from_dict(deep, da, exact=False)
          * series_from_dict(deep, db, exact=False))
    require_window(cs)
    require_window(cd)
    for k in range(trusted_lo(cs), 3):
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


# -- inverses ----------------------------------------------------------------

def test_inv_nilpotent():
    ctx = fctx()
    f = Series.identity(ctx) + Series.monomial(ctx, E21, -1)
    finv = f.inv()
    expect = Series.identity(ctx) - Series.monomial(ctx, E21, -1)
    assert (finv - expect).max_abs() < 1e-14
    # nilpotent termination keeps the inverse exact everywhere
    assert trusted_lo(finv) == ctx.lo
    assert np.abs(finv.coeff(0, ctx.lo)).max() == 0.0


def test_inv_constant():
    ctx = fctx()
    f = Series.identity(ctx).scale(2.0)
    assert (f.inv() - Series.identity(ctx).scale(0.5)).max_abs() < 1e-15


def test_inv_geometric_matches_scalar_series():
    ctx = fctx(lo=-10)
    d = np.diag([1.0, 0.0]).astype(complex)
    f = Series.identity(ctx) + Series.monomial(ctx, d, -1)
    finv = f.inv()
    for k in range(0, 11):
        expect = (-1.0) ** k * d + (np.eye(2) - d) * (1.0 if k == 0 else 0.0)
        assert np.abs(finv.coeff(0, -k) - expect).max() < 1e-13
    assert (f * finv - Series.identity(ctx)).max_abs() < 1e-13


def test_inv_lplus_shape():
    ctx = fctx()
    f = Series.identity(ctx) + Series.monomial(ctx, np.diag([0.5, 0.25]).astype(complex), 1)
    finv = f.inv()
    assert ((f * finv) - Series.identity(ctx)).max_abs() < 1e-13
    with pytest.raises(TrustError):
        # true support extends past the window top: reads there must fail
        finv.coeff(0, ctx.hi + 1)


def test_inv_singular_and_mixed_shapes():
    ctx = fctx()
    with pytest.raises(ShapeError):
        Series.monomial(ctx, E21, 0).inv()
    mixed = (Series.identity(ctx) + Series.monomial(ctx, np.eye(2) * 0.3, 1)
             + Series.monomial(ctx, np.eye(2) * 0.3, -1))
    with pytest.raises(ShapeError):
        mixed.inv()


def test_jet_inverse():
    ctx = JetContext(("t1", "t2"), 3, 2, -12, 4)
    gen = rng(5)
    m = random_jet_series(ctx, gen, -2, 0, scale=0.3)
    a = Series.identity(ctx) + m
    ainv = a.inv()
    assert (a * ainv - Series.identity(ctx)).max_abs() < 1e-11


@pytest.mark.parametrize("K", [0, 2])
@pytest.mark.parametrize("num_vars", [1, 2, 3])
def test_warm_started_inverse_is_the_inverse_from_scratch(num_vars, K):
    # starting from the inverse to jet order k - 1 solves grade k alone,
    # with the bits and the trusted order of an inverse from scratch
    ctx = JetContext(tuple(f"t{i}" for i in range(num_vars)), 3, 2, -14, 4)
    gen = rng(20 * num_vars + K)
    A = Series.identity(ctx) + random_jet_series(ctx, gen, -3, -1, 0.3)
    a = A.with_eps(*[random_jet_series(ctx, gen, -2, 0, 0.3)
                     for _ in range(K)]) if K else A
    for k in range(ctx.order + 1):
        scratch = a.inv(k)
        assert scratch.vorder == k
        if k:
            assert same_value(a.inv(k, start=a.inv(k - 1)), scratch), k
    assert same_value(a.inv(start=a.inv(ctx.order - 1)), a.inv())
    # a start past the goal gives its grades up to the goal alone
    assert same_value(a.inv(1, start=a.inv(2)), a.inv(1))
    # one row-0 rule: the inverse of row 0 alone is the inverse's row 0, and
    # a start at jet order 0 is used as it is
    row0 = Series.from_rows(ctx, [0], a, [0])
    assert same_value(row0.inv(), Series.from_rows(ctx, [0], a.inv(), [0]))
    assert same_value(a.inv(start=a.inv(0)), a.inv())


# -- derivative in lambda ------------------------------------------------------

def test_dlambda_basics():
    ctx = fctx()
    assert Series.identity(ctx).dlambda().max_abs() == 0.0
    a = random_matrix(rng(3), 2)
    d = Series.monomial(ctx, a, 2).dlambda()
    assert np.abs(d.coeff(0, 1) - 2 * a).max() < 1e-15
    d2 = Series.monomial(ctx, E21, -1).dlambda()
    assert np.abs(d2.coeff(0, -2) + E21).max() < 1e-15


def test_dlambda_is_derivation():
    gen = rng(17)
    ctx = fctx(lo=-14)
    a = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    b = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    lhs = (a * b).dlambda()
    rhs = a.dlambda() * b + a * b.dlambda()
    assert (lhs - rhs).max_abs() < 1e-12


# -- jets ---------------------------------------------------------------------

def test_jet_partial_and_monomials():
    ctx = JetContext(("t1", "t2"), 3, 2, -6, 3)
    a = random_matrix(rng(23), 2)
    x = Series.monomial(ctx, a, 0, alpha=(2, 0))  # t1^2 a
    d = x.partial("t1")
    assert np.abs(d.coeff((1, 0), 0) - 2 * a).max() < 1e-15
    assert d.vorder == 2
    y = x.times_var("t2")
    assert np.abs(y.coeff((2, 1), 0) - a).max() < 1e-15


def test_from_rows_writes_fresh_arrays_with_the_same_bits():
    ctx = JetContext(("t1", "t2"), 2, 2, -6, 3)
    gen = rng(37)
    x = random_jet_series(ctx, gen, -3, 1).with_eps(
        random_jet_series(ctx, gen, -2, 0))
    src, dst, fac = ctx.partial_maps[0]
    kw = dict(factor=fac, vorder=x.vorder - 1)
    fresh = Series.from_rows(ctx, dst, x, src, **kw)
    copied = Series.zeros(ctx).with_rows(dst, x, src, **kw)
    assert same_value(fresh, copied)
    assert same_value(fresh, x.partial("t1"))
    # with_rows leaves its own value alone
    before = [s.data.copy() for s in copied.slabs]
    copied.with_rows(dst, x, src)
    assert all(np.array_equal(s.data, d) for s, d in zip(copied.slabs, before))
    j = ScalarJet(ctx, (gen.standard_normal(ctx.T) + 0j,), ctx.order)
    assert same_value(ScalarJet.from_rows(ctx, dst, j, src, factor=fac,
                                          vorder=ctx.order - 1),
                      j.partial("t1"))
    assert same_value(ScalarJet.from_rows(ctx, dst, j, src, factor=fac),
                      ScalarJet.zeros(ctx).with_rows(dst, j, src, factor=fac))


def test_with_rows_refuses_a_source_from_another_context():
    # jet rows are copied within one context: neither a variable-free
    # value into a jet context nor a jet out of one
    ctx = JetContext(("t1", "t2"), 2, 2, -6, 3)
    plain = JetContext((), 0, 2, -6, 3)
    gen = rng(38)
    x = random_jet_series(ctx, gen, -3, 1)
    f = series_from_dict(plain, random_laurent_dict(gen, 2, -3, 0))
    for dst, src in ((Series.zeros(ctx), f), (Series.zeros(plain), x),
                     (ScalarJet.zeros(ctx), ScalarJet.const(plain, 1.0)),
                     (ScalarJet.zeros(plain), ScalarJet.const(ctx, 1.0))):
        with pytest.raises(DimensionMismatch):
            dst.with_rows([0], src, [0])
        with pytest.raises(DimensionMismatch):
            type(dst).from_rows(dst.ctx, [0], src, [0])

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
    v = exp_series(x)
    assert np.abs(v.coeff((0,), 0) - np.eye(2)).max() < 1e-15
    assert np.abs(v.coeff((1,), 1) - a).max() < 1e-15
    assert np.abs(v.coeff((2,), 2) - 0.5 * a @ a).max() < 1e-15
    assert (exp_series(Series.zeros(ctx)) - Series.identity(ctx)).max_abs() == 0.0
    with pytest.raises(ShapeError):
        exp_series(Series.identity(ctx))


def test_jet_exp_commuting_factorizes():
    ctx = JetContext(("t1", "t2"), 4, 2, -4, 12)
    a = np.diag([1j, -1j])
    x = Series.monomial(ctx, a, 1, alpha=(1, 0))
    y = Series.monomial(ctx, a, 3, alpha=(0, 1))
    assert (exp_series(x + y) - exp_series(x) * exp_series(y)).max_abs() < 1e-12


# -- projections ----------------------------------------------------------------

def test_projections_split_exactly():
    gen = rng(37)
    ctx = fctx()
    x = series_from_dict(ctx, random_laurent_dict(gen, 2, -4, 3))
    assert (x.plus() + x.minus() - x).max_abs() == 0.0
    assert (x.plus().plus() - x.plus()).max_abs() == 0.0
    assert (x.minus().minus() - x.minus()).max_abs() == 0.0
    assert x.plus().minus().max_abs() == 0.0


def test_trust_errors_name_the_jet_index_in_plain_ints():
    ctx = JetContext(("t1", "t2"), 1, 2, -6, 3)
    x = random_jet_series(ctx, rng(43), -4, 0, exact=False)
    eroded = x * Series.monomial(ctx, np.eye(2), 3)  # trusted from lo+3 up
    with pytest.raises(TrustError, match=r"at jet index \(1, 0\)$"):
        eroded.coeff((1, 0), ctx.lo)
    with pytest.raises(TrustError, match=r"for jet index \(0, 0\)$"):
        eroded.pairing(x, 2 * ctx.lo)


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
    assert abs(Series.monomial(ctx, a, 2).pairing(Series.monomial(ctx, b, -3), -1)
               .coeff(0) - np.trace(a @ b)) < 1e-13
    assert abs(Series.monomial(ctx, a, 1).pairing(Series.monomial(ctx, b, -1), -1)
               .coeff(0)) == 0.0


def test_pairing_shift_identity():
    gen = rng(47)
    ctx = fctx()
    x = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    y = series_from_dict(ctx, random_laurent_dict(gen, 2, -3, 2))
    lhs = x.shift(1).pairing(y, 0).coeff(0)
    rhs = x.pairing(y, -1).coeff(0)
    assert abs(lhs - rhs) < 1e-12


def _kill_rows(x: Series, rows) -> Series:
    """``x`` with ``rows`` certified zero (zero data, any trusted floor)."""
    s = x.slabs[0]
    for row in rows:
        s.data[row] = 0.0
        s.shi[row], s.slo[row], s.tlo[row], s.thi[row] = NEG, POS, NEG, POS
    return trim(x)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("num_vars,order", [
    (0, 0), *((v, d) for v in (1, 2, 3, 6) for d in (1, 2, 3))])
def test_pairing_is_the_gathered_reference_bit_for_bit(num_vars, order, n):
    # a pairing walks the product's grade grid; each output must still add
    # the terms the gathered pair table summed, in ascending a, with the
    # same einsum reduction per pair: dense windows, a jet-constant factor
    # on either side, dead rows, a trusted order below the context's, and
    # every k from empty window overlaps inward.  A grid of one a-row and
    # one b-row (the top grade of one variable) is pinned too.  An overlap
    # of one position sums its n x n terms in another order once a grade
    # has two live a-rows: that k is held to rounding instead.
    ctx = JetContext(tuple(f"t{i}" for i in range(num_vars)), order, n, -6,
                     3)
    gen = rng(100 * num_vars + 10 * order + n)
    x, y = (random_jet_series(ctx, gen, ctx.lo, ctx.hi) for _ in range(2))
    cst = Series.from_degree_matrices(
        ctx, random_laurent_dict(gen, n, ctx.lo, ctx.hi))
    dead = _kill_rows(random_jet_series(ctx, gen, ctx.lo, ctx.hi),
                      range(1, ctx.T, 2))
    low = Series(ctx, x.slabs, max(ctx.order - 1, 0))
    for a, b in ((x, y), (cst, y), (x, cst), (dead, y), (x, dead), (low, y)):
        live = ctx.totals <= min(a.vorder, b.vorder)
        for k in range(2 * ctx.lo - 1, 2 * ctx.hi + 2):
            got = a.pairing(b, k).slabs[0][live]
            want = reference_pairing(ctx, a.slabs[0], b.slabs[0], k)[live]
            if k in (2 * ctx.lo, 2 * ctx.hi) and n > 1:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            else:
                assert np.array_equal(got, want), k


def test_a_certified_zero_row_adds_no_untrusted_floor_to_a_pairing():
    # one bound rule for products and pairings: a certified-zero row adds
    # nothing, whatever its trusted floor, so the pairing is trusted where
    # the product is
    ctx = JetContext(("t1", "t2"), 2, 2, -8, 3)
    gen = rng(53)
    a, y = (random_jet_series(ctx, gen, ctx.lo, ctx.hi) for _ in range(2))
    _kill_rows(a, [1]).slabs[0].tlo[1] = ctx.lo + 4
    k, row = ctx.lo + 1, ctx.index_of[(0, 1)]
    assert (a * y).slabs[0].tlo[row] <= k
    got = a.pairing(y, k)
    assert np.array_equal(got.slabs[0],
                          reference_pairing(ctx, a.slabs[0], y.slabs[0], k))
    assert abs(got.coeff(row) - np.trace((a * y).coeff(row, k))) < 1e-12


def test_a_certified_zero_b_row_adds_nothing_to_a_pairing():
    # a dead row of the right factor inside the admissible prefix feeds a
    # pairing nothing, whatever data it still stores, as in the product
    ctx = JetContext(("t1", "t2"), 2, 2, -8, 3)
    gen = rng(59)
    x, y = (random_jet_series(ctx, gen, -4, 2) for _ in range(2))
    s = y.slabs[0]
    s.shi[1], s.slo[1], s.tlo[1], s.thi[1] = NEG, POS, NEG, POS
    assert np.abs(s.data[1]).max() > 0
    got, prod = x.pairing(y, -1), x * y
    for row in range(ctx.T):
        assert abs(got.coeff(row) - np.trace(prod.coeff(row, -1))) < 1e-12


@pytest.mark.parametrize("extra", [0, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_shift_past_the_window(sign, extra):
    # a shift by |s| >= W keeps nothing of the window: the data is zero and
    # the support moves by s as for any shift; an untrusted floor shifted
    # past the top leaves no trusted degree, so a read raises
    ctx = fctx()
    s = sign * (ctx.W + extra)
    coeffs = random_laurent_dict(rng(60 + extra), 2, -3, 2)
    for exact in (True, False):
        x = series_from_dict(ctx, coeffs, exact=exact)
        y = x.shift(s)
        assert not np.any(y.slabs[0].data)
        assert y.slabs[0].shi[0] == x.slabs[0].shi[0] + s
        if s > 0 and not exact:
            with pytest.raises(TrustError):
                y.coeff(0, ctx.hi)
            continue
        for k in range(ctx.lo, ctx.hi + 1):
            assert not np.any(y.coeff(0, k))


def test_degree_shifts_keep_the_sentinels():
    # a POS support top (a clipped L+ inverse) and a POS trusted floor (an
    # untrusted row of a degree slice) stay POS under shift and dlambda
    ctx = JetContext(("t1",), 2, 2, -12, 6)
    b = np.array([[0.3, 0.1], [0.2, -0.4]], dtype=complex)
    inv = (Series.identity(ctx) + Series.monomial(ctx, b, 1)).inv()
    assert inv.slabs[0].shi[0] == POS
    loose = Series.from_degree_matrices(ctx, {0: np.eye(2)}, exact=False)
    poisoned = loose.degree_slice(ctx.lo - 1)
    assert poisoned.slabs[0].tlo[0] == POS
    for move in (lambda x: x.shift(1), lambda x: x.shift(-2),
                 lambda x: x.dlambda()):
        assert move(inv).slabs[0].shi[0] == POS
        assert move(poisoned).slabs[0].tlo[0] == POS


def test_degree_moves_keep_a_neg_support_floor():
    # a loose value has no certified support floor (slo == NEG); a degree
    # move leaves it uncertified instead of moving the sentinel
    ctx = JetContext(("t1",), 2, 2, -12, 6)
    loose = random_jet_series(ctx, rng(73), ctx.lo, 1, exact=False)
    assert np.all(loose.slabs[0].slo == NEG)
    for move in (lambda x: x.shift(2), lambda x: x.shift(-3),
                 lambda x: x.dlambda()):
        assert np.all(move(loose).slabs[0].slo == NEG)


def _deepened(content, exact: bool, seed: int, zero_bottom: int = 0):
    """One value built in the window [-8, 3] and again 6 degrees deeper:
    random coefficients on the degrees ``content`` at every jet row.  Where
    the content reaches below the shallow window the shallow value is cut
    there and loose; the deep one holds all of it, exactly.  With
    ``zero_bottom`` k, the value is exact with its support floor certified
    at the shallow window bottom, and its bottom k degrees hold zero."""
    out = []
    for lo in (-8, -14):
        ctx, gen = JetContext(("t1",), 2, 2, lo, 3), rng(seed)
        x = Series.zeros(ctx)
        for row in range(ctx.T):
            coeffs = random_laurent_dict(gen, 2, *content, 0.5)
            x = x + Series.from_degree_matrices(
                ctx, {k: m for k, m in coeffs.items() if k >= lo}, alpha=row,
                exact=exact or lo <= content[0])
        if zero_bottom:
            z = Series.from_degree_matrices(
                ctx, {-8 + k: np.eye(2) for k in range(zero_bottom)})
            x = (x + z) - z
        out.append(x)
    return out


def test_degree_moves_are_sound_under_deepening():
    # every coefficient a moved value trusts equals the deeper window's, and
    # every read below its trusted floor raises
    values = [_deepened((-8, 2), True, 81), _deepened((-14, 1), False, 82),
              _deepened((-5, 2), True, 83, zero_bottom=3)]
    moves = [lambda x, s=s: x.shift(s) for s in (-3, -1, 2)]
    for shallow, deep in values:
        for move in moves + [lambda x: x.dlambda()]:
            got, want = move(shallow), move(deep)
            scale = max(want.max_abs(), 1.0)
            for row in range(got.ctx.T):
                tlo = got.slabs[0].tlo[row]
                for k in range(deep.ctx.lo, deep.ctx.hi + 1):
                    if tlo != NEG and k < tlo:
                        with pytest.raises(TrustError):
                            got.coeff(row, k)
                        continue
                    assert (np.abs(got.coeff(row, k) - want.coeff(row, k)).max()
                            <= 1e-12 * scale), (row, k)
    # nothing nonzero leaves the window: the value stays exact, its floor
    # clamped to the window
    moved = values[2][0].shift(-3)
    assert np.all(moved.slabs[0].tlo == NEG)
    assert np.all(moved.slabs[0].slo == moved.ctx.lo)


def test_degree_slice_keeps_certified_zero_rows_dead():
    # a row is live only where degree k is untrusted or inside its certified
    # support; rows past the last live one are not stored
    ctx = JetContext(("t1",), 2, 2, -12, 6)
    one = Series.monomial(ctx, np.eye(2)).degree_slice(0).slabs[0]
    assert one.jet_const() and one.data.shape[0] == 1
    assert one.shi.tolist() == [0, NEG, NEG]
    assert one.slo.tolist() == [0, POS, POS]
    assert Series.monomial(ctx, np.eye(2)).degree_slice(1).slabs[0].data.shape[0] == 0
    loose = Series.from_degree_matrices(ctx, {0: np.eye(2)}, alpha=1,
                                        exact=False)
    poisoned = loose.degree_slice(ctx.lo - 1)
    assert poisoned.slabs[0].shi.tolist() == [NEG, 0, NEG]
    assert poisoned.slabs[0].tlo.tolist() == [NEG, POS, NEG]
    with pytest.raises(TrustError):
        poisoned.coeff(1, 0)
    x = random_jet_series(ctx, rng(67), -3, 1)
    for k in (-3, 0, 2):
        got = x.degree_slice(k)
        for row in range(ctx.T):
            assert np.array_equal(got.coeff(row, 0), x.coeff(row, k))


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
        require_window(b * b)


def test_require_window_rejects_floor_above_top():
    # a shifted truncation-limited value times lam^4: the trusted floor of
    # the product (5) passes the window top (4)
    c = Series.from_degree_matrices(JetContext((), 0, 2, -2, 4),
                                    {-2: np.eye(2)}, exact=False).shift(3)
    prod = c * Series.from_degree_matrices(c.ctx, {4: np.eye(2)})
    with pytest.raises(WindowExhausted):
        require_window(prod)


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
    ``dead_rows`` are then certified zero but keep stale non-zero data
    (those below the last live row; the rows past it are not stored).
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
    return trim(out), live


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
    return (finalize_tlo(ctx, tlo, slo), slo, shi, cap_top(ctx, shi, thi))


def _assert_data_matches(ctx, slab, oracle):
    """Every stored coefficient of ``slab`` equals the oracle's (zero where
    the oracle has no term)."""
    data = dense(slab)
    for row in range(ctx.T):
        want = oracle.get(tuple(ctx.midx[row]), _Laurent({})).coeffs
        for p, k in enumerate(ctx.degrees):
            expect = want.get(int(k), np.zeros((ctx.n, ctx.n)))
            assert np.abs(data[row, p] - expect).max() < 1e-12


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


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("case", ["general", "b_const", "a_const"])
@pytest.mark.parametrize("n", [2, 3])
def test_slab_mul_is_the_pair_by_pair_reference_bit_for_bit(n, case, cap):
    # reports stay byte-identical only while every product makes the same
    # floating-point operations in the same order: pin them exactly, on the
    # general path and both jet-constant paths, with stale dead rows
    ctx = JetContext(("t1", "t2"), 3, n, -9, 5)
    gen = rng(10 * n + (cap or 0))
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(2, 7))
    other, _ = _mixed_jet_operand(ctx, gen, dead_rows=(1, 5, 9))
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    a, b = {"general": (full, other), "b_const": (full, cst),
            "a_const": (cst, other)}[case]
    out = _slab_mul(ctx, a.slabs[0], b.slabs[0], cap)
    ref = reference_slab_product(ctx, a.slabs[0], b.slabs[0], cap)
    deg = ctx.degrees[None, :]
    keep = (deg >= out.slo[:, None]) & (deg <= out.shi[:, None])
    assert np.any(keep)
    assert np.array_equal(dense(out), ref * keep[..., None, None])


def _poison_dead_rows(value: Series) -> None:
    """Overwrite the stored data of the certified-zero rows with NaN: a
    product that read one would be NaN there."""
    slab = value.slabs[0]
    slab.data[np.flatnonzero(slab.shi[:len(slab.data)] == NEG)] = np.nan


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("cap", [None, 2])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("num_vars", [3, 6])
def test_grade_blocked_product_is_the_pair_by_pair_reference(
        num_vars, n, cap, poisoned):
    # grades with more live a-rows than admissible b-rows and the reverse:
    # each output must still add its terms in ascending a (6 variables at
    # order 3 is the gl3_full shape), and the walk reads no dead row
    ctx = JetContext(tuple(f"t{i}" for i in range(num_vars)), 3, n, -9, 5)
    gen = rng(1000 * num_vars + 10 * n + (cap or 0))
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(2, ctx.T // 3))
    other, _ = _mixed_jet_operand(ctx, gen, dead_rows=(1, 5, ctx.T // 2))
    if poisoned:
        _poison_dead_rows(full)
        _poison_dead_rows(other)
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    deg = ctx.degrees[None, :]
    for a, b in ((full, other), (full, cst), (cst, other)):
        out = _slab_mul(ctx, a.slabs[0], b.slabs[0], cap)
        ref = reference_slab_product(ctx, a.slabs[0], b.slabs[0], cap)
        keep = (deg >= out.slo[:, None]) & (deg <= out.shi[:, None])
        assert np.any(keep)
        assert np.array_equal(dense(out), ref * keep[..., None, None])


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("cap", [None, 1, 2])
@pytest.mark.parametrize("num_vars", [2, 3, 6])
def test_restricted_rows_are_the_full_products(num_vars, cap, poisoned):
    # the rows a product is restricted to are the whole product's, data
    # and all four bounds, bit for bit; every other row is certified zero
    # with zero data.  Random masks and one grade's rows, on the general
    # path and on both jet-constant paths, with dead rows that are NaN
    # (``poisoned``) or stale data.
    ctx = JetContext(tuple(f"t{i}" for i in range(num_vars)), 3, 2, -9, 5)
    gen = rng(500 + 10 * num_vars + (cap or 0))
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(2, ctx.T // 3))
    other, _ = _mixed_jet_operand(ctx, gen, dead_rows=(1, 5, ctx.T // 2))
    if poisoned:
        _poison_dead_rows(full)
        _poison_dead_rows(other)
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    masks = [gen.random(ctx.T) < p for p in (0.2, 0.5, 0.9)]
    masks.append(ctx.totals == (ctx.order if cap is None else cap))
    for a, b in ((full, other), (other, full), (full, cst), (cst, other)):
        whole = a.matmul(b, cap).slabs[0]
        for keep in masks:
            part = a.matmul(b, cap, rows=np.flatnonzero(keep))
            got = part.slabs[0]
            assert np.array_equal(dense(got)[keep], dense(whole)[keep])
            for arr in ("tlo", "slo", "shi", "thi"):
                assert np.array_equal(getattr(got, arr)[keep],
                                      getattr(whole, arr)[keep]), arr
            assert np.all(got.shi[~keep] == NEG) and np.all(got.slo[~keep] == POS)
            assert np.all(got.tlo[~keep] == NEG) and np.all(got.thi[~keep] == POS)
            assert not np.any(dense(got)[~keep])
            assert part.vorder == a.matmul(b, cap).vorder


def test_jet_constant_product_bounds_are_the_full_scan():
    # with a jet-constant factor only the pairs with a row 0 are scanned;
    # its live pairs, in order, and so its bounds are those of the scan
    # over the whole table bit for bit
    ctx = JetContext(("t1", "t2", "t3"), 3, 2, -9, 5)
    gen = rng(61)
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(2, 7))
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    cst2, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    assert ctx.zero_pairs[0].size == 2 * ctx.T - 1 < ctx.pair_a.size
    for a, b in ((full, cst), (cst, full), (cst, cst2)):
        for top in range(ctx.order + 1):
            for want in (None, gen.random(ctx.T) < 0.5):
                sa, sb = a.slabs[0], b.slabs[0]
                pairs = live_pairs(ctx, sa, sb, top, want)
                live = ((sa.shi != NEG)[ctx.pair_a] & (sb.shi != NEG)[ctx.pair_b]
                        & (ctx.totals[ctx.pair_c] <= top))
                if want is not None:
                    live &= want[ctx.pair_c]
                scan = tuple(p[live] for p in (ctx.pair_a, ctx.pair_b,
                                               ctx.pair_c))
                for x, y in zip(pairs, scan):
                    assert np.array_equal(x, y)
                got, ref = (product_bounds(ctx, sa, sb, p)
                            for p in (pairs, scan))
                for x, y in zip(got, ref):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("lo,hi", [(-13, 3), (-3, 13), (-26, 11), (-24, 10),
                                   (-7, 7)])
def test_nfft_is_the_alias_free_bound(lo, hi):
    ctx = JetContext((), 0, 1, lo, hi)
    W, bound = ctx.W, ctx.W + max(hi, -lo)
    assert ctx.nfft >= bound > ctx.nfft // 2
    assert ctx.nfft & (ctx.nfft - 1) == 0
    # plain numpy: a length-N circular convolution of full-support window
    # data keeps the window of the linear convolution at N = bound, not at
    # N = bound - 1 (position s of the convolution lands on s mod N)
    gen = rng(W)
    x, y = (gen.standard_normal((W, 2)) @ np.array([1, 1j]) for _ in range(2))
    want = np.convolve(x, y)[-lo:-lo + W]
    for N, same in ((bound, True), (bound - 1, False)):
        circ = np.fft.ifft(np.fft.fft(x, N) * np.fft.fft(y, N))
        got = circ[np.arange(-lo, -lo + W) % N]
        err = np.abs(got - want).max() / np.abs(want).max()
        assert (err < 1e-12) if same else (err > 1e-3)


def _full_window_operand(ctx, gen, lo, hi, scale):
    """Series with content at every degree of [lo, hi] on every jet row,
    and the oracle dict of its rows."""
    out, coeffs = Series.zeros(ctx), {}
    for row in range(ctx.T):
        c = random_laurent_dict(gen, ctx.n, lo, hi, scale)
        out = out + Series.from_degree_matrices(ctx, c, alpha=row)
        coeffs[tuple(ctx.midx[row])] = _Laurent(c)
    return out, coeffs


def _relative_error(ctx, slab, oracle):
    """Largest stored-coefficient error of ``slab`` against the oracle,
    relative to the oracle's largest window coefficient."""
    want = np.zeros_like(dense(slab))
    for row in range(ctx.T):
        got = oracle.get(tuple(ctx.midx[row]), _Laurent({})).coeffs
        for p, k in enumerate(ctx.degrees):
            if int(k) in got:
                want[row, p] = got[int(k)]
    return np.abs(dense(slab) - want).max() / np.abs(want).max()


_HALVED = [(-13, 3), (-3, 13)]  # nfft 32 here; 2W - 1 = 33 would need 64


@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lo,hi", _HALVED)
def test_matmul_at_the_alias_free_bound(lo, hi, n, cap):
    ctx = JetContext(("t1", "t2"), 3, n, lo, hi)
    assert ctx.nfft == 32
    gen = rng(10 * n - lo)
    A, da = _full_window_operand(ctx, gen, lo, hi, 0.5)
    B, db = _full_window_operand(ctx, gen, lo, hi, 0.5)
    top = ctx.order if cap is None else cap
    oracle = jet_conv_oracle(da, db, top)
    assert _relative_error(ctx, A.matmul(B, cap).slabs[0], oracle) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lo,hi", _HALVED)
def test_inv_at_the_alias_free_bound(lo, hi, n):
    # A = I + N with N on degrees [lo, -1] of every jet row: its inverse is
    # the Neumann sum of (-N)^k, exact on the window once cut below lo
    ctx = JetContext(("t1", "t2"), 3, n, lo, hi)
    assert ctx.nfft == 32
    N, dn = _full_window_operand(ctx, rng(20 * n - lo), lo, -1, 0.2)
    minus_n = {a: _Laurent({k: -m for k, m in v.coeffs.items()})
               for a, v in dn.items()}
    term = {(0, 0): _Laurent({0: np.eye(n)})}
    oracle = dict(term)
    for _ in range(-lo):
        term = {a: _Laurent({k: m for k, m in v.coeffs.items() if k >= lo})
                for a, v in jet_conv_oracle(term, minus_n, ctx.order).items()}
        for a, v in term.items():
            oracle[a] = oracle.get(a, 0) + v
    A = Series.identity(ctx) + N
    assert _relative_error(ctx, A.inv().slabs[0], oracle) < 1e-12


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
    rows = [(a, outs) for g, grid in enumerate(ctx.grade_out)
            for a, outs in zip(range(ctx.upto[g] - len(grid), ctx.upto[g]),
                               grid)]
    assert [a for a, _ in rows] == list(range(ctx.T))
    for a, outs in rows:
        assert outs.size == ctx.upto[order - ctx.totals[a]]
        assert len(set(outs.tolist())) == outs.size
        for b, c in enumerate(outs):
            assert np.array_equal(ctx.midx[a] + ctx.midx[b], ctx.midx[c])
            from_rows.add((a, b, int(c)))
    pairs = set(zip(ctx.pair_a.tolist(), ctx.pair_b.tolist(),
                    ctx.pair_c.tolist()))
    assert from_rows == pairs and len(pairs) == ctx.pair_a.size
    # one table: a-major, and each grade's outputs are a view into pair_c
    assert np.all(np.diff(ctx.pair_a) >= 0)
    for grid in ctx.grade_out:
        assert np.shares_memory(grid, ctx.pair_c)
    for a, outs in rows:
        assert np.array_equal(outs, ctx.pair_c[ctx.pair_a == a])


@pytest.mark.parametrize("b_const", [True, False])
def test_capped_product_with_jet_constant_factor(b_const):
    # cap means the same on the jet-constant path as on the general one:
    # rows past the cap are certified zero
    ctx = JetContext(("t1", "t2"), 3, 2, -9, 5)
    cap = 1
    gen = rng(27 if b_const else 28)
    full, dfull = _mixed_jet_operand(ctx, gen, dead_rows=(2,))
    cst, dcst = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    A, B, da, db = (full, cst, dfull, dcst) if b_const else (cst, full, dcst, dfull)
    out = A.matmul(B, cap).slabs[0]
    _assert_data_matches(ctx, out, jet_conv_oracle(da, db, cap))
    ref = _pair_table_bounds(ctx, A.slabs[0], B.slabs[0], cap)
    for got, expect in zip((out.tlo, out.slo, out.shi, out.thi), ref):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
    past = ctx.totals > cap
    assert past.sum() == 7
    assert np.all(out.shi[past] == NEG) and np.all(out.slo[past] == POS)
    assert np.all(out.tlo[past] == NEG) and np.all(out.thi[past] == POS)
    assert not np.any(dense(out)[past])


def test_exact_times_clipped_lplus_is_trusted():
    # an exact factor adds no untrusted floor, even against a factor whose
    # support top is POS (the clipped Neumann inverse of an L+ shape)
    ctx = JetContext((), 0, 2, -6, 4)
    x = np.array([[0.3, 0.1], [0.2, -0.4]], dtype=complex)
    b = Series.from_degree_matrices(ctx, {0: np.eye(2), 1: x}).inv()
    assert b.slabs[0].shi[0] == POS and b.slabs[0].thi[0] == ctx.hi
    a = Series.from_degree_matrices(ctx, {-2: np.eye(2), 0: x})
    prod = a * b
    assert prod.slabs[0].tlo[0] == NEG
    # (lam^-2 + X)(I - lam X + ...) has lam^-1 coefficient -X
    got = prod.coeff(0, -1)
    assert np.abs(got + x).max() < 1e-15
    assert abs(np.trace(got) - a.pairing(b, -1).coeff(0)) < 1e-15


@pytest.mark.parametrize("order", [0, 1])
def test_clipped_lplus_products_keep_the_pos_sentinel(order):
    # two clipped L+ inverses both certify support up to POS; their product
    # does too, not 2 POS, on the jet-constant and the general path
    ctx = JetContext(("t1",)[:order], order, 2, -6, 4)
    gen = rng(29 + order)
    lplus = [Series.identity(ctx) + sum(
        (series_from_dict(ctx, random_laurent_dict(gen, 2, 1 - row, 2, 0.3),
                          alpha=row) for row in range(1, ctx.T)),
        series_from_dict(ctx, random_laurent_dict(gen, 2, 1, 2, 0.3)))
        for _ in range(2)]
    a, b = (x.inv() for x in lplus)
    assert a.slabs[0].shi[0] == b.slabs[0].shi[0] == POS
    for prod in (a * b, b * a):
        assert np.all(prod.slabs[0].shi <= POS)
        assert prod.slabs[0].shi[0] == POS


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
        assert not np.any(dense(out)[row])
    assert np.all(out.shi[[0, 2, 3, 5]] != NEG)
    # the product of two jet-constant operands is jet-constant
    cst2, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    assert cst.matmul(cst2).slabs[0].jet_const()


@pytest.mark.parametrize("b_const", [True, False])
def test_jet_constant_product_with_no_wanted_row_transforms_nothing(
        monkeypatch, b_const):
    # no wanted output row is live: the product is the zero slab, bit for
    # bit, and neither operand is transformed
    ctx = JetContext(("t1", "t2"), 2, 2, -9, 5)
    gen = rng(19 if b_const else 20)
    full, _ = _mixed_jet_operand(ctx, gen, dead_rows=(1, 4))
    cst, _ = _mixed_jet_operand(ctx, gen, dead_rows=range(1, ctx.T))
    a, b = (full, cst) if b_const else (cst, full)

    def no_fft(self, ctx):
        raise AssertionError("an operand was transformed")

    monkeypatch.setattr(series._Slab, "fft", no_fft)
    want = np.zeros(ctx.T, dtype=bool)
    want[[1, 4]] = True  # rows the full operand leaves dead
    for mask in (np.zeros(ctx.T, dtype=bool), want):
        out = series._slab_mul(ctx, a.slabs[0], b.slabs[0], None, mask)
        assert same_slab(out, series._one_row(ctx))
    assert same_value(a.matmul(b, rows=[]), Series.zeros(ctx))


# -- tangent components and the inverse memo ----------------------------------

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
        "matmul": (lambda x, y: x.matmul(y), lambda r: r.slabs, same_slab),
        "matmul_cap": (lambda x, y: x.matmul(y, 1), lambda r: r.slabs,
                       same_slab),
        "matmul_plain_right": (lambda x, y: x.matmul(y.base_part()),
                               lambda r: r.slabs, same_slab),
        "inv": (lambda x, y: x.inv(), lambda r: r.slabs, same_slab),
        "pairing": (lambda x, y: x.pairing(y, -1), lambda r: r.slabs,
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
    prod = (x * y).slabs
    assert len(prod) == K + 1
    assert np.array_equal(prod[0], (x.base_part() * y.base_part()).slabs[0])
    for i in range(K):
        xi = ScalarJet(ctx, (vals[0], vals[1 + i]), ctx.order)
        yi = ScalarJet(ctx, (vals[K + 1], vals[K + 2 + i]), ctx.order)
        assert np.array_equal(prod[1 + i], (xi * yi).slabs[1])
        assert np.array_equal((x * y).eps_part(i).slabs[0], (xi * yi).slabs[1])


def _jet_with_tangents(kind, ctx, gen, K: int):
    """A random Series or ScalarJet with K tangent components."""
    if kind is Series:
        parts = [random_jet_series(ctx, gen, -3, 1) for _ in range(K + 1)]
        return parts[0].with_eps(*parts[1:])
    return ScalarJet(ctx, tuple(random_scalar_jet(ctx, gen).slabs[0]
                                for _ in range(K + 1)), ctx.order)


def _component_arrays(part) -> tuple:
    if isinstance(part, series._Slab):
        return (part.data, part.tlo, part.slo, part.shi, part.thi)
    return (part,)


def test_one_layer_holds_the_component_rules():
    shared = {"__init__", "E", "zeros", "base_part", "eps_part", "_combine",
              "__add__", "__sub__", "with_rows"}
    assert shared <= set(vars(series._Jet))
    for kind in (Series, ScalarJet):
        assert not shared & set(vars(kind)), kind
        assert not hasattr(kind.zeros(JetContext((), 0, 1, -2, 2)), "vals")


@pytest.mark.parametrize("kind", [Series, ScalarJet])
def test_a_component_a_value_lacks_reads_as_zero(kind):
    ctx = JetContext(("t1", "t2"), 2, 2, -10, 4)
    gen = rng(311)
    x, y = (_jet_with_tangents(kind, ctx, gen, K) for K in (2, 0))
    for got, sign in ((x + y, 1.0), (y + x, 1.0), (y - x, -1.0)):
        assert got.E == 3 and got.vorder == ctx.order
        assert same_value(got.base_part(),
                          x.base_part() + y if sign > 0 else y - x.base_part())
        for i in range(2):
            assert same_value(got.eps_part(i), x.eps_part(i).scale(sign))


@pytest.mark.parametrize("kind", [Series, ScalarJet])
def test_parts_past_the_components_read_zero(kind):
    ctx = JetContext(("t1", "t2"), 2, 2, -10, 4)
    x = _jet_with_tangents(kind, ctx, rng(313), 1).partial("t1")
    assert x.vorder == ctx.order - 1
    base = x.base_part()
    assert base.E == 1 and base.vorder == x.vorder
    assert base.slabs[0] is x.slabs[0]
    for i in (1, 4):
        past = x.eps_part(i)
        assert past.E == 1 and past.max_abs() == 0.0
    assert same_value(x.eps_part(0).base_part(), x.eps_part(0))


@pytest.mark.parametrize("kind", [Series, ScalarJet])
def test_rows_written_into_missing_components_share_no_arrays(kind):
    # each padded component is a fresh zero: rows are written into it in
    # place, so a shared one would alias the components it pads
    ctx = JetContext(("t1", "t2"), 2, 2, -10, 4)
    src = _jet_with_tangents(kind, ctx, rng(317), 2)
    rows = np.arange(ctx.T)
    for out in (kind.from_rows(ctx, rows, src, rows),
                kind(ctx, (), ctx.order).with_rows(rows, src, rows)):
        assert same_value(out, src)
        arrays = [a for part in out.slabs for a in _component_arrays(part)]
        arrays += [a for part in src.slabs for a in _component_arrays(part)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        for a in _component_arrays(out.slabs[1]):
            a[...] = 7
        assert same_value(out.eps_part(1), src.eps_part(1))
        assert same_value(out.base_part(), src.base_part())


def test_laurent_inv_memo_matches_uncached_call():
    from loopjet.series import _laurent_inv, _neumann_inv
    ctx = fctx(lo=-16)
    gen = rng(71)

    def polished(s):  # the Neumann inverse X, polished: X (2I - A X)
        x = Series(ctx, (_neumann_inv(ctx, s.slabs[0]),), ctx.order)
        return x.matmul(Series.identity(ctx).scale(2.0) - s * x).slabs[0]

    neg = Series.identity(ctx) + series_from_dict(
        ctx, random_laurent_dict(gen, 2, -3, -1, 0.3))
    pos = Series.identity(ctx) + series_from_dict(
        ctx, random_laurent_dict(gen, 2, 1, 2, 0.3))
    cut = series_from_dict(ctx, {k: neg.coeff(0, k) for k in range(-3, 1)},
                           exact=False)
    for s in (neg, pos, cut):
        slab = s.slabs[0]
        first = _laurent_inv(ctx, slab)
        assert same_slab(first, polished(s))
        first.data[0] += 1.0
        first.tlo[0], first.shi[0] = 3, -7
        again = _laurent_inv(ctx, slab)
        assert again is not first
        assert same_slab(again, polished(s))
    # one entry per distinct row 0: its data and four degree bounds
    assert sum(key[0] == "inv" for key in ctx._cache) == 3


# -- the spectrum budget -------------------------------------------------------

def _budget_workload():
    """A chain of products, inverses and a tangent product, then a
    factorization, each in a fresh context: the values it builds."""
    from loopjet.hierarchy import akns_sequence
    from loopjet.scattering import factorize_jet
    from loopjet.splitting import SplittingSpec, sample_negative_element
    ctx = JetContext(("t1", "t2"), 3, 2, -14, 4)
    gen = rng(90)
    ident = Series.identity(ctx)
    A = ident + random_jet_series(ctx, gen, -3, -1, 0.3)
    B = ident + random_jet_series(ctx, gen, -2, 0, 0.3)
    dA = random_jet_series(ctx, gen, -2, 0, 0.3)
    AB = A * B
    out = [AB, AB * A.inv(), B.matmul(AB, 2), A.with_eps(dA) * B * A,
           A.with_eps(dA).inv() * AB]
    seq = akns_sequence(2, 3)
    ctx = seq.context(3)
    spec = SplittingSpec("standard", 2)
    res = factorize_jet(spec, seq, ctx, sample_negative_element(
        spec, ctx, seed=7, depth=3, amplitude=0.3))
    return out + [res.M, res.Minv, res.E, res.u]


def test_spectrum_budget_evicts_without_changing_a_bit(monkeypatch):
    # after every transform the ledger counts exactly the compact bytes of
    # the spectra its context's slabs hold, and never more than the budget;
    # at the least budgets every product evicts, and the values are those
    # of the default budget bit for bit
    seen: dict = {}
    fft = series._Slab.fft

    def checked(slab, ctx):
        hat = fft(slab, ctx)
        live = seen.setdefault(ctx, weakref.WeakSet())
        live.add(slab)
        held = sum(s._hat.nbytes for s in live if s._hat is not None)
        assert ctx.spectra.bytes == held
        assert held <= series._SPECTRUM_BUDGET * ctx.spectrum_bytes
        return hat

    monkeypatch.setattr(series._Slab, "fft", checked)
    default = _budget_workload()
    assert any(c.spectra.bytes > c.spectrum_bytes for c in seen)
    for budget in (0, 1):
        monkeypatch.setattr(series, "_SPECTRUM_BUDGET", budget)
        again = _budget_workload()
        assert all(same_value(x, y) for x, y in zip(default, again))


def test_a_dead_values_spectrum_stops_counting():
    ctx = JetContext(("t1", "t2"), 2, 2, -14, 4)
    gen = rng(91)
    a = random_jet_series(ctx, gen, -3, 0, 0.3)
    b = random_jet_series(ctx, gen, -2, 0, 0.3)
    a * b
    # every entry of every row is live: each compact spectrum is a dense
    # one's rows and an index of one int64 per entry
    hats = [x.slabs[0]._hat.nbytes for x in (a, b)]
    assert ctx.spectra.bytes == sum(hats) == 2 * (ctx.spectrum_bytes
                                                  + ctx.T * ctx.n ** 2 * 8)
    del a
    assert ctx.spectra.bytes == hats[1]
    del b
    assert ctx.spectra.bytes == 0


def test_ledger_drops_the_least_recently_used_first():
    from loopjet.context import Ledger

    class Holder:
        pass

    a, b, c = Holder(), Holder(), Holder()
    ledger = Ledger()
    assert ledger.use(a, 10, 20) == ledger.use(b, 10, 20) == []
    assert ledger.use(a, 10, 20) == []
    assert ledger.use(c, 10, 20) == [b]
    assert ledger.bytes == 20
    del c
    assert ledger.bytes == 10


# -- storage: only the live jet rows ------------------------------------------

def test_values_store_only_their_live_rows(monkeypatch):
    # a slab stores the rows up to its last live one and no more, with
    # bound arrays of every jet row, through a whole gl3_full run; the
    # zero value stores none, jet-constant values one
    slab_init, series_init = series._Slab.__init__, Series.__init__
    seen = {"slabs": 0, "values": 0}

    def slab_checked(self, data, bounds):
        slab_init(self, data, bounds)
        tlo, slo, shi, thi = bounds
        assert data.shape[0] == np.flatnonzero(shi != NEG).max(initial=-1) + 1
        assert len({b.shape for b in (tlo, slo, shi, thi)}) == 1
        seen["slabs"] += 1

    def series_checked(self, ctx, slabs, vorder):
        series_init(self, ctx, slabs, vorder)
        for s in slabs:
            assert all(b.shape == (ctx.T,) for b in (s.tlo, s.slo, s.shi, s.thi))
            assert s.data.shape[1:] == (ctx.W, ctx.n, ctx.n)
        seen["values"] += 1

    monkeypatch.setattr(series._Slab, "__init__", slab_checked)
    monkeypatch.setattr(Series, "__init__", series_checked)
    raw = json.loads((pathlib.Path(__file__).parent.parent / "configs"
                      / "gl3_full.json").read_text())
    scen = Scenario(ScenarioConfig.from_dict(raw))
    assert _Runner(scen).run().passed
    assert seen["slabs"] > 1000 and seen["values"] > 1000
    ctx = scen.ctx
    assert ctx.T == 84 and ("j1", ctx) in scen.seq._cache  # J_1 is memoized
    assert Series.zeros(ctx).stored_rows().shape[0] == 0
    for one in (Series.identity(ctx), scen.f, scen.seq.j1(ctx)):
        assert one.stored_rows().shape[0] == 1


@pytest.mark.parametrize("name", ["gl3_full", "akns_standard"])
def test_every_scenario_value_lives_in_the_scenario_context(monkeypatch,
                                                            name):
    # the datum f, the samples h and df, the fields at f and everything
    # built from them are jets of the scenario's one context
    contexts = []
    for cls in (Series, ScalarJet):
        def checked(self, ctx, *rest, _init=cls.__init__):
            _init(self, ctx, *rest)
            contexts.append(ctx)

        monkeypatch.setattr(cls, "__init__", checked)
    raw = json.loads((pathlib.Path(__file__).parent.parent / "configs"
                      / f"{name}.json").read_text())
    scen = Scenario(ScenarioConfig.from_dict(raw))
    assert _Runner(scen).run().passed
    assert len(contexts) > 1000
    assert all(ctx is scen.ctx for ctx in contexts)
