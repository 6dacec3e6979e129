"""The compiled kernel: the compact spectra, the pair walk and a product's
bookkeeping (live pairs, degree bounds, finalization, the top cap and the
masked window), bit for bit against their numpy oracles, its
floating-point errors, its build and cache, and resource failures of a
run (a failed build, out of memory) as documented exit codes."""

from __future__ import annotations

import functools
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import loopjet
from loopjet import JetContext, Series, kernel
from loopjet.cli import main
from loopjet.context import NEG, POS
from loopjet.kernel import Spectrum
from loopjet.series import (_conv_row, _one_row, _Slab, _slab_mul,
                            _spectrum, _zero_slab)

from helpers import (apply_support_mask, cap_top, coefficients,
                     compact_spectrum, dense, dense_spectrum, entry_mul,
                     finalize_tlo, live_pairs, product_bounds,
                     random_laurent_dict, reference_slab_product,
                     reference_walk, rng, same_slab)

# lambda windows by their FFT length
WINDOWS = {16: (-5, 3), 64: (-24, 10), 128: (-40, 20), 256: (-90, 40)}


def _spectra(gen, rows: int, n: int, nfft: int) -> np.ndarray:
    """Random spectra over many decades, some entries exactly zero."""
    shape = (rows, n, n, nfft)
    x = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) \
        * 10.0 ** gen.integers(-8, 9, shape)
    x[gen.random(shape) < 0.1] = 0.0
    return x


def _coefficients(gen, rows: int, W: int, n: int) -> np.ndarray:
    """Random window coefficients ``(rows, W, n, n)``, as ``_spectra``."""
    return np.ascontiguousarray(np.moveaxis(_spectra(gen, rows, n, W), -1, 1))


def _sparse(gen, rows: int, n: int, nfft: int) -> np.ndarray:
    """Random spectra with the structural zeros of the gl hierarchy: whole
    +0.0 entries, entries that hold only -0.0 (live: their bits are not
    +0.0), a +0.0 jet row and a single-entry row, as of e_kk lambda^j."""
    x = _spectra(gen, rows, n, nfft)
    x[gen.random((rows, n, n)) < 0.4] = 0.0
    x[gen.random((rows, n, n)) < 0.1] = -0.0
    x[0] = 0.0
    k = int(gen.integers(n))
    x[1] = 0.0
    x[1, k, k] = _spectra(gen, 1, 1, nfft)[0, 0, 0]
    return x


def _fed(A: Spectrum, B: Spectrum, pairs, rows: int, n: int) -> np.ndarray:
    """The output entries that a pair feeds a live term, in numpy."""
    la, lb = (x.index.reshape(-1, n, n) >= 0 for x in (A, B))
    out = np.zeros((rows, n, n), dtype=bool)
    for a, b, c in zip(*pairs):
        out[c] |= (la[a].astype(int) @ lb[b].astype(int)) > 0
    return out.ravel()


@pytest.mark.parametrize("nfft", [1, 7, 16, 64, 100, 128, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_is_the_numpy_walk_bit_for_bit(n, nfft):
    # C[c] += A[a] B[b] pair by pair in list order, each product as numpy
    # multiplies complex doubles and adds the k terms, on compact spectra
    # with structural zeros: the output entries a product numbers are
    # those a pair feeds a live term, in order, and its walk into them from
    # +0.0 gives the dense walk's bits, dead entries +0.0; into a C whose
    # every entry has a row (no -0.0 in it) it adds to each as the dense
    # walk does.  Lengths that are and are not a multiple of the walk's
    # chunk, repeated outputs, and an empty pair list, which leaves C as it
    # is
    gen = rng(100 * n + nfft)
    tables = JetContext((), 0, n, -5, 3).tables
    A, B = _sparse(gen, 5, n, nfft), _sparse(gen, 4, n, nfft)
    cA, cB = compact_spectrum(A), compact_spectrum(B)
    C0 = _spectra(gen, 6, n, nfft)
    pa = np.sort(gen.integers(0, 5, 40))
    pairs = (pa, gen.integers(0, 4, 40), gen.integers(0, 6, 40))
    empty = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    for p in (pairs, empty):
        got, ref = tables.product(cA, cB, p, 0, 5), np.zeros_like(C0)
        fed = _fed(cA, cB, p, 6, n)
        assert _same(got.index, np.where(fed, np.cumsum(fed) - 1, -1))
        assert got.rows.shape == (fed.sum(), nfft)
        reference_walk(A, B, p, ref)
        assert _same(dense_spectrum(got, n), ref)
        got = Spectrum(C0.reshape(-1, nfft).copy(), np.arange(6 * n * n))
        ref = C0.copy()
        kernel.walk(n, cA, cB, p, got)
        reference_walk(A, B, p, ref)
        assert _same(dense_spectrum(got, n), ref)


def test_spectrum_transforms_the_live_entries_alone():
    # each entry whose coefficients are not all +0.0 bits gets a row, in
    # order, and the transform of the rows is numpy's of that entry
    # zero-padded; a -0.0 entry is live, and with dense every entry is
    ctx = JetContext(("t1",), 1, 3, *WINDOWS[64])
    gen = rng(8)
    data = _coefficients(gen, 3, ctx.W, 3)
    data[:, :, 0, 1] = 0.0
    data[:, :, 2, 0] = -0.0
    data[1] = 0.0
    data[2, 5, 1, 1] = 0.0
    buf = np.zeros((3, 3, 3, ctx.nfft), complex)
    buf[..., :ctx.W] = np.moveaxis(data, 1, -1)
    want = np.fft.fft(buf, axis=-1)
    got = _spectrum(ctx, data)
    assert _same(dense_spectrum(got, 3), want)
    assert _same(got.index, compact_spectrum(buf).index)
    assert len(got.rows) == 2 * 9 - 2 * 1
    full = _spectrum(ctx, data, dense=True)
    assert _same(full.index, np.arange(27))
    assert _same(full.rows, want.reshape(27, -1))


def test_walk_keeps_its_pairs_alive(monkeypatch):
    # pair arrays that only the call references live until the compiled
    # walk returns
    gen = rng(7)
    A = compact_spectrum(_spectra(gen, 2, 2, 16))
    refs = []

    def pairs():
        arrays = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
        refs.extend(weakref.ref(x) for x in arrays)
        return arrays

    lib = kernel._library()
    real = lib.walk

    def spy(*args):
        assert all(r() is not None for r in refs)
        return real(*args)

    monkeypatch.setattr(lib, "walk", spy)
    C = Spectrum(np.zeros((8, 16), complex), np.arange(8))
    kernel.walk(2, A, A, pairs(), C)
    assert refs and all(r() is None for r in refs)


def test_conv_row_stays_dense(monkeypatch):
    # the Neumann step adds its one pair to -0.0: every spectrum it walks
    # has a row for every entry, whole zero entries of either factor
    # included, and its bits are numpy's
    ctx = JetContext((), 0, 3, *WINDOWS[64])
    gen = rng(9)
    x, y = _coefficients(gen, 2, ctx.W, 3)
    x[:, 1] = 0.0
    y[:, :, 2] = 0.0
    seen = []
    walk = kernel.walk

    def spy(n, A, B, pairs, C, first=0):
        seen.extend((A.index, B.index, C.index))
        return walk(n, A, B, pairs, C, first)

    monkeypatch.setattr(kernel, "walk", spy)
    fx = _spectrum(ctx, x[None], dense=True)
    got = _conv_row(ctx, fx, y, ctx.lo, ctx.hi)
    assert len(seen) == 3 and all(_same(i, np.arange(9)) for i in seen)
    pad = np.zeros((2, 3, 3, ctx.nfft), complex)
    pad[..., :ctx.W] = np.moveaxis(np.stack([x, y]), 1, -1)
    fxy = np.fft.fft(pad, axis=-1)
    C = np.full((1, 3, 3, ctx.nfft), -0.0, complex)
    C += entry_mul(fxy[:1], fxy[1:])
    want = apply_support_mask(ctx, coefficients(ctx, C).copy(),
                              np.array([ctx.lo]), np.array([ctx.hi]))
    assert _same(got, want[0])


def test_a_diagonal_generator_walks_only_its_live_terms(monkeypatch):
    # on the gl3_full scenario, M e_kk lambda^j walks one term for each live
    # entry (i, k) of M's row a in each live pair: counted by the kernel
    # itself, walking the same indexes over rows of ones, whose every
    # output then holds the number of terms walked into it; a dense walk
    # would take n^3 terms per pair
    from loopjet.scattering import factorize_jet
    from loopjet.scenario import Scenario, ScenarioConfig
    path = pathlib.Path(__file__).resolve().parents[1] / "configs"
    s = Scenario(ScenarioConfig.from_dict(json.loads(
        (path / "gl3_full.json").read_text())))
    ctx, n = s.ctx, s.ctx.n
    M = factorize_jet(s.spec, s.seq, ctx, s.f).M
    calls = []
    real = kernel.Tables.product

    def spy(tables, A, B, pairs, first, last):
        C = real(tables, A, B, pairs, first, last)
        calls.append((A, B, tables.live[:, :pairs[0]].copy(), C.index,
                      first))
        return C

    monkeypatch.setattr(kernel.Tables, "product", spy)
    for k in range(n):
        e = np.zeros((n, n))
        e[k, k] = 1.0
        E = Series.monomial(ctx, e, 2)
        product = M * E
        (A, B, pairs, index, first), = calls[-1:]
        ones = [Spectrum(np.ones_like(x.rows), x.index) for x in (A, B)]
        count = Spectrum(np.zeros((int(index.max()) + 1, ctx.nfft), complex),
                         index)
        kernel.walk(n, *ones, tuple(pairs), count, first)
        live = A.index.reshape(-1, n, n)[:, :, k] >= 0  # M's entries (i, k)
        assert count.rows[:, 0].real.sum() == live[pairs[0]].sum()
        assert live[pairs[0]].sum() <= pairs.shape[1] * n
        # the bits are the pair-by-pair reference's
        ref = reference_slab_product(ctx, M.slabs[0], E.slabs[0])
        deg = ctx.degrees[None, :]
        slab = product.slabs[0]
        keep = (deg >= slab.slo[:, None]) & (deg <= slab.shi[:, None])
        assert _same(dense(slab), ref * keep[..., None, None])


def _operand(ctx, gen, dead_rows) -> Series:
    """A value with its own degree range and exactness on every jet row;
    the ``dead_rows`` are certified zero but keep stale data."""
    out = Series.zeros(ctx)
    for row in range(ctx.T):
        lo = int(gen.integers(-5, 1))
        coeffs = random_laurent_dict(gen, ctx.n, lo, int(gen.integers(lo, 4)))
        out = out + Series.from_degree_matrices(
            ctx, coeffs, alpha=row, exact=bool(gen.integers(2)))
    slab = out.slabs[0]
    live = [row for row in range(ctx.T) if row not in dead_rows]
    slab.data = slab.data[:live[-1] + 1 if live else 0]
    for row in dead_rows:
        slab.shi[row], slab.slo[row] = NEG, POS
        slab.tlo[row], slab.thi[row] = NEG, POS
    return out


@pytest.mark.parametrize("nfft", sorted(WINDOWS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slab_mul_is_the_pair_by_pair_reference(n, nfft):
    # the product's bits are the pair-by-pair reference's, on the general
    # path and with either factor jet-constant, for every cap and for
    # random output rows; a product with no live pair is the zero slab
    ctx = JetContext(("t1", "t2"), 2, n, *WINDOWS[nfft])
    assert ctx.nfft == nfft
    gen = rng(10 * n + nfft)
    full = _operand(ctx, gen, dead_rows=(2,)).slabs[0]
    other = _operand(ctx, gen, dead_rows=(1, 4)).slabs[0]
    cst = _operand(ctx, gen, dead_rows=range(1, ctx.T)).slabs[0]
    deg, kept = ctx.degrees[None, :], 0
    for a, b in ((full, other), (full, cst), (cst, other)):
        for cap in (None, 1, 0):
            ref = reference_slab_product(ctx, a, b, cap)
            whole = _slab_mul(ctx, a, b, cap)
            keep = (deg >= whole.slo[:, None]) & (deg <= whole.shi[:, None])
            kept += np.count_nonzero(keep)
            assert np.array_equal(dense(whole), ref * keep[..., None, None])
            for want in (gen.random(ctx.T) < 0.5, np.zeros(ctx.T, bool)):
                part = _slab_mul(ctx, a, b, cap, want)
                assert np.array_equal(dense(part)[want], dense(whole)[want])
                assert not np.any(dense(part)[~want])
                assert np.all(part.shi[~want] == NEG)
    assert kept > 0
    # no live pair: a dead factor, or every live output past the cap
    dead = _operand(ctx, gen, dead_rows=range(ctx.T)).slabs[0]
    for a, b in ((full, dead), (dead, cst)):
        assert same_slab(_slab_mul(ctx, a, b), _zero_slab(ctx))


def test_walk_floating_point_errors_follow_errstate():
    # the walk raises no flag itself: its overflow and invalid operations
    # reach numpy's error handling like a numpy multiply's
    gen = rng(5)
    A = compact_spectrum(_spectra(gen, 1, 2, 16) * 0 + 1e300)
    pairs = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))

    def zeros():
        return Spectrum(np.zeros_like(A.rows), A.index)

    with np.errstate(over="raise", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflow"):
            kernel.walk(2, A, A, pairs, zeros())
    with np.errstate(over="warn", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            kernel.walk(2, A, A, pairs, zeros())
    inf = Spectrum(np.full_like(A.rows, np.inf), A.index)
    # a zero factor with a row meets the inf: a dead one would be skipped
    zero = Spectrum(np.full_like(A.rows, -0.0), A.index)
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid value"):
            kernel.walk(2, inf, zero, pairs, zeros())
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        C = zeros()
        kernel.walk(2, A, A, pairs, C)
        assert not np.all(np.isfinite(C.rows))


def test_walk_raises_for_a_pair_past_the_rows():
    # checked before any write: C is left as it is
    gen = rng(6)
    A = compact_spectrum(_spectra(gen, 2, 2, 16))
    C = Spectrum(_spectra(gen, 3, 2, 16).reshape(12, 16), np.arange(12))
    for bad in ((2, 0, 0), (0, 2, 0), (0, 0, 3), (-1, 0, 0)):
        pairs = tuple(np.array([0, p], dtype=np.int64) for p in bad)
        got = Spectrum(C.rows.copy(), C.index)
        with pytest.raises(ValueError, match="past"):
            kernel.walk(2, A, A, pairs, got)
        with pytest.raises(ValueError, match="past"):
            JetContext((), 0, 2, -5, 3).tables.product(A, A, pairs, 0, 2)
        assert _same(got.rows, C.rows)
    # an index past the rows of its spectrum, of part of an entry, or of
    # another length is refused before the walk
    pairs = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
    for short in (Spectrum(A.rows[:-1], A.index),
                  Spectrum(A.rows, np.r_[A.index, 0]),
                  Spectrum(A.rows[:, :8].copy(), A.index)):
        with pytest.raises(ValueError, match="spectra"):
            kernel.walk(2, short, A, pairs, Spectrum(C.rows.copy(), C.index))


# -- a product's bookkeeping ---------------------------------------------------

def _same(x, y) -> bool:
    """Bit-for-bit equality of int64 or complex arrays."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


def _bound_slab(ctx, gen, rows: int) -> _Slab:
    """A slab of ``rows`` stored rows whose degree bounds draw on every
    case of the rules: dead rows (``shi = NEG``, all rows from ``rows`` on),
    exact rows (``tlo = NEG``), no certified floor (``slo = NEG``),
    saturated tops (``shi = POS``), clipped ones (``thi < POS``), and
    finite values near half of either window end, so that their sums fall
    on both sides of it."""
    T = ctx.T
    near = np.r_[ctx.lo // 2 - 3:ctx.lo // 2 + 4, ctx.hi // 2 - 3:ctx.hi // 2 + 4]

    def draw(sentinel, p):
        return np.where(gen.random(T) < p, sentinel, gen.choice(near, T))

    tlo, slo, shi, thi = draw(NEG, 0.4), draw(NEG, 0.2), draw(POS, 0.15), \
        draw(POS, 0.6)
    dead = (gen.random(T) < 0.2) | (np.arange(T) >= rows)
    shi[dead], slo[dead], tlo[dead], thi[dead] = NEG, POS, NEG, POS
    data = np.zeros((rows, ctx.W, ctx.n, ctx.n), dtype=complex)
    return _Slab(data, np.array((tlo, slo, shi, thi)))


@pytest.mark.parametrize("variables,order", [(("t1", "t2"), 2),
                                             (("t1", "t2", "t3"), 3)])
def test_live_pairs_and_bounds_are_the_numpy_rules(variables, order):
    # the live pairs in table order, their least and greatest output, the
    # bounds scattered over them, and finalization with the top cap, bit
    # for bit as the numpy oracles: on the whole table and on its row-0
    # part (jet-constant factors), for caps 0, 1 and None and for no,
    # random and empty output masks
    ctx = JetContext(variables, order, 2, -20, 10)
    gen = rng(order)
    seen = {"exact": 0, "floor": 0, "capped": 0, "untrusted": 0}
    data = np.zeros((ctx.W, 2, 2))
    # row 0 of the product of each couple: exact at the floor, and
    # trusted up to past the top with its support inside
    crafted = [tuple(_one_row(ctx, 0, data, *b) for b in couple)
               for couple in (((-10, -10, -10, POS), (NEG, -10, -10, POS)),
                              ((NEG, 5, 5, 6), (NEG, 5, 5, POS)))]
    for _ in range(4):
        full, other = _bound_slab(ctx, gen, ctx.T), _bound_slab(ctx, gen, ctx.T)
        cst, cst2 = _bound_slab(ctx, gen, 1), _bound_slab(ctx, gen, 1)
        for a, b in [(full, other), (full, cst), (cst, other), (cst, cst2),
                     *crafted]:
            for cap in (None, 0, 1):
                top = ctx.order if cap is None else min(cap, ctx.order)
                for want in (None, gen.random(ctx.T) < 0.5,
                             np.zeros(ctx.T, bool)):
                    (count, *_), first, last, raw = ctx.tables.select(
                        a, b, top, want, final=False)
                    pairs = live_pairs(ctx, a, b, top, want)
                    assert _same(ctx.tables.live[:, :count], pairs)
                    c = pairs[2]
                    assert (first, last) == ((c.min(), c.max()) if c.size
                                             else (ctx.T, -1))
                    tlo, slo, shi, thi = product_bounds(ctx, a, b, pairs)
                    assert _same(raw, (tlo, slo, shi, thi))
                    fin = ctx.tables.select(a, b, top, want, final=True)[3]
                    assert _same(fin, (finalize_tlo(ctx, tlo, slo), slo, shi,
                                       cap_top(ctx, shi, thi)))
                    seen["exact"] += np.sum((tlo != NEG) & (fin[0] == NEG))
                    seen["floor"] += np.sum((tlo < ctx.lo) & (fin[0] == ctx.lo))
                    seen["capped"] += np.sum(fin[3] == ctx.hi)
                    seen["untrusted"] += np.sum((thi < POS) & (fin[3] == POS))
    assert min(seen.values()) > 0, seen


def test_cap_is_the_numpy_cap():
    ctx = JetContext((), 0, 1, -8, 6)
    near = np.array([NEG, POS, ctx.hi - 1, ctx.hi, ctx.hi + 1, 0, -30])
    shi, thi = (x.ravel() for x in np.meshgrid(near, near))
    bounds = np.array((np.zeros_like(shi), np.zeros_like(shi), shi, thi))
    kernel.cap(bounds, ctx.hi)
    assert _same(bounds[2:], (shi, cap_top(ctx, shi, thi)))


def _support(ctx, gen, first: int):
    """``(4, T)`` bounds whose supports ``[slo, shi]`` fall inside, across
    and outside the window, with dead rows, every row below ``first``
    among them."""
    T = ctx.T
    slo = gen.integers(ctx.lo - 3, ctx.hi + 3, T)
    shi = slo + gen.integers(-2, ctx.W, T)
    slo[gen.random(T) < 0.2], shi[gen.random(T) < 0.2] = NEG, POS
    dead = (gen.random(T) < 0.2) | (np.arange(T) < first)
    slo[dead], shi[dead] = POS, NEG
    return np.array((np.full(T, NEG), slo, shi, np.full(T, POS)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_is_the_numpy_masked_copy(n):
    # the window of the compact inverse transforms of rows first.. with the
    # support mask is coefficients(...).copy() and apply_support_mask, the
    # rows below the first live output and the entries without a row +0;
    # raw transforms with signed zeros, and the mask applied in place, keep
    # numpy's signs of zero as well
    ctx = JetContext(("t1", "t2"), 2, n, *WINDOWS[64])
    gen = rng(40 + n)
    T, W, lo = ctx.T, ctx.W, ctx.lo
    for first in (0, 2):
        bounds = _support(ctx, gen, first)
        slo, shi = bounds[1, first:], bounds[2, first:]
        C = _spectra(gen, T, n, ctx.nfft)
        C[:first] = 0.0
        C[gen.random((T, n, n)) < 0.3] = 0.0
        hat = compact_spectrum(np.fft.ifft(C[first:], axis=-1))
        assert np.any(hat.index < 0)
        got = np.zeros((T, W, n, n), dtype=complex)
        with pytest.raises(ValueError, match="window"):  # an index past
            kernel.window(got[first:], lo, slo, shi,
                          Spectrum(hat.rows[:-1], hat.index))
        kernel.window(got[first:], lo, slo, shi, hat)
        ref = apply_support_mask(ctx, coefficients(ctx, C).copy(),
                                 bounds[1], bounds[2])
        assert _same(got, ref) and not np.any(got[:first].view(np.int64))
        raw = np.fft.ifft(C, axis=-1)
        signed = gen.random(raw.shape) < 0.3
        raw.real[signed] = np.copysign(0.0, gen.standard_normal(signed.sum()))
        signed = gen.random(raw.shape) < 0.3
        raw.imag[signed] = np.copysign(0.0, gen.standard_normal(signed.sum()))
        got = np.zeros((T, W, n, n), dtype=complex)
        kernel.window(got[first:], lo, slo, shi, compact_spectrum(raw[first:]))
        want = np.moveaxis(raw[..., ctx.extract], -1, -3).copy()
        want[:first] = 0.0
        assert _same(got, apply_support_mask(ctx, want.copy(), bounds[1],
                                             bounds[2]))
        inplace = want.copy()
        kernel.window(inplace, lo, bounds[1], bounds[2])
        assert _same(inplace, apply_support_mask(ctx, want, bounds[1],
                                                 bounds[2]))


def test_window_floating_point_errors_follow_errstate():
    # an inf outside its row's support meets m = 0: an invalid operation
    # that reaches numpy's error handling like a numpy multiply's
    ctx = JetContext((), 0, 2, -5, 3)
    hat = np.zeros((1, 2, 2, ctx.nfft), dtype=complex)
    hat[0, 1, 0, -2 * ctx.lo - 2] = np.inf  # degree -2, outside [0, 3]

    def run():
        out = np.zeros((1, ctx.W, 2, 2), dtype=complex)
        kernel.window(out, ctx.lo, np.array([0]), np.array([3]),
                      compact_spectrum(hat))
        return out

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid"):
            run()
    with np.errstate(invalid="warn"):
        with pytest.warns(RuntimeWarning, match="invalid"):
            run()
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(run()[0, 3, 1, 0].real)


# -- build, cache and resource failures ----------------------------------------

SMALL = {"schema": "loopjet-scenario/1", "family": "akns_sl2", "n": 2,
         "variant": "standard", "flows": 1, "order": 1,
         "f_source": {"kind": "seeded", "seed": 7, "depth": 3,
                      "amplitude": 0.3},
         "suites": ["factorization"]}


def _config(tmp_path, cfg) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _fresh_library(monkeypatch) -> None:
    """A ``kernel._library`` that has loaded nothing yet, for this test."""
    monkeypatch.setattr(kernel, "_library",
                        functools.cache(kernel._library.__wrapped__))


def test_cached_library_is_loaded_without_a_build(monkeypatch):
    kernel._library()  # built (or found) once

    def no_build(cc, path):
        raise AssertionError("the compiler ran again")

    _fresh_library(monkeypatch)
    monkeypatch.setattr(kernel, "_build", no_build)
    assert kernel._library() is not None
    assert list(kernel.CACHE.glob("walk-*.so"))


@pytest.mark.parametrize("cc", ["/nonexistent/cc", "false"],
                         ids=["no_compiler", "failed_build"])
def test_exit_code_kernel_build_failure(tmp_path, capsys, monkeypatch, cc):
    # a missing compiler or a failed build is a resource failure that names
    # the stage, never a traceback, and no report is written
    _fresh_library(monkeypatch)
    monkeypatch.setattr(kernel, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(kernel, "CC", cc)
    out = tmp_path / "r.json"
    rc = main(["run", "--config", _config(tmp_path, SMALL), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "resource failure: kernel build" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not list((tmp_path / "cache").glob("*"))


def test_exit_code_out_of_memory(tmp_path):
    # a child whose address space is capped runs out of memory in a stage:
    # exit 4 naming the stage, no traceback and no report.  The window makes
    # one value 31 MB and one spectrum 64 MB, past the cap's headroom.
    kernel._library()  # built outside the cap: the child only loads it
    cfg = dict(SMALL, window={"lo": -500000, "hi": 0})
    out = tmp_path / "r.json"
    limit = 256 << 20
    src = pathlib.Path(loopjet.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "loopjet.cli", "run", "--config",
         _config(tmp_path, cfg), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 4, proc.stderr
    assert re.search(r"resource failure: (set-up|scattering datum|"
                     r"prerequisite factorization|suite \w+|report write): "
                     r"out of memory", proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
