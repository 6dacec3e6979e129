"""Shared oracles, generators and comparisons for the test suite.

The oracles here are deliberately naive (dict-based double sums, a
pair-by-pair product that fixes the kernel's floating-point operations, the
compiled kernel's rules written in numpy (the pair walk, live-pair
selection, the degree-bound rule, finalization, the top cap and the
support mask), the dense Neumann inverse, and the pairing over the whole
pair table that fixes the pairing's) and never call the kernels they are
used to check.  The helpers at the end (bit-for-bit comparisons, the
trusted floor and window reads, the repeated-product count, the dump
parser, the KdV restriction check, the algebra-level reality conditions
with the checked projection, and the gl hierarchy in power-sum
coordinates) serve only the tests, so they live here rather than in the
package.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from loopjet import (DimensionMismatch, JetContext, ScalarJet, Series,
                     ShapeError, WindowExhausted)
from loopjet import series as kernel
from loopjet.context import NEG, POS
from loopjet.kernel import Spectrum
from loopjet.hierarchy import (VacuumSequence, akns_sequence,
                               q_recursion_vector_akns)
from loopjet.splitting import SplitMix64, SplittingSpec, kdv_twist
from loopjet.tau import _from_entries


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(gen, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))


def random_laurent_dict(gen, n: int, lo: int, hi: int, scale: float = 1.0):
    return {k: random_matrix(gen, n, scale) for k in range(lo, hi + 1)}


def series_from_dict(ctx: JetContext, coeffs, alpha=0, exact=True) -> Series:
    return Series.from_degree_matrices(ctx, coeffs, alpha=alpha, exact=exact)


def conv_oracle(a: dict, b: dict) -> dict:
    """Brute-force double-sum Laurent convolution over all stored degrees."""
    out: dict = {}
    for ka, ma in a.items():
        for kb, mb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ma @ mb
    return out


def jet_conv_oracle(a: dict, b: dict, order: int) -> dict:
    """Brute-force multi-index Cauchy product (values: numpy arrays)."""
    out: dict = {}
    for aa, va in a.items():
        for ab, vb in b.items():
            c = tuple(x + y for x, y in zip(aa, ab))
            if sum(c) > order:
                continue
            out[c] = out.get(c, 0) + va * vb if np.isscalar(va) else out.get(c, 0) + va @ vb
    return out


def reference_slab_product(ctx: JetContext, a, b, cap=None) -> np.ndarray:
    """Data ``(T, W, n, n)`` of the jet product of slabs ``a`` and ``b``
    before its support mask, one pair of the context's pair table at a time
    and with the kernel's floating-point operations: the spectrum of a row
    is the FFT of its window coefficients zero-padded to ``nfft``, the
    n x n product of two spectra adds its terms in ascending k, and the
    contributions to each output row are added in ascending a.  Pairs with
    a certified-zero row or an output order past ``cap`` are left out."""
    top = ctx.order if cap is None else min(cap, ctx.order)
    n, W = ctx.n, ctx.W

    def spectrum(slab, row):
        buf = np.zeros((n, n, ctx.nfft), dtype=np.complex128)
        buf[:, :, :W] = np.moveaxis(dense(slab)[row], 0, -1)
        return np.fft.fft(buf, axis=-1)

    sums: dict = {}
    for ia, ib, ic in zip(ctx.pair_a, ctx.pair_b, ctx.pair_c):
        if a.shi[ia] == NEG or b.shi[ib] == NEG or ctx.totals[ic] > top:
            continue
        x, y = spectrum(a, ia), spectrum(b, ib)
        term = np.empty_like(x)
        for i in range(n):
            for j in range(n):
                term[i, j] = x[i, 0] * y[0, j]
                for k in range(1, n):
                    term[i, j] = term[i, j] + x[i, k] * y[k, j]
        sums[ic] = term if ic not in sums else sums[ic] + term
    data = np.zeros((ctx.T, W, n, n), dtype=np.complex128)
    for ic, spec in sums.items():
        coeffs = np.fft.ifft(spec, axis=-1)[:, :, -ctx.lo:-ctx.lo + W]
        data[ic] = np.moveaxis(coeffs, -1, 0)
    return data


def entry_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """n x n product over the entry axes ``(-3, -2)`` of row-major spectra,
    broadcasting the leading axes, in numpy: each entry adds its terms in
    ascending k.  The oracle of one pair of the compiled walk."""
    acc = x[..., :, 0:1, :] * y[..., 0:1, :, :]
    for k in range(1, x.shape[-2]):
        acc += x[..., :, k:k + 1, :] * y[..., k:k + 1, :, :]
    return acc


def compact_spectrum(x: np.ndarray) -> Spectrum:
    """The compact layout of spectra ``x (R, n, n, nfft)``, in numpy: a row
    for each entry whose values are not all +0.0 bits, in order, and the
    index from the entries to their rows, -1 for the others."""
    flat = x.reshape(-1, x.shape[-1])
    live = np.any(flat.view(np.int64) != 0, axis=-1)
    index = np.where(live, np.cumsum(live) - 1, -1).astype(np.int64)
    return Spectrum(flat[live].copy(), index)


def dense_spectrum(hat: Spectrum, n: int) -> np.ndarray:
    """Spectra ``(R, n, n, nfft)`` of the compact ``hat``, +0.0 at each
    entry without a row, in numpy."""
    rows, index = hat.rows, hat.index
    out = np.zeros((index.size, rows.shape[1]), dtype=np.complex128)
    out[index >= 0] = rows[index[index >= 0]]
    return out.reshape(-1, n, n, rows.shape[1])


def reference_walk(A: np.ndarray, B: np.ndarray, pairs, C: np.ndarray) -> None:
    """The compiled walk in numpy: ``C[c] += A[a] B[b]`` pair by pair, in
    order, each product by :func:`entry_mul`."""
    for ia, ib, ic in zip(*pairs):
        C[ic] += entry_mul(A[ia], B[ib])


def pair_bounds(a, ia, b, ib):
    """Degree bounds ``(tlo, slo, shi, thi)`` of the products of jet rows
    ``a[ia]`` and ``b[ib]``, pair by pair, in numpy: the oracle of the
    kernel's convolution rule.  An exact factor (``tlo == NEG``) adds no
    untrusted floor and an unclipped one (``thi == POS``) no untrusted top,
    whatever the other's support."""
    atlo, aslo, ashi, athi = a.tlo[ia], a.slo[ia], a.shi[ia], a.thi[ia]
    btlo, bslo, bshi, bthi = b.tlo[ib], b.slo[ib], b.shi[ib], b.thi[ib]
    tlo = np.maximum(np.where(atlo == NEG, NEG, atlo + bshi),
                     np.where(btlo == NEG, NEG, btlo + ashi))
    thi = np.minimum(np.where(athi == POS, POS, athi + bslo),
                     np.where(bthi == POS, POS, bthi + aslo))
    return tlo, aslo + bslo, np.minimum(ashi + bshi, POS), thi


def live_pairs(ctx: JetContext, a, b, top: int, want=None):
    """The pairs ``(pa, pb, pc)`` of the jet product of slabs ``a`` and
    ``b`` up to jet order ``top`` that can add anything, in the a-major
    order of the pair table, in numpy: both rows live and the output in
    ``want`` (every row without it); with a jet-constant factor only the
    row-0 part of the table is scanned.  The oracle of the kernel's
    live-pair selection."""
    pa, pb, pc = (ctx.zero_pairs if a.jet_const() or b.jet_const()
                  else (ctx.pair_a, ctx.pair_b, ctx.pair_c))
    live = (a.shi != NEG)[pa] & (b.shi != NEG)[pb] & (ctx.totals[pc] <= top)
    if want is not None:
        live &= want[pc]
    return pa[live], pb[live], pc[live]


def product_bounds(ctx: JetContext, a, b, pairs):
    """Degree bounds ``[tlo, slo, shi, thi]`` of the jet product of slabs
    ``a`` and ``b`` over its live ``pairs``, scattered in numpy and not
    finalized; an output row no pair reaches is certified zero."""
    pa, pb, pc = pairs
    bounds = [np.full(ctx.T, v, dtype=np.int64) for v in (NEG, POS, NEG, POS)]
    for scatter, out, c in zip((np.maximum.at, np.minimum.at) * 2, bounds,
                               pair_bounds(a, pa, b, pb)):
        scatter(out, pc, c)
    return bounds


def finalize_tlo(ctx: JetContext, tlo, slo):
    """Finite trusted floors clamped to the window, the exact marker kept
    only where the certified support floor shows nothing fell below it, in
    numpy: the oracle of the kernel's finalization."""
    exact = (tlo <= ctx.lo) & (slo >= ctx.lo)
    out = np.where(tlo <= ctx.lo, ctx.lo, tlo)
    out = np.where(exact, NEG, out)
    return out.astype(np.int64)


def cap_top(ctx: JetContext, shi, thi):
    """The trusted top capped at the window top, in numpy: degrees above
    the window become untrusted rather than silently zero.  The oracle of
    the kernel's cap."""
    thi = np.where(shi > ctx.hi, np.minimum(thi, ctx.hi), thi)
    return np.where(thi >= ctx.hi, np.where(shi > ctx.hi, ctx.hi, POS),
                    thi).astype(np.int64)


def coefficients(ctx: JetContext, hat: np.ndarray) -> np.ndarray:
    """Window coefficients ``(..., W, n, n)`` of a row-major spectrum, as a
    view of its inverse transform, in numpy."""
    window = slice(-ctx.lo, -ctx.lo + ctx.W)  # degrees lo..hi
    return np.moveaxis(np.fft.ifft(hat, axis=-1)[..., window], -1, -3)


def apply_support_mask(ctx: JetContext, data: np.ndarray, slo, shi):
    """Window coefficients ``data (R, W, n, n)`` multiplied in place by the
    support mask of their rows, ``[slo, shi]``, cast to complex, in numpy:
    the oracle of the kernel's mask."""
    deg, rows = ctx.degrees[None, :], data.shape[0]
    mask = (deg >= slo[:rows, None]) & (deg <= shi[:rows, None])
    data *= mask[:, :, None, None]
    return data


def reference_neumann_inv(ctx: JetContext, slab):
    """The Neumann inverse of row 0 of ``slab``, ``(data (W, n, n), (tlo,
    slo, shi, thi))``, by a dense route in numpy: with N = A0^-1 A - I,
    each power (-N)^k is -(N (-N)^(k-1)), every entry of both spectra
    walked into an accumulator of -0.0 by :func:`entry_mul`, transformed
    back, negated and masked to [k step_lo, k step_hi], until a power is
    zero; their sum times A0^-1 is masked to the inverse's support the
    same way, without the negation."""
    n, W, p0 = ctx.n, ctx.W, -ctx.lo

    def product(x, y, slo, shi, sign=1.0):
        buf = np.zeros((2, n, n, ctx.nfft), dtype=np.complex128)
        buf[..., :W] = np.moveaxis(np.stack([x, y]), 1, -1)
        fx, fy = np.fft.fft(buf, axis=-1)
        C = np.full((n, n, ctx.nfft), -0.0, dtype=np.complex128)
        C += entry_mul(fx, fy)
        out = coefficients(ctx, C)[None].copy()
        if sign < 0:
            np.negative(out, out=out)
        return apply_support_mask(ctx, out, np.array([slo]),
                                  np.array([shi]))[0]

    a = dense(slab)[0]
    a_tlo = int(slab.tlo[0])
    a0inv = np.linalg.inv(a[p0])
    n_mat = np.matmul(a0inv, a)
    n_mat[p0] = 0.0
    steps = ctx.degrees[np.abs(n_mat).max(axis=(1, 2)) > 0]
    inv = np.zeros((W, n, n), dtype=np.complex128)
    inv[p0] = a0inv
    if steps.size == 0:
        return inv, (a_tlo, 0, 0, POS)
    lo, hi = int(steps[0]), int(steps[-1])
    acc = np.zeros((W, n, n), dtype=np.complex128)
    acc[p0] = np.eye(n)
    term, top, nilpotent = acc, 0, False
    for k in range(1, W + 2):
        term = product(n_mat, term, k * lo, k * hi, -1.0)
        if not np.any(term):
            nilpotent = k * lo >= ctx.lo if hi < 0 else k * hi <= ctx.hi
            break
        acc, top = acc + term, k
    if hi < 0:
        slo = max(ctx.lo, top * lo) if nilpotent else ctx.lo
        bounds = (NEG if nilpotent and a_tlo == NEG else ctx.lo, slo, 0, POS)
    else:
        bounds = ((a_tlo, 0, min(ctx.hi, top * hi), POS) if nilpotent
                  else (a_tlo, 0, POS, ctx.hi))
    return product(acc, inv, bounds[1], bounds[2]), bounds


def reference_pairing(ctx: JetContext, a, b, k: int) -> np.ndarray:
    """Values ``(T,)`` of the pairing <a, b>_k of slabs ``a`` and ``b`` over
    the whole pair table: both operands gathered pair by pair over the
    overlap of their windows, reduced by one ``einsum`` and added into the
    ``pair_c`` rows in table order, so each output adds its terms in
    ascending a.  Dead rows and outputs past any trusted order are summed
    like the others."""
    off = ctx.W - 1 - (k - 2 * ctx.lo)
    wlo, whi = max(0, -off), min(ctx.W, ctx.W - off)
    out = np.zeros(ctx.T, dtype=np.complex128)
    if whi > wlo:
        ag = dense(a)[:, wlo:whi][ctx.pair_a]
        bg = dense(b)[:, ::-1][:, wlo + off:whi + off][ctx.pair_b]
        np.add.at(out, ctx.pair_c, np.einsum("pwab,pwba->p", ag, bg))
    return out


def random_jet_series(ctx: JetContext, gen, lo: int, hi: int,
                      scale: float = 0.5, exact: bool = True) -> Series:
    """Random series with content on every jet index and degrees [lo, hi]."""
    out = Series.zeros(ctx)
    for row in range(ctx.T):
        coeffs = random_laurent_dict(gen, ctx.n, lo, hi, scale)
        out = out + Series.from_degree_matrices(ctx, coeffs,
                                                alpha=row, exact=exact)
    return out


def random_scalar_jet(ctx: JetContext, gen, scale: float = 0.5) -> ScalarJet:
    vals = scale * (gen.standard_normal(ctx.T) + 1j * gen.standard_normal(ctx.T))
    return ScalarJet(ctx, (vals.astype(np.complex128),), ctx.order)


def jet_dict(series: Series, degrees) -> dict:
    """Read a series back into a {(alpha, k): matrix} dict via trusted reads."""
    out = {}
    for row in range(series.ctx.T):
        alpha = tuple(series.ctx.midx[row])
        for k in degrees:
            out[(alpha, k)] = series.coeff(alpha, k)
    return out


def dense(slab) -> np.ndarray:
    """Data ``(T, W, n, n)`` of a slab: its stored rows, then zero rows up
    to the length T of its degree-bound arrays."""
    out = np.zeros((slab.shi.size,) + slab.data.shape[1:], dtype=np.complex128)
    out[:slab.data.shape[0]] = slab.data
    return out


def trim(x: Series) -> Series:
    """``x`` with the stored rows of each component cut at its last live
    row, as the kernel stores them, after rows were certified zero in
    place."""
    for s in x.slabs:
        s.data = s.data[:kernel._live_rows(s.shi)].copy()
    return x


def same_slab(x, y) -> bool:
    """Bit-for-bit equality of two slabs: data and degree bounds."""
    return (np.array_equal(x.data, y.data)
            and all(np.array_equal(getattr(x, b), getattr(y, b))
                    for b in ("tlo", "slo", "shi", "thi")))


def same_value(x, y) -> bool:
    """Bit-for-bit equality of two series or scalar jets, every tangent
    component and the trusted order included."""
    same = same_slab if isinstance(x, Series) else np.array_equal
    return (x.E == y.E and x.vorder == y.vorder
            and all(same(a, b) for a, b in zip(x.slabs, y.slabs)))


def trusted_lo(series: Series) -> int:
    """Trusted floor of the base coefficient (jet index zero)."""
    t = int(series.slabs[0].tlo[0])
    return series.ctx.lo if t == NEG else t


def require_window(x: Series, what: str = "result") -> None:
    """Assert that every coefficient of x with content keeps a non-empty
    trusted window (its trusted floor at or below its trusted top)."""
    s = x.slabs[0]
    lo = np.where(s.tlo == NEG, x.ctx.lo, s.tlo)
    hi = np.where(s.thi == POS, x.ctx.hi, s.thi)
    if np.any((s.shi >= s.slo) & (lo > hi)):
        raise WindowExhausted(f"{what}: empty trusted window "
                              "(insufficient depth)")


@contextlib.contextmanager
def repeated_products():
    """Count the slab products made while the block runs, and those whose
    operands (data and the four degree-bound arrays of both), cap and row
    restriction repeat an earlier product of the block bit for bit.  Yields
    a dict with keys ``products`` and ``repeats``, updated as products are
    made."""
    count = {"products": 0, "repeats": 0}
    seen = set()
    slab_mul = kernel._slab_mul

    def counted(ctx, a, b, cap=None, want=None):
        h = hashlib.blake2b(repr(cap).encode())
        h.update(b"all" if want is None else want.tobytes())
        for slab in (a, b):
            for arr in (slab.data, slab.tlo, slab.slo, slab.shi, slab.thi):
                h.update(repr(arr.shape).encode())
                h.update(arr.tobytes())
        key = h.digest()
        count["products"] += 1
        count["repeats"] += key in seen
        seen.add(key)
        return slab_mul(ctx, a, b, cap, want)

    kernel._slab_mul = counted
    try:
        yield count
    finally:
        kernel._slab_mul = slab_mul


def csv_to_explicit_coeffs(text: str) -> list:
    """Explicit-f coefficient table from an M dump (its zero multi-index
    block is exactly f); used for report round-trips."""
    out = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        midx, deg, row, col, re, im = line.split(",")
        if any(int(x) != 0 for x in midx.split(";")):
            continue
        out.append([int(deg), int(row), int(col), float(re), float(im)])
    return out


def kdv_restriction_formula_check(order: int = 3, seed: int = 5) -> float:
    """The AKNS-restriction construction of the KdV tau identity: with q
    frozen to 1 in the 2x2 recursion, Q_-1 must reduce to
    (i/2)[[r, 0], [r_x, -r]] and tr(a Q_-1) to -r, on random r-jets."""
    seq = akns_sequence(2, 1)
    ctx = seq.context(order)
    gen = SplitMix64(seed)
    vals = np.array([gen.complex_entry(0.5) for _ in range(ctx.T)])
    r = ScalarJet(ctx, (vals,), ctx.order)
    u = _from_entries(ctx, {(0, 1): ScalarJet.const(ctx, 1.0),
                            (1, 0): r})
    _, P, T = q_recursion_vector_akns(seq, u, 2)
    q_m1 = P[1] + T[1]
    rx = seq.partial_x(r)
    expect = _from_entries(ctx, {(0, 0): r * 0.5j, (1, 0): rx * 0.5j,
                                 (1, 1): r * (-0.5j)})
    worst = (q_m1 - expect).max_abs()
    a_s = Series.monomial(ctx, seq.a)
    tr = (a_s * q_m1).trace_coeff(0)
    worst = max(worst, (tr + r).max_abs())
    return worst


def _sigma_alg(spec: SplittingSpec, x: Series) -> Series:
    if spec.sigma_mode == "conj":
        c = spec.sigma_conjugator
        if c is None:
            raise ShapeError("sigma_twisted with mode 'conj' needs a conjugator")
        return x.conjugate_by(np.asarray(c, dtype=complex))
    return -x.transpose()


def _tau_alg(spec: SplittingSpec, x: Series) -> Series:
    if spec.tau_mode == "hermitian":
        return -x.conj_coeffs().transpose()
    return x.conj_coeffs()


def alg_defect(spec: SplittingSpec, x: Series) -> float:
    """Max defect of the variant's defining algebra condition (0 for
    standard)."""
    worst = 0.0
    if spec.variant in ("u_real", "tau_sigma"):
        worst = max(worst, (x - _tau_alg(spec, x)).max_abs())
    if spec.variant in ("sigma_twisted", "tau_sigma"):
        worst = max(worst, (x - _sigma_alg(spec, x.flip_lambda())).max_abs())
    if spec.variant == "kdv_twisted":
        worst = max(worst, (x - kdv_twist(x)).max_abs())
    return worst


def project(spec: SplittingSpec, x: Series, sign: str) -> Series:
    """Standard +/- projection, after checking twisted membership.

    Uniqueness of the standard splitting forces the halves of a twisted
    element back into the twisted subalgebras, so no separate projector is
    needed for the variants.
    """
    if spec.variant != "standard":
        bad = alg_defect(spec, x)
        if bad > 1e-9 * max(1.0, x.max_abs()):
            raise ShapeError(
                f"project: operand violates the {spec.variant} condition "
                f"(defect {bad:.3e})")
    if sign == "+":
        return x.plus()
    if sign == "-":
        return x.minus()
    raise DimensionMismatch("sign must be '+' or '-'")


def gl_power_sequence(c, num_flows: int) -> VacuumSequence:
    """The gl hierarchy in the power-sum coordinates s_{i,j} with
    generators a**i lambda**j, a = diag(c), and x = s_{1,1}; related to
    ``gl_sequence`` by the linear change t_{k,j} = sum_i s_{i,j} c_k**i."""
    c = tuple(complex(x) for x in c)
    n = len(c)
    a = np.diag(c)
    variables = tuple(f"s{i}_{j}" for i in range(1, n + 1)
                      for j in range(1, num_flows + 1))
    bases = {}
    gens = {}
    power = np.eye(n, dtype=complex)
    for i in range(1, n + 1):
        power = power @ a
        bases[f"a{i}"] = {1: power.copy()}
        for j in range(1, num_flows + 1):
            gens[f"s{i}_{j}"] = (f"a{i}", j - 1)
    return VacuumSequence(family="gl_power", n=n, a=a, variables=variables,
                          bases=bases, gens=gens, x_comb=(("s1_1", 1.0),),
                          c=c)
