"""Shared oracles, generators and comparisons for the test suite.

The oracles here are deliberately naive (dict-based double sums, a
pair-by-pair product that fixes the kernel's floating-point operations, and
the pairing over the whole pair table that fixes the pairing's) and never
call the vectorized kernels they are used to check.  The helpers at
the end (bit-for-bit comparisons, the trusted floor and window reads, the
repeated-product count, the dump parser, the KdV restriction check, the
algebra-level reality conditions with the checked projection, and the gl
hierarchy in power-sum coordinates) serve only the tests, so they live here
rather than in the package.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from loopjet import (DimensionMismatch, JetContext, ScalarJet, Series,
                     ShapeError, WindowExhausted)
from loopjet import series as kernel
from loopjet.context import NEG, POS
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
        coeffs = np.fft.ifft(spec, axis=-1)[:, :, ctx.extract]
        data[ic] = np.moveaxis(coeffs, -1, 0)
    return data


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
