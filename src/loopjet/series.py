"""Exact-at-truncation arithmetic for jets of matrix Laurent series.

The central value type, :class:`Series`, is a truncated Taylor expansion in
the flow variables of a :class:`~loopjet.context.JetContext` whose
coefficients are truncated matrix Laurent series in lambda.  A plain Laurent
series is the degenerate case of a context with no variables.

Truncation is tracked, never guessed.  Per jet coefficient:

* ``slo``/``shi`` are certified support bounds: the true coefficient
  vanishes below ``slo`` and above ``shi`` (``slo = NEG`` means no lower
  certification exists; ``shi`` may exceed the storage top, in which case
  the excess is unknown and ``thi`` records that).
* ``tlo`` is the trusted floor: stored degrees ``>= tlo`` equal the true
  coefficients.  ``tlo = NEG`` means the coefficient is exact everywhere,
  which requires a certified support floor inside the window.  Reads below
  ``tlo`` raise :class:`TrustError` instead of returning zero.
* ``thi`` mirrors ``tlo`` from above.  It is ``POS`` except for values
  whose true support was clipped at the top of the window (Neumann
  inverses of L+ shapes, products certified past the window top).

Products propagate the bounds with the convolution rule
``tlo(AB) = max(tlo_A + shi_B, tlo_B + shi_A)`` applied per jet
coefficient; the plus-projection restores full trust below zero because its
result is zero there by definition.  ``vorder`` tracks the trusted jet
order (a time derivative lowers it by one) and comparisons mask orders
beyond it.

Coefficients are stored as ``(T, W, n, n)``: jet row, lambda position,
matrix entry.  Products convolve in lambda by FFT and cache each operand's
spectrum entry-major, as ``(n, n, T, nfft)``, with certified-zero rows
(``shi == NEG``) held at exact zero.  The jet product runs over the live
rows ``a`` of the left factor: the admissible right rows are the prefix
``[0, upto[top - |a|])`` of the context's row-prefix table, their outputs
``row_out[a]`` are distinct, and the n x n product of spectra is summed
entry by entry (``_entry_mul``), the one way spectra are multiplied here.
The integer degree bounds of a product are reduced over the context's pair
table.

Every value carries K >= 0 tangent components next to its base value: a
first-order nilpotent extension with ``eps_i eps_j = 0`` (vector forward
mode).  Any pipeline stage is differentiated exactly along K directions at
once by running it on ``f.with_eps(df_0, ..., df_{K-1})`` and reading
``.eps_part(i)`` of the result; each tangent component is computed by the
same operations as a single-direction run, so it is bit-identical to one.
"""

from __future__ import annotations

import math

import numpy as np

from .context import NEG, POS, JetContext
from .errors import DimensionMismatch, ShapeError, TrustError, WindowExhausted

__all__ = [
    "Series", "ScalarJet", "series_mul", "series_inv", "series_dlambda",
    "jet_mul", "jet_add", "jet_scale", "jet_partial", "jet_exp",
    "exp_series", "pairing_k", "cocycle", "commutator",
    "directional_derivative", "defect", "scalar_defect",
]

_SINGULAR_COND = 1e12


class _Slab:
    """One epsilon component: dense data plus per-coefficient degree bounds."""

    __slots__ = ("data", "tlo", "slo", "shi", "thi", "_hat")

    def __init__(self, data, tlo, slo, shi, thi):
        self.data = data
        self.tlo = tlo
        self.slo = slo
        self.shi = shi
        self.thi = thi
        self._hat = None

    def fft(self, ctx: JetContext):
        """Entry-major spectrum ``(n, n, T, nfft)``; certified-zero rows
        (``shi == NEG``) are exact zeros whatever their stored data."""
        if self._hat is None:
            T, _, n, _ = self.data.shape
            live = np.flatnonzero(self.shi != NEG)
            self._hat = np.zeros((n, n, T, ctx.nfft), dtype=np.complex128)
            self._hat[:, :, live] = _spectrum(ctx, self.data[live])
        return self._hat

    def is_zero(self) -> bool:
        return bool(np.all(self.shi == NEG))

    def jet_const(self) -> bool:
        return self.data.shape[0] == 1 or bool(np.all(self.shi[1:] == NEG))


def _zero_slab(ctx: JetContext) -> _Slab:
    T = ctx.T
    return _Slab(np.zeros((T, ctx.W, ctx.n, ctx.n), dtype=np.complex128),
                 np.full(T, NEG, dtype=np.int64), np.full(T, POS, dtype=np.int64),
                 np.full(T, NEG, dtype=np.int64), np.full(T, POS, dtype=np.int64))


def _apply_support_mask(ctx: JetContext, slab: _Slab) -> _Slab:
    """Zero stored entries outside the certified support; this keeps
    structural zeros exact (no FFT dust beyond the support)."""
    deg = ctx.degrees[None, :]
    mask = (deg >= slab.slo[:, None]) & (deg <= slab.shi[:, None])
    slab.data *= mask[:, :, None, None]
    return slab


def _finalize_tlo(ctx: JetContext, tlo, slo):
    """Clamp finite trusted floors to the window; keep the exact marker only
    where the certified support floor shows nothing fell below the window."""
    exact = (tlo <= ctx.lo) & (slo >= ctx.lo)
    out = np.where(tlo <= ctx.lo, ctx.lo, tlo)
    out = np.where(exact, NEG, out)
    return out.astype(np.int64)


def _cap_top(ctx: JetContext, shi, thi):
    """Certified content past the window top cannot be stored: degrees above
    the window become untrusted rather than silently zero."""
    thi = np.where(shi > ctx.hi, np.minimum(thi, ctx.hi), thi)
    return np.where(thi >= ctx.hi, np.where(shi > ctx.hi, ctx.hi, POS),
                    thi).astype(np.int64)


def _spectrum(ctx: JetContext, x: np.ndarray) -> np.ndarray:
    """Entry-major spectrum ``(n, n, ..., nfft)`` of window coefficients
    ``(..., W, n, n)``."""
    return np.fft.fft(np.moveaxis(x, (-2, -1), (0, 1)), n=ctx.nfft, axis=-1)


def _coefficients(ctx: JetContext, hat: np.ndarray) -> np.ndarray:
    """Window coefficients ``(..., W, n, n)`` of an entry-major spectrum."""
    data = np.fft.ifft(hat, axis=-1)[..., ctx.extract]
    return np.ascontiguousarray(np.moveaxis(data, (0, 1), (-2, -1)))


def _entry_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """n x n product over the two leading (entry) axes of entry-major
    spectra, broadcasting the trailing axes."""
    acc = x[:, 0:1] * y[0:1]
    for k in range(1, x.shape[1]):
        acc += x[:, k:k + 1] * y[k:k + 1]
    return acc


def _live_end(slab: _Slab) -> int:
    """One past the last jet row that is not certified zero."""
    return int(np.flatnonzero(slab.shi != NEG)[-1]) + 1


def _slab_mul(ctx: JetContext, a: _Slab, b: _Slab,
              cap: int | None = None) -> _Slab:
    if a.is_zero() or b.is_zero():
        return _zero_slab(ctx)
    if b.jet_const():
        return _slab_mul_const(ctx, a, b, b_const=True)
    if a.jet_const():
        return _slab_mul_const(ctx, a, b, b_const=False)

    pa, pb, pc = ctx.pair_a, ctx.pair_b, ctx.pair_c
    starts, outs = ctx.group_starts, ctx.group_out
    # skip pairs with a certified-zero factor, and (for order-capped
    # products) output orders beyond the cap
    live = (a.shi[pa] != NEG) & (b.shi[pb] != NEG)
    if cap is not None:
        live &= ctx.totals[pc] <= cap
    if not live.all():
        idx = np.flatnonzero(live)
        pa, pb, pc = pa[idx], pb[idx], pc[idx]
        if pc.size == 0:
            return _zero_slab(ctx)
        starts = np.flatnonzero(np.r_[True, np.diff(pc) != 0])
        outs = pc[starts]

    sa, sb = a.shi[pa], b.shi[pb]
    cand_shi = sa + sb
    cand_slo = a.slo[pa] + b.slo[pb]
    cand_tlo = np.maximum(a.tlo[pa] + sb, b.tlo[pb] + sa)
    ta = np.where(a.thi[pa] == POS, POS, a.thi[pa] + b.slo[pb])
    tb = np.where(b.thi[pb] == POS, POS, b.thi[pb] + a.slo[pa])
    cand_thi = np.minimum(ta, tb)

    shi = np.full(ctx.T, NEG, dtype=np.int64)
    slo = np.full(ctx.T, POS, dtype=np.int64)
    tlo = np.full(ctx.T, NEG, dtype=np.int64)
    thi = np.full(ctx.T, POS, dtype=np.int64)
    shi[outs] = np.maximum.reduceat(cand_shi, starts)
    slo[outs] = np.minimum.reduceat(cand_slo, starts)
    tlo[outs] = np.maximum.reduceat(cand_tlo, starts)
    thi[outs] = np.minimum.reduceat(cand_thi, starts)

    # a-row by a-row: the admissible b rows are a prefix whose outputs are
    # distinct, so each contribution adds straight into its output rows;
    # dead rows are zero in the cached spectra and contribute nothing
    top = ctx.order if cap is None else min(cap, ctx.order)
    A, B = a.fft(ctx), b.fft(ctx)
    b_end = _live_end(b)
    C = np.zeros((ctx.n, ctx.n, ctx.upto[top], ctx.nfft), dtype=np.complex128)
    for ia in np.flatnonzero(a.shi != NEG):
        rest = top - ctx.totals[ia]
        if rest < 0:
            break  # graded order: every later row is past the cap too
        nb = min(ctx.upto[rest], b_end)
        C[:, :, ctx.row_out[ia][:nb]] += _entry_mul(A[:, :, ia, None],
                                                    B[:, :, :nb])
    data = np.zeros((ctx.T, ctx.W, ctx.n, ctx.n), dtype=np.complex128)
    data[:ctx.upto[top]] = _coefficients(ctx, C)

    slab = _Slab(data, _finalize_tlo(ctx, tlo, slo),
                 slo, shi, _cap_top(ctx, shi, thi))
    return _apply_support_mask(ctx, slab)


def _slab_mul_const(ctx: JetContext, a: _Slab, b: _Slab, b_const: bool) -> _Slab:
    """Product where one operand only occupies the zero multi-index."""
    full, cst = (a, b) if b_const else (b, a)
    s0, l0, t0, h0 = cst.shi[0], cst.slo[0], cst.tlo[0], cst.thi[0]
    # certified-zero rows of the full operand stay certified zero
    shi = np.where(full.shi == NEG, NEG, full.shi + s0)
    slo = np.where(full.slo == POS, POS, full.slo + l0)
    tlo = np.maximum(full.tlo + s0, t0 + full.shi)
    ta = np.where(full.thi == POS, POS, full.thi + l0)
    tb = POS if h0 == POS else h0 + full.slo
    thi = np.minimum(ta, tb)
    m = _live_end(full)
    if b_const:
        G = _entry_mul(a.fft(ctx)[:, :, :m], b.fft(ctx)[:, :, 0:1])
    else:
        G = _entry_mul(a.fft(ctx)[:, :, 0:1], b.fft(ctx)[:, :, :m])
    data = np.zeros_like(full.data)
    data[:m] = _coefficients(ctx, G)
    slab = _Slab(data, _finalize_tlo(ctx, tlo, slo),
                 slo, shi, _cap_top(ctx, shi, thi))
    return _apply_support_mask(ctx, slab)


def _slab_add(a: _Slab, b: _Slab, sign: float) -> _Slab:
    return _Slab(a.data + sign * b.data, np.maximum(a.tlo, b.tlo),
                 np.minimum(a.slo, b.slo), np.maximum(a.shi, b.shi),
                 np.minimum(a.thi, b.thi))


def _leibniz(a: tuple, b: tuple, mul, add) -> tuple:
    """Components of a bilinear product of values with tangent parts
    (``eps_i eps_j = 0``): ``a_0 b_0``, then ``a_0 b_i + a_i b_0`` for each
    tangent i, a component that one factor lacks counting as zero."""
    out = [mul(a[0], b[0])]
    for i in range(1, max(len(a), len(b))):
        left = mul(a[0], b[i]) if i < len(b) else None
        right = mul(a[i], b[0]) if i < len(a) else None
        out.append(right if left is None else
                   left if right is None else add(left, right))
    return tuple(out)


class Series:
    """Jet of matrix Laurent series with K >= 0 tangent components:
    ``slabs[0]`` is the base value, ``slabs[1 + i]`` tangent component i,
    and ``E = 1 + K``."""

    __slots__ = ("ctx", "slabs", "vorder")

    def __init__(self, ctx: JetContext, slabs: tuple[_Slab, ...], vorder: int):
        self.ctx = ctx
        self.slabs = slabs
        self.vorder = vorder

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: JetContext) -> "Series":
        return cls(ctx, (_zero_slab(ctx),), ctx.order)

    @classmethod
    def identity(cls, ctx: JetContext) -> "Series":
        return cls.from_degree_matrices(ctx, {0: np.eye(ctx.n)})

    @classmethod
    def from_degree_matrices(cls, ctx: JetContext,
                             coeffs: dict[int, np.ndarray],
                             alpha: tuple[int, ...] | int = 0,
                             exact: bool = True) -> "Series":
        """Series with the given lambda coefficients at one jet index.

        ``exact=False`` marks the value as truncation-limited: its content
        below the window is unknown, so the trusted floor is the window
        bottom rather than minus infinity.
        """
        slab = _zero_slab(ctx)
        row = alpha if isinstance(alpha, int) else ctx.index_of[tuple(alpha)]
        degs = []
        for k, m in coeffs.items():
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (ctx.n, ctx.n):
                raise DimensionMismatch("coefficient matrix has wrong shape")
            if not (ctx.lo <= k <= ctx.hi):
                raise WindowExhausted(f"degree {k} outside window "
                                      f"[{ctx.lo},{ctx.hi}]")
            if np.any(m != 0):
                slab.data[row, ctx.pos(k)] = m
                degs.append(k)
        if degs:
            slab.slo[row] = min(degs)
            slab.shi[row] = max(degs)
        if not exact:
            slab.tlo[row] = ctx.lo
            slab.slo[row] = NEG
        return cls(ctx, (slab,), ctx.order)

    @classmethod
    def monomial(cls, ctx: JetContext, matrix: np.ndarray, degree: int = 0,
                 alpha: tuple[int, ...] | int = 0) -> "Series":
        return cls.from_degree_matrices(ctx, {degree: matrix}, alpha=alpha)

    # -- epsilon handling --------------------------------------------------

    @property
    def E(self) -> int:
        return len(self.slabs)

    def base_part(self) -> "Series":
        return Series(self.ctx, (self.slabs[0],), self.vorder)

    def eps_part(self, i: int = 0) -> "Series":
        """Tangent component ``i`` (zero if the value has none)."""
        if i + 1 >= self.E:
            return Series.zeros(self.ctx)
        return Series(self.ctx, (self.slabs[i + 1],), self.vorder)

    def with_eps(self, *dirs: "Series") -> "Series":
        """The base value with one tangent component per direction."""
        for d in dirs:
            self.ctx.require_compatible(d.ctx)
        if self.E != 1 or any(d.E != 1 for d in dirs):
            raise DimensionMismatch("cannot nest epsilon extensions")
        return Series(self.ctx, self.slabs + tuple(d.slabs[0] for d in dirs),
                      min([self.vorder] + [d.vorder for d in dirs]))

    # -- ring operations ---------------------------------------------------

    def _binary_slabs(self, other: "Series"):
        E = max(self.E, other.E)
        za = self.slabs + (_zero_slab(self.ctx),) * (E - self.E)
        zb = other.slabs + (_zero_slab(self.ctx),) * (E - other.E)
        return za, zb

    def __add__(self, other: "Series") -> "Series":
        self.ctx.require_compatible(other.ctx)
        za, zb = self._binary_slabs(other)
        return Series(self.ctx, tuple(_slab_add(a, b, 1.0) for a, b in zip(za, zb)),
                      min(self.vorder, other.vorder))

    def __sub__(self, other: "Series") -> "Series":
        self.ctx.require_compatible(other.ctx)
        za, zb = self._binary_slabs(other)
        return Series(self.ctx, tuple(_slab_add(a, b, -1.0) for a, b in zip(za, zb)),
                      min(self.vorder, other.vorder))

    def __neg__(self) -> "Series":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "Series":
        return Series(self.ctx, tuple(
            _Slab(s.data * c, s.tlo.copy(), s.slo.copy(), s.shi.copy(),
                  s.thi.copy()) for s in self.slabs), self.vorder)

    def __mul__(self, other):
        if isinstance(other, Series):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "Series", cap: int | None = None) -> "Series":
        """Product; ``cap`` truncates the result to jet orders <= cap (the
        trusted order drops accordingly)."""
        self.ctx.require_compatible(other.ctx)
        if self.ctx.n != other.ctx.n:
            raise DimensionMismatch("matrix dimension mismatch")
        slabs = _leibniz(self.slabs, other.slabs,
                         lambda a, b: _slab_mul(self.ctx, a, b, cap),
                         lambda x, y: _slab_add(x, y, 1.0))
        vorder = min(self.vorder, other.vorder)
        if cap is not None:
            vorder = min(vorder, cap)
        return Series(self.ctx, slabs, vorder)

    # -- structure maps ----------------------------------------------------

    def _map_data(self, fn) -> "Series":
        return Series(self.ctx, tuple(
            _Slab(fn(s.data), s.tlo.copy(), s.slo.copy(), s.shi.copy(),
                  s.thi.copy()) for s in self.slabs), self.vorder)

    def conj_coeffs(self) -> "Series":
        """Entrywise conjugation of every coefficient; as a function of
        lambda this is X |-> conj(X(conj(lambda)))."""
        return self._map_data(np.conj)

    def transpose(self) -> "Series":
        return self._map_data(
            lambda d: np.ascontiguousarray(d.transpose(0, 1, 3, 2)))

    def flip_lambda(self) -> "Series":
        """lambda -> -lambda: flip the sign of odd-degree coefficients."""
        signs = np.where(self.ctx.degrees % 2 == 0, 1.0, -1.0)
        return self._map_data(lambda d: d * signs[None, :, None, None])

    def conjugate_by(self, g: np.ndarray) -> "Series":
        """Constant conjugation g X g^-1."""
        ginv = np.linalg.inv(g)
        return self._map_data(lambda d: np.ascontiguousarray(g @ d @ ginv))

    def block_mask(self, rows, cols) -> "Series":
        """Keep only the sub-block rows x cols, zeroing the complement."""
        keep = np.zeros((self.ctx.n, self.ctx.n), dtype=bool)
        keep[np.ix_(list(rows), list(cols))] = True
        return self._map_data(lambda d: d * keep)

    def hadamard(self, weights: np.ndarray) -> "Series":
        """Entrywise multiplication of every coefficient by a constant
        matrix (e.g. the inverse of ad of a regular diagonal element)."""
        w = np.asarray(weights, dtype=np.complex128)
        return self._map_data(lambda d: d * w)

    def dlambda(self) -> "Series":
        ctx = self.ctx
        out = []
        for s in self.slabs:
            data = np.zeros_like(s.data)
            k = ctx.degrees[1:]
            data[:, :-1] = s.data[:, 1:] * k[None, :, None, None]
            # a top (bottom) term of degree exactly 0 dies under d/dlambda
            shi = np.where(s.shi == NEG, NEG,
                           np.where(s.shi == 0, s.shi - 2, s.shi - 1))
            thi = np.where(s.thi == POS, POS, s.thi - 1)
            exact = s.tlo == NEG
            bottom_safe = (s.slo > ctx.lo) | (
                np.abs(s.data[:, 0]).max(axis=(1, 2)) == 0)
            tlo = np.where(exact & bottom_safe, NEG,
                           np.where(exact, ctx.lo,
                                    np.maximum(s.tlo - 1, ctx.lo)))
            slo = np.where(s.slo == POS, POS,
                           np.where(s.slo == 0, 0, s.slo - 1))
            slo = np.where(exact & bottom_safe & (slo != POS),
                           np.maximum(slo, ctx.lo), slo)
            slab = _Slab(data, tlo.astype(np.int64), slo.astype(np.int64),
                         shi.astype(np.int64), _cap_top(ctx, shi, thi))
            out.append(_apply_support_mask(ctx, slab))
        return Series(ctx, tuple(out), self.vorder)

    def shift(self, s: int) -> "Series":
        """Multiply by lambda**s."""
        ctx = self.ctx
        if s == 0:
            return self
        out = []
        for sl in self.slabs:
            shi = np.where(sl.shi == NEG, NEG, sl.shi + s)
            slo = np.where(sl.slo == POS, POS, sl.slo + s)
            data = np.zeros_like(sl.data)
            if s > 0:
                data[:, s:] = sl.data[:, :ctx.W - s]
            else:
                data[:, :ctx.W + s] = sl.data[:, -s:]
            exact = sl.tlo == NEG
            keeps = np.where(sl.slo == POS, POS, slo) >= ctx.lo
            tlo = np.where(exact & keeps, NEG,
                           np.where(exact, ctx.lo,
                                    np.maximum(sl.tlo + s, ctx.lo)))
            thi = np.where(sl.thi == POS, POS, sl.thi + s)
            slab = _Slab(data, tlo.astype(np.int64), slo.astype(np.int64),
                         shi.astype(np.int64), _cap_top(ctx, shi, thi))
            out.append(_apply_support_mask(ctx, slab))
        return Series(ctx, tuple(out), self.vorder)

    def restrict_degrees(self, klo: int, khi: int) -> "Series":
        """Restriction to degrees in [klo, khi] (content outside is dropped
        and certified zero); used for depth-limited comparisons."""
        ctx = self.ctx
        out = []
        for s in self.slabs:
            data = s.data.copy()
            if klo > ctx.lo:
                data[:, :ctx.pos(klo)] = 0.0
            if khi < ctx.hi:
                data[:, ctx.pos(khi) + 1:] = 0.0
            slo = np.maximum(s.slo, klo)
            shi = np.minimum(s.shi, khi)
            tlo = np.where(s.tlo <= klo, NEG, s.tlo)
            thi = np.where(s.thi >= khi, POS, s.thi)
            out.append(_Slab(data, tlo.astype(np.int64), slo.astype(np.int64),
                             shi.astype(np.int64), thi.astype(np.int64)))
        return Series(ctx, tuple(out), self.vorder)

    def plus(self) -> "Series":
        """Projection onto degrees >= 0; restores full trust below zero
        because the result is zero there by definition."""
        ctx = self.ctx
        cut = ctx.pos(0)
        out = []
        for s in self.slabs:
            data = s.data.copy()
            data[:, :cut] = 0.0
            slo = np.maximum(s.slo, 0)
            tlo = np.where(s.tlo <= 0, NEG, s.tlo)
            out.append(_Slab(data, tlo.astype(np.int64), slo.astype(np.int64),
                             s.shi.copy(), s.thi.copy()))
        return Series(ctx, tuple(out), self.vorder)

    def minus(self) -> "Series":
        """Projection onto degrees < 0; degrees >= 0 become certified zero."""
        ctx = self.ctx
        cut = ctx.pos(0)
        out = []
        for s in self.slabs:
            data = s.data.copy()
            data[:, cut:] = 0.0
            shi = np.minimum(s.shi, -1)
            thi = np.where(s.thi >= -1, POS, s.thi)
            out.append(_Slab(data, s.tlo.copy(), s.slo.copy(),
                             shi.astype(np.int64), thi.astype(np.int64)))
        return Series(ctx, tuple(out), self.vorder)

    # -- inverses and exponentials -----------------------------------------

    def inv(self, cap: int | None = None) -> "Series":
        if self.E > 1:
            b = self.base_part().inv(cap)
            return b.with_eps(*[-b.matmul(self.eps_part(i), cap).matmul(b, cap)
                                for i in range(self.E - 1)])
        ctx = self.ctx
        base = _laurent_inv(ctx, self.slabs[0])
        x = Series(ctx, (base,), self.vorder)
        goal = ctx.order if cap is None else min(cap, ctx.order)
        if goal == 0 or self.slabs[0].jet_const():
            return x
        two_i = Series.identity(ctx).scale(2.0)
        for _ in range(max(1, math.ceil(math.log2(goal + 1)))):
            x = x.matmul(two_i - self.matmul(x, cap), cap)
        return x

    def jet_partial(self, var: str) -> "Series":
        """Partial derivative in one flow variable; trusted jet order drops."""
        ctx = self.ctx
        src, dst, fac = ctx.partial_maps[ctx.var_index(var)]
        out = []
        for s in self.slabs:
            slab = _zero_slab(ctx)
            slab.data[dst] = s.data[src] * fac[:, None, None, None]
            slab.tlo[dst] = s.tlo[src]
            slab.slo[dst] = s.slo[src]
            slab.shi[dst] = s.shi[src]
            slab.thi[dst] = s.thi[src]
            out.append(slab)
        return Series(ctx, tuple(out), min(self.vorder - 1, ctx.order))

    def times_var(self, var: str) -> "Series":
        """Multiply by the monomial t_var (exact at every stored order)."""
        ctx = self.ctx
        src, dst = ctx.monomial_maps[ctx.var_index(var)]
        out = []
        for s in self.slabs:
            slab = _zero_slab(ctx)
            slab.data[dst] = s.data[src]
            slab.tlo[dst] = s.tlo[src]
            slab.slo[dst] = s.slo[src]
            slab.shi[dst] = s.shi[src]
            slab.thi[dst] = s.thi[src]
            out.append(slab)
        return Series(ctx, tuple(out), min(self.vorder + 1, ctx.order))

    # -- reads ---------------------------------------------------------------

    def _check_read(self, slab: _Slab, row: int, k: int, what: str) -> None:
        if slab.tlo[row] != NEG and k < slab.tlo[row]:
            raise TrustError(
                f"{what}: degree {k} below trusted floor {int(slab.tlo[row])} "
                f"at jet index {tuple(self.ctx.midx[row])}")
        if slab.thi[row] != POS and k > slab.thi[row]:
            raise TrustError(
                f"{what}: degree {k} above trusted top {int(slab.thi[row])} "
                f"at jet index {tuple(self.ctx.midx[row])}")

    def coeff(self, alpha, k: int, eps: int = 0) -> np.ndarray:
        """Trusted read of one matrix coefficient."""
        ctx = self.ctx
        row = alpha if isinstance(alpha, int) else ctx.index_of[tuple(alpha)]
        if ctx.totals[row] > self.vorder:
            raise TrustError(f"jet order {int(ctx.totals[row])} above trusted "
                             f"order {self.vorder}")
        if eps >= self.E:
            return np.zeros((ctx.n, ctx.n), dtype=np.complex128)
        slab = self.slabs[eps]
        self._check_read(slab, row, k, "coeff")
        if ctx.lo <= k <= ctx.hi:
            return slab.data[row, ctx.pos(k)].copy()
        return np.zeros((ctx.n, ctx.n), dtype=np.complex128)

    @property
    def trusted_lo(self) -> int:
        """Trusted floor of the base coefficient (jet index zero)."""
        t = int(self.slabs[0].tlo[0])
        return self.ctx.lo if t == NEG else t

    def require_trusted(self, k: int, what: str = "read") -> None:
        """Assert that degree ``k`` of every live coefficient is trusted."""
        ctx = self.ctx
        live = ctx.totals <= self.vorder
        for s in self.slabs:
            bad = ((s.tlo != NEG) & (k < s.tlo)) | ((s.thi != POS) & (k > s.thi))
            if np.any(bad & live):
                row = int(np.flatnonzero(bad & live)[0])
                self._check_read(s, row, k, what)

    def degree_slice(self, k: int) -> "Series":
        """The lambda**k coefficient as a jet of constant matrices (placed at
        degree 0); untrusted source coefficients poison their rows."""
        ctx = self.ctx
        out = []
        for s in self.slabs:
            slab = _zero_slab(ctx)
            if ctx.lo <= k <= ctx.hi:
                slab.data[:, ctx.pos(0)] = s.data[:, ctx.pos(k)]
            bad = ((s.tlo != NEG) & (k < s.tlo)) | ((s.thi != POS) & (k > s.thi))
            slab.tlo = np.where(bad, POS, NEG).astype(np.int64)
            slab.slo = np.zeros(ctx.T, dtype=np.int64)
            slab.shi = np.zeros(ctx.T, dtype=np.int64)
            out.append(_apply_support_mask(ctx, slab))
        return Series(ctx, tuple(out), self.vorder)

    def entry_jet(self, i: int, j: int, k: int = 0) -> "ScalarJet":
        """Trusted scalar jet of one matrix entry at one lambda degree."""
        ctx = self.ctx
        self.require_trusted(k, "entry_jet")
        vals = []
        for s in self.slabs:
            if ctx.lo <= k <= ctx.hi:
                vals.append(s.data[:, ctx.pos(k), i, j].copy())
            else:
                vals.append(np.zeros(ctx.T, dtype=np.complex128))
        return ScalarJet(ctx, tuple(vals), self.vorder)

    # -- pairings ------------------------------------------------------------

    def _slab_pairing(self, other: "Series", a: _Slab, b: _Slab, k: int):
        ctx = self.ctx
        pa, pb, pc = ctx.pair_a, ctx.pair_b, ctx.pair_c
        sa, sb = a.shi[pa], b.shi[pb]
        lo_ok = k >= np.maximum(
            np.where(a.tlo[pa] == NEG, NEG, a.tlo[pa] + sb),
            np.where(b.tlo[pb] == NEG, NEG, b.tlo[pb] + sa))
        hi_ok = k <= np.minimum(
            np.where(a.thi[pa] == POS, POS, a.thi[pa] + b.slo[pb]),
            np.where(b.thi[pb] == POS, POS, b.thi[pb] + a.slo[pa]))
        live = ctx.totals[pc] <= min(self.vorder, other.vorder)
        bad = live & ~(lo_ok & hi_ok)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise TrustError(
                f"pairing at degree {k} not trusted for jet index "
                f"{tuple(ctx.midx[pc[i]])}")
        # sum_j tr(A_j B_{k-j}); align a reversed copy of B so position w
        # (degree lo+w) of A meets degree k-lo-w of B.
        off = ctx.W - 1 - (k - 2 * ctx.lo)
        brev = b.data[:, ::-1]
        wlo = max(0, -off)
        whi = min(ctx.W, ctx.W - off)
        out = np.zeros(ctx.T, dtype=np.complex128)
        if whi > wlo:
            Ag = a.data[pa][:, wlo:whi]
            Bg = brev[pb][:, wlo + off:whi + off]
            vals = np.einsum("pwab,pwba->p", Ag, Bg)
            out[ctx.group_out] = np.add.reduceat(vals, ctx.group_starts)
        return out

    def pairing(self, other: "Series", k: int) -> "ScalarJet":
        """<X, Y>_k: the lambda**k coefficient of tr(X(lambda) Y(lambda))."""
        self.ctx.require_compatible(other.ctx)
        vals = _leibniz(self.slabs, other.slabs,
                        lambda a, b: self._slab_pairing(other, a, b, k),
                        np.add)
        return ScalarJet(self.ctx, vals, min(self.vorder, other.vorder))

    def trace_coeff(self, k: int) -> "ScalarJet":
        """Trusted scalar jet tr(X)_k."""
        ctx = self.ctx
        self.require_trusted(k, "trace_coeff")
        vals = []
        for s in self.slabs:
            if ctx.lo <= k <= ctx.hi:
                vals.append(np.trace(s.data[:, ctx.pos(k)], axis1=1, axis2=2))
            else:
                vals.append(np.zeros(ctx.T, dtype=np.complex128))
        return ScalarJet(ctx, tuple(vals), self.vorder)

    # -- measurement ---------------------------------------------------------

    def max_abs(self) -> float:
        """Largest trusted coefficient magnitude (untrusted entries and jet
        orders beyond ``vorder`` are masked, never compared)."""
        ctx = self.ctx
        live = ctx.totals <= self.vorder
        deg = ctx.degrees[None, :]
        best = 0.0
        for s in self.slabs:
            lo = np.where(s.tlo == NEG, ctx.lo, s.tlo)
            hi = np.where(s.thi == POS, ctx.hi, s.thi)
            mask = (deg >= lo[:, None]) & (deg <= hi[:, None]) & live[:, None]
            if np.any(mask):
                best = max(best, float(
                    np.abs(s.data * mask[:, :, None, None]).max()))
        return best

    # -- context moves -------------------------------------------------------

    def embed(self, ctx: JetContext) -> "Series":
        """Embed a variable-free series at the zero jet index of ``ctx``;
        the result is jet-constant, hence valid at every order."""
        if self.ctx.variables:
            self.ctx.require_compatible(ctx)
            return self
        if (self.ctx.n, self.ctx.lo, self.ctx.hi) != (ctx.n, ctx.lo, ctx.hi):
            raise DimensionMismatch("window or dimension mismatch in embed")
        out = []
        for s in self.slabs:
            z = _zero_slab(ctx)
            z.data[0] = s.data[0]
            for name in ("tlo", "slo", "shi", "thi"):
                getattr(z, name)[0] = getattr(s, name)[0]
            out.append(z)
        return Series(ctx, tuple(out), ctx.order)

    def at_zero(self, fctx: JetContext | None = None) -> "Series":
        """Evaluate at t = 0 (restrict to the zero jet index)."""
        ctx = self.ctx
        if fctx is None:
            fctx = JetContext((), 0, ctx.n, ctx.lo, ctx.hi)
        out = []
        for s in self.slabs:
            z = _zero_slab(fctx)
            z.data[0] = s.data[0]
            for name in ("tlo", "slo", "shi", "thi"):
                getattr(z, name)[0] = getattr(s, name)[0]
            out.append(z)
        return Series(fctx, tuple(out), 0)


class ScalarJet:
    """Scalar-valued jet (pairings, ln tau, q/r entries); exact once created.
    ``vals[0]`` is the base value, ``vals[1 + i]`` tangent component i."""

    __slots__ = ("ctx", "vals", "vorder")

    def __init__(self, ctx: JetContext, vals: tuple[np.ndarray, ...], vorder: int):
        self.ctx = ctx
        self.vals = vals
        self.vorder = vorder

    @classmethod
    def zeros(cls, ctx: JetContext) -> "ScalarJet":
        return cls(ctx, (np.zeros(ctx.T, dtype=np.complex128),), ctx.order)

    @classmethod
    def const(cls, ctx: JetContext, c: complex) -> "ScalarJet":
        v = np.zeros(ctx.T, dtype=np.complex128)
        v[0] = c
        return cls(ctx, (v,), ctx.order)

    @property
    def E(self) -> int:
        return len(self.vals)

    def base_part(self) -> "ScalarJet":
        return ScalarJet(self.ctx, (self.vals[0],), self.vorder)

    def eps_part(self, i: int = 0) -> "ScalarJet":
        """Tangent component ``i`` (zero if the value has none)."""
        if i + 1 >= self.E:
            return ScalarJet.zeros(self.ctx)
        return ScalarJet(self.ctx, (self.vals[i + 1],), self.vorder)

    def _binary(self, other: "ScalarJet"):
        E = max(self.E, other.E)
        z = np.zeros(self.ctx.T, dtype=np.complex128)
        return (self.vals + (z,) * (E - self.E),
                other.vals + (z,) * (E - other.E))

    def __add__(self, other: "ScalarJet") -> "ScalarJet":
        self.ctx.require_compatible(other.ctx)
        va, vb = self._binary(other)
        return ScalarJet(self.ctx, tuple(a + b for a, b in zip(va, vb)),
                         min(self.vorder, other.vorder))

    def __sub__(self, other: "ScalarJet") -> "ScalarJet":
        self.ctx.require_compatible(other.ctx)
        va, vb = self._binary(other)
        return ScalarJet(self.ctx, tuple(a - b for a, b in zip(va, vb)),
                         min(self.vorder, other.vorder))

    def __neg__(self) -> "ScalarJet":
        return self.scale(-1.0)

    def scale(self, c: complex) -> "ScalarJet":
        return ScalarJet(self.ctx, tuple(v * c for v in self.vals), self.vorder)

    def _mul_vals(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        prod = a[ctx.pair_a] * b[ctx.pair_b]
        out = np.zeros(ctx.T, dtype=np.complex128)
        out[ctx.group_out] = np.add.reduceat(prod, ctx.group_starts)
        return out

    def __mul__(self, other):
        if not isinstance(other, ScalarJet):
            return self.scale(other)
        self.ctx.require_compatible(other.ctx)
        out = _leibniz(self.vals, other.vals, self._mul_vals, np.add)
        return ScalarJet(self.ctx, out, min(self.vorder, other.vorder))

    def __rmul__(self, other):
        return self.scale(other)

    def conj(self) -> "ScalarJet":
        return ScalarJet(self.ctx, tuple(np.conj(v) for v in self.vals),
                         self.vorder)

    def partial(self, var: str) -> "ScalarJet":
        ctx = self.ctx
        src, dst, fac = ctx.partial_maps[ctx.var_index(var)]
        out = []
        for v in self.vals:
            nv = np.zeros(ctx.T, dtype=np.complex128)
            nv[dst] = v[src] * fac
            out.append(nv)
        return ScalarJet(ctx, tuple(out), min(self.vorder - 1, ctx.order))

    def times_var(self, var: str) -> "ScalarJet":
        ctx = self.ctx
        src, dst = ctx.monomial_maps[ctx.var_index(var)]
        out = []
        for v in self.vals:
            nv = np.zeros(ctx.T, dtype=np.complex128)
            nv[dst] = v[src]
            out.append(nv)
        return ScalarJet(ctx, tuple(out), min(self.vorder + 1, ctx.order))

    def coeff(self, alpha, eps: int = 0) -> complex:
        ctx = self.ctx
        row = alpha if isinstance(alpha, int) else ctx.index_of[tuple(alpha)]
        if ctx.totals[row] > self.vorder:
            raise TrustError(f"jet order above trusted order {self.vorder}")
        if eps >= self.E:
            return 0.0 + 0.0j
        return complex(self.vals[eps][row])

    def max_abs(self) -> float:
        live = self.ctx.totals <= self.vorder
        return max(float(np.abs(v * live).max()) for v in self.vals)


# ---------------------------------------------------------------------------
# Laurent-level helpers (single coefficient, used by inverses)

def _pad_const(ctx: JetContext, m: np.ndarray) -> np.ndarray:
    out = np.zeros((ctx.W, ctx.n, ctx.n), dtype=np.complex128)
    out[ctx.pos(0)] = m
    return out


def _conv_row(ctx: JetContext, fx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Laurent product X Y of window coefficients ``y`` by the series whose
    entry-major spectrum is ``fx``."""
    return _coefficients(ctx, _entry_mul(fx, _spectrum(ctx, y)))


def _laurent_inv(ctx: JetContext, slab: _Slab) -> _Slab:
    """Inverse of the base (jet index zero) Laurent coefficient, computed
    once per context and input: the Neumann loop reads only the row-0 data
    and trusted floor, so those key the context's memo.  Every call returns
    a fresh slab."""
    key = (slab.data[0].tobytes(), int(slab.tlo[0]))
    row = ctx.inv_memo.get(key)
    if row is None:
        inv = _neumann_inv(ctx, slab)
        row = (inv.data[0].copy(), inv.tlo[0], inv.slo[0], inv.shi[0],
               inv.thi[0])
        ctx.inv_memo[key] = row
    out = _zero_slab(ctx)
    out.data[0] = row[0]
    out.tlo[0], out.slo[0], out.shi[0], out.thi[0] = row[1:]
    return out


def _neumann_inv(ctx: JetContext, slab: _Slab) -> _Slab:
    """Neumann inverse of the base (jet index zero) Laurent coefficient.

    Accepts A = A0 (I + N) with N strictly negative (the L- shape), the
    mirrored L+ shape with N strictly positive, and constants.
    """
    p0 = ctx.pos(0)
    a0 = slab.data[0, p0]
    if abs(np.linalg.det(a0)) == 0 or np.linalg.cond(a0) > _SINGULAR_COND:
        raise ShapeError("series_inv: degree-0 part singular")
    a0inv = np.linalg.inv(a0)
    n_mat = np.matmul(a0inv, slab.data[0])
    n_mat[p0] = 0.0  # A0^{-1} A0 = I by construction; drop the rounding dust
    n_nz = np.flatnonzero(np.abs(n_mat).max(axis=(1, 2)) > 0)
    src_exact = slab.tlo[0] == NEG

    out = _zero_slab(ctx)
    if n_nz.size == 0:
        out.data[0, p0] = a0inv
        out.slo[0] = 0
        out.shi[0] = 0
        if not src_exact:
            out.tlo[0] = slab.tlo[0]
        return out

    step_lo = int(ctx.degrees[n_nz[0]])
    step_hi = int(ctx.degrees[n_nz[-1]])
    if step_lo < 0 < step_hi or step_lo == 0 or step_hi == 0:
        raise ShapeError("series_inv: shape neither L- nor L+ normalizable")
    is_neg = step_hi < 0

    acc = _pad_const(ctx, np.eye(ctx.n))
    term = acc.copy()
    k_added = 0
    nilpotent = False
    n_hat = _spectrum(ctx, n_mat)
    for k in range(1, ctx.W + 2):
        term = -_conv_row(ctx, n_hat, term)
        # mask to the certified support of N**k before the zero test, so
        # FFT round-trip dust cannot fake content
        lo_k = max(k * step_lo, ctx.lo) if is_neg else k * step_lo
        hi_k = k * step_hi if is_neg else min(k * step_hi, ctx.hi)
        keep = (ctx.degrees >= lo_k) & (ctx.degrees <= hi_k)
        term *= keep[:, None, None]
        if not np.any(term != 0):
            # genuine nilpotency only if this power's support could not
            # have left the window
            nilpotent = (k * step_lo >= ctx.lo) if is_neg else (
                k * step_hi <= ctx.hi)
            break
        acc = acc + term
        k_added = k
    clipped = not nilpotent

    res = _conv_row(ctx, _spectrum(ctx, acc), _pad_const(ctx, a0inv))
    out.data[0] = res
    if is_neg:
        out.shi[0] = 0
        out.slo[0] = ctx.lo if clipped else max(ctx.lo, k_added * step_lo)
        out.tlo[0] = ctx.lo if (clipped or not src_exact) else NEG
    else:
        out.slo[0] = 0
        if clipped:
            out.shi[0] = POS
            out.thi[0] = ctx.hi
        else:
            out.shi[0] = min(ctx.hi, k_added * step_hi)
        out.tlo[0] = NEG if src_exact else slab.tlo[0]
    _apply_support_mask(ctx, out)
    return out


# ---------------------------------------------------------------------------
# module-level operations

def series_mul(a: Series, b: Series) -> Series:
    """Product with an explicit empty-trusted-window check on the result."""
    c = a.matmul(b)
    s = c.slabs[0]
    lo = np.where(s.tlo == NEG, c.ctx.lo, s.tlo)
    hi = np.where(s.thi == POS, c.ctx.hi, s.thi)
    content = s.shi >= s.slo
    if np.any(content & (lo > hi)):
        raise WindowExhausted(
            "series_mul: empty trusted window in result (insufficient depth)")
    return c


def series_inv(a: Series) -> Series:
    return a.inv()


def series_dlambda(a: Series) -> Series:
    return a.dlambda()


def exp_series(x: Series, stage: str = "exp") -> Series:
    """exp of a series that is nilpotent in the joint (jet order, window)
    grading: zero jet constant term, or strictly negative lambda support."""
    ctx = x.ctx
    base0 = x.slabs[0]
    if base0.shi[0] != NEG and base0.shi[0] >= 0:
        raise ShapeError(f"{stage}: nonzero constant term")
    out = Series.identity(ctx)
    term = Series.identity(ctx)
    max_iter = (ctx.order + 1) * (ctx.W + 2)
    for k in range(1, max_iter + 1):
        term = term.matmul(x).scale(1.0 / k)
        if all(not np.any(s.data != 0) for s in term.slabs):
            break
        out = out + term
    else:
        raise ShapeError(f"{stage}: exponential did not terminate")
    return out


def jet_exp(x: Series) -> Series:
    return exp_series(x, stage="jet_exp")


def jet_mul(a: Series, b: Series) -> Series:
    return a.matmul(b)


def jet_add(a: Series, b: Series) -> Series:
    return a + b


def jet_scale(a: Series, c: complex) -> Series:
    return a.scale(c)


def jet_partial(a: Series, var: str) -> Series:
    return a.jet_partial(var)


def pairing_k(a: Series, b: Series, k: int) -> ScalarJet:
    return a.pairing(b, k)


def cocycle(a: Series, b: Series) -> ScalarJet:
    """w(X, Y) = <d_lambda X, Y>_{-1} = sum_j j tr(X_j Y_{-j})."""
    return a.dlambda().pairing(b, -1)


def commutator(a: Series, b: Series) -> Series:
    return a.matmul(b) - b.matmul(a)


def directional_derivative(func, f: Series, df: Series):
    """Exact derivative of ``func`` at ``f`` along ``df`` via the nilpotent
    epsilon extension; ``func`` may return a Series or a ScalarJet."""
    return func(f.with_eps(df)).eps_part()


def defect(a: Series, b: Series) -> float:
    """Largest trusted coefficient of a - b."""
    return (a - b).max_abs()


def scalar_defect(a: ScalarJet, b: ScalarJet) -> float:
    return (a - b).max_abs()
