"""Exact-at-truncation arithmetic for jets of matrix Laurent series.

The central value type, :class:`Series`, is a truncated Taylor expansion in
the flow variables of a :class:`~loopjet.context.JetContext` whose
coefficients are truncated matrix Laurent series in lambda.  A plain Laurent
series is the degenerate case of a context with no variables.  Operations,
row copies included, take values of one context only; data at t = 0, such
as a scattering datum, are jet-constant values of the jet context.

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

The degree maps lambda**s (``shift``) and d/dlambda (``dlambda``, lambda**-1
times the degree-weighted data, whose degree-0 term dies) are one move: the
bounds move by s with the sentinels kept, and an exact coefficient stays
exact, its floor clamped to the window, while nothing nonzero leaves it.

Products and pairings propagate the bounds with one convolution rule,
``tlo(AB) = max(tlo_A + shi_B, tlo_B + shi_A)`` and its mirror for ``thi``,
over the live pairs of jet rows, where an exact factor (``tlo = NEG``) adds
no untrusted floor whatever the other's support; the plus-projection
restores full trust below zero because its result is zero there by
definition.  ``vorder`` tracks the trusted jet order (a time derivative
lowers it by one) and comparisons mask orders beyond it.

Coefficients are stored as ``(R, W, n, n)``: jet row, lambda position,
matrix entry, where R is the last live row (``shi != NEG``) plus one; the
degree bounds cover all T rows, a row at or past R is certified zero and
has no storage.  The compiled kernel (:mod:`loopjet.kernel`) runs a jet
product's rules: one call picks its live pairs, those of the a-major pair
table (of its row-0 part with a jet-constant factor) whose rows are live,
whose output is within the jet order ``cap`` and, restricted to some output
rows (``rows=``), one of them, and scatters the bound rule over them, the
output's floor then clamped to the window and its top capped; the walk adds
A[a] B[b] to C[c] pair by pair in table order, each n x n entry summed in
ascending k, x y as numpy multiplies, re = fma(xr, yr, -(xi yi)) and
im = fma(xr, yi, xi yr); and the rows from the first to the last live
output, transformed back, are copied into the window, each coefficient
multiplied by (m + 0i), re = xr m - xi 0 and im = xr 0 + xi m, where m is
1 inside the row's support [slo, shi] and 0 outside (the support mask that
keeps structural zeros exact).  This fixed order of operations keeps the
bits, and a restricted product has the whole product's bits at its rows.

Spectra are entry-sparse.  An operand's spectrum is compact: one row of
``nfft`` for each (jet row, entry) whose W coefficients are not all +0.0
bits, which the kernel gathers zero-padded and numpy transforms in place,
and an int64 index ``(R n n)`` from each entry to its row, -1 for a dead
one (a diagonal generator a lambda^j, the vacuum frame and their products
are mostly dead entries).  The walk skips each k term with a dead factor,
and writes only the output entries that some pair feeds a live term,
numbered first into an accumulator in the context's work buffer, which is
transformed back in place; the window writes +0.0 at every other entry.
The bits are the dense walk's: each FFT vector is transformed alone, that
of an all +0.0 vector is +0.0 both ways, and a skipped term is a zero that
can change only the sign of a zero sum, which the +0.0 accumulator, never
-0.0, absorbs.  The Neumann step, whose accumulator starts at -0.0, stays
dense (an index of every entry).  A spectrum is held on its operand under
a budget per context of ``_SPECTRUM_BUDGET`` times
``ctx.spectrum_bytes``, the bytes of a dense spectrum of every jet row,
counting each held spectrum's compact bytes; past it the least recently
used are dropped and transformed again on their next use, with the same
bits.  A pairing reads its trust bounds from the kernel's live-pair call
and sums each grade's grid (``grade_out``) by ``einsum`` in ascending a;
scalar-jet products scatter into the ``pair_c`` rows.

An inverse is solved grade by grade (forward substitution over jet grades):
its row 0, for every value alike, is the memoized Laurent inverse of the
value's row 0, polished by one Newton step, and each grade g is
-X_0 ((A - A_0) X)_g, two products restricted to the rows of grade g.  Handed
the inverse to a lower jet order (``start=``), it solves the grades past it.

Every value, a :class:`Series` or a :class:`ScalarJet`, carries K >= 0
tangent components next to its base value: a first-order nilpotent extension
with ``eps_i eps_j = 0`` (vector forward mode).  The rules for the
components (construction, ``base_part``/``eps_part``, sums and row writes)
are written once, in ``_Jet``, for both; a component a value lacks reads as
zero, and each type supplies only its zero component, how two components
add and how one component's rows are written.  Any pipeline stage is
differentiated exactly along K directions at once by running it on
``f.with_eps(df_0, ..., df_{K-1})`` and reading ``.eps_part(i)`` of the
result; each tangent component is computed by the same operations as a
single-direction run, so it is bit-identical to one.
A product, inverse or pairing may be handed its base component, computed
earlier (``base=``), and then computes the tangent components alone: the
eps route of the factorization reads its base values off the base result
this way.
"""

from __future__ import annotations

import numpy as np

from .context import NEG, POS, JetContext
from .errors import DimensionMismatch, ShapeError, TrustError, WindowExhausted
from . import kernel

__all__ = ["Series", "ScalarJet", "exp_series", "cocycle", "commutator",
           "directional_derivative"]

_SINGULAR_COND = 1e12
_SPECTRUM_BUDGET = 6  # dense spectra of every jet row a context holds, at most


class _Slab:
    """One epsilon component: the data of its jet rows ``[0, R)`` (see the
    module docstring) and the degree bounds of all T jet rows, as the kernel
    reads them: one ``(4, T)`` int64 array ``b``, rows tlo, slo, shi, thi."""

    __slots__ = ("data", "b", "_hat", "__weakref__")

    def __init__(self, data, bounds: np.ndarray):
        self.data, self.b, self._hat = data, bounds, None

    tlo, slo, shi, thi = (property(lambda self, i=i: self.b[i])
                          for i in range(4))

    def fft(self, ctx: JetContext) -> kernel.Spectrum:
        """Compact spectrum of the stored rows (see the module docstring).
        It is held on the slab while ``ctx.spectra`` keeps it under the
        budget, counting its compact bytes; one it drops is transformed
        again on its next use."""
        hat = self._hat
        if hat is None:
            hat = self._hat = _spectrum(ctx, self.data)
        for slab in ctx.spectra.use(self, hat.nbytes,
                                    _SPECTRUM_BUDGET * ctx.spectrum_bytes):
            slab._hat = None
        return hat

    def jet_const(self) -> bool:
        return self.data.shape[0] <= 1


def _live_rows(shi) -> int:
    """R: the last live row (``shi != NEG``) plus one."""
    return int(np.flatnonzero(shi != NEG).max(initial=-1)) + 1


def _rows_like(data: np.ndarray, rows: int) -> np.ndarray:
    """A fresh copy of the stored rows ``data`` with ``rows`` rows: cut, or
    padded with zero rows."""
    out = np.zeros((rows,) + data.shape[1:], dtype=np.complex128)
    out[:data.shape[0]] = data[:rows]
    return out


def _one_row(ctx: JetContext, row: int = 0, data=None, tlo=NEG, slo=POS,
             shi=NEG, thi=POS) -> _Slab:
    """The slab whose one possibly live row is ``row``, with window data
    ``data`` ``(W, n, n)`` and these bounds; by default the zero slab."""
    bounds = np.empty((4, ctx.T), dtype=np.int64)
    bounds[:] = ((NEG,), (POS,), (NEG,), (POS,))
    bounds[:, row] = tlo, slo, shi, thi
    stored = np.zeros((0 if shi == NEG else row + 1, ctx.W, ctx.n, ctx.n),
                      dtype=np.complex128)
    if shi != NEG:
        stored[row] = data
    return _Slab(stored, bounds)


_zero_slab = _one_row


def _spectrum(ctx: JetContext, x: np.ndarray,
              dense: bool = False) -> kernel.Spectrum:
    """Compact spectrum of window coefficients ``x (R, W, n, n)``: the
    kernel gathers each live entry's coefficients, zero-padded to ``nfft``,
    into a row (every entry if ``dense``), and the rows are transformed in
    place, each bit for bit as ``fft(..., n=nfft)`` of that entry alone."""
    hat = kernel.spectrum(x, ctx.nfft, dense)
    np.fft.fft(hat.rows, axis=-1, out=hat.rows)
    return hat


def _slab_mul(ctx: JetContext, a: _Slab, b: _Slab,
              cap: int | None = None, want=None) -> _Slab:
    """The jet product up to jet order ``cap``: the compiled walk over its
    live pairs (see the module docstring).  ``want``, a mask of jet rows,
    restricts it to those output rows, each bit for bit as the whole product
    computes it; every other row is certified zero."""
    top = ctx.order if cap is None else min(cap, ctx.order)
    pairs, first, last, bounds = ctx.tables.select(a, b, top, want, True)
    if pairs[0] == 0:  # nothing live: neither operand is transformed
        return _zero_slab(ctx)
    C = ctx.tables.product(a.fft(ctx), b.fft(ctx), pairs, first, last)
    np.fft.ifft(C.rows, axis=-1, out=C.rows)
    data = np.empty((last + 1, ctx.W, ctx.n, ctx.n), complex)
    data[:first] = 0.0  # the window writes every later row
    kernel.window(data[first:], ctx.lo, bounds[1, first:], bounds[2, first:],
                  C)
    return _Slab(data, bounds)


def _slab_add(a: _Slab, b: _Slab, sign: float = 1.0) -> _Slab:
    ra, rb = a.data.shape[0], b.data.shape[0]
    if ra == rb:
        data = a.data + sign * b.data
    else:  # a row past either's stored rows is zero there
        data = _rows_like(a.data, max(ra, rb))
        data[:rb] += sign * b.data
    bounds = np.maximum(a.b, b.b)  # tlo and shi; slo and thi by min
    bounds[1::2] = np.minimum(a.b[1::2], b.b[1::2])
    return _Slab(data, bounds)


def _row_copy(dst: np.ndarray, rows, src: np.ndarray, src_rows, factor=None,
              divisor=None, copy: bool = True) -> np.ndarray:
    """The per-row data ``dst`` with its ``rows`` holding the ``src_rows`` of
    ``src``, multiplied by ``factor`` or divided by ``divisor`` row by row:
    the one way jet rows are written.  Rows past the stored ones read zero
    and are not written (they are certified zero).  ``dst`` is copied first
    unless ``copy`` is false (fresh arrays nothing else holds are written in
    place)."""
    out = dst.copy() if copy else dst
    rows, src_rows = np.asarray(rows), np.asarray(src_rows)
    if src_rows.size and src_rows.max() >= src.shape[0]:
        src = _rows_like(src, src_rows.max() + 1)
    data = src[src_rows]
    per_row = (-1,) + (1,) * (data.ndim - 1)
    if factor is not None:
        data = data * np.reshape(factor, per_row)
    if divisor is not None:
        data = data / np.reshape(divisor, per_row)
    keep = rows < out.shape[0]
    out[rows[keep]] = data[keep]
    return out


def _leibniz(a: tuple, b: tuple, mul, add, base=None) -> tuple:
    """Components of a bilinear product of values with tangent parts
    (``eps_i eps_j = 0``): ``a_0 b_0``, then ``a_0 b_i + a_i b_0`` for each
    tangent i, a component that one factor lacks counting as zero.  A known
    ``base`` (``a_0 b_0`` computed earlier) stands in for that product."""
    out = [mul(a[0], b[0]) if base is None else base]
    for i in range(1, max(len(a), len(b))):
        left = mul(a[0], b[i]) if i < len(b) else None
        right = mul(a[i], b[0]) if i < len(a) else None
        out.append(right if left is None else
                   left if right is None else add(left, right))
    return tuple(out)


class _Jet:
    """A jet value with K >= 0 tangent components (see the module
    docstring): ``slabs[0]`` is the base value, ``slabs[1 + i]`` tangent
    component i, and ``E = 1 + K``.  A subclass supplies its zero component
    (``_zero``), how two components add (``_add``), how one component's jet
    rows are written (``_write_rows``) and ``scale``."""

    __slots__ = ("ctx", "slabs", "vorder")

    def __init__(self, ctx: JetContext, slabs: tuple, vorder: int):
        self.ctx = ctx
        self.slabs = slabs
        self.vorder = vorder

    @classmethod
    def zeros(cls, ctx: JetContext):
        return cls(ctx, (cls._zero(ctx),), ctx.order)

    @property
    def E(self) -> int:
        return len(self.slabs)

    def _padded(self, E: int) -> tuple:
        """The components, padded to ``E`` with fresh zeros (each its own
        arrays: rows are written into them in place)."""
        return self.slabs + tuple(self._zero(self.ctx)
                                  for _ in range(E - self.E))

    def base_part(self):
        return type(self)(self.ctx, self.slabs[:1], self.vorder)

    def eps_part(self, i: int = 0):
        """Tangent component ``i`` (zero if the value has none)."""
        if i + 1 >= self.E:
            return self.zeros(self.ctx)
        return type(self)(self.ctx, (self.slabs[i + 1],), self.vorder)

    def _combine(self, other, sign: float):
        """self + sign * other, component by component."""
        self.ctx.require_compatible(other.ctx)
        E = max(self.E, other.E)
        return type(self)(self.ctx, tuple(
            self._add(a, b, sign)
            for a, b in zip(self._padded(E), other._padded(E))),
            min(self.vorder, other.vorder))

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def with_rows(self, rows, src, src_rows, factor=None, divisor=None,
                  vorder: int | None = None):
        """A new value equal to this one except at jet ``rows``, which copy
        the ``src_rows`` of ``src`` (for every tangent component, degree
        bounds included), the data multiplied by ``factor`` or divided by
        ``divisor`` per row."""
        self.ctx.require_compatible(src.ctx)
        E = max(self.E, src.E)
        return type(self)(self.ctx, tuple(
            self._write_rows(dst, rows, s, src_rows, factor, divisor,
                             copy=e < self.E)
            for e, (dst, s) in enumerate(zip(self._padded(E),
                                             src._padded(E)))),
            self.vorder if vorder is None else vorder)

    @classmethod
    def from_rows(cls, ctx: JetContext, rows, src, src_rows, factor=None,
                  divisor=None, vorder: int | None = None):
        """``cls.zeros(ctx).with_rows(...)``, written straight into freshly
        allocated arrays (with as many tangent components as ``src``)."""
        return cls(ctx, (), ctx.order).with_rows(rows, src, src_rows, factor,
                                                 divisor, vorder)

    def partial(self, var: str):
        """Partial derivative in one flow variable; trusted jet order drops."""
        ctx = self.ctx
        src, dst, fac = ctx.partial_maps[ctx.var_index(var)]
        return self.from_rows(ctx, dst, self, src, factor=fac,
                              vorder=min(self.vorder - 1, ctx.order))

    def times_var(self, var: str):
        """Multiply by the monomial t_var (exact at every stored order)."""
        ctx = self.ctx
        src, dst = ctx.monomial_maps[ctx.var_index(var)]
        return self.from_rows(ctx, dst, self, src,
                              vorder=min(self.vorder + 1, ctx.order))

    def __neg__(self):
        return self.scale(-1.0)

    def __rmul__(self, other):
        return self.scale(other)


class Series(_Jet):
    """Jet of matrix Laurent series; each component is a :class:`_Slab`."""

    __slots__ = ()

    _zero = staticmethod(_zero_slab)
    _add = staticmethod(_slab_add)

    @staticmethod
    def _write_rows(dst: _Slab, rows, s: _Slab, src_rows, factor, divisor,
                    copy: bool) -> _Slab:
        bounds = dst.b.copy() if copy else dst.b
        bounds[:, rows] = s.b[:, src_rows]
        data = _rows_like(dst.data, _live_rows(bounds[2]))
        return _Slab(_row_copy(data, rows, s.data, src_rows, factor, divisor,
                               copy=False), bounds)

    # -- constructors ------------------------------------------------------

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
        row = alpha if isinstance(alpha, int) else ctx.index_of[tuple(alpha)]
        data = np.zeros((ctx.W, ctx.n, ctx.n), dtype=np.complex128)
        degs, tlo = [], NEG
        for k, m in coeffs.items():
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (ctx.n, ctx.n):
                raise DimensionMismatch("coefficient matrix has wrong shape")
            if not (ctx.lo <= k <= ctx.hi):
                raise WindowExhausted(f"degree {k} outside window "
                                      f"[{ctx.lo},{ctx.hi}]")
            if np.any(m != 0):
                data[ctx.pos(k)] = m
                degs.append(k)
        slo, shi = (min(degs), max(degs)) if degs else (POS, NEG)
        if not exact:
            tlo, slo = ctx.lo, NEG
        return cls(ctx, (_one_row(ctx, row, data, tlo, slo, shi),), ctx.order)

    @classmethod
    def monomial(cls, ctx: JetContext, matrix: np.ndarray, degree: int = 0,
                 alpha: tuple[int, ...] | int = 0) -> "Series":
        return cls.from_degree_matrices(ctx, {degree: matrix}, alpha=alpha)

    # -- epsilon handling --------------------------------------------------

    def same_base(self, other: "Series") -> bool:
        """Whether the base values agree bit for bit (data and bounds)."""
        a, b = self.slabs[0], other.slabs[0]
        return np.array_equal(a.data, b.data) and np.array_equal(a.b, b.b)

    def with_eps(self, *dirs: "Series") -> "Series":
        """The base value with one tangent component per direction."""
        for d in dirs:
            self.ctx.require_compatible(d.ctx)
        if self.E != 1 or any(d.E != 1 for d in dirs):
            raise DimensionMismatch("cannot nest epsilon extensions")
        return Series(self.ctx, self.slabs + tuple(d.slabs[0] for d in dirs),
                      min([self.vorder] + [d.vorder for d in dirs]))

    # -- ring operations ---------------------------------------------------

    def scale(self, c: complex) -> "Series":
        return self._map_data(lambda d: d * c)

    def __mul__(self, other):
        if isinstance(other, Series):
            return self.matmul(other)
        return self.scale(other)

    def matmul(self, other: "Series", cap: int | None = None,
               base: "Series | None" = None, rows=None) -> "Series":
        """Product; ``cap`` truncates the result to jet orders <= cap (the
        trusted order drops accordingly).  ``base``, the product of the two
        base values computed earlier, is taken as the base component, so
        only the tangent components are computed.  ``rows`` restricts the
        result to those jet rows, each bit for bit the product's; the other
        rows are certified zero."""
        self.ctx.require_compatible(other.ctx)
        if self.ctx.n != other.ctx.n:
            raise DimensionMismatch("matrix dimension mismatch")
        want = None
        if rows is not None:
            want = np.zeros(self.ctx.T, dtype=bool)
            want[rows] = True
        slabs = _leibniz(self.slabs, other.slabs,
                         lambda a, b: _slab_mul(self.ctx, a, b, cap, want),
                         _slab_add,
                         None if base is None else base.slabs[0])
        vorder = min(self.vorder, other.vorder)
        if cap is not None:
            vorder = min(vorder, cap)
        return Series(self.ctx, slabs, vorder)

    # -- structure maps ----------------------------------------------------

    def _map_data(self, fn) -> "Series":
        return Series(self.ctx, tuple(_Slab(fn(s.data), s.b.copy())
                                      for s in self.slabs), self.vorder)

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

    def _degree_move(self, s: int, weighted: bool = False) -> "Series":
        """lambda**s times the data, degree-weighted if ``weighted`` (a
        support bound at degree 0 then moves inward first, to 1 or -1)."""
        ctx, out = self.ctx, []
        w = max(ctx.W - abs(s), 0)  # positions kept; none once |s| >= W
        up, down = max(s, 0), max(-s, 0)  # where they start, after and before
        for sl in self.slabs:
            data = sl.data * ctx.degrees[:, None, None] if weighted else sl.data
            moved = np.zeros_like(data)
            moved[:, up:up + w] = data[:, down:down + w]
            b = sl.b.copy()
            b[1, b[1] == 0], b[2, b[2] == 0] = int(weighted), -int(weighted)
            b = np.where((b == NEG) | (b == POS), b, b + s)  # sentinels stay
            gone = np.zeros(ctx.T, dtype=bool)
            gone[:len(data)] = np.any(data[:, :down] != 0, axis=(1, 2, 3))
            exact, safe = sl.tlo == NEG, (b[1] >= ctx.lo) | ~gone
            b[0] = np.where(exact & safe, NEG, np.where(
                exact, ctx.lo, np.maximum(b[0], ctx.lo)))
            b[1] = np.where(exact & safe & (b[1] != POS),
                            np.maximum(b[1], ctx.lo), b[1])
            kernel.cap(b, ctx.hi)
            kernel.window(moved, ctx.lo, b[1], b[2])  # the support mask
            out.append(_Slab(moved, b))
        return Series(ctx, tuple(out), self.vorder)

    def dlambda(self) -> "Series":
        """d/dlambda: lambda**-1 times the degree-weighted data, whose
        degree-0 term dies."""
        return self._degree_move(-1, weighted=True)

    def shift(self, s: int) -> "Series":
        """Multiply by lambda**s."""
        return self if s == 0 else self._degree_move(s)

    def restrict_degrees(self, klo: int, khi: int) -> "Series":
        """Restriction to degrees in [klo, khi] (content outside is dropped
        and certified zero): the projections ( )_+ and ( )_- and the
        depth-limited comparisons."""
        ctx = self.ctx
        out = []
        for s in self.slabs:
            data = s.data.copy()
            if klo > ctx.lo:
                data[:, :ctx.pos(klo)] = 0.0
            if khi < ctx.hi:
                data[:, ctx.pos(khi) + 1:] = 0.0
            out.append(_Slab(data, np.array((
                np.where(s.tlo <= klo, NEG, s.tlo), np.maximum(s.slo, klo),
                np.minimum(s.shi, khi), np.where(s.thi >= khi, POS, s.thi)),
                dtype=np.int64)))
        return Series(ctx, tuple(out), self.vorder)

    def plus(self) -> "Series":
        """( )_+: projection onto degrees >= 0, certified zero below."""
        return self.restrict_degrees(0, POS)

    def minus(self) -> "Series":
        """( )_-: projection onto degrees < 0, certified zero above."""
        return self.restrict_degrees(NEG, -1)

    # -- inverses and exponentials -----------------------------------------

    def inv(self, cap: int | None = None, base: "Series | None" = None,
            start: "Series | None" = None) -> "Series":
        """Inverse; ``cap`` as in :meth:`matmul`.  ``base``, the inverse of
        the base value computed earlier, is taken as the base component.

        The base component is solved grade by grade from A X = I (forward
        substitution over jet grades): X_0 is the memoized, Newton-polished
        row-0 Laurent inverse (the whole inverse of a jet-constant value),
        and then X_g = -X_0 ((A - A_0) X)_g, which reads only the grades
        below g.  ``start``, the inverse of this value to a lower jet order
        (one whose rows agree with this value's up to that order, order 0
        included), gives the grades up to its trusted order as they are, and
        the substitution goes on from there with the same bits as from
        scratch."""
        if self.E > 1:
            b = base if base is not None else self.base_part().inv(
                cap, start=None if start is None else start.base_part())
            return b.with_eps(*[-b.matmul(self.eps_part(i), cap).matmul(b, cap)
                                for i in range(self.E - 1)])
        ctx = self.ctx
        goal = ctx.order if cap is None else min(cap, ctx.order)
        if start is None:
            x, done = Series(ctx, (_laurent_inv(ctx, self.slabs[0]),),
                             self.vorder), 0
        else:
            done = min(start.vorder, goal)
            known = np.arange(ctx.upto[done])
            x = Series.from_rows(ctx, known, start.base_part(), known)
        x0 = Series.from_rows(ctx, [0], x, [0])
        # x holds the grades below g, so A X at grade g is (A - A_0) X there
        for g in range(done + 1, goal + 1):
            rows = np.arange(ctx.upto[g - 1], ctx.upto[g])
            p = self.matmul(x, g, rows=rows)  # live at grade g alone
            x = x.with_rows(rows, x0.matmul(p, g), rows, factor=-1.0)
        return Series(ctx, x.slabs,
                      self.vorder if cap is None else min(self.vorder, cap))

    # -- reads ---------------------------------------------------------------

    def _check_read(self, slab: _Slab, row: int, k: int, what: str) -> None:
        if slab.tlo[row] != NEG and k < slab.tlo[row]:
            raise TrustError(
                f"{what}: degree {k} below trusted floor {int(slab.tlo[row])} "
                f"at jet index {tuple(self.ctx.midx[row].tolist())}")
        if slab.thi[row] != POS and k > slab.thi[row]:
            raise TrustError(
                f"{what}: degree {k} above trusted top {int(slab.thi[row])} "
                f"at jet index {tuple(self.ctx.midx[row].tolist())}")

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
        if ctx.lo <= k <= ctx.hi and row < slab.data.shape[0]:
            return slab.data[row, ctx.pos(k)].copy()
        return np.zeros((ctx.n, ctx.n), dtype=np.complex128)

    def stored_rows(self) -> np.ndarray:
        """The stored rows ``(R, W, n, n)`` of the base value (each later row
        is certified zero), shared: callers must not modify them."""
        return self.slabs[0].data

    def degree_slice(self, k: int) -> "Series":
        """The lambda**k coefficient as a jet of constant matrices (placed at
        degree 0); untrusted source coefficients poison their rows.  A row is
        live (support {0}) where degree k is untrusted or inside its
        certified support, and certified zero elsewhere."""
        ctx = self.ctx
        out = []
        for s in self.slabs:
            bad = ((s.tlo != NEG) & (k < s.tlo)) | ((s.thi != POS) & (k > s.thi))
            live = bad | ((s.slo <= k) & (k <= s.shi))
            shi = np.where(live, 0, NEG)
            data = np.zeros((_live_rows(shi), ctx.W, ctx.n, ctx.n),
                            dtype=np.complex128)
            if ctx.lo <= k <= ctx.hi:
                rows = s.data[:len(data), ctx.pos(k)]
                data[:len(rows), ctx.pos(0)] = rows
            bounds = np.array((np.where(bad, POS, NEG), np.where(live, 0, POS),
                               shi, np.full(ctx.T, POS)), dtype=np.int64)
            kernel.window(data, ctx.lo, bounds[1], bounds[2])  # support mask
            out.append(_Slab(data, bounds))
        return Series(ctx, tuple(out), self.vorder)

    def _scalar(self, k: int, what: str, read) -> "ScalarJet":
        """The scalar jet ``read`` makes of the degree-k coefficients ``(R,
        n, n)`` of the stored rows; degree k of every live row is trusted."""
        ctx = self.ctx
        live = ctx.totals <= self.vorder
        vals = []
        for s in self.slabs:
            bad = ((s.tlo != NEG) & (k < s.tlo)) | ((s.thi != POS) & (k > s.thi))
            if np.any(bad & live):
                self._check_read(s, int(np.flatnonzero(bad & live)[0]), k, what)
            v = np.zeros(ctx.T, dtype=np.complex128)
            if ctx.lo <= k <= ctx.hi:
                v[:len(s.data)] = read(s.data[:, ctx.pos(k)])
            vals.append(v)
        return ScalarJet(ctx, tuple(vals), self.vorder)

    def entry_jet(self, i: int, j: int, k: int = 0) -> "ScalarJet":
        """Trusted scalar jet of one matrix entry at one lambda degree."""
        return self._scalar(k, "entry_jet", lambda c: c[:, i, j])

    # -- pairings ------------------------------------------------------------

    def _slab_pairing(self, other: "Series", a: _Slab, b: _Slab, k: int):
        """<a, b>_k on the product's grid and by its bound rule; rows past
        the trusted jet order stay zero."""
        ctx = self.ctx
        top = min(self.vorder, other.vorder)
        tlo, _, _, thi = ctx.tables.select(a, b, top, None, final=False)[3]
        bad = (k < tlo) | (k > thi)
        if np.any(bad):
            raise TrustError(
                f"pairing at degree {k} not trusted for jet index "
                f"{tuple(ctx.midx[np.argmax(bad)].tolist())}")
        # sum_j tr(A_j B_{k-j}); align a reversed copy of B so position w
        # (degree lo+w) of A meets degree k-lo-w of B.
        off = ctx.W - 1 - (k - 2 * ctx.lo)
        wlo, whi = max(0, -off), max(0, -off, min(ctx.W, ctx.W - off))
        # as in a product, a dead b-row adds zero; einsum sums a 1 x 1 grid
        # in its own order, so b presents at least two rows
        nb_max, bdata = b.data.shape[0], b.data
        dead = np.flatnonzero(b.shi[:nb_max] == NEG)
        if dead.size or nb_max < min(ctx.T, 2):
            bdata = _rows_like(bdata, max(nb_max, min(ctx.T, 2)))
            bdata[dead] = 0.0
        Aw, Bw = a.data[:, wlo:whi], bdata[:, ::-1][:, wlo + off:whi + off]
        out = np.zeros(ctx.T, dtype=np.complex128)
        for g, grid in enumerate(ctx.grade_out[:top + 1]):  # see the context
            first = ctx.upto[g] - grid.shape[0]
            rows = np.flatnonzero(a.shi[first:ctx.upto[g]] != NEG)
            nb = min(ctx.upto[top - g], nb_max)
            np.add.at(out, grid[rows, :nb], np.einsum(
                "pwab,qwba->pq", Aw[rows + first], Bw[:max(nb, 2)])[:, :nb])
        return out

    def pairing(self, other: "Series", k: int,
                base: "ScalarJet | None" = None) -> "ScalarJet":
        """<X, Y>_k: the lambda**k coefficient of tr(X(lambda) Y(lambda));
        ``base`` as in :meth:`matmul`."""
        self.ctx.require_compatible(other.ctx)
        vals = _leibniz(self.slabs, other.slabs,
                        lambda a, b: self._slab_pairing(other, a, b, k),
                        np.add, None if base is None else base.slabs[0])
        return ScalarJet(self.ctx, vals, min(self.vorder, other.vorder))

    def trace_coeff(self, k: int) -> "ScalarJet":
        """Trusted scalar jet tr(X)_k."""
        return self._scalar(k, "trace_coeff",
                            lambda c: np.trace(c, axis1=1, axis2=2))

    # -- measurement ---------------------------------------------------------

    def max_abs(self) -> float:
        """Largest trusted coefficient magnitude (untrusted entries and jet
        orders beyond ``vorder`` are masked, never compared)."""
        ctx = self.ctx
        live = ctx.totals <= self.vorder
        deg = ctx.degrees[None, :]
        best = 0.0
        for s in self.slabs:  # the rows past the stored ones are zero
            rows = s.data.shape[0]
            lo = np.where(s.tlo == NEG, ctx.lo, s.tlo)[:rows, None]
            hi = np.where(s.thi == POS, ctx.hi, s.thi)[:rows, None]
            mask = (deg >= lo) & (deg <= hi) & live[:rows, None]
            if np.any(mask):
                best = max(best, float(
                    np.abs(s.data * mask[:, :, None, None]).max()))
        return best


class ScalarJet(_Jet):
    """Scalar-valued jet (pairings, ln tau, q/r entries); exact once created.
    Each component is a length-T array of jet coefficients."""

    __slots__ = ()

    @staticmethod
    def _zero(ctx: JetContext) -> np.ndarray:
        return np.zeros(ctx.T, dtype=np.complex128)

    @staticmethod
    def _add(a: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
        return a + b if sign > 0 else a - b

    _write_rows = staticmethod(_row_copy)

    @classmethod
    def const(cls, ctx: JetContext, c: complex) -> "ScalarJet":
        v = np.zeros(ctx.T, dtype=np.complex128)
        v[0] = c
        return cls(ctx, (v,), ctx.order)

    def scale(self, c: complex) -> "ScalarJet":
        return ScalarJet(self.ctx, tuple(v * c for v in self.slabs), self.vorder)

    def _mul_vals(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        out = np.zeros(ctx.T, dtype=np.complex128)
        np.add.at(out, ctx.pair_c, a[ctx.pair_a] * b[ctx.pair_b])
        return out

    def __mul__(self, other):
        if not isinstance(other, ScalarJet):
            return self.scale(other)
        self.ctx.require_compatible(other.ctx)
        out = _leibniz(self.slabs, other.slabs, self._mul_vals, np.add)
        return ScalarJet(self.ctx, out, min(self.vorder, other.vorder))

    def conj(self) -> "ScalarJet":
        return ScalarJet(self.ctx, tuple(np.conj(v) for v in self.slabs),
                         self.vorder)

    def coeff(self, alpha, eps: int = 0) -> complex:
        ctx = self.ctx
        row = alpha if isinstance(alpha, int) else ctx.index_of[tuple(alpha)]
        if ctx.totals[row] > self.vorder:
            raise TrustError(f"jet order above trusted order {self.vorder}")
        if eps >= self.E:
            return 0.0 + 0.0j
        return complex(self.slabs[eps][row])

    def max_abs(self) -> float:
        live = self.ctx.totals <= self.vorder
        return max(float(np.abs(v * live).max()) for v in self.slabs)


# ---------------------------------------------------------------------------
# Laurent-level helpers (single coefficient, used by inverses)

def _pad_const(ctx: JetContext, m: np.ndarray) -> np.ndarray:
    out = np.zeros((ctx.W, ctx.n, ctx.n), dtype=np.complex128)
    out[ctx.pos(0)] = m
    return out


def _conv_row(ctx: JetContext, fx: kernel.Spectrum, y: np.ndarray, slo: int,
              shi: int, negate: bool = False) -> np.ndarray:
    """Laurent product X Y of window coefficients ``y`` by the series whose
    dense spectrum (every entry a row) is ``fx``, negated if ``negate``,
    with the kernel's mask to the degrees ``[slo, shi]``: one pair of the
    walk, added to -0.0, which leaves every product, a -0.0 included, as it
    is.  Every spectrum here is dense: an entry the walk skipped would keep
    the -0.0 where the dense walk's +0.0 terms make it +0.0."""
    C = kernel.Spectrum(np.full(fx.rows.shape, -0.0, dtype=complex), fx.index)
    kernel.walk(ctx.n, fx, _spectrum(ctx, y[None], dense=True),
                (np.zeros(1, np.int64),) * 3, C)
    np.fft.ifft(C.rows, axis=-1, out=C.rows)
    if negate:
        np.negative(C.rows, out=C.rows)
    out = np.empty((1, ctx.W, ctx.n, ctx.n), dtype=complex)
    kernel.window(out, ctx.lo, np.array([slo]), np.array([shi]), C)
    return out[0]


def _laurent_inv(ctx: JetContext, slab: _Slab) -> _Slab:
    """Inverse X_0 of the base (jet index zero) Laurent coefficient A_0: the
    Neumann inverse polished by one Newton step, X_0 (2I - A_0 X_0).  It is
    computed once per context and input: the Neumann loop and the polish
    read only the row-0 data and its four degree bounds, so those key the
    context's memo.  Every call returns a fresh slab."""
    bounds = slab.b[:, 0].tolist()
    data = _rows_like(slab.data, 1)[0]

    def build() -> tuple:
        x, a0 = _neumann_inv(ctx, slab), _one_row(ctx, 0, data, *bounds)
        two = _one_row(ctx, 0, _pad_const(ctx, 2.0 * np.eye(ctx.n)), NEG, 0, 0)
        x = _slab_mul(ctx, x, _slab_add(two, _slab_mul(ctx, a0, x), -1.0))
        return (x.data[0], *x.b[:, 0])

    return _one_row(ctx, 0, *ctx.cached(("inv", data.tobytes(), *bounds),
                                        build))


def _neumann_inv(ctx: JetContext, slab: _Slab) -> _Slab:
    """Neumann inverse of the base (jet index zero) Laurent coefficient.

    Accepts A = A0 (I + N) with N strictly negative (the L- shape), the
    mirrored L+ shape with N strictly positive, and constants.
    """
    p0, a, a_tlo = ctx.pos(0), _rows_like(slab.data, 1)[0], slab.tlo[0]
    a0 = a[p0]
    if abs(np.linalg.det(a0)) == 0 or np.linalg.cond(a0) > _SINGULAR_COND:
        raise ShapeError("Series.inv: degree-0 part singular")
    a0inv = np.linalg.inv(a0)
    n_mat = np.matmul(a0inv, a)
    n_mat[p0] = 0.0  # A0^{-1} A0 = I by construction; drop the rounding dust
    n_nz = np.flatnonzero(np.abs(n_mat).max(axis=(1, 2)) > 0)

    if n_nz.size == 0:
        return _one_row(ctx, 0, _pad_const(ctx, a0inv), a_tlo, 0, 0)

    step_lo = int(ctx.degrees[n_nz[0]])
    step_hi = int(ctx.degrees[n_nz[-1]])
    if step_lo < 0 < step_hi or step_lo == 0 or step_hi == 0:
        raise ShapeError("Series.inv: shape neither L- nor L+ normalizable")
    is_neg = step_hi < 0

    acc = _pad_const(ctx, np.eye(ctx.n))
    term = acc.copy()
    k_added = 0
    nilpotent = False
    n_hat = _spectrum(ctx, n_mat[None], dense=True)
    for k in range(1, ctx.W + 2):
        # masked to the certified support of N**k before the zero test, so
        # FFT round-trip dust cannot fake content
        lo_k = max(k * step_lo, ctx.lo) if is_neg else k * step_lo
        hi_k = k * step_hi if is_neg else min(k * step_hi, ctx.hi)
        term = _conv_row(ctx, n_hat, term, lo_k, hi_k, negate=True)
        if not np.any(term != 0):
            # genuine nilpotency only if this power's support could not
            # have left the window
            nilpotent = (k * step_lo >= ctx.lo) if is_neg else (
                k * step_hi <= ctx.hi)
            break
        acc = acc + term
        k_added = k
    clipped = not nilpotent

    if is_neg:
        slo = ctx.lo if clipped else max(ctx.lo, k_added * step_lo)
        shi, thi = 0, POS
        tlo = ctx.lo if (clipped or a_tlo != NEG) else NEG
    else:
        shi, thi = ((POS, ctx.hi) if clipped
                    else (min(ctx.hi, k_added * step_hi), POS))
        slo, tlo = 0, a_tlo
    res = _conv_row(ctx, _spectrum(ctx, acc[None], dense=True),
                    _pad_const(ctx, a0inv), slo, shi)
    return _one_row(ctx, 0, res, tlo, slo, shi, thi)


# ---------------------------------------------------------------------------
# module-level operations

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


def cocycle(a: Series, b: Series) -> ScalarJet:
    """w(X, Y) = <d_lambda X, Y>_{-1} = sum_j j tr(X_j Y_{-j})."""
    return a.dlambda().pairing(b, -1)


def commutator(a: Series, b: Series) -> Series:
    return a.matmul(b) - b.matmul(a)


def directional_derivative(func, f: Series, df: Series):
    """Exact derivative of ``func`` at ``f`` along ``df`` via the nilpotent
    epsilon extension; ``func`` may return a Series or a ScalarJet."""
    return func(f.with_eps(df)).eps_part()
