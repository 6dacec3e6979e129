"""Truncation contexts for jets of matrix Laurent series.

A :class:`JetContext` fixes, once per scenario,

* the ordered list of flow variables and the maximal total jet order ``d``,
* the matrix dimension ``n``,
* the lambda storage window ``[lo, hi]``,

and precomputes the multiplication tables of the graded jet algebra
together with index maps for partial derivatives and monomial shifts:

* the row-prefix table that drives series products.  Multi-indices are
  stored in graded order, so for a row ``a`` the rows ``b`` with
  ``|a| + |b| <= k`` are the prefix ``[0, upto[k - |a|])``, and
  ``row_out[a][b]`` is the index of ``a + b``.  The outputs of one row are
  distinct, so a product adds each ``a``-row contribution straight into
  its output rows, with no gather of ``b`` rows and no reduction.
* the pair table (``pair_a``, ``pair_b``, ``pair_c``: every admissible
  multi-index pair, sorted by output index, with ``group_starts`` and
  ``group_out`` for ``np.add.reduceat``).  It reduces the integer degree
  bounds of series products and drives pairings and scalar-jet products.

Laurent-degree convolutions are done by FFT along the degree axis; ``nfft``
is the next power of two at or above ``2W - 1``, so circular wrap-around
never reaches the extracted window.

A context also holds the memo of base Laurent inverses (``inv_memo``):
the Neumann inverse of a jet's row-0 coefficient depends only on that
coefficient and its trusted floor, and one scenario inverts the same few
coefficients many times.  Apart from that memo contexts are immutable and
cheap to share; every series value carries a reference to the context it
lives in.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

NEG = -(1 << 40)  # sentinel for "minus infinity" degree bounds
POS = 1 << 40     # sentinel for "plus infinity" degree bounds


def default_window(order: int, j_max: int) -> tuple[int, int]:
    """Default lambda storage window for jet order ``order`` and largest
    generator exponent ``j_max``: deep enough that every degree the pipeline
    reads stays inside the trusted window."""
    depth = 2 * (order * j_max + 4)
    return -depth, order * j_max + 2


def _next_pow2(m: int) -> int:
    k = 1
    while k < m:
        k *= 2
    return k


def _graded_multi_indices(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree <= order, graded then lex."""
    if num_vars == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 1:
            for k in range(budget + 1):
                out.append(prefix + (k,))
            return
        for k in range(budget + 1):
            rec(prefix + (k,), remaining - 1, budget - k)

    rec((), num_vars, order)
    out.sort(key=lambda a: (sum(a), a))
    return out


class JetContext:
    """Truncation context with precomputed product tables and the memo of
    base Laurent inverses."""

    def __init__(self, variables: tuple[str, ...] | list[str], order: int,
                 n: int, lo: int, hi: int):
        if order < 0 or n < 1:
            raise DimensionMismatch("order must be >= 0 and n >= 1")
        if not (lo <= 0 <= hi):
            raise DimensionMismatch("window must contain degree 0")
        self.variables = tuple(variables)
        self.order = int(order)
        self.n = int(n)
        self.lo = int(lo)
        self.hi = int(hi)
        self.W = self.hi - self.lo + 1
        self.nfft = _next_pow2(2 * self.W - 1)

        if self.variables:
            self.midx = np.array(_graded_multi_indices(len(self.variables), order),
                                 dtype=np.int64)
        else:
            self.midx = np.zeros((1, 0), dtype=np.int64)
        self.T = self.midx.shape[0]
        self.index_of = {tuple(a): i for i, a in enumerate(self.midx)}
        self.totals = self.midx.sum(axis=1)

        self._build_pair_table()
        self._build_var_maps()
        # degree-convolution extraction: conv position s holds degree 2*lo+s,
        # so degrees [lo, hi] sit at positions [-lo, -lo+W).
        self.extract = slice(-self.lo, -self.lo + self.W)
        self.degrees = np.arange(self.lo, self.hi + 1, dtype=np.int64)
        # (row-0 coefficient bytes, trusted floor) -> row 0 of the inverse
        self.inv_memo: dict[tuple[bytes, int], tuple] = {}

    def _build_pair_table(self) -> None:
        d = self.order
        # graded order: the rows b with |a| + |b| <= d are a prefix
        self.upto = np.searchsorted(self.totals, np.arange(d + 1), side="right")
        self.row_out = [
            np.array([self.index_of[tuple(self.midx[a] + self.midx[b])]
                      for b in range(self.upto[d - self.totals[a]])],
                     dtype=np.int64)
            for a in range(self.T)]
        sizes = [r.size for r in self.row_out]
        ia = np.repeat(np.arange(self.T, dtype=np.int64), sizes)
        ib = np.concatenate([np.arange(k, dtype=np.int64) for k in sizes])
        ic = np.concatenate(self.row_out)
        perm = np.argsort(ic, kind="stable")
        self.pair_a = ia[perm]
        self.pair_b = ib[perm]
        self.pair_c = ic[perm]
        # group starts for reduceat; every output index occurs (pair with 0).
        starts = np.flatnonzero(np.r_[True, np.diff(self.pair_c) != 0])
        self.group_starts = starts
        self.group_out = self.pair_c[starts]

    def _build_var_maps(self) -> None:
        nv = len(self.variables)
        self.partial_maps = []   # per var: (src, dst, factor)
        self.monomial_maps = []  # per var: (src, dst) for "* t_v"
        for v in range(nv):
            src_p, dst_p, fac = [], [], []
            src_m, dst_m = [], []
            for i, a in enumerate(self.midx):
                if a[v] >= 1:
                    b = tuple(np.r_[a[:v], a[v] - 1, a[v + 1:]])
                    src_p.append(i)
                    dst_p.append(self.index_of[b])
                    fac.append(a[v])
                if self.totals[i] < self.order:
                    b = tuple(np.r_[a[:v], a[v] + 1, a[v + 1:]])
                    src_m.append(i)
                    dst_m.append(self.index_of[b])
            self.partial_maps.append((np.array(src_p, dtype=np.int64),
                                      np.array(dst_p, dtype=np.int64),
                                      np.array(fac, dtype=np.float64)))
            self.monomial_maps.append((np.array(src_m, dtype=np.int64),
                                       np.array(dst_m, dtype=np.int64)))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DimensionMismatch(f"unknown flow variable {name!r}") from None

    def compatible(self, other: "JetContext") -> bool:
        return (self.variables == other.variables and self.order == other.order
                and self.n == other.n and self.lo == other.lo and self.hi == other.hi)

    def require_compatible(self, other: "JetContext") -> None:
        if not self.compatible(other):
            raise DimensionMismatch("operands live in incompatible contexts")

    def pos(self, degree: int) -> int:
        """Storage position of a lambda degree."""
        return degree - self.lo

    def scalarized(self) -> "JetContext":
        """Same jet structure with n = 1 (used by scalar-valued helpers)."""
        if self.n == 1:
            return self
        return JetContext(self.variables, self.order, 1, self.lo, self.hi)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"JetContext(vars={self.variables}, order={self.order}, "
                f"n={self.n}, window=[{self.lo},{self.hi}])")
