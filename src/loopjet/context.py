"""Truncation contexts for jets of matrix Laurent series.

A :class:`JetContext` fixes, once per scenario,

* the ordered list of flow variables and the maximal total jet order ``d``,
* the matrix dimension ``n``,
* the lambda storage window ``[lo, hi]``,

and precomputes the multiplication tables of the graded jet algebra
together with index maps for partial derivatives and monomial shifts:

* the pair table ``pair_a``, ``pair_b``, ``pair_c``: every admissible
  multi-index pair (a, b) with its output index c, the index of a + b.
  Multi-indices are stored in graded order, so for a row ``a`` the rows
  ``b`` with ``|a| + |b| <= k`` are the prefix ``[0, upto[k - |a|])``.  The
  table is a-major: the compiled kernel picks a product's live pairs in
  table order, scatters its degree bounds over them and walks them, so each
  output adds its terms in ascending a.  The rows of one grade g share one
  prefix, and ``grade_out[g]`` is the ``(rows of grade g, upto[d - g])``
  view of ``pair_c`` holding their outputs, which a pairing sums grid by
  grid; scalar-jet products scatter into the ``pair_c`` rows.
  ``zero_pairs`` is the part of the table with row 0 on either side, the
  only pairs live in a product with a jet-constant factor.  ``tables``
  hands both to the kernel once, with the jet orders ``totals``.

Laurent-degree convolutions are done by FFT along the degree axis, and a
product keeps only the degrees ``[lo, hi]`` of its ``2W - 1``-term linear
convolution (a middle product).  ``nfft`` is the least power of two at or
above ``W + max(hi, -lo)``, which is exactly enough: the ``W - 1`` discarded
degrees form two runs next to the kept window, ``-lo`` degrees below it and
``hi`` above it.  A length-``N`` circular convolution folds position ``s``
onto ``s mod N``, so the ``W`` kept positions are untouched exactly when each
run fits into the ``N - W`` residues outside them, that is when
``N >= W + max(hi, -lo)``; at one less, the longer run and the window
share a residue.

Every value built once per key lives in a :class:`Memo`, the one memo
rule: a context, a vacuum sequence, a factorization result and a field
family each extend it.  A context's memo holds the Newton-polished inverse
of a jet's row-0 coefficient (key ``("inv", ...)``), which depends only on
that coefficient and its four degree bounds, as one scenario inverts the
same few coefficients many times, and the integration steps that the
factorization and ln tau share.  A context also keeps the ledger of the
spectra its values hold (``spectra``), which :mod:`loopjet.series` keeps
under a budget in units of ``spectrum_bytes``, and, in ``tables``, the work
buffer a product accumulates in.  Apart from these contexts are immutable
and cheap to share; every series value carries a reference to the context
it lives in.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from .errors import DimensionMismatch
from .kernel import Tables

NEG = -(1 << 40)  # sentinel for "minus infinity" degree bounds
POS = 1 << 40     # sentinel for "plus infinity" degree bounds


def default_window(order: int, j_max: int) -> tuple[int, int]:
    """Default lambda storage window for jet order ``order`` and largest
    generator exponent ``j_max``: deep enough that every degree the pipeline
    reads stays inside the trusted window."""
    depth = 2 * (order * j_max + 4)
    return -depth, order * j_max + 2


def fft_length(lo: int, hi: int) -> int:
    """The alias-free FFT length of the window ``[lo, hi]``: the least power
    of two at or above ``W + max(hi, -lo)`` (see the module docstring)."""
    need, k = (hi - lo + 1) + max(hi, -lo), 1
    while k < need:
        k *= 2
    return k


def _graded_multi_indices(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent vectors with total degree <= order, graded then lex."""
    if num_vars == 0:
        return [()]
    return sorted(((k,) + rest for k in range(order + 1)
                   for rest in _graded_multi_indices(num_vars - 1, order - k)),
                  key=lambda a: (sum(a), a))


class Memo:
    """A holder of values built once per key and shared: callers must not
    modify them.  The dict is made on first use, through ``vars`` so that
    frozen dataclasses hold one too."""

    def cached(self, key, build):
        """``build()``, computed once per holder and key."""
        memo = vars(self).setdefault("_cache", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def forget(self, kind: str) -> None:
        """Drop the values whose key is a tuple starting with ``kind``."""
        memo = vars(self).get("_cache", {})
        for key in [k for k in memo if isinstance(k, tuple) and k[0] == kind]:
            del memo[key]


class Ledger:
    """The values that hold a cached buffer, least recently used first, and
    the bytes they hold in total.  Holders are referenced weakly: one that
    dies stops counting."""

    def __init__(self):
        self._held: OrderedDict[int, tuple] = OrderedDict()
        self.bytes = 0

    def use(self, holder, nbytes: int, budget: int) -> list:
        """Note a use of ``holder``'s buffer of ``nbytes`` and return the
        holders whose buffers must go, least recently used first, so that
        what stays holds at most ``budget`` bytes."""
        key = id(holder)
        if key in self._held:
            self._held.move_to_end(key)
        else:
            self._held[key] = (weakref.ref(holder,
                                           lambda _, k=key: self._forget(k)),
                               nbytes)
            self.bytes += nbytes
        out = []
        while self.bytes > budget:
            _, (ref, size) = self._held.popitem(last=False)
            self.bytes -= size
            out.append(ref())
        return out

    def _forget(self, key: int) -> None:
        _, size = self._held.pop(key, (None, 0))
        self.bytes -= size


class JetContext(Memo):
    """Truncation context with precomputed product tables, a memo and the
    ledger of the spectra its values hold."""

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
        self.nfft = fft_length(self.lo, self.hi)

        self.midx = np.array(_graded_multi_indices(len(self.variables), order),
                             dtype=np.int64)
        self.T = self.midx.shape[0]
        self.index_of = {tuple(a): i for i, a in enumerate(self.midx)}
        self.totals = self.midx.sum(axis=1)

        self._build_pair_table()
        self._build_var_maps()
        # degree-convolution extraction: conv position s holds degree 2*lo+s,
        # so degrees [lo, hi] sit at positions [-lo, -lo+W).
        self.extract = slice(-self.lo, -self.lo + self.W)
        self.degrees = np.arange(self.lo, self.hi + 1, dtype=np.int64)
        # bytes of a dense spectrum of every jet row: the unit of the
        # budget, which counts the compact bytes of the spectra held
        self.spectrum_bytes = self.T * self.n * self.n * self.nfft * 16
        self.spectra = Ledger()

    def _build_pair_table(self) -> None:
        d = self.order
        # graded order: the rows b with |a| + |b| <= d are a prefix
        self.upto = np.searchsorted(self.totals, np.arange(d + 1), side="right")
        sizes = self.upto[d - self.totals]
        self.pair_a = np.repeat(np.arange(self.T, dtype=np.int64), sizes)
        self.pair_b = np.concatenate([np.arange(k, dtype=np.int64)
                                      for k in sizes])
        self.pair_c = np.array(
            [self.index_of[tuple(self.midx[a] + self.midx[b])]
             for a, b in zip(self.pair_a, self.pair_b)], dtype=np.int64)
        ends = np.r_[0, np.cumsum(sizes)][np.r_[0, self.upto]]
        self.grade_out = [self.pair_c[s:e].reshape(-1, self.upto[d - g])
                          for g, (s, e) in enumerate(zip(ends, ends[1:]))]
        # the pairs with a factor's row 0: all a jet-constant factor can meet
        zero = (self.pair_a == 0) | (self.pair_b == 0)
        self.zero_pairs = (self.pair_a[zero], self.pair_b[zero],
                           self.pair_c[zero])
        self.tables = Tables(self)

    def _build_var_maps(self) -> None:
        """Per variable v, the rows ``(src, dst, factor)`` of d/dt_v, from
        the index a to a - e_v times a_v, and ``(src, dst)`` of the product
        by t_v, from a to a + e_v below the jet order."""
        self.partial_maps, self.monomial_maps = [], []
        for e in np.eye(len(self.variables), dtype=np.int64):
            src_p = np.flatnonzero(self.midx @ e >= 1)
            src_m = np.flatnonzero(self.totals < self.order)
            dst_p, dst_m = (np.array([self.index_of[tuple(a)]
                                      for a in self.midx[src] + step],
                                     dtype=np.int64)
                            for src, step in ((src_p, -e), (src_m, e)))
            self.partial_maps.append(
                (src_p, dst_p, (self.midx @ e)[src_p].astype(np.float64)))
            self.monomial_maps.append((src_m, dst_m))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DimensionMismatch(f"unknown flow variable {name!r}") from None

    def unit_index(self, var: str, power: int = 1) -> tuple[int, ...]:
        """The multi-index ``power`` e_var."""
        alpha = [0] * len(self.variables)
        alpha[self.var_index(var)] = power
        return tuple(alpha)

    def compatible(self, other: "JetContext") -> bool:
        return (self.variables == other.variables and self.order == other.order
                and self.n == other.n and self.lo == other.lo and self.hi == other.hi)

    def require_compatible(self, other: "JetContext") -> None:
        if not self.compatible(other):
            raise DimensionMismatch("operands live in incompatible contexts")

    def pos(self, degree: int) -> int:
        """Storage position of a lambda degree."""
        return degree - self.lo

    def integration_steps(self, var_choice: str = "first") -> dict:
        """How jet rows are integrated, worked out once per ``var_choice``:
        each row of total order >= 1 in the first (``"last"``: the last)
        variable v with a positive exponent, from the row of its index minus
        e_v, dividing by that exponent.  ``{order: {v: (rows, src_rows,
        exponents)}}``."""
        def build() -> dict:
            nv = len(self.variables)
            order_v = range(nv) if var_choice == "first" else range(nv - 1, -1, -1)
            steps: dict = {}
            for row in range(1, self.T):  # graded order: row 0 is order 0
                alpha = self.midx[row]
                v = next(p for p in order_v if alpha[p] >= 1)
                beta = alpha.copy()
                beta[v] -= 1
                steps.setdefault(int(self.totals[row]), {}).setdefault(
                    v, []).append((row, self.index_of[tuple(beta)], alpha[v]))
            return {ell: {v: tuple(np.array(c, dtype=np.int64)
                                   for c in zip(*rows))
                          for v, rows in by_var.items()}
                    for ell, by_var in steps.items()}

        return self.cached(("steps", var_choice), build)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"JetContext(vars={self.variables}, order={self.order}, "
                f"n={self.n}, window=[{self.lo},{self.hi}])")
