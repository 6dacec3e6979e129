"""The compiled kernel of :mod:`loopjet.series`, ``_walk.c``: a jet
product's live pairs and degree bounds, the gather of its compact spectra,
its output entries, its pair walk, the masked window of its result and the
top cap, each rule as the docstring of that module states it.  A
:class:`Spectrum` is compact: ``rows (m, nfft)`` complex, one for each live
(jet row, entry), and ``index (R n n)`` int64 from the entries to their
rows, -1 for a dead entry, which the walk skips and the window writes as
+0.0.

The kernel is built by the C compiler ``CC`` at the first use and cached
in ``__pycache__`` under a name keyed by the source, the flags and the
compiler binary, so a later process loads it without starting the
compiler.  A build writes a file of its own and moves it into place, so
racing processes each end with a valid library.  A missing compiler or a
failed build raises :class:`ResourceError` naming the stage ``kernel
build``.  The overflow and invalid flags of a walk or a window are raised
again by a numpy multiply, so they follow ``np.errstate`` as numpy's own
operations do."""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import zlib
from pathlib import Path

import numpy as np

from .errors import ResourceError

SOURCE = Path(__file__).with_name("_walk.c")
CACHE = Path(__file__).with_name("__pycache__")
CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
_I, _P, _EMPTY = ctypes.c_long, ctypes.c_void_p, ctypes.c_char * 0
SIGNATURES = {"pairs": (_I, "iPPPPPiPiiiiPPPPi"), "cap": (None, "iPi"),
              "scan": (_I, "iiiPP"), "gather": (None, "iiiiPPP"),
              "walk": (_I, "iPPPiiiPPiPPiPPii"),
              "window": (_I, "iiiPiiiPiPPPi")}


def address(x: np.ndarray) -> int:
    """Address of the data of ``x``, which must be writable and
    C-contiguous (``TypeError`` otherwise); cheaper than ``x.ctypes``."""
    return ctypes.addressof(_EMPTY.from_buffer(x))


def _build(cc: str, path: Path) -> None:
    import subprocess  # only a build needs it: 0.5 MB of peak RSS

    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ResourceError(f"kernel build: {cc} failed: "
                                f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def _library():
    """The loaded kernel, built on first use."""
    try:
        cc = shutil.which(CC)
        if cc is None:
            raise ResourceError(f"kernel build: no C compiler {CC!r}")
        st = os.stat(cc := os.path.realpath(cc))
        key = zlib.crc32(SOURCE.read_bytes() + repr(
            (FLAGS, cc, st.st_size, st.st_mtime_ns)).encode())
        path = CACHE / f"walk-{key:08x}.so"
        if not path.exists():
            CACHE.mkdir(exist_ok=True)
            _build(cc, path)
        lib = ctypes.CDLL(str(path))
    except OSError as e:
        raise ResourceError(f"kernel build: {e}") from None
    for name, (res, args) in SIGNATURES.items():
        getattr(lib, name).restype = res
        getattr(lib, name).argtypes = [_I if c == "i" else _P for c in args]
    return lib


def _raised(flags: int, past: str = "walk: a pair is past the operands' "
                                   "rows") -> None:
    """A kernel call's flags raised again by numpy, by ``np.errstate``: bit
    0 an overflow, bit 1 an invalid operation; -1 is an index ``past`` the
    rows."""
    if flags < 0:
        raise ValueError(past)
    if flags & 1:
        np.multiply(np.array(1e300), 1e300)
    if flags & 2:
        np.multiply(np.array(np.inf), 0.0)


class Tables:
    """A context's pair table and its row-0 part ``zero_pairs``, its jet
    orders and its window, handed to the kernel once (the context holds
    the arrays), the buffer ``live`` a product's live pairs go to, and the
    work buffer its accumulator lives in, grown on demand."""

    def __init__(self, ctx):
        room, self.T, self.n = ctx.pair_a.size, ctx.T, ctx.n
        self.live, self.span = np.empty((3, room), np.int64), np.empty(2, int)
        self.scans = [(t[0].size, *map(address, t)) for t in
                      ((ctx.pair_a, ctx.pair_b, ctx.pair_c), ctx.zero_pairs)]
        self.at = (address(ctx.totals), address(self.live), room,
                   address(self.span), ctx.T, ctx.lo, ctx.hi)
        self.pairs_at = tuple(map(address, self.live))
        self._work = np.empty(0, complex)

    def select(self, a, b, top: int, want, final: bool) -> tuple:
        """The live pairs of the product of the slabs ``a`` and ``b`` up to
        jet order ``top`` and, unless ``want`` is None, in the rows of that
        bool mask, and its bounds, finalized if ``final``: ``(live pairs as
        product takes them, first and last output, bounds (4, T))``."""
        if want is not None and (want.dtype != bool or want.size != self.T):
            raise ValueError("select: want is not a mask of the jet rows")
        out = np.empty((4, self.T), np.int64)
        count = _library().pairs(
            *self.scans[a.jet_const() or b.jet_const()], *self.at, top,
            want if want is None else address(want), address(a.b),
            address(b.b), address(out), final)
        return (count, *self.pairs_at), *self.span.tolist(), out

    def product(self, A: "Spectrum", B: "Spectrum", pairs: tuple,
                first: int, last: int) -> "Spectrum":
        """The walk ``C[c] += A[a] B[b]`` over ``pairs``, in order, of the
        spectra ``A`` and ``B`` into the output rows ``first`` to ``last``,
        from +0.0: a spectrum whose rows, one for each output entry that
        some pair feeds a live term, numbered in order, lie in the work
        buffer, which grows on demand; it is spent once it is windowed.
        ``pairs`` are the live pairs of ``select`` as they are, or int64
        arrays ``(pa, pb, pc)``, with ``A`` and ``B`` checked to be of one
        length, with indexes of whole ``n x n`` entries within their rows;
        the caller keeps them referenced through the call."""
        n, nfft, at = self.n, A.rows.shape[1], pairs
        if isinstance(pairs[0], np.ndarray):
            if not (all(p.dtype == np.int64 and p.shape == pairs[0].shape
                        for p in pairs) and all(
                    x.rows.shape[1] == nfft and x.index.size % (n * n) == 0
                    and np.all(x.index < len(x.rows)) for x in (A, B))):
                raise ValueError("walk: operands are not spectra of one shape")
            at = (pairs[0].size, *map(address, pairs))
        index = np.empty((last + 1 - first) * n * n, np.int64)
        while (got := _library().walk(
                *at, first, n, nfft, *A.at, *B.at, address(self._work),
                address(index), index.size, self._work.size // nfft)) < -1:
            self._work = np.empty((-2 - got) * nfft, complex)
        _raised(got if got < 0 else got & 3)
        return Spectrum(self._work[:(got >> 2) * nfft].reshape(-1, nfft),
                        index)


class Spectrum:
    """A spectrum in the compact layout (see the module docstring): its
    ``rows`` and ``index``, and ``at``, their addresses and the index's
    size as the kernel takes them."""

    __slots__ = ("rows", "index", "at")

    def __init__(self, rows: np.ndarray, index: np.ndarray):
        if not (rows.dtype == complex and rows.ndim == 2
                and index.dtype == np.int64 and index.ndim == 1):
            raise ValueError("Spectrum: not complex rows and an int64 index")
        self.rows, self.index = rows, index
        self.at = address(rows), address(index), index.size

    @property
    def nbytes(self) -> int:
        """The bytes it holds: its rows and its index."""
        return self.rows.nbytes + self.index.nbytes


def spectrum(data: np.ndarray, nfft: int) -> Spectrum:
    """The compact layout of the window coefficients ``data (R, W, n, n)``,
    untransformed: a row for each (jet row, entry) whose W coefficients
    are not all +0.0 bits, zero-padded to ``nfft``, in order."""
    R, W, n, _ = data.shape
    if data.dtype != complex or W > nfft:
        raise ValueError("spectrum: the data do not fit the transform")
    data = np.require(data, requirements=("C", "W"))
    index = np.empty(R * n * n, np.int64)
    lib = _library()
    rows = np.empty((lib.scan(R, W, n * n, address(data), address(index)),
                     nfft), complex)
    lib.gather(R, W, n * n, nfft, address(data), address(index),
               address(rows))
    return Spectrum(rows, index)


def window(dst: np.ndarray, lo: int, slo: np.ndarray, shi: np.ndarray,
           hat: Spectrum | None = None) -> None:
    """``dst (R, W, n, n)``, degrees ``[lo, lo + W)``, set to the window of
    the inverse transforms ``hat`` (position ``-lo`` on; an entry without a
    row is +0.0), or kept without them, each coefficient multiplied by
    ``(m + 0i)``: m is 1 inside its row's support ``[slo[r], shi[r]]`` and
    0 outside."""
    rows, W, n, _ = dst.shape
    nfft = 0 if hat is None else hat.rows.shape[1]
    bad = "window: the transforms do not hold the window"
    if not (dst.dtype == complex and slo.dtype == shi.dtype == np.int64
            and min(slo.size, shi.size) >= rows and (hat is None or (
                hat.index.size == rows * n * n and W - lo <= nfft))):
        raise ValueError(bad)
    src, strides, index = ((address(dst), (W * n * n, n * n, 1), (None, 0))
                           if hat is None else
                           (hat.at[0] - 16 * lo, (0, 1, nfft),
                            (hat.at[1], len(hat.rows))))
    _raised(_library().window(rows, W, n * n, src, *strides, *index,
                              address(dst), address(slo), address(shi), lo),
            bad)


def cap(bounds: np.ndarray, hi: int) -> None:
    """The trusted tops of the degree ``bounds (4, T)`` capped in place at
    the window top ``hi``: certified content past it cannot be stored, so
    the degrees above it become untrusted rather than silently zero."""
    if bounds.dtype != np.int64 or bounds.ndim != 2 or len(bounds) != 4:
        raise ValueError("cap: the bounds are not int64 of shape (4, T)")
    _library().cap(bounds.shape[1], address(bounds), hi)
