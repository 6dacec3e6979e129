"""The compiled kernel of :mod:`loopjet.series`, ``_walk.c``: a jet
product's live pairs and degree bounds, its pair walk, the masked window of
its result and the top cap, each rule as the docstring of that module
states it.  It is built by the C compiler ``CC`` at the first use and
cached in ``__pycache__`` under a name keyed by the source, the flags and
the compiler binary, so a later process loads it without starting the
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
              "walk": (_I, "iPPPiiiPiPiPi"), "window": (_I, "iiiPiiiPPPi")}


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


def _raised(flags: int) -> None:
    """A kernel call's flags raised again by numpy, by ``np.errstate``: bit
    0 an overflow, bit 1 an invalid operation; -1 is a pair past the rows."""
    if flags < 0:
        raise ValueError("walk: a pair is past the operands' rows")
    if flags & 1:
        np.multiply(np.array(1e300), 1e300)
    if flags & 2:
        np.multiply(np.array(np.inf), 0.0)


class Tables:
    """A context's pair table and its row-0 part ``zero_pairs``, its jet
    orders and its window, handed to the kernel once (the context holds
    the arrays), and the buffer ``live`` a product's live pairs go to."""

    def __init__(self, ctx):
        room, self.T = ctx.pair_a.size, ctx.T
        self.live, self.span = np.empty((3, room), np.int64), np.empty(2, int)
        self.scans = [(t[0].size, *map(address, t)) for t in
                      ((ctx.pair_a, ctx.pair_b, ctx.pair_c), ctx.zero_pairs)]
        self.at = (address(ctx.totals), address(self.live), room,
                   address(self.span), ctx.T, ctx.lo, ctx.hi)
        self.pairs_at = tuple(map(address, self.live))

    def select(self, a, b, top: int, want, final: bool) -> tuple:
        """The live pairs of the product of the slabs ``a`` and ``b`` up to
        jet order ``top`` and, unless ``want`` is None, in the rows of that
        bool mask, and its bounds, finalized if ``final``: ``(live pairs as
        walk takes them, first and last output, bounds (4, T))``."""
        if want is not None and (want.dtype != bool or want.size != self.T):
            raise ValueError("select: want is not a mask of the jet rows")
        out = np.empty((4, self.T), np.int64)
        count = _library().pairs(
            *self.scans[a.jet_const() or b.jet_const()], *self.at, top,
            want if want is None else address(want), address(a.b),
            address(b.b), address(out), final)
        return (count, *self.pairs_at), *self.span.tolist(), out


def walk(A: np.ndarray, B: np.ndarray, pairs: tuple, C: np.ndarray,
         first: int = 0) -> None:
    """``C[c - first] += A[a] B[b]`` for each pair of ``pairs`` in order, on
    contiguous spectra ``(rows, n, n, nfft)``: the int64 arrays ``(pa, pb,
    pc)``, or the live pairs of ``Tables.select``."""
    if isinstance(pairs[0], np.ndarray):
        if not (all(x.dtype == complex and x.ndim == 4
                    and x.shape[1:] == C.shape[1:] for x in (A, B, C))
                and all(p.dtype == np.int64 and p.shape == pairs[0].shape
                        for p in pairs)):
            raise ValueError("walk: operands are not spectra of one shape")
        pairs = (pairs[0].size, *map(address, pairs))
    _raised(_library().walk(*pairs, first, C.shape[1], C.shape[3],
                            address(A), len(A), address(B), len(B),
                            address(C), len(C)))


def window(dst: np.ndarray, lo: int, slo: np.ndarray, shi: np.ndarray,
           hat=None) -> None:
    """``dst (R, W, n, n)``, degrees ``[lo, lo + W)``, set to the window of
    the inverse transforms ``hat (R, n, n, nfft)`` (position ``-lo`` on),
    or kept without them, each coefficient multiplied by ``(m + 0i)``: m
    is 1 inside its row's support ``[slo[r], shi[r]]`` and 0 outside."""
    rows, W, n, _ = dst.shape
    nfft = 0 if hat is None else hat.shape[-1]
    if not (dst.dtype == complex and slo.dtype == shi.dtype == np.int64
            and min(slo.size, shi.size) >= rows and (hat is None or (
                hat.dtype == complex and hat.shape == (rows, n, n, nfft)
                and W - lo <= nfft))):
        raise ValueError("window: the transforms do not hold the window")
    src, strides = ((address(dst), (W * n * n, n * n, 1)) if hat is None
                    else (address(hat) - 16 * lo, (n * n * nfft, 1, nfft)))
    _raised(_library().window(rows, W, n * n, src, *strides, address(dst),
                              address(slo), address(shi), lo))


def cap(bounds: np.ndarray, hi: int) -> None:
    """The trusted tops of the degree ``bounds (4, T)`` capped in place at
    the window top ``hi``: certified content past it cannot be stored, so
    the degrees above it become untrusted rather than silently zero."""
    if bounds.dtype != np.int64 or bounds.ndim != 2 or len(bounds) != 4:
        raise ValueError("cap: the bounds are not int64 of shape (4, T)")
    _library().cap(bounds.shape[1], address(bounds), hi)
