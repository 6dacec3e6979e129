"""The compiled pair walk of :mod:`loopjet.series`, ``_walk.c``: built by
the C compiler ``CC`` at the first jet product and cached in ``__pycache__``
under a name keyed by the source, the flags and the compiler binary, so a
later process loads it without starting the compiler.  A build writes a
file of its own and moves it into place, so racing processes each end with
a valid library.  A missing compiler or a failed build raises
:class:`ResourceError` naming the stage ``kernel build``.  The overflow and
invalid flags of a walk are raised again by a numpy multiply, so they follow
``np.errstate`` as numpy's own operations do."""

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
    """The loaded walk, built on first use."""
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
    lib.walk.restype = ctypes.c_int
    lib.walk.argtypes = ([ctypes.c_long] + [ctypes.c_void_p] * 3
                         + [ctypes.c_long] * 2 + [ctypes.c_void_p] * 3)
    return lib


def walk(A: np.ndarray, B: np.ndarray, pairs: tuple, C: np.ndarray) -> None:
    """``C[c] += A[a] B[b]`` for each pair of the int64 arrays ``pairs =
    (pa, pb, pc)`` in order, on contiguous spectra ``(rows, n, n, nfft)``."""
    pa, pb, pc = pairs
    if not (all(x.dtype == complex and x.flags.c_contiguous and x.ndim == 4
                and x.shape[1:] == C.shape[1:] for x in (A, B, C))
            and all(p.dtype == np.int64 and p.flags.c_contiguous
                    and p.shape == pc.shape and p.max(initial=-1) < len(x)
                    for p, x in zip(pairs, (A, B, C)))):
        raise ValueError("walk: operands are not contiguous spectra of one "
                         "shape, or a pair is past their rows")
    flags = _library().walk(pc.size, pa.ctypes.data, pb.ctypes.data,
                            pc.ctypes.data, C.shape[1], C.shape[3],
                            A.ctypes.data, B.ctypes.data, C.ctypes.data)
    if flags & 1:  # numpy raises the walk's overflow again, by np.errstate
        np.multiply(np.array(1e300), 1e300)
    if flags & 2:  # and its invalid operation
        np.multiply(np.array(np.inf), 0.0)
