"""The compiled pair walk: its bits against the numpy oracle, its
floating-point errors, its build and cache, and resource failures of a run
(a failed build, out of memory) as documented exit codes."""

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

import numpy as np
import pytest

import loopjet
from loopjet import JetContext, Series, kernel
from loopjet.cli import main
from loopjet.context import NEG, POS
from loopjet.series import _slab_mul, _zero_slab

from helpers import (dense, random_laurent_dict, reference_slab_product,
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


@pytest.mark.parametrize("nfft", [1, 7, 16, 64, 100, 128, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_is_the_numpy_walk_bit_for_bit(n, nfft):
    # C[c] += A[a] B[b] pair by pair in list order, each product as numpy
    # multiplies complex doubles and adds the k terms: lengths that are
    # and are not a multiple of the walk's chunk, repeated outputs, and an
    # empty pair list, which leaves C as it is
    gen = rng(100 * n + nfft)
    A, B = _spectra(gen, 5, n, nfft), _spectra(gen, 4, n, nfft)
    C0 = _spectra(gen, 6, n, nfft)
    pa = np.sort(gen.integers(0, 5, 40))
    pairs = (pa, gen.integers(0, 4, 40), gen.integers(0, 6, 40))
    empty = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    for p in (pairs, empty):
        got, ref = C0.copy(), C0.copy()
        kernel.walk(A, B, p, got)
        reference_walk(A, B, p, ref)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


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
    A = _spectra(gen, 1, 2, 16) * 0 + 1e300
    pairs = tuple(np.zeros(1, dtype=np.int64) for _ in range(3))
    with np.errstate(over="raise", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflow"):
            kernel.walk(A, A, pairs, np.zeros_like(A))
    with np.errstate(over="warn", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            kernel.walk(A, A, pairs, np.zeros_like(A))
    inf = np.full_like(A, np.inf)
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(FloatingPointError, match="invalid value"):
            kernel.walk(inf, np.zeros_like(A), pairs, np.zeros_like(A))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        C = np.zeros_like(A)
        kernel.walk(A, A, pairs, C)
        assert not np.all(np.isfinite(C))


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
