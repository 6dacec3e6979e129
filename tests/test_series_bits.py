"""Golden bits of the series operations on fixed seeded inputs.

Each operation's output is pinned by a sha256 in ``data/series_op_bits.json``:
per component its data, zero-padded to T rows past the last live row (the
rows past it are asserted zero), and its four degree-bound arrays, plus the
trusted order; a scalar jet by its values, a float by its bits.  The sign of
a zero is not part of a value (a dead row holds +0 or -0 by whatever last
touched it), so zeros are hashed as +0.  A change to how values are stored
must leave every digest as it is.

    python tests/test_series_bits.py --record   # rewrite the pinned digests
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

from loopjet import JetContext, ScalarJet, Series
from loopjet.context import NEG

from helpers import dense, random_jet_series, random_laurent_dict, rng

PINNED = pathlib.Path(__file__).parent / "data" / "series_op_bits.json"


def _digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, float):
        h.update(value.hex().encode())
        return h.hexdigest()
    h.update(repr((type(value).__name__, value.E, value.vorder)).encode())
    if isinstance(value, ScalarJet):
        for v in value.vals:
            h.update((v + 0.0).tobytes())
        return h.hexdigest()
    for s in value.slabs:
        data = dense(s)
        live = np.flatnonzero(s.shi != NEG).max(initial=-1) + 1
        assert not np.any(data[live:])
        data[live:] = 0.0
        h.update((data + 0.0).tobytes())
        for b in (s.tlo, s.slo, s.shi, s.thi):
            h.update(b.tobytes())
    return h.hexdigest()


def _partial_rows(ctx: JetContext, gen, grade: int) -> Series:
    """Random value live on the jet rows up to ``grade``, with row 1 dead."""
    out = Series.zeros(ctx)
    for row in range(ctx.upto[grade]):
        if row != 1:
            out = out + Series.from_degree_matrices(
                ctx, random_laurent_dict(gen, ctx.n, -3, 1, 0.5), alpha=row)
    return out


def _unit_lower(ctx: JetContext, gen) -> Series:
    """I plus random strictly negative degrees on row 0 and content on
    every other row: an invertible value of the L- shape."""
    lower = Series.from_degree_matrices(
        ctx, random_laurent_dict(gen, ctx.n, -3, -1, 0.3))
    rest = random_jet_series(ctx, gen, -2, 1, 0.3).with_rows(
        [0], Series.zeros(ctx), [0])
    return Series.identity(ctx) + lower + rest


def _outputs() -> dict:
    out = {}
    for n, nv, order in ((2, 2, 3), (3, 3, 2)):
        ctx = JetContext(tuple(f"t{i}" for i in range(1, nv + 1)), order, n,
                         -8, 3)
        gen = rng(7000 + 10 * n + nv)
        x, y = (random_jet_series(ctx, gen, -4, 2) for _ in range(2))
        part = _partial_rows(ctx, gen, 1)
        c1, c2 = (Series.from_degree_matrices(
            ctx, random_laurent_dict(gen, n, -3, 2)) for _ in range(2))
        loose = random_jet_series(ctx, gen, ctx.lo, 1, exact=False)
        xe, ye = x.with_eps(part, c1), y.with_eps(c2)
        a = _unit_lower(ctx, gen)
        ae = a.with_eps(part)
        rows = [0, ctx.upto[1], ctx.T - 1]
        ops = {
            "matmul": lambda: x * y,
            "matmul_cap": lambda: x.matmul(y, 1),
            "matmul_rows": lambda: x.matmul(y, rows=rows),
            "matmul_cap_rows": lambda: x.matmul(part, 2, rows=rows),
            "matmul_partial": lambda: part * x,
            "matmul_loose": lambda: loose * x,
            "matmul_eps": lambda: xe * ye,
            "matmul_eps_base": lambda: xe.matmul(ye, base=x * y),
            "matmul_eps_cap": lambda: xe.matmul(ye, 1),
            "const_general": lambda: c1 * x,
            "general_const": lambda: x * c1,
            "const_general_cap": lambda: c1.matmul(part, 1),
            "const_const": lambda: c1 * c2,
            "inv": lambda: a.inv(),
            "inv_cap": lambda: a.inv(1),
            "inv_start": lambda: a.inv(start=a.inv(1)),
            "inv_const": lambda: (Series.identity(ctx) + c1.minus()).inv(),
            "inv_eps": lambda: ae.inv(),
            "inv_eps_base": lambda: ae.inv(base=a.inv()),
            "shift_up": lambda: xe.shift(2),
            "shift_down": lambda: part.shift(-3),
            "shift_out": lambda: x.shift(ctx.W + 1),
            "dlambda": lambda: xe.dlambda(),
            "dlambda_loose": lambda: loose.dlambda(),
            "plus": lambda: xe.plus(),
            "minus": lambda: part.minus(),
            "add": lambda: x + part,
            "add_eps": lambda: part + xe,
            "sub": lambda: part - x,
            "sub_const": lambda: c1 - part,
            "scale": lambda: part.scale(-1.0),
            "with_rows": lambda: part.with_rows(rows, x, [0, 1, 2]),
            "with_rows_eps": lambda: c1.with_rows([1, 2], xe, [2, 1],
                                                  factor=[2.0, -1.0]),
            "from_rows": lambda: Series.from_rows(ctx, [ctx.T - 1, 0], part,
                                                  [0, 2], divisor=[3.0, 2.0]),
            "partial": lambda: xe.partial("t1"),
            "partial_last": lambda: part.partial(f"t{nv}"),
            "times_var": lambda: part.times_var("t2"),
            "degree_slice": lambda: xe.degree_slice(-1),
            "degree_slice_loose": lambda: loose.degree_slice(ctx.lo),
            "pairing": lambda: x.pairing(y, -1),
            "pairing_partial": lambda: x.pairing(part, -2),
            "pairing_one_row": lambda: x.pairing(c1, -1),
            "pairing_const_left": lambda: c1.pairing(part, 0),
            "pairing_eps": lambda: xe.pairing(ye, -1),
            "max_abs": lambda: xe.max_abs(),
            "max_abs_partial": lambda: part.max_abs(),
            "max_abs_loose": lambda: loose.max_abs(),
            "entry_jet": lambda: part.entry_jet(0, 1, -1),
            "trace_coeff": lambda: xe.trace_coeff(0),
            "zeros": lambda: Series.zeros(ctx),
            "identity": lambda: Series.identity(ctx),
        }
        fctx = JetContext((), 0, n, -8, 3)
        f = Series.from_degree_matrices(fctx, random_laurent_dict(gen, n, -5, 0))
        ops["plain_inv"] = lambda: (Series.identity(fctx) + f.minus()).inv()
        ops["plain_pairing"] = lambda: f.pairing(f.dlambda(), -3)
        for name, op in ops.items():
            out[f"n{n}v{nv}d{order}/{name}"] = _digest(op())
    return out


def test_series_ops_keep_their_bits():
    pinned = json.loads(PINNED.read_text())
    got = _outputs()
    assert sorted(got) == sorted(pinned)
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    PINNED.write_text(json.dumps(_outputs(), indent=1, sort_keys=True) + "\n")
