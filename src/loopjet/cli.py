"""Command-line batch runner.

Subcommands:

* ``run --config c.json --out report.json [--seed N] [--order D]`` --
  execute the configured suites and write the JSON report; the exit code is
  0 when every check passed, 1 on a check failure, 2 for an invalid
  configuration and 3 for a numerical failure (window exhaustion, untrusted
  read, shape violation, a floating overflow or invalid operation, a defect
  that is not finite), naming the failing stage or check.
* ``dump --config c.json --target {M,E,u,v,lntau} --out file.csv`` --
  coefficient dump with columns multi_index;lambda_degree;row;col;re;im,
  deterministically ordered, nonzero entries only (magnitudes below 1e-12
  are snapped to zero so structural zeros stay exact in the output).
* ``list-checks`` -- print every named check with its identity anchor and
  default tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .checks import catalog_entries
from .errors import ConfigError, LoopjetError
from .scenario import Scenario, ScenarioConfig, _Runner
from .series import ScalarJet, Series
from .tau import ln_tau_jet

SNAP = 1e-12


def _load_config(path: str, seed: int | None, order: int | None
                 ) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read configuration: {e}") from None
    if isinstance(raw, dict):  # from_dict rejects anything else
        src = raw.setdefault("f_source", {"kind": "seeded"})
        if seed is not None and isinstance(src, dict):
            if src.get("kind") == "explicit":  # from_dict rejects a bogus kind
                raise ConfigError("--seed conflicts with an explicit f_source")
            src["seed"] = seed
        if order is not None:
            raw["order"] = order
    return ScenarioConfig.from_dict(raw)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write --out {path}: {e}") from None


def _snap(x: float) -> float:
    return 0.0 if abs(x) < SNAP else float(x)


def _dump_rows_series(s: Series):
    ctx, data = s.ctx, s.stored_rows()
    rows = []
    for t, p, i, j in zip(*np.nonzero(data)):
        re, im = _snap(data[t, p, i, j].real), _snap(data[t, p, i, j].imag)
        if re == 0.0 and im == 0.0:
            continue
        alpha = ";".join(str(int(a)) for a in ctx.midx[t])
        rows.append((tuple(ctx.midx[t]), int(ctx.degrees[p]), int(i) + 1,
                     int(j) + 1, re, im, alpha))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return [f"{r[6]},{r[1]},{r[2]},{r[3]},{r[4]:.17g},{r[5]:.17g}"
            for r in rows]


def _dump_rows_scalar(s: ScalarJet):
    ctx = s.ctx
    rows = []
    for t, z in enumerate(s.slabs[0]):
        re, im = _snap(z.real), _snap(z.imag)
        if re == 0.0 and im == 0.0:
            continue
        alpha = ";".join(str(int(a)) for a in ctx.midx[t])
        rows.append((tuple(ctx.midx[t]), alpha, re, im))
    rows.sort(key=lambda r: r[0])
    return [f"{r[1]},,,,{r[2]:.17g},{r[3]:.17g}" for r in rows]


def dump_series(cfg: ScenarioConfig, target: str) -> str:
    scen = Scenario(cfg)
    runner = _Runner(scen)
    runner._ensure_factorized()
    res = runner.result
    header = "multi_index,lambda_degree,row,col,re,im"
    if target == "M":
        body = _dump_rows_series(res.M)
    elif target == "E":
        body = _dump_rows_series(res.E)
    elif target == "u":
        body = _dump_rows_series(res.u)
    elif target == "v":
        if res.v is None:
            raise ConfigError("target 'v' needs the gl_n family")
        body = _dump_rows_series(res.v)
    elif target == "lntau":
        body = _dump_rows_scalar(ln_tau_jet(res))
    else:
        raise ConfigError(f"unknown dump target {target!r}")
    return "\n".join([header] + body) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="loopjet",
        description="scenario-driven verification of splitting-built "
                    "soliton hierarchies, tau functions and Virasoro actions")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario and write its report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--order", type=int, default=None)
    p_dump = sub.add_parser("dump", help="dump coefficients of a pipeline value")
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--target", required=True)
    p_dump.add_argument("--out", required=True)
    sub.add_parser("list-checks", help="print the catalog of named checks")
    args = ap.parse_args(argv)

    if args.command == "list-checks":
        for cid, anchor, tol in catalog_entries():
            print(f"{cid:26s} tol={tol:<8.1e} {anchor}")
        return 0

    try:
        if args.command == "run":
            cfg = _load_config(args.config, args.seed, args.order)
        else:
            cfg = _load_config(args.config, None, None)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "dump":
            _write(args.out, dump_series(cfg, args.target))
            return 0
        from .scenario import run_scenario
        report = run_scenario(cfg)
        _write(args.out, report.to_json() + "\n")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except LoopjetError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    for rec in report.checks:
        status = "pass" if rec.passed else "FAIL"
        print(f"[{status}] {rec.check_id:26s} defect {rec.max_defect:.3e} "
              f"tol {rec.tolerance:.1e}")
    print("overall:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
