"""Record a before/after benchmark comparison into a BENCH_<name>.json file.

Given two source checkouts (a parent and a change), this runs
``perfbench/run.py --trace 0`` in each for every workload, at ``run.py``'s
own run length, in ten alternating pairs at one pinned seed: pair 0 runs
the parent first, pair 1 the change first, and so on, with the workloads
interleaved inside each pair so that a drift in host speed hits both sides
alike.  It keeps the final JSON line of every run, the seed, the pair
order and the host line (``env ...``) that ``run.py`` prints, plus a
per-workload summary: the median of each metric on each side, the
quartiles of the parent's runs and the number of pairs the change won.  The
file is rewritten after every run, so an interrupted recording keeps what
it measured.

    python3 tools/bench_record.py --parent ../parent --change . \\
        --seed 23 --out BENCH_6.json

``perfbench/`` is only read; its bounds and expectations are not touched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gl3_verify", "akns_sweep", "gl3_deep")
SIDES = ("parent", "change")
PAIRS = 10


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``run.py`` run; its final JSON line, host line and exit code."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    host = next((ln[4:] for ln in lines if ln.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit": proc.returncode, "result": result,
            "host": json.loads(host) if host else None,
            "elapsed_s": round(time.perf_counter() - t0, 2),
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def summarize(runs: list[dict], better: dict) -> dict:
    """Per workload and metric: side medians, the parent's quartiles and
    the pairs the change won (by the metric's better direction)."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        by_pair: dict = {}
        for r in runs:
            if r["workload"] == wl and r["result"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = (
                    r["result"]["metrics"])
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        out[wl] = {"pairs": len(pairs),
                   "correct": all(r["result"]["correct"] for r in runs
                                  if r["workload"] == wl and r["result"])}
        for metric, direction in better.items():
            vals = {s: [p[s][metric]["value"] for p in pairs] for s in SIDES}
            wins = sum((c < p) if direction == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            out[wl][metric] = {
                "parent_median": statistics.median(vals["parent"]),
                "change_median": statistics.median(vals["change"]),
                "parent_quartiles": _quartiles(vals["parent"]),
                "change_wins": wins}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    record = {"command": "perfbench/run.py --trace 0", "seed": args.seed,
              "pairs": PAIRS, "workloads": list(WORKLOADS), "pair_order": [],
              "host": None, "runs": [], "summary": {}}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        record["pair_order"].append(list(order))
        for wl in WORKLOADS:
            for side in order:
                run = run_once(checkouts[side], wl, args.seed)
                record["host"] = record["host"] or run.pop("host")
                run.pop("host", None)
                record["runs"].append({"workload": wl, "pair": pair,
                                       "side": side, **run})
                record["summary"] = summarize(record["runs"], better)
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
                print(f"pair {pair} {wl:10s} {side:6s} exit {run['exit']} "
                      f"{run['elapsed_s']:7.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
