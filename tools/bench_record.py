"""Record a before/after benchmark comparison into a BENCH_<name>.json file.

Given two source checkouts (a parent and a change), this runs
``perfbench/run.py --trace 0`` in each for every workload, at ``run.py``'s
own run length, in ten alternating pairs at one pinned seed: pair 0 runs
the parent first, pair 1 the change first, and so on, with the workloads
interleaved inside each pair so that a drift in host speed hits both sides
alike.  It keeps the final JSON line of every run, the seed, the pair
order and the host line (``env ...``) that ``run.py`` prints, plus a
per-workload summary: the median of each metric on each side, the
quartiles of the parent's runs and the number of pairs the change won.

After the pairs it runs, in 3 rounds, each of the 10 shipped configs
through the CLI, the four larger workloads ``gl3_full`` at jet orders 4,
5 and 6 (full suite) and ``akns_standard`` at order 8, and the Tier-1 suite,
once per side, alternating which side goes first from item to item and from
round to round.  Each of these ``extras`` records its round, wall time,
exit code, peak RSS, minor faults, the report's ``timing_s`` and, for the
four larger workloads, a gate: exit 0, every check passed, and the check
ids and conventions of the shipped order-3 report pinned in
``tests/data/shipped_reports.json``;
``extras_wall_s``, ``extras_rss_mb`` and ``extras_minflt`` hold each
item's median wall time, ``maxrss_mb`` and ``ru_minflt`` on each side, and
``extras_suite_s`` the median of each suite's ``timing_s`` on each side (so
a per-suite ratio, such as the Virasoro suite's at jet orders 3 and 4, can
be read from the record).  For
each config run of the first round, ``identity`` records whether the
change's report equals the parent's apart from ``timing_s``; when it does
not, it names the first differing check (or report field), the largest
move of a check's ``max_defect`` in decades (|log10| of the ratio), the
checks whose defect changed between zero and nonzero, and whether every
defect stayed within ``DEFECT_BAND`` decades of the parent's with no such
change: the band of the defect ratchet in ``tests/test_cli.py``, applied
here also to the order-4, 5, 6 and 8 workloads, which have no pinned
defects.  The order-6 workload takes about 75 s a run, so its 3 rounds per
side add about 7.5 minutes to a recording.
Every child process, ``run.py`` included, records its ``ru_maxrss`` and
``ru_minflt`` from ``os.wait4`` (they cover the processes it waited for, so
a ``run.py`` run counts its workload processes).  BLAS/OpenMP threads are
pinned to 1, as ``run.py`` does.  ``src_lines`` records the line count of
``src/loopjet/*.py`` and ``*.c`` on each side, and ``src_module_lines``
that of each file, so a change's record shows where lines went, and code
moved into the C kernel still counts.  Before the first pair it compiles
``src`` in both checkouts (``python -m compileall -q src``) and records
that in the host line (``bytecode``): a child that may not write bytecode
(``PYTHONDONTWRITEBYTECODE``) recompiles a stale ``__pycache__`` in every
process, which moves its peak RSS by about 2 MB, so both sides must start
from valid caches.  The file is rewritten after every run, so an
interrupted recording keeps what it measured.

    python3 tools/bench_record.py --parent ../parent --change . \\
        --seed 23 --out BENCH_6.json

``perfbench/`` is only read; its bounds and expectations are not touched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("gl3_verify", "akns_sweep", "gl3_deep")
SIDES = ("parent", "change")
PAIRS = 10
ROUNDS = 3  # runs per side of each extra
# name -> (shipped config, jet order): the gated larger workloads
LARGE = {"gl3_full_order4": ("gl3_full", 4),
         "gl3_full_order5": ("gl3_full", 5),
         "gl3_full_order6": ("gl3_full", 6),
         "akns_standard_order8": ("akns_standard", 8)}
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DEFECT_BAND = 1.0  # decades, as the defect ratchet of tests/test_cli.py
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args: list[str], cwd: str) -> dict:
    """Run ``python args`` in ``cwd`` with its ``src`` on ``PYTHONPATH``;
    exit code, wall time, output and the child's resource usage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"),
               **{v: "1" for v in THREAD_VARS})
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        # reaped by wait4, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"exit": proc.returncode, "wall_s": round(wall, 3),
                "maxrss_mb": round(usage.ru_maxrss / 1024.0, 1),
                "minflt": usage.ru_minflt,
                "stdout": out.read(), "stderr": err.read()}


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``run.py`` run; its final JSON line, host line and exit code."""
    proc = spawn(["perfbench/run.py", "--workload", workload,
                  "--seed", str(seed), "--trace", "0"], checkout)
    lines = proc["stdout"].strip().splitlines()
    host = next((ln[4:] for ln in lines if ln.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit": proc["exit"], "result": result,
            "host": json.loads(host) if host else None,
            "elapsed_s": round(proc["wall_s"], 2),
            "maxrss_mb": proc["maxrss_mb"], "minflt": proc["minflt"],
            "stderr_tail": proc["stderr"].strip().splitlines()[-3:]}


def run_cli(checkout: str, config: str, order: int | None,
            pinned: dict | None) -> tuple[dict, dict | None]:
    """One ``loopjet run`` of a shipped config (at ``order`` if given); with
    ``pinned``, the gate against that shipped order-3 report.  Returns the
    record and the report (None if none was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        args = ["-m", "loopjet.cli", "run", "--config",
                os.path.join("configs", f"{config}.json"), "--out", report]
        if order is not None:
            args += ["--order", str(order)]
        proc = spawn(args, checkout)
        doc = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                doc = json.load(fh)
    out = {k: proc[k] for k in ("exit", "wall_s", "maxrss_mb", "minflt")}
    out["timing_s"] = doc["timing_s"] if doc else None
    out["stderr_tail"] = proc["stderr"].strip().splitlines()[-3:]
    if pinned is not None:
        out["gate"] = bool(
            doc and proc["exit"] == 0 and doc["passed"]
            and all(c["passed"] for c in doc["checks"])
            and sorted([c["id"], c["passed"]] for c in doc["checks"])
            == [p[:2] for p in pinned["checks"]]
            and doc["conventions"] == pinned["conventions"])
    return out, doc


def compare_reports(parent: dict | None, change: dict | None) -> dict:
    """Whether two reports are equal apart from ``timing_s``; if not, the
    first differing check id (or top-level field) and, over the checks both
    reports hold (paired by position among checks of the same id), the
    largest |log10| move of ``max_defect``, the checks whose defect changed
    between zero and nonzero, and whether the change stays in the band."""
    if parent is None or change is None:
        return {"identical": False, "first_diff": "missing report",
                "max_log10_move": None, "zero_flips": None,
                "within_band": False}
    a = {k: v for k, v in parent.items() if k != "timing_s"}
    b = {k: v for k, v in change.items() if k != "timing_s"}
    if a == b:
        return {"identical": True}
    first = next((x.get("id") for x, y in zip(a["checks"], b["checks"])
                  if x != y), None)
    if first is None and len(a["checks"]) != len(b["checks"]):
        first = "checks (count)"
    if first is None:
        first = next(k for k in sorted(a.keys() | b.keys())
                     if a.get(k) != b.get(k))
    by_id: dict = {}
    for c in a["checks"]:
        by_id.setdefault(c["id"], []).append(c["max_defect"])
    moves, flips = [], []
    for c in b["checks"]:
        if by_id.get(c["id"]):
            old, new = by_id[c["id"]].pop(0), c["max_defect"]
            if (old == 0) != (new == 0):
                flips.append(c["id"])
            elif old:
                moves.append((abs(math.log10(new / old)), c["id"]))
    move, worst_id = max(moves, default=(0.0, None))
    return {"identical": False, "first_diff": first,
            "max_log10_move": move,
            "max_log10_move_id": worst_id if move else None,
            "zero_flips": flips,
            "within_band": move <= DEFECT_BAND and not flips}


def run_tier1(checkout: str) -> dict:
    proc = spawn(TIER1, checkout)
    lines = proc["stdout"].strip().splitlines()
    return {**{k: proc[k] for k in ("exit", "wall_s", "maxrss_mb", "minflt")},
            "summary": lines[-1] if lines else ""}


def module_lines(checkout: str) -> dict:
    """Lines of each ``src/loopjet/*.py`` and ``*.c`` in ``checkout``, by
    file name."""
    pkg = os.path.join(checkout, "src", "loopjet")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".c")):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name] = sum(1 for _ in fh)
    return out


def suite_medians(runs: list[dict]) -> dict:
    """The median over ``runs`` of each suite's ``timing_s`` (runs that
    wrote no report are left out)."""
    times: dict = {}
    for run in runs:
        for suite, sec in (run["timing_s"] or {}).items():
            times.setdefault(suite, []).append(sec)
    return {suite: statistics.median(v) for suite, v in times.items()}


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
    with open(os.path.join(here, "..", "tests", "data", "shipped_reports.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)  # shipped config name -> its pinned report
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    lines = {s: module_lines(checkouts[s]) for s in SIDES}
    record = {"command": "perfbench/run.py --trace 0", "seed": args.seed,
              "pairs": PAIRS, "workloads": list(WORKLOADS), "pair_order": [],
              "host": None, "runs": [], "summary": {}, "extras": [],
              "extras_wall_s": {}, "extras_rss_mb": {}, "extras_minflt": {},
              "extras_suite_s": {}, "identity": {},
              "src_lines": {s: sum(lines[s].values()) for s in SIDES},
              "src_module_lines": lines}

    def save() -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    bytecode = {"command": "python -m compileall -q src",
                "exit": {s: spawn(["-m", "compileall", "-q", "src"],
                                  checkouts[s])["exit"] for s in SIDES}}
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        record["pair_order"].append(list(order))
        for wl in WORKLOADS:
            for side in order:
                run = run_once(checkouts[side], wl, args.seed)
                host = run.pop("host")
                if record["host"] is None and host is not None:
                    record["host"] = dict(host, bytecode=bytecode)
                record["runs"].append({"workload": wl, "pair": pair,
                                       "side": side, **run})
                record["summary"] = summarize(record["runs"], better)
                save()
                print(f"pair {pair} {wl:10s} {side:6s} exit {run['exit']} "
                      f"{run['elapsed_s']:7.1f} s", flush=True)

    # (item, shipped config or None for Tier-1, jet order or None)
    extras = ([(f"cli/{name}", name, None) for name in sorted(pinned)]
              + [(item, cfg, d) for item, (cfg, d) in LARGE.items()]
              + [("tier1", None, None)])
    for rnd in range(ROUNDS):
        for i, (item, cfg, d) in enumerate(extras):
            docs = {}
            for side in (SIDES if (i + rnd) % 2 == 0 else SIDES[::-1]):
                c = checkouts[side]
                if cfg is None:
                    run = run_tier1(c)
                else:
                    run, docs[side] = run_cli(
                        c, cfg, d, None if d is None else pinned[cfg])
                record["extras"].append({"item": item, "round": rnd,
                                         "side": side, **run})
                mine = [e for e in record["extras"]
                        if e["item"] == item and e["side"] == side]
                for key, field in (("extras_wall_s", "wall_s"),
                                   ("extras_rss_mb", "maxrss_mb"),
                                   ("extras_minflt", "minflt")):
                    record[key].setdefault(item, {})[side] = (
                        statistics.median(e[field] for e in mine))
                if cfg is not None:
                    record["extras_suite_s"].setdefault(item, {})[side] = (
                        suite_medians(mine))
                save()
                print(f"{item:28s} {side:6s} exit {run['exit']} "
                      f"{run['wall_s']:7.1f} s", flush=True)
            if cfg is not None and rnd == 0:
                record["identity"][item] = compare_reports(docs["parent"],
                                                           docs["change"])
                save()
                print(f"{item:28s} identical "
                      f"{record['identity'][item]['identical']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
