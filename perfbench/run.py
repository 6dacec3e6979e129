"""loopjet benchmark: ``loopjet run`` on three verification workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload gl3_verify --seed 0 --seconds 30 --trace 0

Each workload is a list of scenarios generated from the shipped configs in
``configs/``; scenario ``c`` runs with ``--seed`` equal to its shipped seed
plus the benchmark seed, so seed 0 reproduces the shipped reports.  A run
measures whole workload passes, each in a fresh process with BLAS/OpenMP
threads pinned to 1, while another pass still fits in ``--seconds`` (at
least one), and set-up in ``SETUP_REPS`` fresh processes before and after
the passes (median).  Every report is gated against ``expected.json``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``--trace 1`` runs one untraced and one traced pass and
reports the tracing overhead as the difference of their wall times.

Other modes: ``--selfcheck`` runs the small ``smoke`` workload and asserts
the output contract, span nesting and that the correctness gate trips on a
doctored expectation; ``--record-expected`` rewrites ``expected.json`` from
seed 0 runs of every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 9
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SUITES = ("factorization", "flows", "tau", "virasoro", "proof_identities",
          "recovery")

# workload -> [(shipped config, overrides)]
WORKLOADS = {
    "gl3_verify": [("gl3_full", {})],
    "akns_sweep": [("akns_standard", {}), ("nls_unitary", {}),
                   ("vector_akns", {}), ("cmkdv_sigma", {}),
                   ("mkdv_symmetric", {}), ("kdv_twisted", {})],
    "gl3_deep": [("gl3_full", {"order": 4, "suites": ["factorization"]})],
    # for --selfcheck only
    "smoke": [("kdv_twisted", {"order": 2})],
}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
    "defect_headroom": ("log10", "higher"),
}

PER_LAYER = {
    "context.build_s": ("s", "lower"),
    "context.pairs": ("count", "lower"),
    "series.matmul.calls": ("count", "lower"),
    "series.matmul.self_s": ("s", "lower"),
    "series.matmul.flop_computed": ("cmac", "lower"),
    "series.nfft": ("count", "lower"),
    "series.inv.calls": ("count", "lower"),
    "series.inv.self_s": ("s", "lower"),
    "series.pairing.calls": ("count", "lower"),
    "series.pairing.self_s": ("s", "lower"),
    "series.exp.self_s": ("s", "lower"),
    "series.kernel_share": ("ratio", "lower"),
    "splitting.sample.self_s": ("s", "lower"),
    "splitting.reality_check.self_s": ("s", "lower"),
    "hierarchy.vacuum_frame.self_s": ("s", "lower"),
    "hierarchy.flows.self_s": ("s", "lower"),
    "scattering.factorize.calls": ("count", "lower"),
    "scattering.factorize.eps_calls": ("count", "lower"),
    "scattering.factorize.self_s": ("s", "lower"),
    "scattering.factorize.distinct_ratio": ("ratio", "higher"),
    "scattering.prereq_s": ("s", "lower"),
    "scattering.oracle.self_s": ("s", "lower"),
    "scattering.stabilizer.self_s": ("s", "lower"),
    "tau.ln_tau.calls": ("count", "lower"),
    "tau.ln_tau.self_s": ("s", "lower"),
    "tau.first_partial_pairing.calls": ("count", "lower"),
    "tau.first_partial_pairing.per_result": ("ratio", "lower"),
    "tau.identity_suite.self_s": ("s", "lower"),
    "virasoro.eps_refactor.calls": ("count", "lower"),
    "virasoro.eps_refactor.total_s": ("s", "lower"),
    "virasoro.t76.self_s": ("s", "lower"),
    "virasoro.bracket.self_s": ("s", "lower"),
    "virasoro.induced.self_s": ("s", "lower"),
    **{f"scenario.suite.{s}_s": ("s", "lower") for s in SUITES},
    "scenario.self_s": ("s", "lower"),
    "checks.records": ("count", "higher"),
    "cli.config_s": ("s", "lower"),
    "cli.report_write_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

V, A, D = "gl3_verify", "akns_sweep", "gl3_deep"
# layer metric -> (end-to-end metric it should move, workloads where it shows)
INTERACTIONS = [
    ("context.build_s", "setup_s", (D,)),
    ("context.pairs", "wall_s", (D,)),
    ("series.matmul.calls", "wall_s", (V, D)),
    ("series.matmul.self_s", "wall_s", (V, D)),
    ("series.matmul.flop_computed", "wall_s", (D, A)),
    ("series.nfft", "wall_s", (D, A)),
    ("series.inv.calls", "wall_s", (D,)),
    ("series.inv.self_s", "wall_s", (D,)),
    ("series.pairing.calls", "wall_s", (V,)),
    ("series.pairing.self_s", "wall_s", (V,)),
    ("series.exp.self_s", "setup_s", (V, A, D)),
    ("splitting.sample.self_s", "setup_s", (V, A, D)),
    ("splitting.reality_check.self_s", "wall_s", (A,)),
    ("hierarchy.vacuum_frame.self_s", "wall_s", (D,)),
    ("hierarchy.flows.self_s", "wall_s", (A,)),
    ("scattering.factorize.calls", "wall_s", (V,)),
    ("scattering.factorize.eps_calls", "wall_s", (V,)),
    ("scattering.factorize.self_s", "wall_s", (V,)),
    ("scattering.factorize.distinct_ratio", "wall_s", (V,)),
    ("scattering.prereq_s", "wall_s", (V, A, D)),
    ("scattering.oracle.self_s", "wall_s", (D,)),
    ("scattering.stabilizer.self_s", "wall_s", (D,)),
    ("tau.ln_tau.calls", "wall_s", (V,)),
    ("tau.ln_tau.self_s", "wall_s", (V,)),
    ("tau.first_partial_pairing.calls", "wall_s", (V,)),
    ("tau.first_partial_pairing.per_result", "wall_s", (V,)),
    ("tau.identity_suite.self_s", "wall_s", (A,)),
    ("virasoro.eps_refactor.calls", "wall_s, peak_rss_mb", (V,)),
    ("virasoro.eps_refactor.total_s", "wall_s, peak_rss_mb", (V,)),
    ("virasoro.t76.self_s", "wall_s", (V,)),
    ("virasoro.bracket.self_s", "wall_s", (V, A)),
    ("virasoro.induced.self_s", "wall_s", (V, A)),
    ("scenario.suite.*_s", "wall_s", (V, A, D)),
    ("scenario.self_s", "wall_s", (V, A, D)),
    ("checks.records", "pass_ratio (must not change)", (V, A, D)),
    ("cli.config_s", "setup_s", (V, A, D)),
    ("cli.report_write_s", "wall_s", (V, A, D)),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, crashed
    workload process); reported without a result line."""


# ---------------------------------------------------------------------------
# inputs


def check_tree() -> None:
    if not (SRC / "loopjet" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"no loopjet source tree at {ROOT} (need src/loopjet "
                         "and configs/)")


def make_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Generated configs for one run; scenario seeds are offset by ``seed``."""
    jobs = []
    for stem, overrides in WORKLOADS[workload]:
        with open(CONFIGS / f"{stem}.json", "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw.update(overrides)
        config = workdir / f"{stem}.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
        jobs.append({"scenario": stem, "config": str(config),
                     "report": str(workdir / f"{stem}.report.json"),
                     "seed": raw["f_source"]["seed"] + seed})
    return jobs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = child_env()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version,
            "blas_threads": {v: env[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# processes


def _child(args: list[str], workdir: Path, log_name: str) -> None:
    log = workdir / log_name
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py")] + args,
                              stdout=out, stderr=subprocess.STDOUT,
                              env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"workload process exited {proc.returncode}:\n{tail}")


def _read(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(jobs_path: Path, workdir: Path, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        summary = workdir / "setup.json"
        _child(["setup", str(jobs_path), str(summary)], workdir, "setup.log")
        times.append(_read(summary)["setup_s"])
    return times


def run_pass(jobs: list[dict], jobs_path: Path, workdir: Path,
             trace: bool) -> dict:
    summary_path = workdir / "summary.json"
    for job in jobs:
        Path(job["report"]).unlink(missing_ok=True)
    t_spawn = time.perf_counter()
    _child(["run", str(jobs_path), str(summary_path), repr(t_spawn),
            "1" if trace else "0"], workdir, "workload.log")
    summary = _read(summary_path)
    if not Path(summary["loopjet_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"loopjet imported from {summary['loopjet_file']}, "
                         f"not from {SRC}")
    reports = []
    for job in jobs:
        try:
            reports.append(_read(Path(job["report"])))
        except (OSError, json.JSONDecodeError):
            reports.append(None)
    summary["wall_s"] = summary["t_end"] - t_spawn
    summary["reports"] = reports
    return summary


# ---------------------------------------------------------------------------
# correctness gate


def gate(jobs: list[dict], summary: dict, expected: dict) -> list[str]:
    """One problem string per failed scenario operation (empty: all pass).

    A scenario fails on a non-zero exit, a failed check, or a check-id list
    or convention block that differs from the recorded expectation."""
    failures = []
    for job, code, rep in zip(jobs, summary["exit_codes"], summary["reports"]):
        name, exp = job["scenario"], expected[job["scenario"]]
        why = []
        if code != 0:
            why.append(f"exit code {code}")
        if rep is None:
            why.append("no report")
        else:
            bad = [c["id"] for c in rep["checks"] if not c["passed"]]
            if bad or not rep["passed"]:
                why.append(f"failed checks {bad}")
            ids = sorted(c["id"] for c in rep["checks"])
            if ids != exp["checks"]:
                why.append(f"check ids {ids} != expected {exp['checks']}")
            if rep["conventions"] != exp["conventions"]:
                why.append(f"conventions {rep['conventions']} != expected "
                           f"{exp['conventions']}")
        if why:
            failures.append(f"{name} (seed {job['seed']}): " + "; ".join(why))
    return failures


def headrooms(reports: list[dict | None]) -> list[float]:
    """Per scenario, the worst log10(tolerance / max_defect) over its checks;
    a check with an exact zero defect has unbounded headroom and is skipped."""
    return [min((math.log10(c["tolerance"] / c["max_defect"])
                 for c in (rep or {}).get("checks", ())
                 if c["max_defect"] > 0 and c["tolerance"] > 0),
                default=math.inf)
            for rep in reports]


def suite_times(reports: list[dict | None]) -> dict[str, float]:
    out = {f"scenario.suite.{s}_s": 0.0 for s in SUITES}
    for rep in reports:
        for suite, t in (rep or {}).get("timing_s", {}).items():
            out[f"scenario.suite.{suite}_s"] += t
    return out


# ---------------------------------------------------------------------------
# one benchmark run


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict | None = None) -> dict:
    """Run one benchmark run; returns metrics, gate verdict and details."""
    check_tree()
    if expected is None:
        expected = _read(EXPECTED)[workload]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "loopjet")], check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        jobs = make_jobs(workload, seed, workdir)
        jobs_path = workdir / "jobs.json"
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        passes, failures = [], []
        if trace:
            passes.append(run_pass(jobs, jobs_path, workdir, trace=False))
            passes.append(run_pass(jobs, jobs_path, workdir, trace=True))
        else:
            # set-up is timed on both sides of the passes, so its median
            # spans two stretches of host speed rather than one
            setup = measure_setup(jobs_path, workdir, (SETUP_REPS + 1) // 2)
            t0 = time.perf_counter()
            while True:
                passes.append(run_pass(jobs, jobs_path, workdir, trace=False))
                used = time.perf_counter() - t0
                if used + passes[-1]["wall_s"] > seconds:
                    break
            setup += measure_setup(jobs_path, workdir, SETUP_REPS // 2)
        for p in passes:
            failures += gate(jobs, p, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    attempted = len(jobs) * len(passes)
    out = {"attempted": attempted, "failed": len(failures),
           "failures": failures, "passes": len(passes),
           "env": environment(passes[0]["numpy"])}
    if trace:
        untraced, traced = passes
        m = tracing.layer_metrics(traced["trace"])
        m.update(suite_times(traced["reports"]))
        m["checks.records"] = sum(len((r or {}).get("checks", ()))
                                  for r in traced["reports"])
        m["trace.untraced_wall_s"] = untraced["wall_s"]
        m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        out["metrics"] = {k: (m[k], PER_LAYER[k][0]) for k in PER_LAYER}
        out["trace"] = traced["trace"]
    else:
        m = {"wall_s": statistics.median(p["wall_s"] for p in passes),
             "setup_s": statistics.median(setup),
             "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
             "pass_ratio": 1.0 - len(failures) / attempted,
             # the mean over scenarios: a precision loss in any scenario moves
             # it, while the seed-to-seed scatter of one scenario's worst
             # check is damped by the number of scenarios
             "defect_headroom": min(statistics.fmean(headrooms(p["reports"]))
                                    for p in passes)}
        out["metrics"] = {k: (m[k], END_TO_END[k][0]) for k in END_TO_END}
        out["worst_headroom"] = min(min(headrooms(p["reports"]))
                                    for p in passes)
        out["reports"] = passes[0]["reports"]
    return out


def print_result(workload: str, res: dict, trace: bool) -> None:
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"workload {workload}: {res['attempted']} scenario runs over "
          f"{res['passes']} pass(es), {res['failed']} failed")
    for f in res["failures"]:
        print("  FAIL " + f)
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if not trace:
        m = res["metrics"]
        print(f"  {'fail_ratio':40s} {1.0 - m['pass_ratio'][0]:14.6g} ratio")
        print(f"  {'defect_margin':40s} {-res['worst_headroom']:14.6g} log10"
              "  (worst check of the workload)")
    else:
        print("module self times (s):")
        for mod, t in sorted(tracing.module_self_times(res["trace"]).items(),
                             key=lambda kv: -kv[1]):
            print(f"  {mod:40s} {t:14.6g}")
        print("layer metric -> end-to-end metric it should move, on workloads:")
        for layer, e2e, wls in INTERACTIONS:
            print(f"  {layer:40s} {e2e:30s} {', '.join(wls)}")
        cov = res["metrics"]["trace.coverage"][0]
        print(f"coverage {cov:.4f} of traced wall_s "
              f"({'meets' if cov >= 0.95 else 'BELOW'} the 0.95 bar)")
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))


# ---------------------------------------------------------------------------
# self-check and expectation recording


def selfcheck() -> None:
    bench = _read(ROOT / "BENCHMARK.json")
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == END_TO_END, f"end_to_end {declared} != {END_TO_END}"
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == PER_LAYER, "per_layer in BENCHMARK.json != PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == [V, A, D]

    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--workload", "smoke", "--seed", "0",
                         "--seconds", "1", "--trace", str(int(trace))])
        assert code == 0, f"smoke run exited {code}"
        last = json.loads(buf.getvalue().strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0, last
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        assert got == {k: u for k, (u, _) in names.items()}, got
        assert all(isinstance(v["value"], (int, float))
                   and math.isfinite(v["value"])
                   for v in last["metrics"].values())
    res = measure("smoke", 1, 1, trace=True)
    problems = tracing.check_nesting(res["trace"]["spans"])
    assert not problems, problems[:5]
    assert res["metrics"]["trace.coverage"][0] >= 0.95

    good = _read(EXPECTED)["smoke"]
    doctored = json.loads(json.dumps(good))
    doctored["kdv_twisted"]["checks"] = sorted(
        doctored["kdv_twisted"]["checks"] + ["virasoro_bracket"])
    res = measure("smoke", 0, 1, trace=False, expected=doctored)
    assert res["failed"] == res["attempted"], res["failures"]
    doctored = json.loads(json.dumps(good))
    doctored["kdv_twisted"]["conventions"]["lax_bracket"] = "doctored"
    res = measure("smoke", 0, 1, trace=False, expected=doctored)
    assert res["failed"] == res["attempted"], res["failures"]
    print("selfcheck ok: metrics and units match BENCHMARK.json, spans nest, "
          "coverage >= 0.95, the gate trips on doctored expectations")


def record_expected() -> None:
    record = {}
    for workload in WORKLOADS:
        empty = {stem: {"checks": [], "conventions": {}}
                 for stem, _ in WORKLOADS[workload]}
        res = measure(workload, 0, 0, trace=False, expected=empty)
        record[workload] = {
            stem: {"checks": sorted(c["id"] for c in rep["checks"]),
                   "conventions": rep["conventions"]}
            for (stem, _), rep in zip(WORKLOADS[workload], res["reports"])}
        print(f"{workload}: recorded {len(record[workload])} scenario(s)",
              file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.selfcheck:
            selfcheck()
        elif args.record_expected:
            record_expected()
        elif args.workload is None:
            ap.error("--workload is required")
        else:
            res = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
            print_result(args.workload, res, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
