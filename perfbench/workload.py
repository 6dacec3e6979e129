"""One workload process: ``loopjet run`` on each generated config, in turn.

Started by ``run.py`` with loopjet's ``src`` directory on ``PYTHONPATH``.
Usage::

    workload.py run   JOBS SUMMARY T_SPAWN TRACE
    workload.py setup JOBS SUMMARY

JOBS is a JSON list of ``{"config", "report", "seed"}``.  ``run`` calls
``loopjet.cli.main(["run", ...])`` once per job and writes to SUMMARY the
exit codes, the ``perf_counter`` time at which the last report was written,
the peak resident memory and, with TRACE = 1, the span trace.  ``setup``
times ``import loopjet`` plus, per job, the config read,
``ScenarioConfig.from_dict`` and ``Scenario(...)``, and stops there.
"""

from __future__ import annotations

import time

T_MAIN = time.perf_counter()  # end of interpreter start-up

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def setup(jobs: list[dict], summary: str) -> None:
    t0 = time.perf_counter()
    import loopjet.cli  # noqa: F401  (loads every module the CLI uses)
    from loopjet.scenario import Scenario, ScenarioConfig
    for job in jobs:
        with open(job["config"], "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["f_source"]["seed"] = job["seed"]  # as ``loopjet run --seed``
        Scenario(ScenarioConfig.from_dict(raw))
    elapsed = time.perf_counter() - t0
    _write(summary, {"setup_s": elapsed})


def run(jobs: list[dict], summary: str, t_spawn: float, trace: bool) -> None:
    tracer = None
    if trace:
        t0 = time.perf_counter()
        from tracing import Tracer
        tracer = Tracer(t_spawn)
        tracer.add("process.startup", t_spawn, T_MAIN)
        tracer.add("trace.import", t0, time.perf_counter())
        span = tracer.open("package.import")
    import loopjet
    import loopjet.cli
    import numpy
    if tracer is not None:
        tracer.close(span)
        span = tracer.open("trace.install")
        tracer.install()
        tracer.close(span)
    codes = [loopjet.cli.main(["run", "--config", job["config"],
                               "--out", job["report"],
                               "--seed", str(job["seed"])])
             for job in jobs]
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.finish(t_end)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _write(summary, {
        "exit_codes": codes, "t_end": t_end,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "loopjet_file": loopjet.__file__, "numpy": numpy.__version__,
        "trace": tracer.dump() if tracer is not None else None,
    })


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    mode, jobs_path, summary_path = sys.argv[1:4]
    with open(jobs_path, "r", encoding="utf-8") as fh:
        job_list = json.load(fh)
    if mode == "setup":
        setup(job_list, summary_path)
    else:
        run(job_list, summary_path, float(sys.argv[4]), sys.argv[5] == "1")
