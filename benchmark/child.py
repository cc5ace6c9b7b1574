"""One fresh interpreter: set up a workload and, unless told not to, run its verb.

Usage: python3 benchmark/child.py <job.json>

The job names the workload, the config file, the mode ("setup" or "call")
and whether to trace.  Set-up time runs from the first line of this file
through the import of mcflab, the config load and the workload's input
files.  The verb is `mcflab.cli.run_experiment`, timed alone.  The result
(timings, CPU time, peak RSS, return code or error) goes to the job's
result file, with the start and end of both timed spans so that the parent
can match them to its host-speed samples; the exit code is 0 whenever that
file was written.
"""

from time import perf_counter

T0 = perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import mcflab.cli  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    with open(job["config"]) as fh:
        config = json.load(fh)
    workload = WORKLOADS[job["workload"]]
    if workload.prepare is not None:
        workload.prepare(config)
    t_setup = perf_counter()
    # perf_counter is CLOCK_MONOTONIC, shared with the parent's host-speed probe
    result = {"setup_s": t_setup - T0, "setup_window": [T0, t_setup],
              "mcflab_file": mcflab.cli.__file__}
    if job["mode"] == "call":
        tracer = None
        run = mcflab.cli.run_experiment
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            run = functools.partial(tracer.run, mcflab.cli.run_experiment)
        c0 = _cpu_s()
        t1 = perf_counter()
        try:
            result["returncode"] = run(config, job["out"])
        except Exception:  # the run failed; record why and report it
            result["error"] = traceback.format_exc()
        t2 = perf_counter()
        result["wall_s"] = t2 - t1
        result["call_window"] = [t1, t2]
        result["cpu_s"] = _cpu_s() - c0
        if tracer is not None:
            tracer.dump(job["spans"])
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
