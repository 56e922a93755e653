"""One benchmark process: import qhowe, build a workload's jobs, run them.

    python3 perfbench/worker.py MODE WORKLOAD SEED [SPANS_FILE]

MODE is ``setup`` (stop once the inputs exist), ``run`` (run one batch) or
``trace`` (one traced batch, whose spans go to SPANS_FILE).  Each batch runs
in a fresh process, so nothing one batch leaves in memory speeds up the
next.  The last stdout line is a JSON object; ``ready``
is the ``time.perf_counter`` reading (a system-wide monotonic clock on
Linux) at which set-up ended.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, str(SRC))
    import calibrate
    import workloads  # imports qhowe

    module_file = Path(workloads.cli.__file__).resolve()
    if SRC.resolve() not in module_file.parents:
        raise SystemExit(f"qhowe imported from {module_file}, not from {SRC}")
    jobs = workloads.WORKLOADS[workload](seed)
    out = {"ready": time.perf_counter(), "jobs": [job.name for job in jobs]}
    out["setup_probe_s"] = calibrate.setup_probes()
    if mode == "run":
        out["batches"] = [run(calibrate, workloads, jobs)]
    elif mode == "trace":
        out.update(trace(workloads, jobs, Path(argv[3])))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def batch_record(wall, results):
    return {"wall_s": wall,
            "jobs": [[r.name, r.wall_s, r.failure] for r in results]}


def run(calibrate, workloads, jobs):
    """One batch, with the machine-speed probe sampled while it runs."""
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        record = batch_record(*workloads.run_batch(jobs))
    finally:
        sampler.stop()
    record["probe_s"] = sampler.samples
    return record


def trace(workloads, jobs, spans_path):
    import tracing

    tracer = tracing.Tracer()
    # each job is a root span; every span below it shares its id
    traced_jobs = [job._replace(run=tracer.span(f"job {job.name}", job.run)) for job in jobs]
    tracer.install()
    try:
        wall, results = workloads.run_batch(traced_jobs)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return {"batches": [batch_record(wall, results)], "metrics": tracer.metrics(),
            "spans": len(tracer.start)}


if __name__ == "__main__":
    main(sys.argv[1:])
