"""qhowe benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``all-3x4``, ``relations-2x7``, ``decompose-sweep``, or ``all`` for
each of them in turn.  Run from anywhere; the package is imported from the
``src`` directory next to this one.  Each run spawns fresh single-threaded
worker processes one at a time, one per batch (see ``worker.py``).  With
``--trace 0`` it reports the end-to-end metrics, in reference seconds (see
``calibrate.py``); with ``--trace 1`` it makes the separate traced run and
reports the per-layer metrics.  The last stdout line is one
JSON object; a results file with provenance and every sample goes to
``perfbench/results/``.  Exit code 0 means the run completed (``correct``
says whether every job passed), 1 that the benchmark could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("all-3x4", "relations-2x7", "decompose-sweep")

# Worker processes timed for setup_s in each untraced run, after one untimed
# warm-up that compiles bytecode; each batch worker's set-up adds one more.
SETUP_SAMPLES = 12
SETUP_TIMEOUT_S = 60
# Every run must end within 180 s; the worker gets what is left of this.
RUN_DEADLINE_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout on every run
    return env


def spawn(mode, workload, seed, timeout, *extra):
    """Run one worker to completion; returns its JSON plus setup_s (at the
    probe's reference speed; raw_setup_s as measured) and the seconds from
    spawn to exit."""
    cmd = [sys.executable, str(WORKER), mode, workload, str(seed), *extra]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=worker_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["ready"] - spawned
    out["setup_s"] = out["raw_setup_s"] * calibrate.speed(out["setup_probe_s"])
    out["process_s"] = time.perf_counter() - spawned
    return out


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": time.time(),
    }


def tally(batches):
    jobs = [job for batch in batches for job in batch["jobs"]]
    failures = [f"{name}: {failure}" for name, _, failure in jobs if failure is not None]
    return len(jobs), failures


def measure(workload, seed, seconds, trace):
    """One run of one workload; returns the results record."""
    started = time.perf_counter()
    record = {"workload": workload, "provenance": provenance(seed, seconds, trace)}
    spawn("setup", workload, seed, SETUP_TIMEOUT_S)  # warm-up: compiles bytecode
    if trace:
        # overhead: the traced batch against an untraced one, each in a
        # fresh process
        untraced = spawn("run", workload, seed, RUN_DEADLINE_S)
        spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl.gz"
        worker = spawn("trace", workload, seed,
                       RUN_DEADLINE_S - (time.perf_counter() - started), str(spans))
        record["spans_file"] = str(spans.relative_to(ROOT))
        batches = untraced["batches"] + worker["batches"]
        metrics = worker["metrics"]
        untraced_s = untraced["batches"][0]["wall_s"] - sum(untraced["batches"][0]["probe_s"])
        metrics["trace.overhead_s"] = {
            "value": worker["batches"][0]["wall_s"] - untraced_s, "unit": "s"}
    else:
        # half the set-up samples before the batches and half after, so
        # that they span the run rather than one moment of it
        workers = [spawn("setup", workload, seed, SETUP_TIMEOUT_S)
                   for _ in range(SETUP_SAMPLES // 2)]
        batches, batch_workers = run_batches(workload, seed, seconds, started)
        workers += [spawn("setup", workload, seed, SETUP_TIMEOUT_S)
                    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        workers += batch_workers
        setup = [w["setup_s"] for w in workers]
        record["setup_samples_s"] = setup
        record["raw_setup_samples_s"] = [w["raw_setup_s"] for w in workers]
        metrics = end_to_end(batches, setup, max(w["peak_rss_mb"] for w in batch_workers))
    attempted, failures = tally(batches)
    record.update(batches=batches, attempted=attempted, failed=len(failures),
                  failures=failures, metrics=metrics)
    return record


def run_batches(workload, seed, seconds, started):
    """Closed loop of batches, each in a fresh worker: start another only if
    it should end within SECONDS, and always run one.  Returns the batches
    and the workers' outputs."""
    batches, workers = [], []
    loop_start = time.perf_counter()
    while True:
        worker = spawn("run", workload, seed,
                       RUN_DEADLINE_S - SETUP_TIMEOUT_S - (time.perf_counter() - started))
        batches += worker.pop("batches")
        workers.append(worker)
        cost = statistics.median(w["process_s"] for w in workers)
        if time.perf_counter() - loop_start + cost > seconds:
            return batches, workers


def batch_s(batch):
    """A batch's wall time at the probe's reference speed."""
    return calibrate.reference_seconds(batch["wall_s"], batch.get("probe_s", []))


def end_to_end(batches, setup_samples, peak_rss_mb):
    """The end-to-end metrics of one untraced run."""
    attempted, failures = tally(batches)
    # a batch with a failed job is never timed as a success; a run with no
    # clean batch reports the failed ones, and is marked incorrect anyway
    clean = [b for b in batches if all(job[2] is None for job in b["jobs"])]
    values = {
        "wall_s": statistics.median(batch_s(b) for b in clean or batches),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - len(failures)) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def report(record):
    w, m = record["workload"], record["metrics"]
    attempted, failed = record["attempted"], record["failed"]
    print(f"{w}: {attempted} job(s) attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:g}")
    for name, metric in m.items():
        value = metric["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {w:<16} {name:<34} {shown} {metric['unit']}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    p = record["provenance"]
    print(f"  python {p['python']}, nproc {p['nproc']}, git {p['git_sha']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in p['loadavg_at_start'])}, seed {p['seed']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, args.trace)
            path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            report(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
