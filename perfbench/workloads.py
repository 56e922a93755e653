"""The benchmark's workloads: batches of qhowe verification jobs.

A job is one call into qhowe's public API plus the check that decides
whether its output is correct.  A batch runs its jobs one after another in
the calling process (a closed loop with one client).  A job that raises,
exits non-zero, reports any status other than ``pass`` or breaks an
invariant checked here counts as failed; its time is never reported as a
success.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from functools import partial
from math import comb
from typing import Callable, NamedTuple, Optional

from qhowe import cli, duality, embeddings, qgroup

# The CLI sections of ``qhowe all``, in report order.
ALL_SECTIONS = (
    "scalars", "clifford", "qgroup", "embeddings", "commutant", "braiding",
    "module-algebra", "decompose", "cauchy",
)

# Every shape with nm <= 12: the decomposition sweep's fixed job set.
SWEEP_SHAPES = tuple((n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12)
SWEEP_SPEC_VALUES = (2, 3)


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure reason, or None when correct


class JobResult(NamedTuple):
    name: str
    wall_s: float
    failure: Optional[str]


def run_job(job):
    """Run one job and judge its output; a raised exception is a failure."""
    start = time.perf_counter()
    try:
        failure = job.check(job.run())
    except Exception as exc:  # a broken job must be counted, not crash the run
        failure = f"raised {type(exc).__name__}: {exc}"
    return JobResult(job.name, time.perf_counter() - start, failure)


def run_batch(jobs):
    """Run jobs in order; returns (wall seconds, [JobResult])."""
    start = time.perf_counter()
    results = [run_job(job) for job in jobs]
    return time.perf_counter() - start, results


# -- independent invariants ------------------------------------------------------


def parse_partition(text):
    return () if text == "-" else tuple(int(part) for part in text.split(","))


def conjugate(mu):
    return tuple(sum(1 for part in mu if part >= j) for j in range(1, (mu[0] if mu else 0) + 1))


def gl_dim(mu, p):
    """Dimension of the rank-p irreducible of highest weight mu (hook-content
    formula), computed independently of qhowe's Weyl-product code."""
    if len(mu) > p:
        return 0
    conj = conjugate(mu)
    num = den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= p + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def check_decomposition(report, n, m):
    """``cyclic_span_dims`` output: pass, total == joint rank == 2^(nm), and
    every span dimension equal to its Weyl product."""
    if report.get("status") != "pass":
        return f"decompose {n}x{m} reports status {report.get('status')!r}"
    space = 1 << (n * m)
    if not report["total"] == report["joint_rank"] == report["space_dim"] == space:
        return (f"decompose {n}x{m}: total {report['total']}, joint rank "
                f"{report['joint_rank']}, space {report['space_dim']}, want {space}")
    rows = report["partitions"]
    if len(rows) != comb(n + m, n):
        return f"decompose {n}x{m}: {len(rows)} partitions, want {comb(n + m, n)}"
    for row in rows:
        mu = parse_partition(row["mu"])
        want = gl_dim(mu, n) * gl_dim(conjugate(mu), m)
        if row["span_dim"] != want:
            return f"decompose {n}x{m}: mu={row['mu']} span {row['span_dim']}, Weyl product {want}"
    return None


def check_suite(label, report, require_checks=True):
    checks = report["checks"]
    if require_checks and not checks:
        return f"{label}: no checks ran"
    failed = [c for c in checks if c["status"] != "pass"]
    if failed:
        return f"{label}: {len(failed)} of {len(checks)} checks fail, first {failed[0]}"
    if report["status"] != "pass":
        return f"{label}: status {report['status']!r}"
    return None


# -- all-3x4: the CLI job users run ----------------------------------------------


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_cli_all(result, n, m, seed):
    code, payload = result
    if code != 0:
        return f"qhowe exited {code}"
    report = json.loads(payload)
    if report["status"] != "pass":
        bad = [s["section"] for s in report["sections"] if s["status"] != "pass"]
        return f"qhowe all reports {report['status']!r}; sections not passing: {bad}"
    sections = {s["section"]: s for s in report["sections"]}
    if tuple(sections) != ALL_SECTIONS:
        return f"sections {tuple(sections)}, want {ALL_SECTIONS}"
    cfg = report["config"]
    if (cfg["n"], cfg["m"], cfg["seed"]) != (n, m, seed):
        return f"report config {cfg} does not match n={n} m={m} seed={seed}"
    return check_decomposition(sections["decompose"], n, m)


def cli_all_job(n, m, seed):
    argv = ["--n", str(n), "--m", str(m), "--seed", str(seed), "--json", "all"]
    return Job(f"qhowe {' '.join(argv)}", partial(run_cli, argv),
               partial(check_cli_all, n=n, m=m, seed=seed))


# -- relations-2x7: relation and Serre suites at dimension 2^14 -------------------


def relations_of(rep):
    return rep.rank, rep.dim, qgroup.check_relations(rep), qgroup.check_serre(rep)


def check_relations_result(result, dim):
    rank, got_dim, relations, serre = result
    if got_dim != dim:
        return f"representation dimension {got_dim}, want {dim}"
    # rank 2 has no index pair i != j, so its Serre suite is legitimately empty
    return (check_suite("relations", relations)
            or check_suite("serre", serre, require_checks=rank > 2))


def relations_job(builder, n, m):
    # look the builder up at call time, so that a traced run sees its wrapper
    return Job(f"{builder}({n},{m}) relations+serre",
               lambda: relations_of(getattr(embeddings, builder)(n, m)),
               partial(check_relations_result, dim=1 << (n * m)))


# -- the workload registry ------------------------------------------------------------


def all_3x4(seed):
    # the seed drives the CLI's randomized scalar self-checks
    return [cli_all_job(3, 4, seed)]


def relations_2x7(seed):
    # fixed inputs: the seed has nothing to vary here
    return [relations_job("lambda_rep", 2, 7), relations_job("rho_rep", 2, 7)]


def cyclic_span_dims(n, m):
    return duality.cyclic_span_dims(n, m, SWEEP_SPEC_VALUES)


def decompose_sweep(seed):
    # shapes and specialization values define the workload; the seed sets the order
    shapes = list(SWEEP_SHAPES)
    random.Random(seed).shuffle(shapes)
    return [
        Job(f"cyclic_span_dims({n},{m})",
            partial(cyclic_span_dims, n, m),
            partial(check_decomposition, n=n, m=m))
        for n, m in shapes
    ]


WORKLOADS = {
    "all-3x4": all_3x4,
    "relations-2x7": relations_2x7,
    "decompose-sweep": decompose_sweep,
}
