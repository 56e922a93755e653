"""Tests of the benchmark itself: its correctness gate, including a negative
control, and its tracer.  Small inputs only; runs in a few seconds.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import signal
import sys
import time
import unittest
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qhowe import duality, embeddings, qgroup  # noqa: E402
from qhowe.sparsemat import SparseMatrix  # noqa: E402
from qhowe.qscalar import QLaurent  # noqa: E402


def negated_generator_job():
    """The relations job on a representation with E_1 negated: [E,F] breaks."""

    def broken():
        rep = embeddings.lambda_rep(2, 2)
        rep.mats[("E", 1)] = -rep.mats[("E", 1)]
        return workloads.relations_of(rep)

    return workloads.Job("negated E1", broken,
                         lambda result: workloads.check_relations_result(result, dim=16))


def good_relations_job():
    return workloads.relations_job("lambda_rep", 2, 2)


def batch(jobs):
    return worker.batch_record(*workloads.run_batch(jobs))


class CorrectnessGate(unittest.TestCase):
    def test_negated_generator_counts_as_failed(self):
        clean = batch([good_relations_job()])
        broken = batch([good_relations_job(), negated_generator_job()])
        self.assertIsNone(broken["jobs"][0][2])
        self.assertIn("relations", broken["jobs"][1][2])
        attempted, failures = run.tally([clean, broken])
        self.assertEqual((attempted, len(failures)), (3, 1))
        metrics = run.end_to_end([clean, broken], [0.1], 10.0)
        self.assertAlmostEqual(metrics["pass_ratio"]["value"], 2 / 3)
        # the batch holding the broken job is not timed as a success
        self.assertEqual(metrics["wall_s"]["value"], clean["wall_s"])

    def test_wall_s_is_scaled_to_the_reference_speed(self):
        ref = calibrate.REFERENCE_PROBE_S
        # probes at the reference speed: the wall time less the probes' own
        self.assertAlmostEqual(calibrate.reference_seconds(10.0, [ref] * 4), 10.0 - 4 * ref)
        # a machine running at half speed throughout does the work in half the time
        self.assertAlmostEqual(calibrate.reference_seconds(10.0, [2 * ref] * 4),
                               (10.0 - 8 * ref) / 2)
        batch = {"wall_s": 10.0, "probe_s": [2 * ref] * 4, "jobs": [["a", 10.0, None]]}
        self.assertAlmostEqual(run.end_to_end([batch], [0.1], 1.0)["wall_s"]["value"],
                               (10.0 - 8 * ref) / 2)

    def test_probe_samples_while_a_batch_runs(self):
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            deadline = time.perf_counter() + 3 * calibrate.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_raising_job_counts_as_failed(self):
        def explode():
            raise ArithmeticError("boom")

        (result,) = workloads.run_batch([workloads.Job("explode", explode, lambda r: None)])[1]
        self.assertIn("ArithmeticError", result.failure)

    def test_nonzero_exit_counts_as_failed(self):
        job = workloads.cli_all_job(2, 2, 0)._replace(
            run=lambda: workloads.run_cli(["--n", "0", "--m", "2", "--json", "all"]))
        self.assertEqual(workloads.run_job(job).failure, "qhowe exited 2")

    def test_cli_all_passes_and_checks_seed(self):
        self.assertIsNone(workloads.run_job(workloads.cli_all_job(2, 2, 5)).failure)
        result = workloads.run_cli(["--n", "2", "--m", "2", "--seed", "6", "--json", "all"])
        self.assertIn("seed", workloads.check_cli_all(result, 2, 2, 5))

    def test_decomposition_invariants(self):
        report = duality.cyclic_span_dims(2, 2, workloads.SWEEP_SPEC_VALUES)
        self.assertIsNone(workloads.check_decomposition(report, 2, 2))
        tampered = json.loads(json.dumps(report))
        tampered["partitions"][1]["span_dim"] += 1
        self.assertIn("Weyl product", workloads.check_decomposition(tampered, 2, 2))
        tampered = json.loads(json.dumps(report))
        tampered["joint_rank"] -= 1
        self.assertIn("joint rank", workloads.check_decomposition(tampered, 2, 2))

    def test_hook_content_matches_weyl_dim(self):
        for n, m in product(range(1, 4), range(1, 4)):
            for mu in duality.partitions_in_box(n, m):
                self.assertEqual(workloads.gl_dim(tuple(mu), n), duality.weyl_dim(mu, n))

    def test_sweep_shapes_and_seeded_order(self):
        self.assertEqual(len(workloads.SWEEP_SHAPES), 35)
        names = [job.name for job in workloads.decompose_sweep(1)]
        self.assertEqual(names, [job.name for job in workloads.decompose_sweep(1)])
        self.assertNotEqual(names, [job.name for job in workloads.decompose_sweep(2)])
        self.assertEqual(sorted(names), sorted(j.name for j in workloads.decompose_sweep(2)))


class Tracer(unittest.TestCase):
    def test_term_products_matches_brute_force(self):
        a = SparseMatrix(3, {0: {0: QLaurent({0: 1, 1: 2}), 2: QLaurent({3: 1})},
                             1: {1: QLaurent({-1: 1, 0: 1, 1: 1})}})
        b = SparseMatrix(3, {2: {0: QLaurent({2: 5}), 1: QLaurent({0: 1, 4: 1})},
                             1: {1: QLaurent({1: 1})}})
        brute = sum(len(a.entry(r, k).terms) * len(b.entry(k, c).terms)
                    for r, k, c in product(range(3), repeat=3))
        self.assertEqual(tracing.term_products(a, b), brute)

    def traced_counts(self):
        jobs = [workloads.cli_all_job(2, 2, 3), good_relations_job()]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = workloads.run_batch(jobs)[1]
        finally:
            tracer.uninstall()
        self.assertTrue(all(r.failure is None for r in results))
        metrics = tracer.metrics()
        self.assertEqual(set(metrics), set(tracing.PER_LAYER_UNITS))
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}, tracer

    def test_counts_repeat_and_wrappers_are_removed(self):
        original = (SparseMatrix.__mul__, qgroup.check_relations, embeddings.lambda_rep)
        first, tracer = self.traced_counts()
        second, _ = self.traced_counts()
        self.assertEqual(first, second)
        self.assertGreater(first["sparsemat.mul.calls"], 0)
        self.assertGreater(first["qgroup.checks"], 0)
        self.assertEqual(original, (SparseMatrix.__mul__, qgroup.check_relations,
                                    embeddings.lambda_rep))
        # every span closed, and each child lies inside its parent
        for i in range(len(tracer.start)):
            p = tracer.parent[i]
            self.assertLessEqual(tracer.start[i], tracer.end[i])
            if p >= 0:
                self.assertLessEqual(tracer.start[p], tracer.start[i])
                self.assertLessEqual(tracer.end[i], tracer.end[p])


class Definition(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {**tracing.PER_LAYER_UNITS, "trace.overhead_s": "s"})


if __name__ == "__main__":
    unittest.main()
