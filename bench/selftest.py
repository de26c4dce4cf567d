#!/usr/bin/env python3
"""Self-tests of the benchmark itself, stdlib unittest only.

    python3 bench/selftest.py

They check that the correctness gate fails on corrupted output, that a run
with no tasks is not a pass, that cProfile time lands in the right layer,
that the seed changes order but not results, that the reference code in
truth.py agrees with the published tables, and that BENCHMARK.json names
exactly the metrics the runner produces.  A few seconds.
"""

import contextlib
import cProfile
import io
import json
import random
import unittest
from fractions import Fraction

import run
import truth
import workloads

run.load_fishlab()
MODS = workloads.import_fishlab()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def is_inversion_seq(w) -> bool:
    return all(1 <= a <= i for i, a in enumerate(w, 1))


def ascent_sequences_task(corrupt: bool):
    """A one-task workload over the ascent sequences of length 4, checked by
    the same enumeration check the families workload uses."""
    name = "selftest-dasc-n4"
    argv = ["enumerate", "--family", "dasc", "--n", "4", "--d", "0"]
    _, clean, _ = workloads.run_cli(MODS["cli"], argv)
    truth.PINNED_SHA256[name] = truth.sha256(clean)

    def setup(mods, rng):
        def run_task(outs, lap):
            status, text, err = workloads.run_cli(mods["cli"], argv)
            if corrupt:  # the last member replaced by a copy of the first
                lines = text.splitlines()
                text = "\n".join(lines[:-1] + lines[:1]) + "\n"
            return status, text, err

        check = workloads.enumeration_check(name, 4, truth.FISHBURN[4], is_inversion_seq)
        return [workloads.Task(name, run_task, check)]

    return setup


def run_main(workload, setup) -> tuple:
    """run.main on a workload registered for the test; (status, stdout)."""
    workloads.SETUPS[workload] = setup
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run.main(["--workload", workload, "--seed", "1", "--seconds", "0"])
    finally:
        del workloads.SETUPS[workload]
    return status, out.getvalue()


class GateTest(unittest.TestCase):
    def test_clean_output_passes(self):
        status, out = run_main("clean", ascent_sequences_task(corrupt=False))
        result = json.loads(out.splitlines()[-1])
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_corrupted_output_fails(self):
        status, out = run_main("corrupt", ascent_sequences_task(corrupt=True))
        detail, result = (json.loads(line) for line in out.splitlines()[-2:])
        self.assertNotEqual(status, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(detail["failed_frac"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertIn("duplicate", detail["problems"][0]["problem"])

    def test_zero_tasks_is_not_a_pass(self):
        status, out = run_main("empty", lambda mods, rng: [])
        self.assertNotEqual(status, 0)
        self.assertEqual(out, "")

    def test_real_checks_reject_corruption(self):
        rows = [{"check": "c", "n": 1, "d": 0, "expected": 1, "actual": 1, "pass": True}]
        good = "\n".join(json.dumps(r) for r in rows * workloads.VERIFY_MIN_ROWS) + "\n"
        bad = good.replace('"pass": true', '"pass": false', 1)
        for result, ok in (((0, good, ""), True), ((0, bad, ""), False), ((1, good, ""), False),
                           ((0, "".join(good.splitlines(True)[:100]), ""), False)):
            outs = {"verify-x": result}
            self.assertEqual(workloads.check_verify(result, outs) is None, ok)

        series = MODS["series"]
        check = workloads.series_check(1, -1, 20)
        q = series.series_Q(1, -1, 20)
        self.assertIsNone(check(q, {}))
        wrong = series.TruncSeries(list(q.coeffs[:15]) + [q.coeffs[15] + 1] + list(q.coeffs[16:]), 20)
        self.assertEqual(check(wrong, {}), "algebraic residual is not zero")
        half = workloads.series_check(2, Fraction(1, 2), 12)
        h = series.series_Q(2, Fraction(1, 2), 12)
        self.assertIsNone(half(h, {}))
        self.assertIsNotNone(half(series.TruncSeries(h.coeffs[:10] + (0, 0, 0), 12), {}))


    def test_suites_add_up_to_suite_all(self):
        argv = ["--n-max", "4", "--d-max", "1"]
        _, whole, _ = workloads.run_cli(MODS["cli"], ["verify", "--suite", "all"] + argv)
        parts = [workloads.run_cli(MODS["cli"], ["verify", "--suite", s] + argv)[1]
                 for s in workloads.VERIFY_SUITES]
        self.assertEqual("".join(parts), whole)


class ProfileTest(unittest.TestCase):
    def test_time_lands_in_the_defining_layer(self):
        fishburn = MODS["fishburn"]
        profiler = cProfile.Profile()
        profiler.enable()
        fishburn._has_increasing_subseq(list(range(200000, 0, -1)), 3)
        sum(Fraction(1, k) for k in range(1, 300))
        profiler.disable()
        self_s, calls, fn_calls = run.layer_profile(profiler)
        self.assertEqual(calls["fishburn"], 1)
        self.assertEqual(fn_calls["fishburn._has_increasing_subseq"], 1)
        self.assertEqual(max(self_s, key=self_s.get), "fishburn")
        self.assertGreater(calls["fractions"], 0)
        self.assertGreater(self_s["fractions"], 0)
        self.assertEqual(run.layer_of("~"), "other")
        self.assertEqual(run.layer_of(workloads.__file__), "other")


class SeedTest(unittest.TestCase):
    def test_seed_permutes_order_not_results(self):
        hat, burge, fishburn = MODS["hat"], MODS["burge"], MODS["fishburn"]
        results, orders = [], set()
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            members = list(hat.enumerate_d_asc(6, 1))
            rng.shuffle(members)
            tasks = workloads._map_tasks(hat, burge, fishburn, members, 6, 1)
            order = run.pass_order(tasks, rng)
            done = set()
            for task in order:
                self.assertTrue(task.after is None or task.after in done)
                done.add(task.name)
            orders.add(tuple(t.name for t in order))
            outs = {}
            for task in order:
                outs[task.name] = task.run(outs, lambda: None)
            self.assertEqual(run.check_pass(order, outs), {})
            results.append({k: sorted(map(sorted, v)) if k.startswith("d_active") else sorted(v)
                            for k, v in outs.items()})
        self.assertGreater(len(orders), 1)
        self.assertEqual(results[0], results[1])
        self.assertEqual(results[0], results[2])


class TruthTest(unittest.TestCase):
    def test_reference_code_matches_tables(self):
        self.assertEqual([truth.count_d_ascent(n, 0) for n in range(10)], truth.FISHBURN)
        self.assertEqual([truth.catalan(n) for n in range(6)], [1, 1, 2, 5, 14, 42])
        for d, row in truth.TABLE_213.items():
            # weight 0 keeps exactly the paths without the factor
            self.assertEqual([truth.factor_weight_sum(n, d, Fraction(0)) for n in range(9)],
                             row[:9])
        for d in truth.ALGEBRAIC:
            row = truth.TABLE_213[d]
            self.assertTrue(truth.algebraic_residual_holds(row, d))
            self.assertFalse(truth.algebraic_residual_holds(row[:-1] + [row[-1] + 1], d))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_reports(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.SETUPS))
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]},
                         {"pass_s", "setup_s", "peak_rss_mib", "ok_frac"})
        tasks = {t.name for setup in workloads.SETUPS.values()
                 for t in setup(MODS, random.Random(0))}
        layers = {f"{layer}.{kind}" for layer in workloads.LAYERS + ("fractions",)
                  for kind in ("self_s", "calls")}
        derived = {"other.self_s", "trace.overhead_s", "fishburn.filter_yield",
                   "hat.orbit_yield", "series.ns_per_coeff"}
        self.assertEqual({m["name"] for m in SPEC["per_layer"]},
                         layers | derived | {f"task.{t}_s" for t in tasks})


if __name__ == "__main__":
    unittest.main()
