#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic: the percentile rule, failure
accounting, the metric-name rules, the host-speed scale, and that every
workload's correctness check fails closed against a deliberately wrong
reference.

    python3 perfbench/test_run.py

Needs no build; the canned outputs below have the shapes `vnet mc
--machine` and `vnet serve` print.
"""

import copy
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

REF = {
    "CHI": {"protocol": "CHI", "min_vns": "2", "mc_verdict": "no-deadlock-complete",
            "mc_states": "203141"},
    "MSI-blocking-cache": {"protocol": "MSI-blocking-cache", "min_vns": "-",
                           "mc_verdict": "deadlock", "mc_states": "478546"},
}


def mc_run(kind="no-deadlock", states=203141, levels=59, depth=59, complete="true", exit=0,
           witness=False):
    out = (f"mc-result kind={kind} depth={depth} states={states} levels={levels} "
           f"complete={complete} provenance=exact\n")
    if witness:
        out += "witness verified: 26 steps replay cleanly\n"
    return {"exit": exit, "stdout": out}


DEADLOCK_RUN = mc_run("deadlock", 478546, 26, 26, "false", 2, witness=True)


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        samples = list(range(1, 1001))
        value, label = run.tail(samples)
        self.assertEqual(label, "p99")
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_fewer_samples_fall_back_a_rung(self):
        self.assertEqual(run.tail(list(range(999)))[1], "p90")
        self.assertEqual(run.tail(list(range(20)))[1], "p50")

    def test_under_twenty_samples_have_no_tail_percentile(self):
        self.assertIsNone(run.tail([float(x) for x in range(19)]))

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 50), 3)


class FailureAccounting(unittest.TestCase):
    STREAM = [
        {"kind": "hit-analyze", "key": "CHI"},
        {"kind": "hit-analyze", "key": "CHI"},
        {"kind": "hit-analyze", "key": "CHI"},
        {"kind": "hit-analyze", "key": "CHI"},
        {"kind": "hit-analyze", "key": "CHI"},
        {"kind": "hit-analyze", "key": "CHI"},
    ]

    def answers(self, statuses):
        return [{"i": i, "rtt_us": 100,
                 "resp": json.dumps({"id": str(i), "status": s, "min_vns": 2}) if s else ""}
                for i, s in enumerate(statuses)]

    def test_every_non_ok_status_is_a_failure(self):
        statuses = ["ok", "rejected", "cancelled", "panicked", "error", None]
        tally = run.Tally()
        for what, problems in run.check_serve(self.STREAM, self.answers(statuses), REF):
            tally.check(problems, what)
        self.assertEqual((tally.attempted, tally.failed), (6, 5))
        self.assertAlmostEqual(tally.ok_frac(), 1 / 6)
        self.assertTrue(any("rejected" in w for w in tally.why))
        self.assertTrue(any("cancelled" in w for w in tally.why))

    def test_clean_loop_has_no_failures(self):
        tally = run.Tally()
        for what, problems in run.check_serve(self.STREAM, self.answers(["ok"] * 6), REF):
            tally.check(problems, what)
        self.assertEqual((tally.failed, tally.ok_frac()), (0, 1.0))


class MetricNames(unittest.TestCase):
    def test_names_units_and_uniqueness(self):
        names = [m["name"] for g in ("end_to_end", "per_layer") for m in BENCH[g]]
        names += [w["name"] for w in BENCH["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for g in ("end_to_end", "per_layer"):
            for m in BENCH[g]:
                self.assertRegex(m["unit"], UNIT)

    def test_the_runner_reports_exactly_the_declared_metrics(self):
        self.assertEqual({m["name"] for m in BENCH["end_to_end"]}, set(run.E2E))
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(run.WORKLOADS))

    def test_every_metric_has_a_prediction_or_definition(self):
        plan = run.PLAN
        self.assertEqual({m["name"] for m in BENCH["per_layer"]}, set(plan["predictions"]))
        self.assertEqual(set(run.E2E), set(plan["end_to_end_definitions"]))
        for p in plan["predictions"].values():
            self.assertIn(p["on"], run.WORKLOADS)
            self.assertTrue(set(p["zero_on"]) <= set(run.WORKLOADS))


class HostScale(unittest.TestCase):
    def test_scale_is_the_reference_over_the_median_kernel_time(self):
        ref = run.PLAN["calibration"]["reference_s"]
        self.assertAlmostEqual(run.host_scale([ref, 2 * ref, 4 * ref]), 0.5)
        self.assertAlmostEqual(run.host_scale([ref / 2, ref / 2, 9.0]), 2.0)


class FailsClosed(unittest.TestCase):
    """Each workload's check passes on the right reference and fails on a
    deliberately wrong one."""

    def wrong(self, protocol, **fields):
        ref = copy.deepcopy(REF)
        ref[protocol].update(fields)
        return ref

    def test_fig3_serial_verdict_and_states(self):
        good = run.fig3_expectation(REF, "CHI")
        self.assertEqual(run.check_mc(mc_run(), good), [])
        self.assertTrue(run.check_mc(mc_run(), run.fig3_expectation(
            self.wrong("CHI", mc_states="203142"), "CHI")))
        self.assertTrue(run.check_mc(mc_run(), run.fig3_expectation(
            self.wrong("CHI", mc_verdict="deadlock"), "CHI")))

    def test_deadlock_subject_needs_a_replaying_witness(self):
        exp = dict(run.fig3_expectation(REF, "MSI-blocking-cache"), witness=True)
        self.assertEqual(run.check_mc(DEADLOCK_RUN, exp), [])
        unverified = dict(DEADLOCK_RUN, stdout=DEADLOCK_RUN["stdout"].splitlines()[0])
        self.assertTrue(run.check_mc(unverified, exp))

    def test_sym_4c_states_and_levels(self):
        r = run.PLAN["references"]["sym_4c"]
        exp = {"kind": "no-deadlock", "complete": "true", "states": r["states"],
               "levels": r["levels"], "exit": 0}
        out = mc_run(states=90835, levels=34, depth=34)
        self.assertEqual(run.check_mc(out, exp), [])
        self.assertTrue(run.check_mc(out, dict(exp, levels=35)))
        self.assertTrue(run.check_mc(out, dict(exp, states=90836)))

    def test_fig3_modes_leg_must_equal_the_serial_leg(self):
        exp = dict(run.fig3_expectation(REF, "CHI"), levels="59")
        self.assertEqual(run.check_mc(mc_run(), exp), [])
        self.assertTrue(run.check_mc(mc_run(levels=58), exp))

    def test_setup_probe_must_stop_degraded(self):
        probe = mc_run(states=1, levels=0, depth=0, complete="false", exit=3)
        self.assertEqual(run.check_probe(probe), [])
        self.assertTrue(run.check_probe(mc_run()))

    def test_serve_builtins_against_table_one(self):
        stream = [{"kind": "hit-analyze", "key": "CHI"},
                  {"kind": "hit-analyze", "key": "MSI-blocking-cache"},
                  {"kind": "hit-mc", "key": "CHI"}]
        answers = [
            {"i": 0, "resp": json.dumps({"status": "ok", "min_vns": 2})},
            {"i": 1, "resp": json.dumps({"status": "ok", "min_vns": None})},
            {"i": 2, "resp": json.dumps({"status": "ok", "verdict": "no_deadlock",
                                         "states": 203141})},
        ]
        self.assertFalse(any(p for _, p in run.check_serve(stream, answers, REF)))
        wrong = self.wrong("CHI", min_vns="3", mc_states="1")
        bad = [p for _, p in run.check_serve(stream, answers, wrong)]
        self.assertTrue(bad[0] and bad[2] and not bad[1])

    def test_serve_mutants_cold_equals_cached(self):
        stream = [{"kind": "cold", "key": "m0"}, {"kind": "repeat", "key": "m0"}]
        cold = {"status": "ok", "min_vns": 2, "vns": [["A"], ["B"]], "provenance": "exact",
                "wall_ms": 2, "id": "0"}
        cached = dict(cold, provenance="cached", wall_ms=0, id="1")
        ok = [{"i": 0, "resp": json.dumps(cold)}, {"i": 1, "resp": json.dumps(cached)}]
        self.assertFalse(any(p for _, p in run.check_serve(stream, ok, REF)))
        drifted = [ok[0], {"i": 1, "resp": json.dumps(dict(cached, vns=[["A", "B"]]))}]
        self.assertTrue(run.check_serve(stream, drifted, REF)[1][1])

    def test_serve_prefill_must_open_whole(self):
        def metrics(records, quarantined=0):
            return {"registry": {"gauges": {"store.records": records},
                                 "counters": {"store.quarantined_total": quarantined}}}
        self.assertEqual(run.check_prefill(metrics(20000), 20000), [])
        self.assertTrue(run.check_prefill(metrics(19999), 20000))
        self.assertTrue(run.check_prefill(metrics(20000, quarantined=1), 20000))
        self.assertTrue(run.check_prefill({}, 20000))


if __name__ == "__main__":
    unittest.main()
