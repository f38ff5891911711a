#!/usr/bin/env python3
"""Schema test: BENCHMARK.json against the benchmark contract, and a
--smoke result against BENCHMARK.json.

    python3 benchmark/test_schema.py            # BENCHMARK.json only
    BENCH_SMOKE_RESULT=benchmark/out/smoke.json python3 benchmark/test_schema.py

ci-smoke.sh runs the second form right after `run.sh --smoke --save ...`.
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = os.environ.get("BENCH_SMOKE_RESULT")


class BenchmarkJson(unittest.TestCase):
    def test_has_exactly_the_contract_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["benchmark"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_counts_are_within_the_caps(self):
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)

    def test_names_are_well_formed_and_used_once(self):
        names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_say_why(self):
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])

    def test_end_to_end_metrics_have_unit_direction_and_bound(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"}, m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_per_layer_metrics_have_unit_and_direction_but_no_bound(self):
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"}, m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))


@unittest.skipUnless(SMOKE, "set BENCH_SMOKE_RESULT to a file saved by `run.sh --smoke --save FILE`")
class SmokeResult(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SMOKE) as f:
            cls.runs = json.load(f)["runs"]

    def run_of(self, workload, trace):
        found = [r for r in self.runs if r["workload"] == workload and r["trace"] == trace]
        self.assertEqual(len(found), 1, f"{workload} trace {trace}")
        return found[0]["result"]

    def test_every_workload_emits_every_listed_metric_and_no_other(self):
        for w in SPEC["workloads"]:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                result = self.run_of(w["name"], trace)
                self.assertEqual(set(result) - {"exit_code", "invalid"}, {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(list(result["metrics"]), [m["name"] for m in listed], f"{w['name']} trace {trace}")
                for m in listed:
                    emitted = result["metrics"][m["name"]]
                    self.assertEqual(emitted["unit"], m["unit"], m["name"])
                    self.assertIsInstance(emitted["value"], (int, float), m["name"])

    def test_every_run_checked_its_outputs_and_none_failed(self):
        for r in self.runs:
            result = r["result"]
            self.assertTrue(result["correct"], r["workload"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual((result["failed"], result["exit_code"]), (0, 0), r["workload"])

    def test_end_to_end_metrics_are_never_zero(self):
        for w in SPEC["workloads"]:
            for name, m in self.run_of(w["name"], 0)["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w['name']} {name}")

    def test_result_files_record_where_and_how_they_were_measured(self):
        for w in SPEC["workloads"]:
            for kind in ("e2e", "layers"):
                with open(os.path.join(HERE, "out", f"{w['name']}.{kind}.json")) as f:
                    full = json.load(f)
                for key in ("nproc", "commit", "rustc", "seed", "loadgen_threads", "producer_threads", "transport"):
                    self.assertIn(key, full, w["name"])
                self.assertLessEqual(full["loadgen_threads"], 2)
                self.assertIn(full["transport"], ("in-memory", "loopback-tcp"))
            # A layer that does not run is absent (null) here, not zero.
            if w["name"] in ("ingest-large-r1", "catchup-read"):
                self.assertIsNone(full["metrics"]["vlog.append_ns_per_chunk"]["value"])
                self.assertIsNone(full["metrics"]["backup.write_us_p50"]["value"])
            else:
                self.assertIsNotNone(full["metrics"]["vlog.append_ns_per_chunk"]["value"])


if __name__ == "__main__":
    unittest.main()
