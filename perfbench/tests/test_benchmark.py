"""Checks of the benchmark's own description and result plumbing.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The arithmetic of the benchmark binary (span self time, the tail
percentile rule, failure accounting) is tested in Rust:

    cargo test --release --offline --manifest-path perfbench/Cargo.toml
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the benchmark entry point, imported for its helpers)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.manifest = load(os.path.join(BENCH_DIR, "manifest.json"))

    def test_top_level_keys_are_exactly_the_contract(self):
        self.assertEqual(
            set(self.bench),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(self.bench["paths"], ["perfbench"])
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = []
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_manifest_describes_every_workload_and_layer_metric(self):
        workloads = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(list(self.manifest["workloads"]), workloads)
        for name, entry in self.manifest["workloads"].items():
            self.assertEqual(set(entry), {"model", "pinned"}, name)
            self.assertTrue(entry["model"], name)
            self.assertRegex(entry["pinned"]["digest"], r"^[0-9a-f]{16}$")
            self.assertEqual(entry["pinned"]["seed"], self.manifest["default_seed"])
        layers = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(list(self.manifest["layers"]), layers)
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for name, entry in self.manifest["layers"].items():
            for metric, workload in entry["moves"] + entry.get("unmoved", []):
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)

    def test_the_binary_emits_exactly_the_declared_metrics(self):
        with open(os.path.join(BENCH_DIR, "src", "main.rs"), encoding="utf-8") as f:
            source = f.read()
        emitted = re.findall(r'metric\(\s*"([^"]+)"', source)
        declared = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        self.assertEqual(sorted(emitted), sorted(declared))


class ResultLine(unittest.TestCase):
    def test_a_well_formed_line_passes_and_others_do_not(self):
        line = json.dumps({
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
        })
        self.assertIsNotNone(run.check_result(line, ["setup_s"]))
        self.assertIsNone(run.check_result(line, ["setup_s", "peak_rss_mb"]))
        self.assertIsNone(run.check_result("not json", None))
        self.assertIsNone(run.check_result(json.dumps({"correct": True}), None))

    def test_the_pinned_digest_applies_to_its_seed_only(self):
        manifest = {"workloads": {"w": {"pinned": {"seed": 1, "digest": "00ff"}}}}
        self.assertEqual(run.pinned_digest(manifest, "w", 1), "00ff")
        self.assertIsNone(run.pinned_digest(manifest, "w", 2))
        self.assertIsNone(run.pinned_digest(manifest, "other", 1))


if __name__ == "__main__":
    unittest.main()
