#!/usr/bin/env python3
"""Tiny-scale self-test of the reference benchmark.

    python3 perfbench/selftest.py

Runs every workload at --scale tiny (shrunk topologies, 256 snapshots,
about a second each) untraced and traced, and asserts that

  - every run passes its output checks;
  - the untraced run emits every `end_to_end` metric of BENCHMARK.json with
    its unit and a finite, non-zero value;
  - the traced run measures every `per_layer` metric of the layers the
    workload calls (OWNED below) with its unit, and every `per_layer`
    metric is measured by at least one workload;
  - the result line run.py prints has exactly the keys
    correct, attempted, failed and metrics.

Exits 0 when all hold, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics each workload must measure. Every other per-layer
# metric reads 0 on that workload: the layer is never called.
COMMON = ["core.build_scenario_s", "graph.coverage_s", "sim.simulate_s",
          "metrics.score_s", "trace.unattributed_s", "trace.attribution",
          "trace.overhead_s"]
OWNED = {
    "batch-registry": COMMON + [
        "core.harvest_s", "core.harvest_self_s", "corr.refine_s",
        "core.baseline_harvest_s", "core.equations", "core.pair_candidates",
        "core.pair_accept_ratio", "core.demoted_links", "linalg.solve_s",
        "linalg.baseline_solve_s", "linalg.nnls_iters",
        "linalg.refactorizations", "linalg.gram_mb_computed"],
    "sharded-hier10k": COMMON + [
        "core.infer_sharded_s", "core.infer_sharded_self_s", "corr.refine_s",
        "core.plan_shards_s", "core.shards", "core.shared_links",
        "core.averaged_links", "core.resolved_links", "core.joint_solves",
        "core.failed_shards"],
    "bootstrap-waxfull": COMMON + [
        "core.bootstrap_s", "core.bootstrap_self_s", "core.point_harvest_s",
        "linalg.point_solve_s", "sim.resample_s", "core.replicates",
        "core.reharvested", "core.fastpath_ratio", "core.ci_coverage",
        "core.equations", "linalg.nnls_iters", "linalg.refactorizations"],
    "stream-hier2k": COMMON + [
        "stream.serialize_s", "stream.parse_s", "stream.push_window_s",
        "stream.push_window_self_s", "stream.splice_s",
        "core.window_harvest_s", "stream.windows", "stream.usable_windows",
        "stream.gram_reuse_ratio", "stream.warm_start_ratio",
        "core.equations", "linalg.nnls_iters", "linalg.refactorizations"],
}


def run(workload, trace, raw):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"] + (["--raw"] if raw else [])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(OWNED), "workload list != OWNED")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    owned = set().union(*OWNED.values())
    for name in per_layer:
        expect(name in owned, "no workload measures " + name)

    for workload in workloads:
        code, raw = run(workload, 0, raw=True)
        expect(code == 0 and raw["correct"], workload + ": untraced checks")
        for m in spec["end_to_end"]:
            got = raw["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"]
                   and math.isfinite(got["value"]) and got["value"] != 0,
                   "%s: end-to-end %s missing or zero" % (workload, m["name"]))

        code, raw = run(workload, 1, raw=True)
        expect(code == 0 and raw["correct"], workload + ": traced checks")
        for name in OWNED[workload]:
            got = raw["metrics"].get(name)
            expect(got is not None and got["unit"] == per_layer[name]
                   and math.isfinite(got["value"]),
                   "%s: per-layer %s missing" % (workload, name))

        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(workload, trace, raw=False)
            expect(code == 0 and sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["attempted"] >= 1
                   and sorted(result["metrics"]) ==
                   sorted(m["name"] for m in listed),
                   "%s: result line (trace %d)" % (workload, trace))

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %d workloads, %d failures" % (len(workloads),
                                                   len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
