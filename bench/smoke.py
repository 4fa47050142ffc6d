"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench/smoke.py

Runs each workload untraced and traced with a fixed seed on small inputs and
checks that

- every answer check passes, no operation fails, and the known-defect
  inputs of the traced cli run are reported;
- the reported metrics are exactly the ones named in BENCHMARK.json, and
  every per-layer metric is produced by some workload;
- spans nest: a parent opens before its child, closes after it, and belongs
  to the same operation (or is the pass);
- the answer checks catch a wrong expected value, and the run rejects an
  input handed to the library twice.

It is kept out of the test suite so that the suite stays free of timing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run as bench

SEED = 7
# per-layer metrics that stay zero on the small inputs or when no command fails
ZERO_AT_SMALL_SIZE = {
    "cli.exit.1", "cli.exit.2", "cli.exit.3", "cli.exit.4", "cli.exit.killed",
    "realize.method.boolean", "realize.method.general",
}
KNOWN_DEFECTS = {"construct-boolean16", "flats-label-collision"}
INTERNAL = {"bench.op_s", "bench.pass_s", "cli.spawn_wall"}


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def check_spans(spans, label):
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end is None or end < start:
            fail(f"{label}: span {i} {name} not closed")
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if not (parent < i and p_start <= start and end <= p_end):
            fail(f"{label}: span {i} {name} not inside its parent {p_name}")
        if p_name != "bench.pass" and p_op != op:
            fail(f"{label}: span {i} {name} and its parent belong to other ops")


def main():
    bench.load_package()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = {s: [m["name"] for m in spec[s]] for s in ("end_to_end", "per_layer")}
    produced = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            result, record = bench.run(workload, SEED, 0, trace, small=True)
            section = "per_layer" if trace else "end_to_end"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if list(result["metrics"]) != names[section]:
                fail(f"{label}: metric names differ from BENCHMARK.json")
            if not result["correct"] or record["env"]["problems"]:
                fail(f"{label}: {record['env']['problems']} {record['env']['failures']}")
            if result["failed"]:
                fail(f"{label}: failed ops {record['env']['failures']}")
            defects = record["env"]["known_defects"]
            if set(defects) != (KNOWN_DEFECTS if workload == "cli" and trace else set()):
                fail(f"{label}: known defects probed: {sorted(defects)}")
            if set(record["unreported"]) - INTERNAL:
                fail(f"{label}: unreported metrics {record['unreported']}")
            if trace:
                check_spans(record["spans"], label)
                produced |= set(record["computed"])
            else:
                zero = [k for k, v in result["metrics"].items() if k != "ok_share" and v["value"] <= 0]
                if zero:
                    fail(f"{label}: end-to-end metrics not positive: {zero}")
            still = sorted(name for name, why in defects.items() if why)
            print(f"ok {label}: {result['attempted']} ops, known defects still failing: {still}")
    never = set(names["per_layer"]) - produced - ZERO_AT_SMALL_SIZE
    if never:
        fail(f"per-layer metrics no workload produces: {sorted(never)}")

    # negative controls: a wrong expected value or a repeated input must
    # fail the run
    import inputs
    import reference

    reference.CENSUS_REALIZABLE = (0,) * 8
    result, _ = bench.run("census", SEED, 0, 0, small=True)
    if result["correct"] or not result["failed"]:
        fail("census run accepted a wrong frozen census")
    reference.uniform_flat_count = lambda k, n: -1
    result, _ = bench.run("brsc", SEED, 0, 0, small=True)
    if result["correct"] or not result["failed"]:
        fail("brsc run accepted a wrong flat count")
    print("ok answer checks reject wrong expected values")
    inputs.Labels.tag = lambda self: "same"
    result, record = bench.run("construct", SEED, 0, 1, small=True)
    if result["correct"] or not record["env"]["problems"]:
        fail("construct run accepted inputs repeated across passes")
    print("ok repeated inputs are rejected")


if __name__ == "__main__":
    main()
