"""Run one flatlat benchmark workload and print its metrics.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src`` and the CLI runs as ``python -m
flatlat.cli`` with that ``src`` on ``PYTHONPATH``.  Nothing is installed.

The run builds the workload's inputs from the seed, then makes whole passes
over them for about ``--seconds`` (at least one pass; two with ``--trace
1``).  With ``--trace 0`` it prints the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every other pass is traced and it prints
the per-layer metrics, taken from the traced passes.  The last line of
standard output is the result object; the lines before it hold the
environment record and a summary.  A record with the spans of a traced run
is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from record import Recorder, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 15
TAIL_LADDER = (99, 95, 90, 85, 75, 50)
LAYERS = ("formats", "lattice", "complexes", "flats", "realize", "graphs", "cli")
# a second pass that takes less than this share of the first one's time
# means some operation reused work from an earlier input
CACHE_RATIO_FLOOR = 0.5


def load_package():
    if not (SRC / "flatlat" / "__init__.py").is_file():
        raise SystemExit(f"no flatlat package under {SRC}: run inside a checkout")
    sys.path.insert(0, str(SRC))
    import flatlat

    if Path(flatlat.__file__).resolve().parent != SRC / "flatlat":
        raise SystemExit(f"imported flatlat from {flatlat.__file__}, not {SRC}")


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def measure_setup(env, speed):
    """(start, wall seconds) from starting a fresh interpreter to ``import
    flatlat.cli`` done, for several interpreters (after one unmeasured
    warm-up), with a host speed sample before each."""
    probe = "import time, flatlat.cli; print(time.monotonic())"
    samples = []
    for i in range(SETUP_PROBES + 1):
        speed.sample()
        at = time.perf_counter()
        start = time.monotonic()  # system-wide clock, comparable across processes
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            samples.append((at, float(done.stdout) - start))
    return samples


def tail_of(samples, cap):
    """The highest ladder percentile <= cap with ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if pct <= cap and n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return 50, statistics.median(samples)


def ops_per_s(passes):
    """Inputs decided per second of deciding work, over whole passes."""
    busy = sum(p.busy for p in passes)
    return sum(p.ops for p in passes) / busy if busy else 0.0


def run(workload, seed, seconds, trace, small=False):
    """Run one workload; returns (result, record).  Call load_package first."""
    from workloads import WORKLOADS, child_env

    env_record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "loadavg_before": loadavg(),
    }
    rec = Recorder()
    setup = measure_setup(child_env(SRC), rec.speed)
    wl = WORKLOADS[workload](seed, ROOT, small)
    start = time.perf_counter()
    own_peak = None
    index = 0
    while True:
        # whole passes; the last one starts only if at least half of it fits
        elapsed = time.perf_counter() - start
        if index >= (2 if trace else 1) and elapsed + elapsed / index / 2 >= seconds:
            break
        rec.begin_pass(index, bool(trace) and index % 2 == 0)
        wl.run_pass(rec)
        rec.end_pass()
        if index == 0:
            own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        index += 1
    # inputs that fail because of a known defect run once, outside the
    # operations, and are reported as a per-layer count
    defects = wl.known_defects() if trace else {}
    env_record["loadavg_after"] = loadavg()
    rec.finish()
    setup_s = [rec.speed.reference(*s) for s in setup]

    problems = []
    keys = Counter(op.key for op in rec.ops if op.key is not None)
    repeated = [k for k, c in keys.items() if c > 1]
    if repeated:
        problems.append(f"{len(repeated)} inputs were handed to the library twice")
    plain = [p for p in rec.passes if not p.traced]
    if len(plain) >= 2 and plain[0].busy > 0:
        ratio = plain[1].busy / plain[0].busy
        env_record["second_pass_ratio"] = ratio
        if ratio < CACHE_RATIO_FLOOR:
            problems.append(f"second pass took {ratio:.2f} of the first one's time")
    failed = [op for op in rec.ops if op.failed_layer is not None]
    samples = [op.seconds for op in rec.ops]
    pct, tail = tail_of(samples, wl.tail_pct)

    if trace:
        traced = [p for p in rec.passes if p.traced]
        k = len(traced)
        counts = sum((p.counts for p in traced), Counter())
        busy, own = self_times(rec.spans)
        layer_self = Counter()
        for name, seconds_ in own.items():
            layer_self[name.split(".", 1)[0]] += seconds_
        values = {f"{name}_s": total / k for name, total in busy.items()}
        values.update({name: total / k for name, total in counts.items()})
        traced_ids = {p.index for p in traced}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_self[layer] / k
            values[f"{layer}.failed"] = sum(
                1 for op in failed if op.failed_layer == layer and op.pass_index in traced_ids
            ) / k
        scanned = counts["flats.subsets_scanned"]
        values["flats.found_per_scanned"] = counts["flats.found"] / scanned if scanned else 0.0
        values["cli.spawn_s"] = (counts["cli.spawn_wall"] - busy["cli.main"]) / k
        values["trace.overhead_ops_per_s"] = ops_per_s(traced) - ops_per_s(plain)
        values["trace.spans"] = len(rec.spans) / k
        values["failed_share"] = len(failed) / len(rec.ops)
        values["cli.known_defects"] = sum(1 for why in defects.values() if why)
        values["op_samples"] = len(samples)
        section = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail,
            "ops_per_s": ops_per_s(plain),
            "ok_share": 1 - len(failed) / len(rec.ops),
            "peak_rss_mb": wl.peak_rss_kib(own_peak) / 1024,
        }
        section = "end_to_end"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    result = {
        "correct": not problems and not failed,
        "attempted": len(rec.ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    env_record.update({
        "setup_samples_s": setup_s, "setup_wall_s": [s for _, s in setup],
        "calibration_median_s": statistics.median(s for _, s in rec.speed.samples),
        "passes": len(rec.passes), "op_samples": len(samples),
        "tail_pct": pct, "problems": problems, "known_defects": defects,
        "failures": [f"{op.name}: {op.failed_layer}: {op.reason}" for op in failed[:20]],
    })
    record = {
        "env": env_record,
        "result": result,
        "computed": sorted(values),
        "unreported": sorted(set(values) - set(metrics)),
        "passes": [[p.index, p.traced, p.ops, p.busy] for p in rec.passes],
        "ops": [[op.name, op.pass_index, op.seconds, op.wall, op.failed_layer] for op in rec.ops],
        "spans": rec.spans,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("construct", "census", "brsc", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_package()
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    env = record["env"]
    print("env " + json.dumps({k: v for k, v in env.items() if k not in ("setup_samples_s", "setup_wall_s")}))
    print(
        f"{args.workload}: {env['passes']} passes, {env['op_samples']} ops, "
        f"tail at p{env['tail_pct']}, {result['failed']} failed, correct={result['correct']}"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
