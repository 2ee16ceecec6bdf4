#!/usr/bin/env python3
"""Repeatable benchmark of the proxbal workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload aware-65k --seed 1 --seconds 15 --trace 0

The script builds `perfbench-worker` (a package of its own that links the
workspace crates by path) into `$CARGO_TARGET_DIR` (default `.bench_build`),
then starts one fresh worker process per measured pass.

* `--trace 0` reports the end-to-end metrics: medians over the run's
  workers for the timed ones, exact values for the deterministic ones.
  Workers repeat until `--seconds` of them have been measured.
* `--trace 1` makes an untraced pass, a traced pass (phase profiler and
  counting allocator on) and, when the benchmark uses more than one thread,
  a `--threads 1` pass, and reports the per-layer metrics of the traced one.

Every run checks the program's outputs (see NOTES.md). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("aware-65k", "ignorant-262k", "engine-4k")
# Set-up repetitions per worker process, so setup_s is a median of several.
SETUP_REPS = {"aware-65k": 3, "ignorant-262k": 1, "engine-4k": 15}
# Instances (seeds) pooled per run. The engine's work depends strongly on
# its seed -- how many emergency passes churn and drift trigger -- so each
# engine-4k run measures the --seed scenario and the one SEED_STRIDE above.
INSTANCES = {"aware-65k": 1, "ignorant-262k": 1, "engine-4k": 2}
SEED_STRIDE = 1_000_000
# Worker threads inside a round, capped by the CPUs this process may use.
# Every deterministic output is identical at any count; the traced run
# checks that against --threads 1.
THREADS = 2
# A run must end within 180 seconds of its build: no worker may run past
# RUN_LIMIT_S after the build, and no timed iteration starts after
# START_DEADLINE_S.
RUN_LIMIT_S = 170.0
START_DEADLINE_S = 100.0
STARTED = None  # set once the worker is built
# Deterministic outputs compared across iterations, thread counts, and
# traced against untraced workers.
DETERMINISTIC = (
    "heavy_before", "heavy_after", "messages", "transfers", "moved_load",
    "moved_within2", "mean_distance", "lbi_messages", "vsa_record_hops",
    "vsa_rounds", "distance_checked", "distance_wrong", "distance_excess_mean",
    "balances", "emergencies", "joins", "crashes", "des_messages",
    "des_retries",
)
# Stand-in for the two distance metrics on workloads that record no
# transfer distances (see NOTES.md).
NOT_MEASURED = 1.0

END_TO_END = [
    # name, unit
    ("setup_s", "s"),
    ("balance_s", "s"),
    ("peak_rss_mb", "MB"),
    ("heavy_resolved", "fraction"),
    ("messages", "count"),
    ("moved_within2", "fraction"),
    ("mean_distance", "hops"),
]

# name, unit, end-to-end metric it feeds, containing layer metric (for
# self time) -- the order of the per-layer report.
PER_LAYER = [
    ("sim.prepare_s", "s", "setup_s", None),
    ("topology.generate_s", "s", "setup_s", "sim.prepare_s"),
    ("topology.landmarks_s", "s", "setup_s", "sim.prepare_s"),
    ("ktree.build_s", "s", "setup_s", None),
    ("ktree.nodes", "count", "setup_s", None),
    ("sim.engine.rounds_s", "s", "balance_s", None),
    ("sim.engine.outside_rounds_s", "s", "balance_s", None),
    ("core.lbi_s", "s", "balance_s", None),
    ("core.aggregate_s", "s", "balance_s", None),
    ("core.vsa_s", "s", "balance_s", None),
    ("core.transfer_s", "s", "balance_s", None),
    ("core.round_other_s", "s", "balance_s", None),
    ("ktree.maintain_s", "s", "balance_s", None),
    ("ktree.repair_s", "s", "balance_s", None),
    ("topology.oracle_rows", "count", "balance_s", None),
    ("topology.row_ms", "ms", "balance_s", None),
    ("topology.oracle_hits", "count", "balance_s", None),
    ("topology.oracle_evictions", "count", "balance_s", None),
    ("core.distance_checked", "count", "failed", None),
    ("core.distance_wrong", "count", "failed,moved_within2,mean_distance", None),
    ("core.distance_excess_mean", "hops", "mean_distance", None),
    ("core.lbi_messages", "count", "messages", None),
    ("core.vsa_record_hops", "count", "messages", None),
    ("core.vsa_rounds", "count", "messages", None),
    ("core.heavy_before", "peers", "heavy_resolved", None),
    ("core.heavy_after", "peers", "heavy_resolved", None),
    ("core.transfers", "count", "messages,heavy_resolved", None),
    ("core.moved_load", "load", "heavy_resolved", None),
    ("core.lbi_alloc_count", "count", "peak_rss_mb", None),
    ("core.lbi_alloc_bytes", "bytes", "peak_rss_mb", None),
    ("core.aggregate_alloc_count", "count", "peak_rss_mb", None),
    ("core.aggregate_alloc_bytes", "bytes", "peak_rss_mb", None),
    ("core.vsa_alloc_count", "count", "peak_rss_mb", None),
    ("core.vsa_alloc_bytes", "bytes", "peak_rss_mb", None),
    ("core.transfer_alloc_count", "count", "peak_rss_mb", None),
    ("core.transfer_alloc_bytes", "bytes", "peak_rss_mb", None),
    ("sim.faults.des_call_s", "s", "balance_s", None),
    ("sim.faults.des_messages", "count", "failed,messages", None),
    ("sim.faults.des_retries", "count", "failed,messages", None),
    ("sim.faults.des_gave_up", "count", "failed", None),
    ("sim.engine.balances", "count", "messages", None),
    ("trace.overhead_s", "s", "none", None),
]
# Per-layer metrics read from a traced worker's deterministic outputs.
LAYER_FROM_DET = {
    "core.distance_checked": "distance_checked",
    "core.distance_wrong": "distance_wrong",
    "core.distance_excess_mean": "distance_excess_mean",
    "core.lbi_messages": "lbi_messages",
    "core.vsa_record_hops": "vsa_record_hops",
    "core.vsa_rounds": "vsa_rounds",
    "core.heavy_before": "heavy_before",
    "core.heavy_after": "heavy_after",
    "core.transfers": "transfers",
    "core.moved_load": "moved_load",
    "sim.faults.des_messages": "des_messages",
    "sim.faults.des_retries": "des_retries",
    "sim.faults.des_gave_up": "des_gave_up",
    "sim.engine.balances": "balances",
}
VOLATILE_NOTE = {
    "topology.oracle_rows": "volatile (a row filled by two threads at once counts twice)",
    "topology.oracle_hits": "volatile (thread interleaving)",
    "topology.oracle_evictions": "volatile (thread interleaving)",
    "core.round_other_s": "unattributed until in-program spans exist",
    "sim.engine.outside_rounds_s": "unattributed until in-program spans exist",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def log(msg):
    print(msg, flush=True)


def run_cmd(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        return ""


def source_digest(root):
    """Content hash of the sources, standing in for a commit outside git."""
    h = hashlib.sha256()
    for top in ("crates", "compat", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix in (".rs", ".toml") and path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root, threads):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (root / ".git").exists():
        commit = run_cmd(["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": run_cmd(["rustc", "--version"]) or "unknown",
        "commit": commit or f"tree:{source_digest(root)}",
        "threads": threads,
    }


def build(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    worker = target / "release" / "perfbench-worker"
    if res.returncode != 0 or not worker.is_file():
        fail("building perfbench-worker failed")
    return target, worker


def elapsed():
    return time.monotonic() - STARTED


def run_worker(worker, workload, seed, threads, setup_reps=1, traced=False):
    cmd = [str(worker), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--setup-reps", str(setup_reps)]
    if traced:
        cmd.append("--traced")
    t = time.monotonic()
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, RUN_LIMIT_S - elapsed()), check=False)
    except subprocess.TimeoutExpired:
        fail(f"worker timed out: {' '.join(cmd)}")
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail(f"worker exited with {res.returncode}: {' '.join(cmd)}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if not out["det"]:
        # The pass itself returned an error: there is nothing to measure.
        fail(f"{workload} seed {seed}: " + "; ".join(c["detail"] for c in out["checks"]))
    out["wall_s"] = time.monotonic() - t
    return out


def det_view(out):
    return {k: out["det"][k] for k in DETERMINISTIC if k in out["det"]}


def compare_det(a, b):
    """Keys present in both whose values differ."""
    return sorted(k for k in a.keys() & b.keys() if a[k] != b[k])


class Verdict:
    def __init__(self):
        self.problems = []

    def check_outputs(self, out, label):
        for c in out["checks"]:
            if not c["ok"]:
                self.problems.append(f"{label}: check {c['name']} failed ({c['detail']})")

    def same(self, a, b, what):
        diff = compare_det(a, b)
        if diff:
            self.problems.append(f"{what}: deterministic outputs differ in {', '.join(diff)}")

    @property
    def correct(self):
        return not self.problems


def digest_store(target, worker, workload, seed, det, verdict):
    """Deterministic outputs must also match every earlier run of this
    binary on the same workload and seed."""
    binary = hashlib.sha256(worker.read_bytes()).hexdigest()[:16]
    path = target / "perfbench-digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{binary}/{workload}/{seed}"
    if key in store:
        verdict.same(store[key], det, "earlier run with this seed")
    else:
        store[key] = det
        path.write_text(json.dumps(store, indent=1, sort_keys=True))


def end_to_end(iters, dets):
    """End-to-end metrics from a run's workers and its instances'
    deterministic outputs."""
    setups = [s for it in iters for s in it["setup_s"]]
    distances = [d for d in dets if "moved_within2" in d]
    return {
        "setup_s": statistics.median(setups),
        "balance_s": statistics.median(it["balance_s"] for it in iters),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iters),
        # Share of the initially heavy peers that are light after the pass
        # (on engine-4k: at the final epoch). NOTES.md says why this, not
        # the raw heavy count, carries the bound.
        "heavy_resolved": 1 - sum(d["heavy_after"] for d in dets)
        / sum(d["heavy_before"] for d in dets),
        "messages": statistics.mean(d["messages"] for d in dets),
        "moved_within2": statistics.mean(d["moved_within2"] for d in distances)
        if distances else NOT_MEASURED,
        "mean_distance": statistics.mean(d["mean_distance"] for d in distances)
        if distances else NOT_MEASURED,
    }


def run_untraced(args, worker, target, verdict):
    # Every instance runs once; then the first repeats until --seconds of
    # workers have been measured.
    seeds = [args.seed + i * SEED_STRIDE for i in range(INSTANCES[args.workload])]
    start = time.monotonic()
    iters, dets = [], {}
    while True:
        seed = seeds[len(iters)] if len(iters) < len(seeds) else args.seed
        it = run_worker(worker, args.workload, seed, args.threads,
                        SETUP_REPS[args.workload])
        iters.append(it)
        verdict.check_outputs(it, f"worker {len(iters)} (seed {seed})")
        if seed in dets:
            verdict.same(dets[seed], det_view(it), f"repeat of seed {seed}")
        else:
            dets[seed] = det_view(it)
        measured = time.monotonic() - start
        if len(iters) >= len(seeds) and (
                measured >= args.seconds or elapsed() + it["wall_s"] > START_DEADLINE_S):
            break
    for seed, det in dets.items():
        digest_store(target, worker, args.workload, seed, det, verdict)
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    values = end_to_end(iters, list(dets.values()))
    units = dict(END_TO_END)

    log(f"workload {args.workload}  seeds {seeds}  workers {len(iters)}  "
        f"setup samples {sum(len(it['setup_s']) for it in iters)}")
    for name, unit in END_TO_END:
        kind = "timed" if unit in ("s", "MB") else "deterministic"
        if name in ("moved_within2", "mean_distance") and values[name] == NOT_MEASURED:
            kind = "not measured on this workload (constant stand-in)"
        log(f"  {name:<14} {values[name]:>16.6f} {unit:<9} {kind}")
    for seed, det in dets.items():
        log(f"  heavy peers    {det['heavy_before']} -> {det['heavy_after']} (seed {seed})")
    log(f"  operations     {failed} failed of {attempted} attempted")
    metrics = {n: {"value": values[n], "unit": units[n]} for n, _ in END_TO_END}
    return attempted, failed, metrics


def self_times(values):
    """Self time of each containing layer metric: its value minus the
    layer metrics it contains."""
    out = {}
    for name, _, _, parent in PER_LAYER:
        if parent:
            out[parent] = out.get(parent, values[parent]) - values[name]
    return out


def run_traced(args, worker, target, verdict):
    plain = run_worker(worker, args.workload, args.seed, args.threads)
    traced = run_worker(worker, args.workload, args.seed, args.threads, traced=True)
    for out, label in ((plain, "untraced"), (traced, "traced")):
        verdict.check_outputs(out, label)
    verdict.same(det_view(plain), det_view(traced), "traced vs untraced")
    digest_store(target, worker, args.workload, args.seed, det_view(plain), verdict)
    # A one-thread pass takes at most `threads` times as long as the plain
    # one; skip it (and say so) rather than overrun the run's time limit.
    if args.threads > 1 and elapsed() + args.threads * plain["wall_s"] < RUN_LIMIT_S - 10:
        single = run_worker(worker, args.workload, args.seed, 1)
        verdict.check_outputs(single, "--threads 1")
        verdict.same(det_view(plain), det_view(single), f"--threads 1 vs --threads {args.threads}")
        log(f"--threads 1 outputs compared with --threads {args.threads}")
    elif args.threads > 1:
        log("--threads 1 comparison skipped: it would not end within the run's time limit")

    values = {name: 0.0 for name, *_ in PER_LAYER}
    values.update(traced["layers"])
    for layer, key in LAYER_FROM_DET.items():
        values[layer] = traced["det"].get(key, 0)
    values["trace.overhead_s"] = traced["balance_s"] - plain["balance_s"]
    selfs = self_times(values)

    log(f"per-layer report: workload {args.workload}  seed {args.seed}  "
        f"traced balance_s {traced['balance_s']:.3f}  untraced {plain['balance_s']:.3f}")
    log(f"  {'metric':<30} {'value':>16} {'unit':<6} {'self':>12}  feeds")
    for name, unit, feeds, _ in PER_LAYER:
        own = f"{selfs[name]:12.4f}" if name in selfs else " " * 12
        note = VOLATILE_NOTE.get(name, "")
        log(f"  {name:<30} {values[name]:>16.4f} {unit:<6} {own}  {feeds}  {note}".rstrip())
    balance = traced["balance_s"]
    own = values["sim.engine.outside_rounds_s" if args.workload == "engine-4k" else "core.round_other_s"]
    log(f"  traced balance_s {balance:.4f} s, self (outside the four phases) {own:.4f} s")
    shares = "  ".join(f"{p} {values[f'core.{p}_s'] / balance:.1%}"
                       for p in ("lbi", "aggregate", "vsa", "transfer"))
    log(f"  share of traced balance_s: {shares}")
    log(f"  trace.overhead_s = {values['trace.overhead_s']:.4f} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    return traced["attempted"], traced["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.threads = min(THREADS, len(os.sched_getaffinity(0)))

    root = HERE.parent
    if not (root / "crates").is_dir():
        fail(f"no workspace sources next to {HERE.name}/; run from a full checkout")
    target, worker = build(root)
    global STARTED
    STARTED = time.monotonic()
    log("host " + json.dumps(fingerprint(root, args.threads), sort_keys=True))

    verdict = Verdict()
    if args.trace:
        attempted, failed, metrics = run_traced(args, worker, target, verdict)
    else:
        attempted, failed, metrics = run_untraced(args, worker, target, verdict)
    for p in verdict.problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": verdict.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
