#!/usr/bin/env bash
# Bench-drift gate: re-derives the deterministic metrics of the committed
# BENCH_repro.json (small-scale timing run + fault-injection sweep +
# continuous-operation engine) and fails if any of them changed. Wall-clock and throughput fields are
# machine-dependent and are filtered out before the comparison — the gate
# guards *results* (message counts, completion rates, imbalance, repair
# work), not speed.
#
#   scripts/bench_drift.sh
#
# Expects `cargo build --release` to have run already (CI does this in
# the check job; locally run it first or let this script pay the build).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -x target/release/repro ]]; then
  echo "==> building repro"
  cargo build --release -p proxbal-bench
fi

REPRO="$PWD/target/release/repro"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Re-derive the small-scale timing entry and the fault sweep in a scratch
# directory so the committed file is never touched.
(cd "$WORK" \
  && timeout 900 "$REPRO" --timing --scale small > /dev/null \
  && timeout 900 "$REPRO" --faults 0.1 --scale small > /dev/null \
  && timeout 900 "$REPRO" engine --scale small > /dev/null)

# Strip fields that legitimately vary run-to-run or machine-to-machine.
VOLATILE='"(wall_s|total_wall_s|graphs_per_s|threads|peak_rss_bytes|prepare_wall_s|aware_wall_s|ignorant_wall_s|tree_wall_s|lbi_wall_s|aggregate_wall_s|vsa_wall_s|transfer_wall_s|alloc_count|alloc_bytes|peak_alloc_bytes)"'
filter() {
  python3 -c '
import json, re, sys
volatile = re.compile(sys.argv[2])
def scrub(v):
    if isinstance(v, dict):
        return {k: scrub(x) for k, x in v.items() if not volatile.fullmatch(k)}
    if isinstance(v, list):
        return [scrub(x) for x in v]
    return v
doc = scrub(json.load(open(sys.argv[1])))
json.dump(doc, sys.stdout, indent=2, sort_keys=True)
' "$1" 'wall_s|total_wall_s|graphs_per_s|threads|peak_rss_bytes|prepare_wall_s|aware_wall_s|ignorant_wall_s|tree_wall_s|lbi_wall_s|aggregate_wall_s|vsa_wall_s|transfer_wall_s|alloc_count|alloc_bytes|peak_alloc_bytes'
}

# Compare only the entries the scratch run regenerated (small + faults):
# full, xl and xl2 are too slow for a per-PR gate and are covered by nightly
# (scripts/check.sh --xl-smoke re-derives the xl2 pipeline at reduced peers).
pick() {
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
sub = {k: doc[k] for k in ("small", "faults", "engine") if k in doc}
json.dump(sub, open(sys.argv[2], "w"), indent=2)
' "$1" "$2"
}

# The xl and xl2 entries are not re-derived here, but their presence and
# shape are still gated: a PR that drops the million-peer entry or strips
# a deterministic field from it fails fast instead of silently un-gating
# the nightly comparison.
python3 -c '
import json, sys
doc = json.load(open("BENCH_repro.json"))
entry = doc.get("xl2")
if entry is None:
    sys.exit("BENCH_repro.json: missing the xl2 (million-peer) entry")
required = ("seed", "peers", "underlay_nodes", "virtual_servers",
            "oracle_capacity", "shards", "lbi_messages",
            "vsa_record_hops", "aware_frac2", "aware_frac10", "heavy_after",
            "alloc_count", "alloc_bytes", "peak_alloc_bytes")
missing = [k for k in required if k not in entry]
if missing:
    sys.exit(f"BENCH_repro.json: xl2 entry lacks deterministic fields: {missing}")
if entry["peers"] != 1048576:
    sys.exit("BENCH_repro.json: xl2 entry is not the 1M-peer run (%s peers)" % entry["peers"])
'

pick BENCH_repro.json "$WORK/committed_sub.json"
pick "$WORK/BENCH_repro.json" "$WORK/fresh_sub.json"
filter "$WORK/committed_sub.json" > "$WORK/committed.txt"
filter "$WORK/fresh_sub.json" > "$WORK/fresh.txt"

if ! diff -u "$WORK/committed.txt" "$WORK/fresh.txt"; then
  echo >&2
  echo "BENCH_repro.json drift: deterministic metrics changed." >&2
  echo "If the change is intentional, regenerate the entries with:" >&2
  echo "  ./target/release/repro --timing --scale small" >&2
  echo "  ./target/release/repro --faults 0.1 --scale small" >&2
  echo "  ./target/release/repro engine --scale small" >&2
  echo "and commit the updated BENCH_repro.json." >&2
  exit 1
fi

echo "==> bench metrics match the committed BENCH_repro.json"
