#!/usr/bin/env bash
# Tier-1 CI gate. Fully offline: all dependencies are vendored under
# third_party/, so this runs with no network access.
#
#   scripts/ci.sh            run the full gate
#   scripts/ci.sh --fast     skip the release build (fmt + clippy + tests)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

# Scheduler gates, run explicitly (and by name) even though --workspace
# already includes them: a pinned-seed interleaving stress of the full
# pipeline (P1/P2/P5 + determinism + failure surfacing) and a threaded
# smoke (start → burst → drain → clean shutdown, no leaked threads).
echo "==> interleaving stress (pinned seeds)"
cargo test -p imadg-db --test interleavings -q

echo "==> threaded smoke (start/burst/drain/shutdown)"
cargo test -p imadg-db --test threaded_smoke -q

# Transport chaos gate: 16 pinned seeds of frame drop/duplicate/reorder/
# partition on the framed redo link, P1/P2/P5 at every cut, every gap
# NAK-resolved at quiesce, plus the acceptance scenario (5% drop + 2%
# duplicate + reorder 8 converging to the clean run's final state).
echo "==> transport chaos (pinned seeds, framed link + fault injection)"
cargo test -p imadg-db --test chaos_transport -q

# Reader-farm gate: the 16-seed multi-standby matrix (2–3 member farms,
# one faulted fan-out lane; per-member gap accounting closes, faults stay
# lane-local, the laggard never blocks fresh members' QuerySCN), router
# determinism under the step scheduler, and promotion under fan-out with
# zero committed-transaction loss.
echo "==> reader farm (multi-standby chaos matrix + router determinism)"
cargo test -p imadg-db --test chaos_transport farm -q
cargo test -p imadg-db --test chaos_transport router -q
cargo test -p imadg-db --test chaos_transport promotion_under_fanout -q

# TCP-loopback smoke: the same protocol over a real socket. Sandboxes
# without loopback sockets skip gracefully — each test detects the failed
# bind, prints a visible NOTICE, and passes — while real protocol bugs
# over a working socket still fail the gate.
echo "==> TCP loopback smoke (self-skips with a notice if sockets unavailable)"
cargo test -p imadg-net tcp -q
cargo test -p imadg-db --test chaos_transport tcp_loopback -q

# Durability gate: the crash-point matrix (restart from disk only, must
# converge bit-identically to an uncrashed twin), whole-log replay,
# double crash, and 16 pinned seeds of promotion under the acceptance
# fault mix. Uses per-run directories under $TMPDIR; each test removes
# its own directory on drop, and stale ones from killed runs are swept
# here first.
echo "==> durability gate (crash-point matrix + promotion under chaos)"
rm -rf "${TMPDIR:-/tmp}"/imadg-twin-* "${TMPDIR:-/tmp}"/imadg-crash-* \
    "${TMPDIR:-/tmp}"/imadg-replay-* "${TMPDIR:-/tmp}"/imadg-span-* \
    "${TMPDIR:-/tmp}"/imadg-double-* "${TMPDIR:-/tmp}"/imadg-promo-* \
    "${TMPDIR:-/tmp}"/imadg-roles-*
cargo test -p imadg-db --test crash_recovery -q

# Scan-engine parity gate: the vectorized bitmap kernels must be
# bit-identical to the scalar reference engine (ops × encodings × null
# densities × SMU invalidation patterns), and parallel degrees must be
# invisible to results.
echo "==> kernel parity (vectorized vs scalar reference)"
cargo test -p imadg-imcs --test kernel_parity -q

# One-executor gate: an expression-filtered aggregate folds only the rows
# the expression selects. Row scans and aggregates share one executor, so
# a predicate dropped on one query shape shows up here.
echo "==> expression aggregate (one executor for rows and aggregates)"
cargo test -p imadg --test features expression_aggregate_counts_only_matching_rows -q

# Repopulation parity gate: a rebuild that shares untouched columns must
# produce exactly the unit a full build at the same snapshot produces —
# rows, aggregates, min/max, and byte-identical encodings — under random
# update/insert/delete histories, AddColumn, and in-memory expressions.
echo "==> rebuild parity (shared-column rebuild vs full build)"
cargo test -p imadg-imcs --test rebuild_parity -q

# One-SMU gate: a row whose changes straddle a pending→hot swap, an
# eviction and recall, or a restart whose replay spans several population
# passes is one stale location, fetched once and never served stale.
echo "==> one stale location per row (swap, recall, restart)"
cargo test -p imadg-imcs --lib row_changed_across_pending_to_hot_swap_is_fetched_once -q
cargo test -p imadg-imcs --lib same_key_journaled_across_eviction_and_recall_is_served_once -q
cargo test -p imadg-db --test crash_recovery restart_spanning_drains_serves_no_stale_rows -q

# Format gate: a Data frame, a WAL segment and a cold columnar file must
# encode to their pinned bytes. All three share one length/CRC envelope;
# a drift in it, or in any field layout, would strand every WAL segment
# and cold file already on disk.
echo "==> format golden bytes (wire frame, WAL segment, cold file)"
cargo test -p imadg-net --test format_golden -q

# Cold-tier gate: the evict → scan-from-disk → recall round-trip must be
# value-identical to the always-hot scalar oracle across encodings, null
# densities, and journaled DML on both sides of the eviction; torn files
# must degrade to the row-store bypass without panicking. Plus the
# pinned restart-from-cold-tier scenario (instant re-registration +
# per-unit absorption of the re-mined log) from the durability suite.
echo "==> cold-tier round-trip (proptests + restart from cold files)"
rm -rf "${TMPDIR:-/tmp}"/imadg-coldprop-*
cargo test -p imadg-imcs --test cold_roundtrip -q
cargo test -p imadg-db --test crash_recovery restart_repopulates_from_cold_tier -q

# One-apply-crate gate: every invalidation reaches its flush target while
# the published QuerySCN is still below its commit SCN (the coordinator
# flushes before it publishes), and the baseline standby with DBIM-on-ADG
# off (no mining, no flush) still answers scans from the row store.
echo "==> flush before publish + DBIM-on-ADG-off baseline"
cargo test -p imadg-recovery --lib flush_lands_before_publish -q
cargo test -p imadg-db --test e2e without_dbim_standby_scans_row_store -q

if [[ "$fast" == 0 ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release -q

    # Bench-smoke gate: a tiny-scale bench_scan run must produce a
    # schema-valid BENCH document, and the checked-in trajectory
    # documents must still validate. Ratios are NOT asserted here — at
    # smoke scale on a shared box they are noise; the gate catches
    # schema drift and malformed emitters.
    echo "==> bench smoke (tiny bench_scan run + schema validation)"
    smoke_out="$(mktemp)"
    IMADG_BENCH_ROWS=4000 IMADG_BENCH_ITERS=3 IMADG_BENCH_OUT="$smoke_out" \
        ./target/release/bench_scan >/dev/null
    ./target/release/bench_scan --validate "$smoke_out"
    rm -f "$smoke_out"
    # Recovery-smoke gate: a tiny exp_recovery run (real on-disk wal +
    # restart + promotion) must converge with zero committed loss and
    # emit a schema-valid recovery document.
    echo "==> recovery smoke (tiny exp_recovery run + schema validation)"
    rec_out="$(mktemp)"
    IMADG_BENCH_ROWS=2000 IMADG_BENCH_OUT="$rec_out" \
        ./target/release/exp_recovery >/dev/null
    ./target/release/bench_scan --validate "$rec_out"
    rm -f "$rec_out"

    # Reader-farm smoke gate: a tiny exp_readerfarm run (1/2/4-standby
    # fan-out with routed, staleness-bounded scans) must emit a
    # schema-valid readerfarm document — the schema itself enforces the
    # ≥1.7× aggregate offloaded-throughput scaling floor from the
    # smallest to the largest farm.
    echo "==> reader-farm smoke (exp_readerfarm --smoke + schema validation)"
    farm_out="$(mktemp)"
    IMADG_BENCH_OUT="$farm_out" ./target/release/exp_readerfarm --smoke >/dev/null
    ./target/release/bench_scan --validate "$farm_out"
    rm -f "$farm_out"

    # Tier smoke gate: a tiny exp_tier run (budget sweep + cold-vs-rescan
    # restart race over a real durable cluster) must emit a schema-valid
    # tier document — the schema enforces the ≥50% footer-pruning floor
    # on the selective predicate and that the cold-tier restart beats the
    # wiped-tier row-store re-scan.
    echo "==> tier smoke (exp_tier --smoke + schema validation)"
    tier_out="$(mktemp)"
    IMADG_BENCH_OUT="$tier_out" ./target/release/exp_tier --smoke >/dev/null
    ./target/release/bench_scan --validate "$tier_out"
    rm -f "$tier_out"

    # Checked-in trajectory documents: discovery mode validates every
    # BENCH_*.json in the repo root and fails on unknown or malformed
    # families, so a new emitter can't land without a validating schema.
    ./target/release/bench_scan --validate

    # Staleness trajectory fields: the OLTAP and recovery documents must
    # carry the standby's commit-to-queryable percentiles (the schema
    # validator enforces their shape; this catches docs regenerated by an
    # emitter that silently dropped them).
    echo "==> staleness fields present in BENCH docs"
    for doc in BENCH_oltap.json BENCH_recovery.json; do
        grep -q '"staleness_p50_us"' "$doc" && grep -q '"staleness_p99_us"' "$doc" \
            || { echo "ERROR: $doc missing staleness percentiles" >&2; exit 1; }
    done

    # Metrics exposition gate: both export formats from a live two-role
    # deployment must validate — every Prometheus sample line parses with
    # finite non-negative values, every JSONL record round-trips, no
    # histogram bucket is negative or NaN.
    echo "==> metrics exposition (metrics_dump --validate)"
    ./target/release/metrics_dump --validate >/dev/null
fi

echo "CI gate passed."
