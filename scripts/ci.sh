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
# determinism under the step scheduler, promotion under fan-out with
# zero committed-transaction loss, and a restarted lane's Hello re-served
# to that lane alone.
echo "==> reader farm (multi-standby chaos matrix + router determinism)"
cargo test -p imadg-db --test chaos_transport farm -q
cargo test -p imadg-db --test chaos_transport router -q
cargo test -p imadg-db --test chaos_transport promotion_under_fanout -q
cargo test -p imadg-net --lib per_lane_nak_is_served_independently -q

# One-quantum gate: a shipper quantum services the link exactly once, so
# a lane that never ACKs is pinged once every `ping_idle_polls` quanta.
echo "==> one shipper quantum services the link once"
cargo test -p imadg-db --test chaos_transport shipper_quantum_services_the_link_once -q

# TCP-loopback smoke: the same protocol over a real socket, converging
# exactly as the framed in-process pipe does. Sandboxes without loopback
# sockets skip gracefully — each test detects the failed bind, prints a
# visible NOTICE, and passes — while real protocol bugs over a working
# socket still fail the gate.
echo "==> TCP loopback smoke (self-skips with a notice if sockets unavailable)"
cargo test -p imadg-net tcp -q
cargo test -p imadg-db --test chaos_transport tcp_loopback -q

# Durability gate: the crash-point matrix (restart from disk only, must
# converge bit-identically to an uncrashed twin), whole-log replay,
# double crash, 16 pinned seeds of promotion under the acceptance fault
# mix, and a single-standby promotion whose zero-lane sender lets `sync`
# return. By name: a range read decodes only the segments it overlaps, a
# damaged archived entry fails the read instead of shortening it, a
# cluster built over surviving redo replays it, a corrupt entry met in
# replay fails `sync` instead of hanging, and a standby refuses a
# snapshot above its QuerySCN (the router sends it to the primary). Uses
# per-run directories under $TMPDIR; each test removes its own directory
# on drop, and stale ones from killed runs are swept here first.
echo "==> durability gate (crash-point matrix + promotion under chaos)"
rm -rf "${TMPDIR:-/tmp}"/imadg-twin-* "${TMPDIR:-/tmp}"/imadg-crash-* \
    "${TMPDIR:-/tmp}"/imadg-replay-* "${TMPDIR:-/tmp}"/imadg-span-* \
    "${TMPDIR:-/tmp}"/imadg-double-* "${TMPDIR:-/tmp}"/imadg-promo-* \
    "${TMPDIR:-/tmp}"/imadg-roles-* "${TMPDIR:-/tmp}"/imadg-frozen-* \
    "${TMPDIR:-/tmp}"/imadg-coldstart-* "${TMPDIR:-/tmp}"/imadg-corruptreplay-* \
    "${TMPDIR:-/tmp}"/imadg-durable-range-* "${TMPDIR:-/tmp}"/imadg-rxreplay-* \
    "${TMPDIR:-/tmp}"/imadg-durable-damaged-*
cargo test -p imadg-db --test crash_recovery -q
cargo test -p imadg-db --test crash_recovery sync_after_single_standby_promotion_returns -q
cargo test -p imadg-redo --lib range_read_opens_only_overlapping_segments -q
cargo test -p imadg-redo --lib damaged_archive_entry_fails_range_read -q
cargo test -p imadg-db --test crash_recovery cold_start_over_surviving_redo_replays_it -q
cargo test -p imadg-db --test crash_recovery corrupt_redo_met_in_replay_surfaces -q
cargo test -p imadg-db --test e2e standby_refuses_a_snapshot_it_has_not_published -q

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
# per-unit absorption of the re-mined log) from the durability suite,
# whose selective predicate must footer-prune at least half the cold units.
echo "==> cold-tier round-trip (proptests + restart from cold files)"
rm -rf "${TMPDIR:-/tmp}"/imadg-coldprop-*
cargo test -p imadg-imcs --test cold_roundtrip -q
cargo test -p imadg-db --test crash_recovery restart_repopulates_from_cold_tier -q

# Cold-restart gate: a restart from the cold tier answers its first full
# scan without building a unit, while the same restart with the tier
# directory wiped rebuilds every unit from the row store.
echo "==> cold restart builds no units (tier kept vs. tier wiped)"
cargo test -p imadg-db --test crash_recovery cold_tier_restart_builds_no_units -q

# Reader-farm offload floor: with a fixed paced scan load per standby and
# a live insert stream, four standbys must offload at least 1.7x the scans
# per second of one. Its own test binary, so the timed runs run alone.
echo "==> reader-farm offload floor (4 standbys >= 1.7x one)"
cargo test -p imadg-db --test reader_farm -q

# Exposition gate: both export formats from a live two-role deployment are
# well formed (finite non-negative Prometheus samples, JSONL records that
# re-serialize byte for byte, no negative or NaN histogram bucket).
echo "==> metrics exposition (Prometheus text + JSONL)"
cargo test -p imadg-db --test metrics_api live_exposition_is_well_formed -q

# Schema gate: the sorted `# TYPE` lines of a fully touched registry equal
# the pinned list, and every stage object in JSONL carries exactly its
# series' leaves — a renamed, dropped or re-kinded metric fails here.
echo "==> metrics exposition schema is stable"
cargo test -p imadg-common --lib exposition_schema_is_stable -q

# Event-log gate: the trace ring stays in JSONL only. Two trace events of
# one stage add no `imadg_trace_` series, and no series is emitted twice.
echo "==> trace ring stays out of the Prometheus exposition"
cargo test -p imadg-common --lib trace_ring_stays_out_of_exposition -q

# JSONL golden gate: the record of a snapshot carrying every JSON-only shape
# (a failure reason with a quote, backslash and newline, a stall, two trace
# events, a two-worker roster, a settled staleness commit) equals its pinned
# bytes, so the walk by declared kind writes what the serde derive wrote.
echo "==> metrics JSONL golden bytes"
cargo test -p imadg-common --lib jsonl_golden -q

# Frozen-member gate: after a promotion, both restarts of the promoted-from
# member refuse with a config error; it stays frozen, answers its
# pre-promotion snapshot, and the router still skips it.
echo "==> restart refuses a frozen (promoted-from) member"
cargo test -p imadg-db --test crash_recovery restart_refuses_a_frozen_member -q

# Stall gate: sync() over a link that never delivers returns an error
# naming the pending side instead of spinning forever.
echo "==> sync() reports a stalled link"
cargo test -p imadg-db --test crash_recovery sync_reports_a_stalled_link -q

# Convergence gate: after the paper's update+insert mix, the standby holds
# exactly the load plus every committed insert.
echo "==> insert mix converges on the standby"
cargo test --test workload_driver insert_mix_grows_the_table_consistently -q

# One-apply-crate gate: every invalidation reaches its flush target while
# the published QuerySCN is still below its commit SCN (the coordinator
# flushes before it publishes), and the baseline standby with DBIM-on-ADG
# off (no mining, no flush) still answers scans from the row store.
echo "==> flush before publish + DBIM-on-ADG-off baseline"
cargo test -p imadg-recovery --lib flush_lands_before_publish -q
cargo test -p imadg-db --test e2e without_dbim_standby_scans_row_store -q

# Primary commit-visibility gate: a primary IMCS query run just before a
# committed location goes stale agrees with the row store at the same
# snapshot, because the column store learns of the commit before the txn
# table makes it visible.
echo "==> primary commit invalidates before it becomes visible"
cargo test -p imadg-db --lib primary_commit_invalidates_before_it_becomes_visible -q

# One-assembly-path gate: a warm restart by farm index rebuilds that
# member alone; its rows survive and the other member does not move.
echo "==> warm restart rebuilds only the indexed farm member"
cargo test -p imadg-db --test e2e warm_restart_rebuilds_only_the_indexed_member -q

if [[ "$fast" == 0 ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release -q
fi

echo "CI gate passed."
