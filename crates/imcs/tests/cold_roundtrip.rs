//! Property-based round-trip suite for the cold columnar tier.
//!
//! The full eviction lifecycle — build an IMCU, serialize it to an
//! `.imcf` file, evict, scan from disk, recall back to memory — must be
//! bit-identical to the always-hot scalar oracle on every input: all
//! encodings the population engine picks (dictionary, frame-of-reference,
//! RLE, wide plain), any null density, any pattern of SMU invalidations
//! applied before eviction (repopulated away) and after eviction
//! (journaled against the cold placeholder). Cases come from the offline
//! proptest shim (deterministic seed per test name, no shrinking).
//!
//! A second property drives torn-file corruption: truncating a cold file
//! at an arbitrary byte must degrade that unit to the row-store bypass —
//! same rows, no panic — and the next tier pass must quarantine the file.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use imadg_common::metrics::TierMetrics;
use imadg_common::{ImcsConfig, ObjectId, RedoThreadId, ScnService, TenantId};
use imadg_imcs::{
    execute, scalar, Aggregates, CmpOp, ColdTier, Filter, ImcsStore, Output, PopulationEngine,
    Predicate, ScanResult, SnapshotSource,
};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use proptest::prelude::*;

const OBJ: ObjectId = ObjectId(1);
const ALL_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Monotonic tag so every proptest case gets its own tier directory.
static CASE: AtomicUsize = AtomicUsize::new(0);

struct Fixture {
    txm: TxnManager,
    store: Arc<Store>,
    scns: Arc<ScnService>,
    engine: PopulationEngine,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Small blocks and 16-row IMCUs so a hundred rows span several cold
/// files; `repopulate_min_scn_gap` of zero lets pre-eviction DML be
/// absorbed by a rebuild, which is what makes the units evictable.
fn fixture() -> Fixture {
    let store = Arc::new(Store::new());
    let scns = Arc::new(ScnService::new());
    let txm = TxnManager::new(
        store.clone(),
        scns.clone(),
        Arc::new(LogBuffer::new(RedoThreadId(1))),
        Arc::new(TxnIdService::new()),
        Arc::new(LockTable::new()),
        Arc::new(InMemoryRegistry::new()),
        Arc::new(DbaAllocator::default()),
    );
    txm.create_table(TableSpec {
        id: OBJ,
        name: "t".into(),
        tenant: TenantId::DEFAULT,
        schema: Schema::of(&[
            ("id", ColumnType::Int),
            ("n1", ColumnType::Int),
            ("c1", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 8,
    })
    .unwrap();
    let engine = PopulationEngine::new(
        store.clone(),
        Arc::new(ImcsStore::new()),
        SnapshotSource::Primary(scns.clone()),
        ImcsConfig { imcu_max_rows: 16, repopulate_min_scn_gap: 0, ..Default::default() },
    )
    .unwrap();
    engine.enable(OBJ);
    let dir = std::env::temp_dir().join(format!(
        "imadg-coldprop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Fixture { txm, store, scns, engine, dir }
}

/// A tier engine over this fixture's directory at the given hot budget.
fn tier(f: &Fixture, budget: usize) -> ColdTier {
    ColdTier::new(
        f.store.clone(),
        f.engine.imcs().clone(),
        SnapshotSource::Primary(f.scns.clone()),
        ImcsConfig {
            imcu_max_rows: 16,
            repopulate_min_scn_gap: 0,
            memory_budget_bytes: budget,
            ..Default::default()
        },
        f.dir.clone(),
        Arc::new(TierMetrics::default()),
    )
}

/// Apply one committed update per key (mod `rows`) and route the
/// invalidations, mirroring what the mining + flush pipeline does.
fn invalidate_keys(f: &Fixture, keys: &[i64], rows: i64) {
    if keys.is_empty() || rows == 0 {
        return;
    }
    let mut tx = f.txm.begin(TenantId::DEFAULT);
    let locs: Vec<_> = keys
        .iter()
        .map(|&k| {
            let key = k.rem_euclid(rows);
            f.txm.update_column_by_key(&mut tx, OBJ, key, "n1", Value::Int(key % 7)).unwrap()
        })
        .collect();
    let cscn = f.txm.commit(tx);
    for loc in locs {
        f.engine.imcs().invalidate(OBJ, loc, cscn);
    }
}

/// Insert the generated cells (id is the running key; n1 and c1 carry the
/// generated null patterns), populate, and absorb `pre_stale` DML so every
/// unit is clean and evictable.
fn seeded(cells: &[(Option<i64>, Option<String>)], pre_stale: &[i64]) -> Fixture {
    let f = fixture();
    let mut tx = f.txm.begin(TenantId::DEFAULT);
    for (k, (n1, c1)) in cells.iter().enumerate() {
        f.txm
            .insert(
                &mut tx,
                OBJ,
                vec![
                    Value::Int(k as i64),
                    n1.map(Value::Int).unwrap_or(Value::Null),
                    c1.as_deref().map(Value::str).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
    }
    f.txm.commit(tx);
    f.engine.run_until_idle().unwrap();
    invalidate_keys(&f, pre_stale, cells.len() as i64);
    // Rebuild the stale units at the new snapshot: staleness drops to
    // zero, which is what makes them eviction candidates again.
    f.engine.run_until_idle().unwrap();
    f
}

/// Canonical row order. The scan contract fixes per-unit determinism, not
/// a global order — a pending unit bypasses in DBA order while a hot or
/// cold unit emits valid rows first and journaled fallbacks last — so
/// comparisons key on the unique `id` column. Values are still compared
/// bit-for-bit.
fn by_key(mut rows: Vec<imadg_storage::Row>) -> Vec<imadg_storage::Row> {
    rows.sort_by_key(|r| match *r.get(0) {
        Value::Int(i) => i,
        _ => i64::MAX,
    });
    rows
}

/// The always-hot oracle: the scalar engine at the same snapshot (cold
/// pending units bypass to the row store there, so it is correct whether
/// or not eviction has happened).
fn oracle(f: &Fixture, filt: &Filter, at: imadg_common::Scn) -> Vec<imadg_storage::Row> {
    by_key(scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, filt, at).unwrap().unwrap().rows)
}

/// The executor over the fixture's one column store.
fn run(f: &Fixture, filt: &Filter, output: Output, at: imadg_common::Scn) -> ScanResult {
    let stores = [f.engine.imcs().clone()];
    execute(&stores, &f.store, OBJ, filt, output, at, 1, false).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Build → serialize → evict → scan-from-disk → recall → scan again:
    /// every step bit-identical to the always-hot scalar oracle, across
    /// encodings × null densities × SMU invalidation patterns applied on
    /// both sides of the eviction.
    #[test]
    fn cold_roundtrip_matches_hot_oracle(
        cells in proptest::collection::vec(
            (
                prop_oneof![
                    1 => Just(None),
                    4 => (-20i64..20).prop_map(Some),
                    1 => Just(Some(i64::MAX / 3)), // wide arm: forces plain i64
                ],
                prop_oneof![
                    1 => Just(None),
                    4 => "[a-c]{0,2}".prop_map(Some),
                ],
            ),
            24..120,
        ),
        pre_stale in proptest::collection::vec(0i64..120, 0..20),
        post_stale in proptest::collection::vec(0i64..120, 0..20),
        (op_idx, target) in (0usize..6, -25i64..25),
    ) {
        let f = seeded(&cells, &pre_stale);
        let rows = cells.len() as i64;

        // Evict everything the one-byte budget can push out.
        let evicted = tier(&f, 1).run_until_idle().unwrap().evicted;
        prop_assert!(evicted > 0, "nothing evicted from {} rows", rows);

        // Journaled DML against the now-cold placeholders.
        invalidate_keys(&f, &post_stale, rows);
        let at = f.scns.current();

        let schema = f.store.table(OBJ).unwrap().schema.read().clone();
        let filt =
            Filter::of(Predicate::new(&schema, "n1", ALL_OPS[op_idx], Value::Int(target)).unwrap());
        let all = Filter::all();

        // Cold scans: filtered and full, both against the scalar oracle.
        let want_filtered = oracle(&f, &filt, at);
        let got_filtered = run(&f, &filt, Output::Rows, at);
        prop_assert_eq!(by_key(got_filtered.rows), want_filtered.clone(), "filtered cold scan diverged");
        let want_all = oracle(&f, &all, at);
        let got_all = run(&f, &all, Output::Rows, at);
        prop_assert_eq!(by_key(got_all.rows), want_all, "full cold scan diverged");
        prop_assert_eq!(got_all.stats.cold_read_errors, 0usize);
        prop_assert!(
            got_all.stats.cold_read_units > 0,
            "full scan must read the evicted units"
        );

        // Cold aggregates of n1 — footer pushdown or on-disk folding under
        // the journal — against the oracle's rows, folded by hand.
        for (filt, want) in [(&filt, &want_filtered), (&all, &want_all)] {
            let ints: Vec<i64> = want.iter().filter_map(|r| r.get(1).as_int()).collect();
            let hand = Aggregates {
                count: want.len() as u64,
                non_null: ints.len() as u64,
                sum: ints.iter().map(|&x| i128::from(x)).sum(),
                min: ints.iter().min().map(|&x| Value::Int(x)),
                max: ints.iter().max().map(|&x| Value::Int(x)),
            };
            let got = run(&f, filt, Output::Aggregate(1), at).aggregates.unwrap();
            prop_assert_eq!(got, hand, "cold aggregate of n1 diverged");
        }

        // Recall: an unconstrained tier pulls every recently-read cold
        // unit hot again. The first pass may re-compact journal-heavy
        // units — swapping in fresh cold state with a drained read
        // counter — so touch every survivor with a scan and run again.
        let rt = tier(&f, 0);
        let mut recalled = rt.run_until_idle().unwrap().recalled;
        let _ = run(&f, &all, Output::Rows, at);
        recalled += rt.run_until_idle().unwrap().recalled;
        prop_assert!(recalled > 0, "nothing recalled");
        let got = run(&f, &filt, Output::Rows, at);
        let errors = got.stats.cold_read_errors;
        prop_assert_eq!(by_key(got.rows), want_filtered, "recalled scan diverged");
        prop_assert_eq!(errors, 0usize);
    }

    /// Torn files: truncating one cold file anywhere — header, pages,
    /// footer — must not panic and must not change any scan result; the
    /// unit silently degrades to the row-store bypass and the next tier
    /// pass quarantines the file.
    #[test]
    fn torn_cold_file_degrades_to_row_store(
        cells in proptest::collection::vec(
            ((-20i64..20).prop_map(Some), "[a-c]{0,2}".prop_map(Some)),
            32..96,
        ),
        victim_idx in 0usize..64,
        keep_pct in 1u64..98,
    ) {
        let f = seeded(&cells, &[]);
        let evicted = tier(&f, 1).run_until_idle().unwrap().evicted;
        prop_assert!(evicted > 0);

        // Tear one file at a case-chosen byte (footer, page, or header).
        let mut files: Vec<PathBuf> = std::fs::read_dir(&f.dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        let victim = &files[victim_idx % files.len()];
        let bytes = std::fs::read(victim).unwrap();
        let keep = ((bytes.len() as u64 * keep_pct / 100) as usize).min(bytes.len() - 1);
        std::fs::write(victim, &bytes[..keep]).unwrap();

        let at = f.scns.current();
        let all = Filter::all();
        let want = oracle(&f, &all, at);
        let got = run(&f, &all, Output::Rows, at);
        let errors = got.stats.cold_read_errors;
        prop_assert_eq!(by_key(got.rows), want.clone(), "torn file changed the scan result");
        prop_assert!(errors >= 1, "the torn unit must be counted");

        // The next tier pass quarantines the torn file instead of
        // recalling it; scans keep serving from the row store.
        tier(&f, 0).run_until_idle().unwrap();
        let again = run(&f, &all, Output::Rows, at);
        prop_assert_eq!(by_key(again.rows), want, "post-quarantine scan diverged");
    }
}
