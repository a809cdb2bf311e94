//! Property-based parity suite for the vectorized scan engine.
//!
//! The bitmap kernels ([`scan_bitmap`] per encoding, the IMCU filter, the
//! parallel executor) must be bit-identical to the scalar reference path
//! (`scan` / [`imadg_imcs::scalar`]) on every input: all six comparison
//! operators, all three encodings, any null density, and any pattern of
//! SMU invalidations. Cases are generated by the offline proptest shim
//! (deterministic seed per test name, no shrinking — the printed case
//! index reproduces).

use std::sync::Arc;

use imadg_common::{ImcsConfig, ObjectId, RedoThreadId, ScnService, TenantId};
use imadg_imcs::encoding::dict::DictStrCu;
use imadg_imcs::encoding::plain::PlainIntCu;
use imadg_imcs::encoding::rle::RleIntCu;
use imadg_imcs::{
    execute, scalar, CmpOp, Filter, ImcsStore, Output, PopulationEngine, Predicate, ScanResult,
    SelBitmap, SnapshotSource,
};
use imadg_redo::LogBuffer;
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use proptest::prelude::*;

const ALL_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn int_pred(op: CmpOp, target: i64) -> Predicate {
    let s = Schema::of(&[("n", ColumnType::Int)]);
    Predicate::new(&s, "n", op, Value::Int(target)).unwrap()
}

/// scan_bitmap must select exactly the rows the scalar `scan` selects.
fn assert_bitmap_parity(
    scan: impl Fn(&Predicate, &mut Vec<u32>),
    scan_bitmap: impl Fn(&Predicate, &mut SelBitmap),
    rows: usize,
    pred: &Predicate,
) {
    let mut reference = Vec::new();
    scan(pred, &mut reference);
    let mut sel = SelBitmap::zeroes(rows);
    scan_bitmap(pred, &mut sel);
    assert_eq!(sel.iter_ones().collect::<Vec<_>>(), reference, "pred {pred:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Plain integer units: both representations (frame-of-reference
    /// packed for narrow ranges, wide i64 otherwise), every operator,
    /// targets both inside and far outside the stored range.
    #[test]
    fn plain_kernel_matches_scalar(
        cells in proptest::collection::vec(
            prop_oneof![
                1 => Just(Value::Null),
                5 => (-40i64..40).prop_map(Value::Int),
                // Wide arm: forces the i64 representation when present.
                1 => prop_oneof![Just(i64::MIN / 2), Just(i64::MAX / 2)].prop_map(Value::Int),
            ],
            0..300,
        ),
        op_idx in 0usize..6,
        target in prop_oneof![
            4 => -45i64..45,
            1 => prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(i64::MIN / 2)],
        ],
    ) {
        let cu = PlainIntCu::build(&cells);
        let pred = int_pred(ALL_OPS[op_idx], target);
        assert_bitmap_parity(
            |p, out| cu.scan(p, out),
            |p, sel| cu.scan_bitmap(p, sel),
            cu.len(),
            &pred,
        );
    }

    /// RLE units: run-structured values (value, run length) with null runs.
    #[test]
    fn rle_kernel_matches_scalar(
        runs in proptest::collection::vec(
            (
                prop_oneof![1 => Just(None), 4 => (-8i64..8).prop_map(Some)],
                1u32..20,
            ),
            0..40,
        ),
        op_idx in 0usize..6,
        target in -10i64..10,
    ) {
        let cells: Vec<Value> = runs
            .iter()
            .flat_map(|(v, len)| {
                let cell = v.map(Value::Int).unwrap_or(Value::Null);
                std::iter::repeat_n(cell, *len as usize)
            })
            .collect();
        let cu = RleIntCu::build(&cells);
        let pred = int_pred(ALL_OPS[op_idx], target);
        assert_bitmap_parity(
            |p, out| cu.scan(p, out),
            |p, sel| cu.scan_bitmap(p, sel),
            cu.len(),
            &pred,
        );
    }

    /// Dictionary string units: targets that may or may not be dictionary
    /// members (code-range remapping has distinct arms for each).
    #[test]
    fn dict_kernel_matches_scalar(
        cells in proptest::collection::vec(
            prop_oneof![
                1 => Just(None),
                5 => "[a-d]{0,3}".prop_map(Some),
            ],
            0..200,
        ),
        op_idx in 0usize..6,
        target in "[a-e]{0,3}",
    ) {
        let values: Vec<Value> = cells
            .iter()
            .map(|c| c.as_deref().map(Value::str).unwrap_or(Value::Null))
            .collect();
        let cu = DictStrCu::build(&values);
        let s = Schema::of(&[("c", ColumnType::Varchar)]);
        let pred = Predicate::new(&s, "c", ALL_OPS[op_idx], Value::str(target)).unwrap();
        assert_bitmap_parity(
            |p, out| cu.scan(p, out),
            |p, sel| cu.scan_bitmap(p, sel),
            cu.len(),
            &pred,
        );
    }
}

const OBJ: ObjectId = ObjectId(1);

struct Fixture {
    txm: TxnManager,
    store: Arc<Store>,
    scns: Arc<ScnService>,
    engine: PopulationEngine,
}

/// Small blocks and 16-row IMCUs so a few hundred rows span many units —
/// per-unit pruning, bypass, and parallel fan-out all engage.
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
    Fixture { txm, store, scns, engine }
}

/// The executor over the fixture's one column store.
fn run(f: &Fixture, filt: &Filter, output: Output, degree: usize) -> ScanResult {
    let stores = [f.engine.imcs().clone()];
    execute(&stores, &f.store, OBJ, filt, output, f.scns.current(), degree, false).unwrap()
}

/// Build a populated table, then invalidate `stale_keys` through real DML
/// (update via the transaction manager + SMU invalidation), leaving the
/// tail `uncovered` rows beyond the population frontier.
fn seeded_fixture(rows: i64, stale_keys: &[i64], uncovered: i64) -> Fixture {
    let f = fixture();
    let mut tx = f.txm.begin(TenantId::DEFAULT);
    for k in 0..rows {
        f.txm
            .insert(
                &mut tx,
                OBJ,
                vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 5))],
            )
            .unwrap();
    }
    f.txm.commit(tx);
    f.engine.run_once().unwrap();
    if !stale_keys.is_empty() {
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        let locs: Vec<_> = stale_keys
            .iter()
            .map(|&k| {
                f.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int((k + 1) % 10)).unwrap()
            })
            .collect();
        let cscn = f.txm.commit(tx);
        for loc in locs {
            f.engine.imcs().invalidate(OBJ, loc, cscn);
        }
    }
    if uncovered > 0 {
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        for k in rows..rows + uncovered {
            f.txm
                .insert(
                    &mut tx,
                    OBJ,
                    vec![Value::Int(k), Value::Int(k % 10), Value::str(format!("c{}", k % 5))],
                )
                .unwrap();
        }
        f.txm.commit(tx);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// End-to-end: vectorized parallel scans against the scalar engine on
    /// the same snapshot, under random SMU invalidation patterns and an
    /// uncovered insert frontier. Rows, order, and stats must all agree
    /// across parallel degrees (determinism), and rows must equal the
    /// scalar result (parity).
    #[test]
    fn scan_parity_under_invalidation(
        stale_keys in proptest::collection::vec(0i64..120, 0..24),
        uncovered in 0i64..30,
        (op_idx, target) in (0usize..6, -1i64..11),
        str_term in prop_oneof![1 => Just(None), 1 => (0i64..5).prop_map(Some)],
    ) {
        let f = seeded_fixture(120, &stale_keys, uncovered);
        let schema = f.store.table(OBJ).unwrap().schema.read().clone();
        let mut filt =
            Filter::of(Predicate::new(&schema, "n1", ALL_OPS[op_idx], Value::Int(target)).unwrap());
        if let Some(s) = str_term {
            filt.terms
                .push(Predicate::eq(&schema, "c1", Value::str(format!("c{s}"))).unwrap());
        }
        let snapshot = f.scns.current();
        let reference = scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &filt, snapshot)
            .unwrap()
            .unwrap();
        let serial = run(&f, &filt, Output::Rows, 1);
        prop_assert_eq!(&serial.rows, &reference.rows, "vectorized vs scalar");
        for degree in [2usize, 4] {
            let par = run(&f, &filt, Output::Rows, degree);
            prop_assert_eq!(&par.rows, &serial.rows, "degree {}", degree);
            prop_assert_eq!(&par.stats, &serial.stats, "degree {}", degree);
        }
    }

    /// Aggregation push-down must fold to the same result at any degree,
    /// and agree with an aggregate computed from the scalar engine's rows.
    #[test]
    fn aggregate_parity_under_invalidation(
        stale_keys in proptest::collection::vec(0i64..120, 0..16),
        op_idx in 0usize..6,
        target in 0i64..10,
    ) {
        let f = seeded_fixture(120, &stale_keys, 0);
        let schema = f.store.table(OBJ).unwrap().schema.read().clone();
        let filt =
            Filter::of(Predicate::new(&schema, "n1", ALL_OPS[op_idx], Value::Int(target)).unwrap());
        let snapshot = f.scns.current();
        let ordinal = schema.ordinal("n1").unwrap();
        let serial = run(&f, &filt, Output::Aggregate(ordinal), 1).aggregates.unwrap();
        // Reference: fold the scalar engine's row images.
        let reference = scalar::scan_scalar(f.engine.imcs(), &f.store, OBJ, &filt, snapshot)
            .unwrap()
            .unwrap();
        let ints: Vec<i64> = reference.rows.iter().filter_map(|row| row[ordinal].as_int()).collect();
        prop_assert_eq!(serial.count, reference.rows.len() as u64);
        prop_assert_eq!(serial.sum, ints.iter().map(|&x| i128::from(x)).sum::<i128>());
        prop_assert_eq!(serial.min, ints.iter().min().map(|&x| Value::Int(x)));
        prop_assert_eq!(serial.max, ints.iter().max().map(|&x| Value::Int(x)));
        for degree in [2usize, 4] {
            let par = run(&f, &filt, Output::Aggregate(ordinal), degree).aggregates.unwrap();
            prop_assert_eq!(&par, &serial, "degree {}", degree);
        }
    }
}
