//! Property suite: repopulating a unit with [`Imcu::rebuild`] must yield
//! exactly the unit [`Imcu::build_with_expressions`] builds over the same
//! blocks at the same snapshot — same row locations, same row images,
//! same per-column aggregates and storage-index bounds, and byte-identical
//! column encodings — whether the rebuild shared columns or fell back to a
//! full encode. Histories mix updates (including rewrites of equal
//! values), inserts, deletes, an `AddColumn`, and a registered in-memory
//! expression, over two consecutive rebuilds so a rebuilt unit's own
//! images are exercised too. Cases come from the offline proptest shim
//! (deterministic seed per test name, no shrinking).

use std::sync::Arc;

use imadg_common::{Dba, ObjectId, RedoThreadId, Scn, ScnService, TenantId};
use imadg_imcs::{Expr, ImExpression, Imcu};
use imadg_redo::{DdlKind, LogBuffer};
use imadg_storage::{ColumnType, DbaAllocator, Schema, Store, TableSpec, Value};
use imadg_txn::{InMemoryRegistry, LockTable, TxnIdService, TxnManager};
use proptest::prelude::*;

const OBJ: ObjectId = ObjectId(1);
/// Not a multiple of the block size: the last covered block has free
/// slots, so inserts land inside the unit's range.
const ROWS: i64 = 60;

struct Fixture {
    txm: TxnManager,
    store: Arc<Store>,
    scns: Arc<ScnService>,
    next_key: i64,
}

/// 60 rows in 8-row blocks, every column at a small value range so
/// updates often rewrite a cell with the value it already holds.
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
            ("n2", ColumnType::Int),
            ("c1", ColumnType::Varchar),
        ]),
        key_ordinal: 0,
        rows_per_block: 8,
    })
    .unwrap();
    let mut f = Fixture { txm, store, scns, next_key: 0 };
    for _ in 0..ROWS {
        f.insert();
    }
    f
}

impl Fixture {
    fn schema(&self) -> Schema {
        self.store.table(OBJ).unwrap().schema.read().clone()
    }

    fn insert(&mut self) {
        let k = self.next_key;
        self.next_key += 1;
        let mut tx = self.txm.begin(TenantId::DEFAULT);
        let mut row = vec![
            Value::Int(k),
            Value::Int(k % 3),
            Value::Int(k % 5),
            Value::str(format!("c{}", k % 4)),
        ];
        row.resize(self.schema().arity(), Value::Null);
        self.txm.insert(&mut tx, OBJ, row).unwrap();
        self.txm.commit(tx);
    }

    /// One committed operation of the history. `kind` picks it: mostly
    /// single-column updates, some inserts and deletes. Operations on a
    /// deleted key are skipped.
    fn apply(&mut self, (kind, key, v): (u32, i64, i64)) {
        if kind >= 90 {
            return self.insert();
        }
        let mut tx = self.txm.begin(TenantId::DEFAULT);
        let done = if kind >= 80 {
            self.txm.delete_by_key(&mut tx, OBJ, key)
        } else {
            let added = self.schema().ordinal("n3").is_ok();
            let (col, value) = match kind % 4 {
                0 => ("n1", Value::Int(v)),
                1 => ("n2", Value::Int(v)),
                2 => ("c1", Value::str(format!("c{v}"))),
                _ => (if added { "n3" } else { "n1" }, Value::Int(v)),
            };
            self.txm.update_column_by_key(&mut tx, OBJ, key, col, value)
        };
        match done {
            Ok(_) => {
                self.txm.commit(tx);
            }
            Err(_) => self.txm.abort(tx),
        }
    }

    fn add_column(&self) {
        let ddl = DdlKind::AddColumn { name: "n3".into(), ctype: ColumnType::Int };
        self.txm.execute_ddl(OBJ, TenantId::DEFAULT, ddl).unwrap();
    }

    fn build(&self, dbas: &[Dba], snapshot: Scn, exprs: &[ImExpression]) -> Imcu {
        Imcu::build_with_expressions(
            &self.store,
            OBJ,
            TenantId::DEFAULT,
            dbas.to_vec(),
            snapshot,
            &self.schema(),
            exprs,
        )
        .unwrap()
    }
}

fn expression() -> ImExpression {
    ImExpression::new("n1_plus_n2", Expr::Add(Box::new(Expr::Column(1)), Box::new(Expr::Column(2))))
}

fn column_bytes(imcu: &Imcu, ord: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    imcu.column(ord).unwrap().to_bytes(&mut buf);
    buf
}

fn assert_same_unit(got: &Imcu, want: &Imcu) {
    assert_eq!(got.snapshot, want.snapshot);
    assert_eq!(got.schema_version, want.schema_version);
    assert_eq!(got.dbas, want.dbas);
    assert_eq!(got.rows(), want.rows(), "row count");
    assert_eq!(got.column_count(), want.column_count(), "column count");
    for rn in 0..want.rows() as u32 {
        assert_eq!(got.loc(rn), want.loc(rn), "loc of row {rn}");
        assert_eq!(got.rownum(want.loc(rn)), Some(rn));
        assert_eq!(got.materialize(rn), want.materialize(rn), "image of row {rn}");
    }
    for ord in 0..want.column_count() {
        assert_eq!(got.column_agg(ord), want.column_agg(ord), "aggregates of column {ord}");
        assert_eq!(
            got.storage_index.summary(ord),
            want.storage_index.summary(ord),
            "min/max of column {ord}"
        );
        assert_eq!(column_bytes(got, ord), column_bytes(want, ord), "encoding of column {ord}");
    }
    assert_eq!(got.virtual_ordinal("n1_plus_n2"), want.virtual_ordinal("n1_plus_n2"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Two rounds of history, each followed by a rebuild of the previous
    /// unit that must match a fresh build at the same snapshot.
    #[test]
    fn rebuild_matches_full_build(
        first in proptest::collection::vec((0u32..100, 0i64..ROWS, 0i64..4), 0..24),
        second in proptest::collection::vec((0u32..100, 0i64..ROWS, 0i64..4), 0..24),
        add_column_between in 0u8..2,
        expression_from in 0u8..3,
    ) {
        let mut f = fixture();
        let dbas = f.store.block_dbas(OBJ).unwrap();
        let exprs_at = |round: u8| {
            if expression_from != 0 && round >= expression_from { vec![expression()] } else { vec![] }
        };
        let mut unit = f.build(&dbas, f.scns.current(), &exprs_at(0));
        for (round, history) in [(1u8, &first), (2u8, &second)] {
            for &op in history {
                f.apply(op);
            }
            if round == 2 && add_column_between == 1 {
                f.add_column();
                f.apply((3, 0, 1)); // touch the new column on one row
            }
            let snapshot = f.scns.current();
            let exprs = exprs_at(round);
            let rebuilt = unit.rebuild(&f.store, snapshot, &f.schema(), &exprs).unwrap();
            assert_same_unit(&rebuilt, &f.build(&dbas, snapshot, &exprs));
            unit = rebuilt;
        }
    }

    /// Update-only histories share every base column nobody wrote, with
    /// or without a registered expression (whose column is re-evaluated).
    #[test]
    fn update_only_rebuild_shares_unwritten_columns(
        keys in proptest::collection::vec(0i64..ROWS, 1..ROWS as usize),
        value in 0i64..4,
        with_expression in 0u8..2,
    ) {
        let f = fixture();
        let dbas = f.store.block_dbas(OBJ).unwrap();
        let exprs = if with_expression == 1 { vec![expression()] } else { vec![] };
        let unit = f.build(&dbas, f.scns.current(), &exprs);
        let mut tx = f.txm.begin(TenantId::DEFAULT);
        for &k in &keys {
            f.txm.update_column_by_key(&mut tx, OBJ, k, "n1", Value::Int(value)).unwrap();
        }
        f.txm.commit(tx);
        let snapshot = f.scns.current();
        let rebuilt = unit.rebuild(&f.store, snapshot, &f.schema(), &exprs).unwrap();
        assert_same_unit(&rebuilt, &f.build(&dbas, snapshot, &exprs));
        let n1_changed = keys.iter().any(|&k| k % 3 != value);
        let expect_shared = if n1_changed { 3 } else { 4 };
        prop_assert_eq!(rebuilt.columns_shared_with(&unit), expect_shared);
    }

    /// Deletes plus as many inserts keep the row count but move rows
    /// within the unit's blocks (the tail block has free slots); the
    /// rebuild must not mistake that for an unchanged row set.
    #[test]
    fn equal_count_row_set_change(
        deleted in proptest::collection::vec(ROWS - 8..ROWS, 1..4),
        updates in proptest::collection::vec((0u32..80, 0i64..ROWS, 0i64..4), 0..8),
    ) {
        let mut f = fixture();
        let dbas = f.store.block_dbas(OBJ).unwrap();
        let unit = f.build(&dbas, f.scns.current(), &[]);
        let mut deleted = deleted;
        deleted.sort_unstable();
        deleted.dedup();
        for &k in &deleted {
            f.apply((80, k, 0));
            f.insert();
        }
        for &op in &updates {
            f.apply(op);
        }
        let snapshot = f.scns.current();
        let rebuilt = unit.rebuild(&f.store, snapshot, &f.schema(), &[]).unwrap();
        prop_assert_eq!(rebuilt.rows(), unit.rows());
        assert_same_unit(&rebuilt, &f.build(&dbas, snapshot, &[]));
    }
}
