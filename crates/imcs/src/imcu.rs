//! In-Memory Columnar Units (IMCUs).
//!
//! An IMCU is a read-only columnar snapshot of a DBA range of one object,
//! consistent as of its snapshot SCN (paper §II.B). It never changes after
//! construction; transactional drift is tracked in the accompanying SMU and
//! resolved by the scan engine. Repopulation ([`Imcu::rebuild`]) produces a
//! successor unit that shares every encoded column the changed rows left
//! untouched.

use std::collections::HashMap;
use std::sync::Arc;

use imadg_common::{Dba, ObjectId, Result, Scn, TenantId};
use imadg_storage::{Row, RowLoc, Schema, Store, Value};

use crate::column::ColumnCu;
use crate::expression::ImExpression;
use crate::predicate::Predicate;
use crate::storage_index::StorageIndex;

/// Pre-computed per-column aggregates of one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColAgg {
    /// Sum over non-null integer values (0 for string columns).
    pub sum: i128,
    /// Number of non-null values.
    pub non_null: u64,
}

impl ColAgg {
    fn of(values: &[Value]) -> ColAgg {
        let mut agg = ColAgg::default();
        for v in values {
            match v {
                Value::Int(x) => {
                    agg.sum += i128::from(*x);
                    agg.non_null += 1;
                }
                Value::Str(_) => agg.non_null += 1,
                Value::Null => {}
            }
        }
        agg
    }
}

/// A populated columnar unit.
#[derive(Debug)]
pub struct Imcu {
    /// Owning object.
    pub object: ObjectId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Blocks this unit covers.
    pub dbas: Vec<Dba>,
    /// Snapshot SCN the data is consistent as of (a published QuerySCN on
    /// the standby, §III.A).
    pub snapshot: Scn,
    /// Schema version at population time (§III.G: definition changes drop
    /// the unit).
    pub schema_version: u32,
    /// Row-number → physical location.
    locs: Vec<RowLoc>,
    /// Physical location → row number (SMU reconciliation). Shared with
    /// the successor when a rebuild keeps the row set.
    loc_index: Arc<HashMap<RowLoc, u32>>,
    /// The row-store images this unit encoded, in row-number order — one
    /// `Arc` per row, shared with the block version chains. A rebuild
    /// tells unchanged rows by image identity ([`Row::ptr_eq`]). Memory
    /// bound: an image the row store has since replaced stays alive only
    /// until the next rebuild, so at most the repopulation threshold's
    /// share of rows is held twice. Empty for pending and cold-restored
    /// units, whose next rebuild is a full encode.
    images: Vec<Row>,
    /// Encoded columns: base columns at schema ordinals, then one virtual
    /// column per in-memory expression (paper §V). Shared between a unit
    /// and its rebuilt successor when no changed row touched the column.
    columns: Vec<Arc<ColumnCu>>,
    /// Names of the virtual (expression) columns, in storage order after
    /// the base columns.
    virtual_names: Vec<String>,
    /// Number of base (schema) columns.
    base_arity: usize,
    /// Per-column pre-computed aggregates (aggregation push-down: COUNT /
    /// SUM / non-null counts answered from unit metadata, paper §V
    /// "aggregation push-down ... extended seamlessly to ADG").
    col_aggs: Vec<ColAgg>,
    /// Min/max storage index (covers virtual columns too).
    pub storage_index: StorageIndex,
    /// True until the population worker swaps real data in.
    pending: bool,
}

impl Imcu {
    /// Populate a unit covering `dbas` at `snapshot` by scanning the
    /// row-store with Consistent Read.
    pub fn build(
        store: &Store,
        object: ObjectId,
        tenant: TenantId,
        dbas: Vec<Dba>,
        snapshot: Scn,
        schema: &Schema,
    ) -> Result<Imcu> {
        Imcu::build_with_expressions(store, object, tenant, dbas, snapshot, schema, &[])
    }

    /// Populate a unit, additionally materializing the given in-memory
    /// expressions as encoded virtual columns (paper §V: evaluated once at
    /// population, filtered like any base column at scan).
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_expressions(
        store: &Store,
        object: ObjectId,
        tenant: TenantId,
        dbas: Vec<Dba>,
        snapshot: Scn,
        schema: &Schema,
        exprs: &[ImExpression],
    ) -> Result<Imcu> {
        let (locs, images) = scan_images(store, &dbas, snapshot)?;
        Imcu::encode(object, tenant, dbas, snapshot, schema, exprs, locs, images, None)
    }

    /// Encode the rows `scan_images` read. With a predecessor — a unit
    /// over the same row set and schema version, and the row numbers
    /// whose images differ from its own — a base column no changed row
    /// holds a different cell in is shared with it, aggregates included,
    /// instead of re-encoded. Encodings are a function of the cell
    /// values, so either way the column is the one a full encode yields.
    /// Virtual columns are always evaluated afresh.
    #[allow(clippy::too_many_arguments)]
    fn encode(
        object: ObjectId,
        tenant: TenantId,
        dbas: Vec<Dba>,
        snapshot: Scn,
        schema: &Schema,
        exprs: &[ImExpression],
        locs: Vec<RowLoc>,
        images: Vec<Row>,
        prev: Option<(&Imcu, &[usize])>,
    ) -> Result<Imcu> {
        let mut scratch = Vec::with_capacity(images.len());
        let mut columns = Vec::with_capacity(schema.arity() + exprs.len());
        let mut col_aggs = Vec::with_capacity(schema.arity() + exprs.len());
        for (ord, def) in schema.all_columns().iter().enumerate() {
            if let Some((prev, changed)) = prev {
                if changed.iter().all(|&rn| images[rn].get(ord) == prev.images[rn].get(ord)) {
                    columns.push(prev.columns[ord].clone());
                    col_aggs.push(prev.col_aggs[ord]);
                    continue;
                }
            }
            scratch.clear();
            scratch.extend(images.iter().map(|row| row.get(ord).clone()));
            columns.push(Arc::new(ColumnCu::build(def.ctype, &scratch)));
            col_aggs.push(ColAgg::of(&scratch));
        }
        for e in exprs {
            let ctype = e.expr.result_type(schema)?;
            scratch.clear();
            scratch.extend(images.iter().map(|row| e.expr.eval(row)));
            columns.push(Arc::new(ColumnCu::build(ctype, &scratch)));
            col_aggs.push(ColAgg::of(&scratch));
        }
        let loc_index = match prev {
            Some((prev, _)) => prev.loc_index.clone(),
            None => Arc::new(locs.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect()),
        };
        Ok(Imcu {
            object,
            tenant,
            dbas,
            snapshot,
            schema_version: schema.version(),
            storage_index: StorageIndex::of_columns(&columns),
            locs,
            loc_index,
            images,
            columns,
            virtual_names: exprs.iter().map(|e| e.name.clone()).collect(),
            base_arity: schema.arity(),
            col_aggs,
            pending: false,
        })
    }

    /// Repopulate: the unit [`Imcu::build_with_expressions`] would build
    /// over the same blocks at `snapshot`, sharing every encoded base
    /// column the changed rows left untouched.
    ///
    /// The blocks are re-read from the row store exactly as a build reads
    /// them, so the result never trusts the SMU (a missed invalidation
    /// heals as a full build heals it). A row is unchanged when its image
    /// is the very allocation this unit encoded. Sharing needs the same
    /// row set and schema version; the whole unit is re-encoded when the
    /// row set changed (an insert or delete in a covered block), the
    /// schema version differs, or this unit holds no images (pending or
    /// cold-restored).
    pub fn rebuild(
        &self,
        store: &Store,
        snapshot: Scn,
        schema: &Schema,
        exprs: &[ImExpression],
    ) -> Result<Imcu> {
        let (locs, images) = scan_images(store, &self.dbas, snapshot)?;
        let same_rows = !self.pending
            && self.images.len() == self.rows()
            && self.schema_version == schema.version()
            && locs == self.locs;
        let changed: Vec<usize> = if same_rows {
            (0..images.len()).filter(|&rn| !Row::ptr_eq(&images[rn], &self.images[rn])).collect()
        } else {
            Vec::new()
        };
        let prev = same_rows.then_some((self, changed.as_slice()));
        let dbas = self.dbas.clone();
        Imcu::encode(self.object, self.tenant, dbas, snapshot, schema, exprs, locs, images, prev)
    }

    /// How many of this unit's encoded columns are the very same
    /// allocations as `prev`'s — what a [`Imcu::rebuild`] from `prev`
    /// shared instead of re-encoding.
    pub fn columns_shared_with(&self, prev: &Imcu) -> usize {
        self.columns.iter().zip(&prev.columns).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Number of encoded columns, base then virtual.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The encoded column at `ordinal` (base then virtual), if stored.
    pub fn column(&self, ordinal: usize) -> Option<&ColumnCu> {
        self.columns.get(ordinal).map(|c| &**c)
    }

    /// Storage ordinal of a virtual (expression) column, if this unit
    /// materialized it.
    pub fn virtual_ordinal(&self, name: &str) -> Option<usize> {
        self.virtual_names.iter().position(|n| n == name).map(|i| self.base_arity + i)
    }

    /// Pre-computed aggregates of one column (aggregation push-down).
    pub fn column_agg(&self, ordinal: usize) -> Option<ColAgg> {
        self.col_aggs.get(ordinal).copied()
    }

    /// A *pending* unit: claims its DBA range (so invalidation flushes have
    /// an SMU to target from the moment of snapshot capture) but holds no
    /// data yet. The population worker swaps the built unit in later; scans
    /// treat pending units as fully-invalid and fall back to the row-store.
    pub fn pending(
        object: ObjectId,
        tenant: TenantId,
        dbas: Vec<Dba>,
        snapshot: Scn,
        schema_version: u32,
    ) -> Imcu {
        Imcu {
            object,
            tenant,
            dbas,
            snapshot,
            schema_version,
            locs: Vec::new(),
            loc_index: Arc::default(),
            images: Vec::new(),
            columns: Vec::new(),
            virtual_names: Vec::new(),
            base_arity: 0,
            col_aggs: Vec::new(),
            storage_index: StorageIndex::default(),
            pending: true,
        }
    }

    /// Is this a pending (not yet built) unit?
    pub fn is_pending(&self) -> bool {
        self.pending
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.locs.len()
    }

    /// Physical location of row `rownum`.
    pub fn loc(&self, rownum: u32) -> RowLoc {
        self.locs[rownum as usize]
    }

    /// Row number of a physical location, if the unit holds it.
    pub fn rownum(&self, loc: RowLoc) -> Option<u32> {
        self.loc_index.get(&loc).copied()
    }

    /// Reconstruct the full *base* row image of `rownum` (virtual columns
    /// are not part of the row image).
    pub fn materialize(&self, rownum: u32) -> Row {
        Row::new(
            self.columns.iter().take(self.base_arity).map(|c| c.get(rownum as usize)).collect(),
        )
    }

    /// Read one column of one row.
    pub fn value(&self, rownum: u32, ordinal: usize) -> Value {
        self.columns.get(ordinal).map(|c| c.get(rownum as usize)).unwrap_or(Value::Null)
    }

    /// Scan one predicate through its encoded column; returns matching row
    /// numbers in ascending order (scalar reference path).
    pub fn scan(&self, pred: &Predicate) -> Vec<u32> {
        let mut out = Vec::new();
        if let Some(col) = self.columns.get(pred.ordinal) {
            col.scan(pred, &mut out);
        }
        out
    }

    /// Evaluate one predicate through its encoding's branchless kernel into
    /// a fresh selection bitmap. A missing ordinal selects nothing.
    pub fn pred_bitmap(&self, pred: &Predicate) -> crate::bitmap::SelBitmap {
        let mut sel = crate::bitmap::SelBitmap::zeroes(self.rows());
        if let Some(col) = self.columns.get(pred.ordinal) {
            col.scan_bitmap(pred, &mut sel);
        }
        sel
    }

    /// Evaluate a whole conjunction in column space: every term runs
    /// through its encoded column's kernel and the per-term bitmaps are
    /// AND-ed — only final survivors ever reach a row image. Returns `None` when
    /// any term's min/max storage-index check excludes the unit (a failed
    /// conjunct falsifies the conjunction, so the whole unit prunes).
    pub fn filter_bitmap(
        &self,
        filter: &crate::predicate::Filter,
    ) -> Option<crate::bitmap::SelBitmap> {
        if filter.terms.iter().any(|p| !self.storage_index.may_match(p)) {
            return None;
        }
        let mut acc: Option<crate::bitmap::SelBitmap> = None;
        for p in &filter.terms {
            let sel = self.pred_bitmap(p);
            match &mut acc {
                None => acc = Some(sel),
                Some(a) => {
                    a.and_assign(&sel);
                    if a.is_empty() {
                        break;
                    }
                }
            }
        }
        Some(acc.unwrap_or_else(|| crate::bitmap::SelBitmap::ones(self.rows())))
    }

    /// Fold the rows selected by `sel` into `aggs` straight off the encoded
    /// column — aggregation push-down over a selection bitmap. A missing
    /// ordinal aggregates as all-NULL (COUNT advances, nothing else).
    pub fn aggregate_masked(
        &self,
        ordinal: usize,
        sel: &crate::bitmap::SelBitmap,
        aggs: &mut crate::aggregate::Aggregates,
    ) {
        match self.columns.get(ordinal) {
            Some(col) => col.aggregate_masked(sel, aggs),
            None => aggs.count += sel.count() as u64,
        }
    }

    /// All row numbers (driver for unfiltered scans).
    pub fn all_rows(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.rows() as u32
    }

    /// Approximate DRAM footprint of the encoded unit (the cold tier's
    /// budget currency). Pending units hold no data and cost nothing. The
    /// retained images count as one handle each: their values belong to
    /// the row store.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum::<usize>()
            + self.locs.len() * (std::mem::size_of::<RowLoc>() + 24)
            + self.images.len() * std::mem::size_of::<Row>()
    }

    /// Row locations in row-number order (cold serialization input).
    pub(crate) fn locs(&self) -> &[RowLoc] {
        &self.locs
    }

    /// Encoded columns, base then virtual (cold serialization input).
    pub(crate) fn columns(&self) -> &[Arc<ColumnCu>] {
        &self.columns
    }

    /// Virtual (expression) column names, in storage order.
    pub(crate) fn virtual_names(&self) -> &[String] {
        &self.virtual_names
    }

    /// Number of base (schema) columns.
    pub(crate) fn base_arity(&self) -> usize {
        self.base_arity
    }

    /// Per-column pre-computed aggregates.
    pub(crate) fn col_aggs(&self) -> &[ColAgg] {
        &self.col_aggs
    }

    /// Reassemble a unit from decoded cold-tier parts. The loc index is
    /// rebuilt; the unit comes back non-pending, byte-identical in
    /// behavior to the unit that was serialized. It holds no row images,
    /// so its next rebuild is a full encode.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        object: ObjectId,
        tenant: TenantId,
        dbas: Vec<Dba>,
        snapshot: Scn,
        schema_version: u32,
        locs: Vec<RowLoc>,
        columns: Vec<ColumnCu>,
        virtual_names: Vec<String>,
        base_arity: usize,
        col_aggs: Vec<ColAgg>,
    ) -> Imcu {
        let columns: Vec<Arc<ColumnCu>> = columns.into_iter().map(Arc::new).collect();
        let loc_index = Arc::new(locs.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect());
        Imcu {
            object,
            tenant,
            dbas,
            snapshot,
            schema_version,
            storage_index: StorageIndex::of_columns(&columns),
            locs,
            loc_index,
            images: Vec::new(),
            columns,
            virtual_names,
            base_arity,
            col_aggs,
            pending: false,
        }
    }
}

/// Read the visible rows of `dbas` at `snapshot`: locations and shared
/// images, in row-number order.
fn scan_images(store: &Store, dbas: &[Dba], snapshot: Scn) -> Result<(Vec<RowLoc>, Vec<Row>)> {
    let mut locs = Vec::new();
    let mut images = Vec::new();
    store.scan_blocks(dbas, snapshot, |loc, row| {
        locs.push(loc);
        images.push(row.clone());
    })?;
    Ok((locs, images))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use imadg_common::TxnId;
    use imadg_storage::{Block, ColumnType, RowVersion, TableSpec};

    fn schema() -> Schema {
        Schema::of(&[("id", ColumnType::Int), ("c", ColumnType::Varchar)])
    }

    /// Store with one block of `n` committed rows at SCN 5.
    fn store_with_rows(n: i64) -> Store {
        let s = Store::new();
        s.create_table(TableSpec {
            id: ObjectId(1),
            name: "t".into(),
            tenant: TenantId::DEFAULT,
            schema: schema(),
            key_ordinal: 0,
            rows_per_block: 128,
        })
        .unwrap();
        s.cache().install(Block::format(Dba(1), ObjectId(1), 128));
        s.segment(ObjectId(1)).unwrap().lock().add_block(Dba(1));
        s.txns().commit(TxnId(1), Scn(5));
        let b = s.cache().get(Dba(1)).unwrap();
        for i in 0..n {
            b.write().chain_mut(i as u16).unwrap().push(RowVersion {
                txn: TxnId(1),
                scn: Scn(3),
                data: Some(Row::new(vec![Value::Int(i), Value::str(format!("s{}", i % 3))])),
            });
        }
        s
    }

    #[test]
    fn build_and_materialize() {
        let s = store_with_rows(10);
        let imcu = Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &schema())
            .unwrap();
        assert_eq!(imcu.rows(), 10);
        let r = imcu.materialize(4);
        assert_eq!(r[0], Value::Int(4));
        assert_eq!(r[1], Value::str("s1"));
        assert_eq!(imcu.value(4, 0), Value::Int(4));
        assert_eq!(imcu.loc(0), RowLoc { dba: Dba(1), slot: 0 });
        assert_eq!(imcu.rownum(RowLoc { dba: Dba(1), slot: 7 }), Some(7));
        assert_eq!(imcu.rownum(RowLoc { dba: Dba(99), slot: 0 }), None);
    }

    #[test]
    fn snapshot_consistency() {
        let s = store_with_rows(5);
        // A later uncommitted write is not part of the unit.
        s.txns().begin(TxnId(2));
        let b = s.cache().get(Dba(1)).unwrap();
        b.write().chain_mut(0).unwrap().push(RowVersion {
            txn: TxnId(2),
            scn: Scn(8),
            data: Some(Row::new(vec![Value::Int(999), Value::str("zz")])),
        });
        let imcu = Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &schema())
            .unwrap();
        assert_eq!(imcu.value(0, 0), Value::Int(0), "snapshot sees the committed image");
    }

    #[test]
    fn predicate_scan() {
        let s = store_with_rows(9);
        let sc = schema();
        let imcu =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        let p = Predicate::eq(&sc, "c", Value::str("s0")).unwrap();
        assert_eq!(imcu.scan(&p), vec![0, 3, 6]);
        let p = Predicate::new(&sc, "id", CmpOp::Ge, Value::Int(7)).unwrap();
        assert_eq!(imcu.scan(&p), vec![7, 8]);
    }

    #[test]
    fn storage_index_reflects_contents() {
        let s = store_with_rows(10);
        let sc = schema();
        let imcu =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        let p = Predicate::new(&sc, "id", CmpOp::Gt, Value::Int(100)).unwrap();
        assert!(!imcu.storage_index.may_match(&p), "out of range → prunable");
        let p = Predicate::eq(&sc, "id", Value::Int(5)).unwrap();
        assert!(imcu.storage_index.may_match(&p));
    }

    #[test]
    fn filter_bitmap_conjunction_and_pruning() {
        let s = store_with_rows(10);
        let sc = schema();
        let imcu =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        let f = crate::predicate::Filter {
            terms: vec![
                Predicate::new(&sc, "id", CmpOp::Ge, Value::Int(3)).unwrap(),
                Predicate::eq(&sc, "c", Value::str("s0")).unwrap(),
            ],
        };
        let sel = imcu.filter_bitmap(&f).unwrap();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), vec![3, 6, 9]);
        // Empty filter selects everything.
        let all = imcu.filter_bitmap(&crate::predicate::Filter::all()).unwrap();
        assert_eq!(all.count(), 10);
        // Any out-of-range conjunct prunes the whole unit.
        let pruned = crate::predicate::Filter {
            terms: vec![
                Predicate::eq(&sc, "c", Value::str("s0")).unwrap(),
                Predicate::new(&sc, "id", CmpOp::Gt, Value::Int(100)).unwrap(),
            ],
        };
        assert!(imcu.filter_bitmap(&pruned).is_none());
    }

    #[test]
    fn masked_aggregate_over_unit() {
        let s = store_with_rows(10);
        let sc = schema();
        let imcu =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        let p = Predicate::new(&sc, "id", CmpOp::Lt, Value::Int(4)).unwrap();
        let sel = imcu.filter_bitmap(&crate::predicate::Filter::of(p)).unwrap();
        let mut aggs = crate::aggregate::Aggregates::default();
        imcu.aggregate_masked(0, &sel, &mut aggs);
        assert_eq!(aggs.count, 4);
        assert_eq!(aggs.sum, 6);
        assert_eq!(aggs.min, Some(Value::Int(0)));
        assert_eq!(aggs.max, Some(Value::Int(3)));
    }

    /// Commit `rows` (slot, image) as one transaction at `scn`.
    fn commit_images(s: &Store, scn: u64, rows: &[(u16, Row)]) {
        s.txns().begin(TxnId(scn));
        let b = s.cache().get(Dba(1)).unwrap();
        for (slot, row) in rows {
            b.write().chain_mut(*slot).unwrap().push(RowVersion {
                txn: TxnId(scn),
                scn: Scn(scn),
                data: Some(row.clone()),
            });
        }
        s.txns().commit(TxnId(scn), Scn(scn));
    }

    fn column_bytes(imcu: &Imcu, ord: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        imcu.column(ord).unwrap().to_bytes(&mut buf);
        buf
    }

    #[test]
    fn rebuild_shares_untouched_columns() {
        let s = store_with_rows(10);
        let sc = schema();
        let old =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        commit_images(&s, 8, &[(4, Row::new(vec![Value::Int(4), Value::str("new")]))]);
        let rebuilt = old.rebuild(&s, Scn(9), &sc, &[]).unwrap();
        assert_eq!(rebuilt.snapshot, Scn(9));
        assert_eq!(rebuilt.columns_shared_with(&old), 1, "only `c` is re-encoded");
        assert_eq!(rebuilt.value(4, 1), Value::str("new"));
        let full =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(9), &sc).unwrap();
        for ord in 0..2 {
            assert_eq!(column_bytes(&rebuilt, ord), column_bytes(&full, ord));
            assert_eq!(rebuilt.column_agg(ord), full.column_agg(ord));
        }
        // A rewrite with equal cells changes no column.
        commit_images(&s, 10, &[(2, Row::new(vec![Value::Int(2), Value::str("s2")]))]);
        let again = rebuilt.rebuild(&s, Scn(11), &sc, &[]).unwrap();
        assert_eq!(again.columns_shared_with(&rebuilt), 2);
    }

    #[test]
    fn rebuild_re_encodes_everything_when_the_row_set_changes() {
        let s = store_with_rows(10);
        let sc = schema();
        let old =
            Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &sc).unwrap();
        commit_images(&s, 8, &[(10, Row::new(vec![Value::Int(10), Value::str("s1")]))]);
        let rebuilt = old.rebuild(&s, Scn(9), &sc, &[]).unwrap();
        assert_eq!(rebuilt.rows(), 11);
        assert_eq!(rebuilt.columns_shared_with(&old), 0);
        // Rewriting most rows still shares the column none of them changed.
        let many: Vec<(u16, Row)> = (0..8)
            .map(|i| (i, Row::new(vec![Value::Int(i64::from(i)), Value::str("x")])))
            .collect();
        commit_images(&s, 10, &many);
        let again = rebuilt.rebuild(&s, Scn(11), &sc, &[]).unwrap();
        assert_eq!(again.columns_shared_with(&rebuilt), 1);
        assert_eq!(again.value(3, 1), Value::str("x"));
    }

    #[test]
    fn empty_range_builds_empty_unit() {
        let s = store_with_rows(0);
        let imcu = Imcu::build(&s, ObjectId(1), TenantId::DEFAULT, vec![Dba(1)], Scn(5), &schema())
            .unwrap();
        assert_eq!(imcu.rows(), 0);
        assert_eq!(imcu.all_rows().count(), 0);
    }
}
