//! The scalar (row-at-a-time) scan reference path.
//!
//! This is the pre-vectorization scan engine, kept verbatim as (a) the
//! oracle for the kernel-parity property suite — the bitmap path must be
//! bit-identical to this one on every input — and (b) the "scalar" baseline
//! the bench trajectory measures the vectorized engine against. It drives
//! only the *leading* predicate through the encoded column, materializes
//! every candidate row, and verifies remaining conjuncts on row images.

use std::collections::HashSet;

use imadg_common::{ObjectId, Result, Scn};
use imadg_storage::Store;

use crate::imcs_store::ImcsStore;
use crate::predicate::{Filter, Predicate};
use crate::scan::ScanResult;

/// Scalar scan of `object` at `snapshot` — the old unit walk: leading
/// predicate through the column, per-candidate `is_invalid` probe,
/// materialize-then-verify for the remaining terms, `HashSet`
/// covered-block bookkeeping. `Ok(None)` when the store does not hold the
/// object ([`crate::execute`] is the vectorized equivalent).
pub fn scan_scalar(
    imcs: &ImcsStore,
    store: &Store,
    object: ObjectId,
    filter: &Filter,
    snapshot: Scn,
) -> Result<Option<ScanResult>> {
    let Some(entry) = imcs.object(object) else { return Ok(None) };
    let mut result = ScanResult::default();
    let mut covered: HashSet<imadg_common::Dba> = HashSet::new();

    for handle in entry.handles() {
        let (imcu, smu) = handle.pair();
        covered.extend(imcu.dbas.iter().copied());
        let view = smu.read();

        if imcu.is_pending() || view.all_invalid() || snapshot < imcu.snapshot {
            result.stats.bypassed_units += 1;
            store.scan_blocks(&imcu.dbas, snapshot, |_, row| {
                if filter.eval_row(row) {
                    result.rows.push(row.clone());
                    result.stats.fallback_rows += 1;
                }
            })?;
            continue;
        }

        let candidates: Vec<u32> = match filter.split_first() {
            Some((head, _)) if !imcu.storage_index.may_match(head) => {
                result.stats.pruned_units += 1;
                Vec::new()
            }
            Some((head, _)) => {
                result.stats.scanned_units += 1;
                imcu.scan(head)
            }
            None => {
                result.stats.scanned_units += 1;
                imcu.all_rows().collect()
            }
        };
        let rest: &[Predicate] = match filter.split_first() {
            Some((_, rest)) => rest,
            None => &[],
        };
        for rn in candidates {
            let loc = imcu.loc(rn);
            if view.is_invalid(loc) {
                continue; // served by the fallback pass below
            }
            let row = imcu.materialize(rn);
            if rest.iter().all(|p| p.eval_row(&row)) {
                result.rows.push(row);
                result.stats.imcu_rows += 1;
            }
        }

        let mut fallback: Vec<imadg_storage::RowLoc> = Vec::with_capacity(view.fallback_count());
        view.collect_fallback(&mut fallback);
        drop(view);
        store.fetch_rows_batched(&mut fallback, snapshot, |_, row| {
            if filter.eval_row(row) {
                result.rows.push(row.clone());
                result.stats.fallback_rows += 1;
            }
        })?;
    }

    let uncovered: Vec<_> =
        store.block_dbas(object)?.into_iter().filter(|d| !covered.contains(d)).collect();
    if !uncovered.is_empty() {
        store.scan_blocks(&uncovered, snapshot, |_, row| {
            if filter.eval_row(row) {
                result.rows.push(row.clone());
                result.stats.uncovered_rows += 1;
            }
        })?;
    }

    Ok(Some(result))
}
