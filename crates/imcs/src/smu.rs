//! Snapshot Metadata Units (SMUs).
//!
//! "A Snapshot Metadata Unit accompanies each IMCU and tracks the validity
//! of the data populated in its corresponding IMCU" (paper §II.B). The
//! invalidation-flush component marks rows stale as the QuerySCN advances;
//! the scan engine reconciles IMCU data against the SMU and fetches stale
//! rows from the row-store instead.
//!
//! An SMU is one map, *physical location → latest commit SCN*, over every
//! covered row whose current version is newer than the unit's snapshot:
//! rows the unit holds that changed since, and rows inserted since (the
//! unit has no rownum for those). A location is in the map at most once,
//! so the row-store fallback fetches it at most once. Keeping the SCN
//! makes repopulation carry-over exact: when a unit is rebuilt at snapshot
//! `S`, entries with commit SCN ≤ `S` are absorbed by the rebuild and
//! dropped; later entries transfer to the fresh SMU.

use std::collections::HashMap;

use imadg_common::Scn;
use imadg_storage::RowLoc;
use parking_lot::RwLock;

/// Mutable validity state for one IMCU.
#[derive(Debug, Default)]
pub struct Smu {
    inner: RwLock<SmuState>,
}

#[derive(Debug, Default)]
struct SmuState {
    /// Covered rows whose current version is newer than the unit's
    /// snapshot: location → latest commit SCN.
    stale: HashMap<RowLoc, Scn>,
    /// Coarse invalidation: the whole unit is unusable (§III.E).
    all_invalid: bool,
}

/// Borrowed, lock-held SMU view (no cloning).
pub struct SmuReadGuard<'a> {
    guard: parking_lot::RwLockReadGuard<'a, SmuState>,
}

impl SmuReadGuard<'_> {
    /// Is the whole unit invalid?
    pub fn all_invalid(&self) -> bool {
        self.guard.all_invalid
    }

    /// Must this location be served from the row-store rather than the
    /// unit?
    pub fn is_invalid(&self, loc: RowLoc) -> bool {
        self.guard.all_invalid || self.guard.stale.contains_key(&loc)
    }

    /// Copy out the fallback locations, each exactly once.
    pub fn collect_fallback(&self, out: &mut Vec<RowLoc>) {
        out.extend(self.guard.stale.keys().copied());
    }

    /// Convert the validity state to mask form for the bitmap scan path:
    /// a bitmap over `rows` with a 1 for every row still served from the
    /// unit. Returns `None` when every row is valid — the common case —
    /// so fully-valid units skip the AND entirely. Stale locations are
    /// translated to row numbers through `rownum` (post-snapshot inserts
    /// have no rownum and are simply not present in the mask domain).
    pub fn validity_mask(
        &self,
        rows: usize,
        rownum: impl Fn(RowLoc) -> Option<u32>,
    ) -> Option<crate::bitmap::SelBitmap> {
        if self.fallback_count() == 0 {
            return None;
        }
        let mut mask = crate::bitmap::SelBitmap::ones(rows);
        for loc in self.guard.stale.keys() {
            if let Some(rn) = rownum(*loc) {
                mask.clear(rn as usize);
            }
        }
        Some(mask)
    }

    /// Total fallback locations.
    pub fn fallback_count(&self) -> usize {
        self.guard.stale.len()
    }
}

impl Smu {
    /// Fresh, fully-valid SMU.
    pub fn new() -> Smu {
        Smu::default()
    }

    /// Mark a covered row stale as of `commit_scn` (invalidation flush).
    ///
    /// Repeated invalidations keep the *latest* commit SCN: a rebuild at
    /// snapshot `S` absorbs changes committed at or before `S`, so an entry
    /// must survive carry-over iff its newest invalidating commit is > `S`.
    pub fn invalidate_row(&self, loc: RowLoc, commit_scn: Scn) {
        let mut s = self.inner.write();
        let e = s.stale.entry(loc).or_insert(commit_scn);
        *e = (*e).max(commit_scn);
    }

    /// Coarse invalidation: disable the whole unit (§III.E).
    pub fn mark_all_invalid(&self) {
        self.inner.write().all_invalid = true;
    }

    /// Lock-held view: no map cloning. The guard blocks invalidation
    /// flushes for its (short) lifetime, mirroring the SMU latch scans and
    /// flushes share in the paper's design (§II.B: "SMUs provide
    /// concurrency control").
    pub fn read(&self) -> SmuReadGuard<'_> {
        SmuReadGuard { guard: self.inner.read() }
    }

    /// Fraction of the unit's `rows` that are stale (repopulation
    /// heuristic input). Post-snapshot inserts count too: they force
    /// row-store fallbacks just like changed rows.
    pub fn staleness(&self, rows: usize) -> f64 {
        let s = self.inner.read();
        if s.all_invalid {
            return 1.0;
        }
        if rows == 0 {
            // An empty unit with tracked inserts is pure fallback: fully stale.
            return if s.stale.is_empty() { 0.0 } else { 1.0 };
        }
        s.stale.len() as f64 / rows as f64
    }

    /// Build the successor SMU for a unit rebuilt at snapshot `rebuild`:
    /// keep only entries whose commit SCN is newer than the rebuild
    /// snapshot (older ones are absorbed into the new unit's data).
    pub fn carry_over(&self, rebuild: Scn) -> Smu {
        let s = self.inner.read();
        let stale = s.stale.iter().filter(|(_, &scn)| scn > rebuild).map(|(&l, &s)| (l, s));
        Smu { inner: RwLock::new(SmuState { stale: stale.collect(), all_invalid: false }) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::Dba;

    fn loc(d: u64, s: u16) -> RowLoc {
        RowLoc { dba: Dba(d), slot: s }
    }

    #[test]
    fn invalidate_and_read() {
        let smu = Smu::new();
        smu.invalidate_row(loc(1, 0), Scn(10));
        let v = smu.read();
        assert!(v.is_invalid(loc(1, 0)));
        assert!(!v.is_invalid(loc(1, 1)));
        assert_eq!(v.fallback_count(), 1);
    }

    #[test]
    fn a_location_is_recorded_once() {
        let smu = Smu::new();
        // Whether the unit holds the row or not (a post-snapshot insert),
        // every change lands in the one map: the fallback fetches it once.
        smu.invalidate_row(loc(2, 3), Scn(8));
        smu.invalidate_row(loc(2, 3), Scn(9));
        let mut out = Vec::new();
        smu.read().collect_fallback(&mut out);
        assert_eq!(out, vec![loc(2, 3)]);
    }

    #[test]
    fn repeated_invalidation_keeps_latest_scn() {
        let smu = Smu::new();
        smu.invalidate_row(loc(1, 0), Scn(10));
        smu.invalidate_row(loc(1, 0), Scn(20));
        // A rebuild at 15 absorbs the SCN-10 change but NOT the SCN-20 one:
        // the entry must survive carry-over.
        assert_eq!(smu.carry_over(Scn(15)).read().fallback_count(), 1);
        // A rebuild at 25 absorbs both.
        assert_eq!(smu.carry_over(Scn(25)).read().fallback_count(), 0);
    }

    #[test]
    fn staleness_fraction() {
        let smu = Smu::new();
        assert_eq!(smu.staleness(100), 0.0);
        for i in 0..10 {
            smu.invalidate_row(loc(1, i), Scn(5));
        }
        smu.invalidate_row(loc(9, 0), Scn(6));
        assert!((smu.staleness(100) - 0.11).abs() < 1e-9);
        smu.mark_all_invalid();
        assert_eq!(smu.staleness(100), 1.0);
    }

    #[test]
    fn staleness_of_empty_unit() {
        let smu = Smu::new();
        assert_eq!(smu.staleness(0), 0.0);
        smu.invalidate_row(loc(1, 0), Scn(5));
        assert_eq!(smu.staleness(0), 1.0, "inserts force fallback on an empty unit");
    }

    #[test]
    fn carry_over_splits_on_rebuild_scn() {
        let smu = Smu::new();
        smu.invalidate_row(loc(1, 0), Scn(10));
        smu.invalidate_row(loc(1, 1), Scn(30));
        smu.mark_all_invalid();
        let fresh = smu.carry_over(Scn(20));
        let v = fresh.read();
        assert!(!v.is_invalid(loc(1, 0)), "absorbed by rebuild");
        assert!(v.is_invalid(loc(1, 1)), "newer than rebuild: carried");
        assert_eq!(v.fallback_count(), 1);
        assert!(!v.all_invalid(), "a rebuild clears coarse invalidation");
    }

    #[test]
    fn validity_mask_forms() {
        let smu = Smu::new();
        assert!(smu.read().validity_mask(8, |_| None).is_none(), "fully valid → no mask");
        smu.invalidate_row(loc(1, 2), Scn(5));
        smu.invalidate_row(loc(1, 9), Scn(6));
        let rownum = |l: RowLoc| if l.slot < 8 { Some(l.slot as u32) } else { None };
        let mask = smu.read().validity_mask(8, rownum).unwrap();
        assert!(!mask.get(2), "invalidated row cleared");
        assert_eq!(mask.count(), 7, "insert without rownum leaves the mask alone");
    }

    #[test]
    fn all_invalid_dominates() {
        let smu = Smu::new();
        smu.mark_all_invalid();
        let v = smu.read();
        assert!(v.all_invalid());
        assert!(v.is_invalid(loc(42, 42)));
    }
}
