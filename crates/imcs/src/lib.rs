//! `imadg-imcs`: the In-Memory Column Store (dual-format architecture).
//!
//! Read-only, compressed In-Memory Columnar Units (IMCUs) with min/max
//! storage indexes; Snapshot Metadata Units (SMUs) tracking transactional
//! staleness; online population/repopulation with consistency-point
//! snapshot capture; and the scan engine that reconciles columnar data with
//! the row-store (paper §II.B, §III.A).

pub mod aggregate;
pub mod bitmap;
pub mod coldstore;
pub mod column;
pub mod encoding;
pub mod expression;
pub mod imcs_store;
pub mod imcu;
pub mod parallel;
pub mod population;
pub mod predicate;
pub mod scalar;
pub mod scan;
pub mod smu;
pub mod storage_index;

pub use aggregate::{
    scan_aggregate, scan_aggregate_parallel, scan_aggregate_profiled, AggregateResult,
    AggregateStats, Aggregates,
};
pub use bitmap::SelBitmap;
pub use coldstore::{restore_cold_tier, ColdTier, ColdUnit, ColdUnitFile, TierReport};
pub use column::{ColumnCu, MinMax};
pub use expression::{Expr, ImExpression};
pub use imcs_store::{ImcsStore, ImcuHandle, ObjectImcs};
pub use imcu::{ColAgg, Imcu};
pub use population::{PopulationEngine, PopulationReport, SnapshotSource};
pub use predicate::{CmpOp, Filter, Predicate};
pub use scan::{
    scan, scan_cluster, scan_cluster_parallel, scan_cluster_profiled, scan_expression,
    scan_expression_parallel, scan_expression_profiled, scan_parallel, ExprPredicate, ScanResult,
    ScanStats,
};
pub use smu::Smu;
pub use storage_index::StorageIndex;
