//! `imadg-imcs`: the In-Memory Column Store (dual-format architecture).
//!
//! Read-only, compressed In-Memory Columnar Units (IMCUs) with min/max
//! storage indexes; Snapshot Metadata Units (SMUs) tracking transactional
//! staleness; online population/repopulation with consistency-point
//! snapshot capture; and the scan engine — one executor, [`execute`], for
//! row scans and aggregates over hot, cold and bypassed units alike — that
//! reconciles columnar data with the row-store (paper §II.B, §III.A).

mod aggregate;
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
mod scan;
pub mod smu;
pub mod storage_index;

pub use aggregate::{AggregateResult, Aggregates};
pub use bitmap::SelBitmap;
pub use coldstore::{restore_cold_tier, ColdTier, ColdUnit, ColdUnitFile, TierReport};
pub use column::{ColumnCu, MinMax};
pub use expression::{Expr, ImExpression};
pub use imcs_store::{ImcsStore, ImcuHandle, ObjectImcs};
pub use imcu::{ColAgg, Imcu};
pub use population::{PopulationEngine, PopulationReport, SnapshotSource};
pub use predicate::{CmpOp, Filter, Predicate};
pub use scan::{execute, ExprPredicate, Output, ScanResult, ScanStats};
pub use smu::Smu;
pub use storage_index::StorageIndex;
