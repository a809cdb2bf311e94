//! Kernel types shared by every `imadg` crate.
//!
//! This crate deliberately has no dependency on the rest of the workspace:
//! it defines the vocabulary the whole system speaks — [`Scn`] (database
//! time), [`Dba`] (block addresses), object/transaction/tenant identifiers,
//! the common [`Error`] type, configuration knobs and the metrics registry
//! every stage reports into.

pub mod clock;
pub mod config;
pub mod envelope;
pub mod error;
pub mod export;
pub mod fxhash;
pub mod ids;
pub mod metrics;
pub mod object_set;
pub mod profile;
pub mod runtime;
pub mod sync;

pub use clock::Clock;

pub use config::{
    DurabilityConfig, FaultPlan, ImcsConfig, LinkMode, RecoveryConfig, SystemConfig,
    TransportConfig,
};
pub use error::{Error, Result};
pub use export::{jsonl_line, prometheus_text};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ids::{Dba, InstanceId, ObjectId, RedoThreadId, Scn, SlotId, TenantId, TxnId, WorkerId};
pub use metrics::{
    Counter, Gauge, LogHistogram, LogHistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    PipelineTrace, RuntimeMetrics, RuntimeSnapshot, ScnTrace, StageRuntimeMetrics,
    StageRuntimeSnapshot, StalenessSnapshot, StalenessTracker, TraceEvent, TraceStage,
};
pub use object_set::ObjectSet;
pub use profile::{QueryProfile, UnitTiming};
pub use runtime::{
    HealthState, Runtime, RuntimeHealth, Stage, StageFailure, StageId, StageOutcome, StepOutcome,
    StepReport, StepScheduler, ThreadedRuntime, WakeToken,
};
pub use sync::{QueryScnCell, QuiesceGuard, QuiesceLock, ScnService};
