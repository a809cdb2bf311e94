//! `imadg-redo`: the redo layer.
//!
//! Change vectors are defined by `imadg-storage`; this crate wraps them in
//! redo records with transaction control information (begin / commit /
//! abort), DDL redo markers, per-thread log buffers with latched SCN
//! allocation, the durable redo log, and the standby-side SCN-ordered log
//! merger (paper §II.A, §III.E, §III.G). The link that ships redo — and
//! the shipping process itself — lives in `imadg-net`.

pub mod codec;
pub mod durable;
pub mod log_buffer;
pub mod marker;
pub mod merger;
pub mod record;

pub use durable::{DiskBatch, DurableLog};
pub use log_buffer::{LogBuffer, LogStats};
pub use marker::{DdlKind, RedoMarker};
pub use merger::LogMerger;
pub use record::{CommitRecord, RedoPayload, RedoRecord};
