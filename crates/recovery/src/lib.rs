//! `imadg-recovery`: standby redo apply with the DBIM-on-ADG infrastructure.
//!
//! Media recovery (paper §II.A): the SCN-ordered merge output is
//! hash-partitioned across recovery workers (Fig. 3); a coordinator tracks
//! worker progress and establishes consistency points published as the
//! QuerySCN.
//!
//! Synchronized maintenance of the standby's In-Memory Column Store rides
//! on that apply path (paper §III):
//!
//! * **Mining Component** (§III.B) — the recovery workers call it for every
//!   record they apply, sniffing CVs against in-memory-enabled objects into
//!   invalidation records, and transaction control information into the
//!   commit table;
//! * **IM-ADG Journal** (§III.C) — txn-hashed buffer with bucket latches
//!   and per-worker record areas;
//! * **IM-ADG Commit Table** (§III.D.1) — partitioned, commit-SCN-sorted
//!   nodes with direct anchor references;
//! * **Invalidation Flush + Worklink + Cooperative Flush** (§III.D) — the
//!   coordinator runs it under the quiesce lock before each QuerySCN
//!   publish, and the workers help drain the worklink;
//! * **Coarse invalidation via the commit-record flag** (§III.E);
//! * **RAC distribution with home locations, batching and pipelining**
//!   (§III.F);
//! * **DDL Information Table fed by redo markers** (§III.G).

pub mod adg;
pub mod commit_table;
pub mod coordinator;
pub mod ddl_table;
pub mod dispatch;
pub mod flush;
pub mod home_location;
pub mod invalidation;
pub mod journal;
pub mod mining;
pub mod pipeline;
pub mod progress;
pub mod rac;
pub mod worker;
pub mod worklink;

pub use adg::DbimAdg;
pub use commit_table::{CommitNode, CommitTable};
pub use coordinator::Coordinator;
pub use ddl_table::DdlTable;
pub use dispatch::Dispatcher;
pub use flush::{FlushTarget, InvalidationFlush, LocalFlushTarget};
pub use home_location::HomeLocationMap;
pub use invalidation::{group_records, InvalidationGroup, InvalidationRecord};
pub use journal::{AnchorNode, Journal};
pub use mining::MiningComponent;
pub use pipeline::{MediaRecovery, RecoveryStageIds};
pub use progress::Progress;
pub use rac::{RacEndpoint, RacFlushTarget, RacMessage};
pub use worker::{work_queue, WorkItem, Worker};
pub use worklink::Worklink;
