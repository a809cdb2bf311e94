//! # imadg — Database In-Memory on an Active-Standby replica
//!
//! A from-scratch Rust reproduction of *"Oracle Database In-Memory on
//! Active Data Guard: Real-time Analytics on a Standby Database"*
//! (ICDE 2020): a physical standby database maintained purely by parallel
//! redo apply hosts a transactionally-consistent In-Memory Column Store,
//! so analytic queries offload to the standby at columnar speeds while the
//! primary runs OLTP.
//!
//! ## Quick start
//!
//! ```
//! use imadg::prelude::*;
//!
//! // One primary + one standby, DBIM-on-ADG enabled.
//! let cluster = AdgCluster::single().unwrap();
//! cluster
//!     .create_table(TableSpec {
//!         id: ObjectId(1),
//!         name: "sales".into(),
//!         tenant: TenantId::DEFAULT,
//!         schema: Schema::of(&[("id", ColumnType::Int), ("amount", ColumnType::Int)]),
//!         key_ordinal: 0,
//!         rows_per_block: 64,
//!     })
//!     .unwrap();
//! cluster.set_placement(ObjectId(1), Placement::StandbyOnly).unwrap();
//!
//! // OLTP on the primary.
//! let p = cluster.primary();
//! let mut tx = p.txm.begin(TenantId::DEFAULT);
//! for k in 0..100 {
//!     p.txm.insert(&mut tx, ObjectId(1), vec![Value::Int(k), Value::Int(k * 10)]).unwrap();
//! }
//! p.txm.commit(tx);
//!
//! // Replicate, apply, advance the QuerySCN, populate the column store.
//! cluster.sync().unwrap();
//!
//! // Analytics on the standby, served from the IMCS.
//! let schema = p.store.table(ObjectId(1)).unwrap().schema.read().clone();
//! let filter = Filter::of(Predicate::eq(&schema, "amount", Value::Int(500)).unwrap());
//! let out = cluster.standby().query(&QueryRequest::scan(ObjectId(1)).filter(filter)).unwrap();
//! assert!(out.used_imcs);
//! assert_eq!(out.count(), 1);
//! ```
//!
//! ## Measuring staleness
//!
//! Every commit record carries a birth stamp; the standby settles it
//! through per-stage residency histograms and one end-to-end
//! commit-to-queryable histogram. Queries opt into a per-phase profile
//! with [`QueryRequest::profile`](imadg_db::QueryRequest::profile), and
//! both node roles export Prometheus text / JSONL snapshots:
//!
//! ```
//! use imadg::prelude::*;
//!
//! let cluster = AdgCluster::single().unwrap();
//! cluster
//!     .create_table(TableSpec {
//!         id: ObjectId(1),
//!         name: "sales".into(),
//!         tenant: TenantId::DEFAULT,
//!         schema: Schema::of(&[("id", ColumnType::Int), ("amount", ColumnType::Int)]),
//!         key_ordinal: 0,
//!         rows_per_block: 64,
//!     })
//!     .unwrap();
//! cluster.set_placement(ObjectId(1), Placement::StandbyOnly).unwrap();
//! let p = cluster.primary();
//! for k in 0..50 {
//!     p.insert_one(ObjectId(1), TenantId::DEFAULT, vec![Value::Int(k), Value::Int(k * 10)])
//!         .unwrap();
//! }
//! cluster.sync().unwrap();
//!
//! // Commit-to-queryable staleness, measured on the standby.
//! let st = cluster.standby().metrics().staleness;
//! assert_eq!(st.e2e.count, 50);
//! assert!(st.e2e.p99() >= st.e2e.p50());
//! assert!(!st.slowest.is_empty());
//!
//! // Per-query phase breakdown.
//! let out = cluster
//!     .standby()
//!     .query(&QueryRequest::scan(ObjectId(1)).filter(Filter::all()).profile())
//!     .unwrap();
//! let prof = out.profile.unwrap();
//! assert!(prof.task_skew() >= 1.0);
//!
//! // Machine-readable export from a role-typed handle.
//! let text = cluster.node(NodeRole::Standby).metrics_prometheus();
//! assert!(text.contains("# TYPE imadg_staleness_e2e summary"));
//! let line = cluster.node(NodeRole::Primary).metrics_jsonl();
//! assert!(line.starts_with("{\"role\":\"primary\""));
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`imadg_common`] | SCNs, DBAs, ids, config, metrics, stage runtime |
//! | [`imadg_storage`] | MVCC row store, blocks, buffer cache, apply path |
//! | [`imadg_redo`] | redo records, log buffers, shipping, log merger |
//! | [`imadg_txn`] | primary transaction manager, row locks |
//! | [`imadg_recovery`] | parallel redo apply with mining, IM-ADG journal/commit table, invalidation flush, QuerySCN, RAC distribution |
//! | [`imadg_imcs`] | IMCUs, SMUs, population, scan engine |
//! | [`imadg_db`] | primary/standby clusters, placement, queries |
//! | [`imadg_workload`] | the paper's OLTAP workload: wide table, Q1/Q2, op mixes |

pub use imadg_common as common;
pub use imadg_db as db;
pub use imadg_imcs as imcs;
pub use imadg_net as net;
pub use imadg_recovery as recovery;
pub use imadg_redo as redo;
pub use imadg_storage as storage;
pub use imadg_txn as txn;
pub use imadg_workload as workload;

/// The types most programs need.
pub mod prelude {
    pub use imadg_common::{
        Dba, Error, FaultPlan, ImcsConfig, InstanceId, LinkMode, ObjectId, RecoveryConfig, Result,
        Scn, SystemConfig, TenantId, TransportConfig, TxnId,
    };
    pub use imadg_db::{
        AdgCluster, ClusterConfig, CmpOp, ColumnDef, ColumnType, FallbackReason, Filter,
        MetricsSnapshot, Node, NodeBuilder, NodeRole, Placement, Predicate, PromotionReport,
        QueryOutput, QueryRequest, RouteDecision, RouteTarget, Row, Schema, StandbyCluster,
        StandbySelector, StandbySpec, TableSpec, Value,
    };
    pub use imadg_workload::{OpMix, QueryId};
}
