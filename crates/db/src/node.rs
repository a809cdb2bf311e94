//! The unified node-role API: every deployment is built by one
//! [`NodeBuilder`], which has one way to set each knob, and handled
//! through role-typed [`Node`]s.
//!
//! The paper's operational story (§I) is symmetric: a database *node* is
//! primary or standby by **role**, not by type — promotion turns a standby
//! into a primary without changing what callers hold. `Node` captures
//! that: one handle, one `query()`, one `metrics()`, with the role
//! deciding the route.

use imadg_common::{FaultPlan, LinkMode, MetricsSnapshot, Result, SystemConfig};
use std::sync::Arc;

use crate::cluster::{AdgCluster, ClusterConfig, PromotionReport, StandbySpec};
use crate::query::{QueryOutput, QueryRequest};

/// Which side of the Data Guard configuration a [`Node`] fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Transaction processing + redo generation (queries run at the
    /// current SCN).
    Primary,
    /// Media recovery + read-only analytics (queries run at the QuerySCN).
    Standby,
    /// The staleness-bounded query router over the reader farm: each query
    /// goes to the least-loaded standby within its
    /// [`QueryRequest::max_staleness`] tolerance, or falls back to the
    /// primary.
    Router,
}

/// A role-typed handle onto one side of a deployment.
///
/// Obtained from [`AdgCluster::node`]; cheap to clone. The handle
/// re-resolves the underlying instance on every call, so it stays valid
/// across [`AdgCluster::crash_restart_standby`] and [`AdgCluster::promote`].
#[derive(Clone)]
pub struct Node {
    role: NodeRole,
    cluster: Arc<AdgCluster>,
    /// Which standby cluster a Standby-role handle fronts (farm index).
    standby: usize,
}

impl Node {
    /// This node's role.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// The deployment this node belongs to.
    pub fn cluster(&self) -> &Arc<AdgCluster> {
        &self.cluster
    }

    /// Execute a query on this node. Primary nodes answer at the current
    /// SCN; standby nodes at their published QuerySCN; router nodes
    /// dispatch by the request's staleness tolerance.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryOutput> {
        match self.role {
            NodeRole::Primary => self.cluster.primary().query(req),
            NodeRole::Standby => self.cluster.standby_at(self.standby)?.query(req),
            NodeRole::Router => self.cluster.route_query(req).map(|(out, _)| out),
        }
    }

    /// Snapshot this node's metrics (first primary instance, the fronted
    /// standby's registry, or — for a router handle — the primary's
    /// registry, since the router itself owns no pipeline).
    pub fn metrics(&self) -> MetricsSnapshot {
        match self.role {
            NodeRole::Primary | NodeRole::Router => self.cluster.primary().metrics(),
            NodeRole::Standby => {
                self.cluster.standby_at(self.standby).map(|s| s.metrics()).unwrap_or_default()
            }
        }
    }

    /// The Prometheus label value / JSONL role tag for this node.
    fn role_label(&self) -> &'static str {
        match self.role {
            NodeRole::Primary => "primary",
            NodeRole::Standby => "standby",
            NodeRole::Router => "router",
        }
    }

    /// This node's metrics in the Prometheus text exposition format, every
    /// series labelled `role="primary"`/`role="standby"`/`role="router"`;
    /// standby handles additionally carry `standby="<name>"` so a farm's
    /// members stay distinguishable on one dashboard.
    pub fn metrics_prometheus(&self) -> String {
        let snapshot = self.metrics();
        if self.role == NodeRole::Standby {
            if let Ok(s) = self.cluster.standby_at(self.standby) {
                let name = s.name().to_string();
                return imadg_common::prometheus_text(
                    &snapshot,
                    &[("role", self.role_label()), ("standby", &name)],
                );
            }
        }
        imadg_common::prometheus_text(&snapshot, &[("role", self.role_label())])
    }

    /// This node's metrics as one self-contained JSONL record
    /// (`{"role": ..., "metrics": {...}}`) — append one per snapshot to a
    /// trajectory file and diff them line by line.
    pub fn metrics_jsonl(&self) -> String {
        imadg_common::jsonl_line(self.role_label(), &self.metrics())
    }

    /// Promote the freshest standby to primary (primary-loss role
    /// transition); the remaining standbys re-home to the new primary.
    /// Only valid on a standby handle; returns the new primary-role handle
    /// alongside the report.
    pub fn promote(&self) -> Result<(Node, PromotionReport)> {
        match self.role {
            NodeRole::Primary | NodeRole::Router => {
                Err(imadg_common::Error::Config("promote() is a standby-role operation".into()))
            }
            NodeRole::Standby => {
                let report = self.cluster.promote()?;
                Ok((self.cluster.node(NodeRole::Primary), report))
            }
        }
    }
}

impl AdgCluster {
    /// A role-typed handle onto this deployment (standby role fronts farm
    /// index 0).
    pub fn node(self: &Arc<Self>, role: NodeRole) -> Node {
        Node { role, cluster: self.clone(), standby: 0 }
    }

    /// A standby-role handle onto one named farm member by index.
    pub fn node_standby(self: &Arc<Self>, idx: usize) -> Node {
        Node { role: NodeRole::Standby, cluster: self.clone(), standby: idx }
    }
}

/// Named-setter builder for a full deployment.
///
/// Each field has one way to be set: a named setter for the deployment
/// shape ([`ClusterConfig`]'s own fields), [`NodeBuilder::link`] and
/// [`NodeBuilder::durability`] for the medium and the state directory,
/// and [`NodeBuilder::tune`] for every other [`SystemConfig`] knob.
///
/// ```
/// use imadg_db::{NodeBuilder, LinkMode};
///
/// let cluster = NodeBuilder::new()
///     .primary_instances(2)
///     .link(LinkMode::Framed)
///     .build()
///     .unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeBuilder {
    config: ClusterConfig,
}

impl NodeBuilder {
    /// A default single-primary, single-standby deployment over a clean
    /// framed link (in-process pipes, no faults).
    pub fn new() -> NodeBuilder {
        NodeBuilder::default()
    }

    /// Number of primary RAC instances (redo threads).
    pub fn primary_instances(mut self, n: usize) -> Self {
        self.config.primary_instances = n;
        self
    }

    /// Number of RAC instances per standby cluster.
    pub fn standby_instances(mut self, n: usize) -> Self {
        self.config.standby_instances = n;
        self
    }

    /// Provision a reader farm of `n` standby clusters named
    /// `sb0`..`sb{n-1}`, each on its own fan-out lane.
    pub fn reader_farm(mut self, n: usize) -> Self {
        self.config.standby_clusters =
            (0..n).map(|i| StandbySpec::named(format!("sb{i}"))).collect();
        self
    }

    /// Seeded fault injection on one farm member's redo lanes only (by
    /// farm index); the other lanes stay clean.
    pub fn standby_faults(mut self, idx: usize, plan: FaultPlan) -> Self {
        if let Some(spec) = self.config.standby_clusters.get_mut(idx) {
            spec.faults = Some(plan);
        }
        self
    }

    /// Enable/disable the DBIM-on-ADG infrastructure on the standby.
    pub fn dbim_on_adg(mut self, on: bool) -> Self {
        self.config.dbim_on_adg = on;
        self
    }

    /// Enable/disable commit-record in-memory annotation (§III.E).
    pub fn commit_annotation(mut self, on: bool) -> Self {
        self.config.commit_annotation = on;
        self
    }

    /// How redo travels to the standby.
    pub fn link(mut self, mode: LinkMode) -> Self {
        self.config.system.transport.mode = mode;
        self
    }

    /// Persist redo on both link ends under `dir`. Requires a framed or
    /// TCP link.
    pub fn durability(mut self, dir: impl Into<String>) -> Self {
        self.config.system.durability.dir = Some(dir.into());
        self
    }

    /// Install the deployment clock. Every timestamp in the system — redo
    /// generation stamps, transport pacing, staleness histograms — reads
    /// it; a [`imadg_common::Clock::manual`] clock makes latency tracing
    /// bit-deterministic under the step scheduler.
    pub fn clock(mut self, clock: imadg_common::Clock) -> Self {
        self.config.clock = clock;
        self
    }

    /// Set any other kernel knob in place: transport cadences, latency and
    /// faults, segment size, memory budget, recovery workers, population
    /// thresholds.
    pub fn tune(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.config.system);
        self
    }

    /// The accumulated [`ClusterConfig`] without building.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Validate the configuration and provision the deployment.
    pub fn build(self) -> Result<Arc<AdgCluster>> {
        AdgCluster::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use imadg_common::{ObjectId, TenantId};
    use imadg_imcs::Filter;
    use imadg_storage::{ColumnType, Schema, TableSpec, Value};

    use crate::placement::Placement;

    fn seeded(cluster: &Arc<AdgCluster>) -> ObjectId {
        let obj = ObjectId(1);
        cluster
            .create_table(TableSpec {
                id: obj,
                name: "t".into(),
                tenant: TenantId::DEFAULT,
                schema: Schema::of(&[("v", ColumnType::Int)]),
                key_ordinal: 0,
                rows_per_block: 64,
            })
            .unwrap();
        cluster.set_placement(obj, Placement::StandbyOnly).unwrap();
        for i in 0..10 {
            cluster.primary().insert_one(obj, TenantId(0), vec![Value::Int(i)]).unwrap();
        }
        cluster.sync().unwrap();
        obj
    }

    #[test]
    fn role_routes_queries() {
        let cluster = NodeBuilder::new().build().unwrap();
        let obj = seeded(&cluster);
        let req = QueryRequest::scan(obj).filter(Filter::all());
        let p = cluster.node(NodeRole::Primary).query(&req).unwrap();
        let s = cluster.node(NodeRole::Standby).query(&req).unwrap();
        assert_eq!(p.rows.len(), 10);
        assert_eq!(p.rows, s.rows, "both roles see the same committed data");
    }

    #[test]
    fn export_carries_role_label() {
        let cluster = NodeBuilder::new().build().unwrap();
        let obj = seeded(&cluster);
        let req = QueryRequest::scan(obj).filter(Filter::all());
        cluster.node(NodeRole::Standby).query(&req).unwrap();

        let text = cluster.node(NodeRole::Standby).metrics_prometheus();
        assert!(text.contains("imadg_scan_queries{role=\"standby\",standby=\"sb0\"} 1"), "{text}");
        assert!(text.contains("# TYPE imadg_staleness_e2e summary"));

        let line = cluster.node(NodeRole::Primary).metrics_jsonl();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"role\":\"primary\""), "{line}");
    }

    #[test]
    fn promote_rejected_on_primary_handle() {
        let cluster = NodeBuilder::new().build().unwrap();
        assert!(cluster.node(NodeRole::Primary).promote().is_err());
        assert!(cluster.node(NodeRole::Router).promote().is_err());
    }

    #[test]
    fn farm_members_are_addressable_by_name_and_index() {
        let cluster = NodeBuilder::new().reader_farm(3).build().unwrap();
        let obj = seeded(&cluster);
        assert_eq!(cluster.standbys().len(), 3);
        assert_eq!(cluster.standby_named("sb2").unwrap().lane(), 2);
        assert!(cluster.standby_named("nope").is_err());
        assert!(cluster.standby_at(7).is_err());
        // Every member applied and serves the same committed data.
        let req = QueryRequest::scan(obj).filter(Filter::all());
        for idx in 0..3 {
            let out = cluster.node_standby(idx).query(&req).unwrap();
            assert_eq!(out.rows.len(), 10, "standby {idx}");
        }
        // Each member's export is distinguishable by its standby label.
        let text = cluster.node_standby(1).metrics_prometheus();
        assert!(text.contains("standby=\"sb1\""), "{text}");
    }

    #[test]
    fn duplicate_farm_names_rejected() {
        let farm = vec![StandbySpec::named("a"), StandbySpec::named("a")];
        assert!(AdgCluster::new(ClusterConfig { standby_clusters: farm, ..Default::default() })
            .is_err());
        // An empty farm has no standby to serve or promote.
        assert!(NodeBuilder::new().reader_farm(0).build().is_err());
    }

    #[test]
    fn router_routes_by_staleness_bound() {
        let cluster = NodeBuilder::new().reader_farm(2).build().unwrap();
        let obj = seeded(&cluster);
        // Fully synced farm: gap is zero, any bound routes to a standby.
        let req =
            QueryRequest::scan(obj).filter(Filter::all()).max_staleness(Duration::from_micros(1));
        let (out, decision) = cluster.route_query(&req).unwrap();
        assert_eq!(out.rows.len(), 10);
        assert!(decision.offloaded(), "{decision:?}");
        // Router handles answer the same data.
        let via_node = cluster.node(NodeRole::Router).query(&req).unwrap();
        assert_eq!(via_node.rows.len(), 10);
        // New commits the farm has not applied open an SCN gap with no e2e
        // history at a tight bound: the router falls back to the primary.
        for i in 10..20 {
            cluster.primary().insert_one(obj, TenantId(0), vec![Value::Int(i)]).unwrap();
        }
        let (out, decision) = cluster.route_query(&req).unwrap();
        assert_eq!(out.rows.len(), 20, "primary serves current data");
        assert!(!decision.offloaded(), "{decision:?}");
        // An unbounded request still offloads.
        let relaxed = QueryRequest::scan(obj).filter(Filter::all());
        let (_, decision) = cluster.route_query(&relaxed).unwrap();
        assert!(decision.offloaded(), "{decision:?}");
    }

    #[test]
    fn router_balances_load_across_members() {
        let cluster = NodeBuilder::new().reader_farm(2).build().unwrap();
        let obj = seeded(&cluster);
        let req = QueryRequest::scan(obj).filter(Filter::all());
        for _ in 0..6 {
            let (_, d) = cluster.route_query(&req).unwrap();
            assert!(d.offloaded());
        }
        for s in cluster.standbys() {
            assert_eq!(s.routed_queries(), 3, "least-loaded routing alternates members");
        }
    }

    #[test]
    fn builder_sets_every_knob() {
        let fault = FaultPlan { seed: 7, ..FaultPlan::default() };
        let b = NodeBuilder::new()
            .primary_instances(2)
            .standby_instances(3)
            .reader_farm(2)
            .standby_faults(1, fault.clone())
            .dbim_on_adg(false)
            .commit_annotation(false)
            .clock(imadg_common::Clock::manual())
            .link(LinkMode::Tcp)
            .durability("/tmp/unused")
            .tune(|s| s.transport.nak_retry_polls = 4);
        let c = b.config();
        assert_eq!(c.primary_instances, 2);
        assert_eq!(c.standby_instances, 3);
        let names: Vec<&str> = c.standby_clusters.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["sb0", "sb1"]);
        assert_eq!(c.standby_clusters[0].faults, None);
        assert_eq!(c.standby_clusters[1].faults, Some(fault));
        assert!(!c.dbim_on_adg);
        assert!(!c.commit_annotation);
        assert!(matches!(c.clock, imadg_common::Clock::Manual(_)));
        assert_eq!(c.system.transport.mode, LinkMode::Tcp);
        assert_eq!(c.system.durability.dir.as_deref(), Some("/tmp/unused"));
        assert_eq!(c.system.transport.nak_retry_polls, 4);
    }
}
