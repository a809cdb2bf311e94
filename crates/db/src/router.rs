//! The staleness-bounded query router over the reader farm.
//!
//! The paper's standby offload (§I, §VI) assumes an application that
//! tolerates bounded staleness: analytics run on the standby at the
//! published QuerySCN while OLTP stays on the primary. With a farm of N
//! standbys the placement decision becomes a *routing* decision per query:
//! a [`QueryRequest::max_staleness`] bound routes to the least-loaded
//! standby whose estimated commit-to-queryable freshness (the PR-8 e2e
//! staleness histogram plus the current SCN gap) is within tolerance, and
//! falls back to the primary — staleness zero by definition — when no
//! standby qualifies.
//!
//! Routing is a pure function of farm state, so the same deployment state
//! and the same request produce the same [`RouteDecision`] — the chaos
//! suite pins this under the seeded `StepScheduler`.

use imadg_common::Result;

use crate::cluster::AdgCluster;
use crate::query::{QueryOutput, QueryRequest};

/// Why a query fell back to the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The object is placed on the primary service only; no standby
    /// offload is intended.
    PrimaryPlacement,
    /// No standby is eligible (farm empty / frozen / placement excludes /
    /// never published a QuerySCN).
    NoEligibleStandby,
    /// Standbys exist but every estimate exceeds the staleness bound.
    StalenessExceeded,
}

/// Where one query was sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteTarget {
    /// Served by the named standby cluster.
    Standby {
        /// Farm index.
        index: usize,
        /// Cluster name.
        name: String,
    },
    /// Served by the primary.
    Primary {
        /// Why the farm was bypassed.
        reason: FallbackReason,
    },
}

/// One standby's routing inputs at decision time (returned for
/// explainability and determinism tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandbyEstimate {
    /// Farm index.
    pub index: usize,
    /// Cluster name.
    pub name: String,
    /// Whether the standby was a routing candidate at all.
    pub eligible: bool,
    /// Estimated commit-to-queryable staleness, µs (None = unknown, which
    /// makes the standby ineligible under any finite bound).
    pub staleness_us: Option<u64>,
    /// Router load (queries previously routed here).
    pub load: u64,
}

/// The router's verdict for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// Where the query went.
    pub target: RouteTarget,
    /// The request's staleness bound, µs (None = unbounded).
    pub bound_us: Option<u64>,
    /// Every standby's routing inputs, farm order.
    pub estimates: Vec<StandbyEstimate>,
}

impl RouteDecision {
    /// Whether the query was offloaded to a standby.
    pub fn offloaded(&self) -> bool {
        matches!(self.target, RouteTarget::Standby { .. })
    }
}

impl AdgCluster {
    /// Decide where `req` should run, without executing it.
    ///
    /// Eligibility: the standby is not frozen, the object's placement does
    /// not pin it to the primary service alone, and the standby has
    /// published a QuerySCN — at or above the request's explicit snapshot,
    /// if it carries one. Freshness: a zero SCN gap estimates zero
    /// staleness (the standby has applied and published everything the
    /// primary has committed); otherwise the p99 of the standby's e2e
    /// commit-to-queryable histogram — a standby with a non-zero gap and
    /// no history yet is unknown, hence ineligible under a finite bound.
    /// Among eligible standbys the least-loaded wins (ties to the lowest
    /// farm index).
    pub fn route(&self, req: &QueryRequest) -> RouteDecision {
        let placement = self.placement(req.object());
        let bound_us = req.max_staleness_bound().map(|d| d.as_micros() as u64);
        if placement.on_primary() && !placement.on_standby() {
            return RouteDecision {
                target: RouteTarget::Primary { reason: FallbackReason::PrimaryPlacement },
                bound_us,
                estimates: Vec::new(),
            };
        }
        let standbys = self.standbys();
        let mut estimates = Vec::with_capacity(standbys.len());
        let mut best: Option<(u64, usize)> = None;
        let mut any_within_placement = false;
        for (index, s) in standbys.iter().enumerate() {
            // Objects with no in-memory standby placement still answer
            // from any standby's row store at the QuerySCN.
            let covered = !placement.on_standby() || placement.on_standby_named(s.name());
            // An explicit snapshot is a floor: a member whose QuerySCN
            // has not reached it cannot serve the request.
            let published =
                s.query_scn.get().is_some_and(|q| req.snapshot().is_none_or(|at| at <= q));
            let staleness_us = if !covered || s.is_frozen() || !published {
                None
            } else if s.scn_gap() == 0 {
                Some(0)
            } else {
                let e2e = s.e2e_staleness();
                if e2e.count > 0 {
                    Some(e2e.quantile(0.99))
                } else {
                    None
                }
            };
            if covered && !s.is_frozen() {
                any_within_placement = true;
            }
            let eligible = match (staleness_us, bound_us) {
                (Some(est), Some(bound)) => est <= bound,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let load = s.routed_queries();
            estimates.push(StandbyEstimate {
                index,
                name: s.name().to_string(),
                eligible,
                staleness_us,
                load,
            });
            if eligible && best.map(|(l, _)| load < l).unwrap_or(true) {
                best = Some((load, index));
            }
        }
        let target = match best {
            Some((_, index)) => {
                RouteTarget::Standby { index, name: standbys[index].name().to_string() }
            }
            None => RouteTarget::Primary {
                reason: if any_within_placement {
                    FallbackReason::StalenessExceeded
                } else {
                    FallbackReason::NoEligibleStandby
                },
            },
        };
        RouteDecision { target, bound_us, estimates }
    }

    /// Route `req` and execute it on the chosen node. Standby routes count
    /// into that standby's load; primary fallbacks run at the current SCN.
    pub fn route_query(&self, req: &QueryRequest) -> Result<(QueryOutput, RouteDecision)> {
        let decision = self.route(req);
        let out = match &decision.target {
            RouteTarget::Standby { index, .. } => {
                let standby = self.standby_at(*index)?;
                standby.note_routed();
                standby.query(req)?
            }
            RouteTarget::Primary { .. } => self.primary().query(req)?,
        };
        Ok((out, decision))
    }
}
