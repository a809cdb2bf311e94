//! Configuration for the replication pipeline, recovery, and the IMCS.

use std::time::Duration;

use crate::error::{Error, Result};

/// Parallel redo apply configuration (standby media recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Number of recovery worker processes. CVs are distributed to workers
    /// by hashing the DBA (paper Fig. 3).
    pub workers: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { workers: 4 }
    }
}

impl RecoveryConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::Config("recovery workers must be > 0".into()));
        }
        Ok(())
    }
}

/// In-Memory Column Store configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ImcsConfig {
    /// Max rows packed into a single IMCU.
    pub imcu_max_rows: usize,
    /// Fraction of invalid rows in an IMCU above which repopulation is
    /// triggered (repopulation heuristic, paper §II.B). Every journaled
    /// row costs each scan a row-store fetch, and a rebuild shares every
    /// column its changed rows left untouched, so the default (0.5 %)
    /// keeps journals short with rebuilds that re-encode only the touched
    /// columns. The cold tier never re-compacts or shields from eviction
    /// below 2 %: a cold rebuild rewrites the whole unit.
    pub repopulate_threshold: f64,
    /// Minimum published QuerySCN advance between repopulations of the same
    /// IMCU, to avoid thrashing the hot edge IMCU (paper §IV.A.2).
    pub repopulate_min_scn_gap: u64,
    /// Pause inserted after each background IMCU (re)build, yielding the
    /// CPU to queries and redo apply — population is a background activity
    /// (paper §II.B). Microseconds; 0 disables.
    pub build_pause_micros: u64,
    /// Memory budget for hot (in-DRAM) IMCUs, in approximate column-store
    /// bytes. When the hot tier exceeds the budget, the coldest units are
    /// evicted to the on-disk columnar tier under
    /// `<durability dir>/standby-<name>/coldstore/` (the paper's Fig. 2
    /// capacity-expansion story), so a budget requires a durability dir.
    /// `0` = unlimited, no eviction.
    pub memory_budget_bytes: usize,
}

impl Default for ImcsConfig {
    fn default() -> Self {
        ImcsConfig {
            imcu_max_rows: 2 * 1024,
            repopulate_threshold: 0.005,
            repopulate_min_scn_gap: 2000,
            build_pause_micros: 1000,
            memory_budget_bytes: 0,
        }
    }
}

impl ImcsConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.imcu_max_rows == 0 {
            return Err(Error::Config("imcu_max_rows must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.repopulate_threshold) {
            return Err(Error::Config("repopulate_threshold must be in [0,1]".into()));
        }
        Ok(())
    }
}

/// How redo travels from a primary instance to the standby. Both modes
/// run the same framed protocol: length-prefixed, checksummed,
/// sequence-numbered frames with gap detection and NAK/retransmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkMode {
    /// Framed link over an in-process byte pipe. The [`FaultPlan`]
    /// injects loss here; with no plan the link is perfect.
    #[default]
    Framed,
    /// Framed link over a loopback TCP socket with heartbeat liveness and
    /// reconnect backoff (the paper's deployment shape, §I).
    Tcp,
}

/// A seeded fault-injection plan for a framed redo link. Probabilities are
/// expressed per mille so the plan stays exactly reproducible from its
/// seed; windows count link *ticks* (one tick per frame sent or service
/// call), keeping the plan deterministic under the step scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed for every per-frame decision.
    pub seed: u64,
    /// Probability (‰) that a frame is silently dropped.
    pub drop_per_mille: u32,
    /// Probability (‰) that a frame is delivered twice.
    pub duplicate_per_mille: u32,
    /// Max frames a held frame may be reordered behind (0 = no reorder).
    pub reorder_window: u32,
    /// Extra ticks every frame is held before delivery (0 = none).
    pub delay_ticks: u32,
    /// Every `partition_every` ticks the link drops everything for
    /// `partition_ticks` ticks (0 = never partition).
    pub partition_every: u64,
    /// Length of each partition window, in ticks.
    pub partition_ticks: u64,
    /// Every `disconnect_every` ticks the link "drops carrier": frames in
    /// flight are lost and a reconnect is counted (0 = never).
    pub disconnect_every: u64,
}

impl FaultPlan {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.drop_per_mille > 1000 || self.duplicate_per_mille > 1000 {
            return Err(Error::Config("fault probabilities are per mille (0..=1000)".into()));
        }
        if self.drop_per_mille == 1000 {
            return Err(Error::Config("dropping every frame can never converge".into()));
        }
        if self.partition_every > 0 && self.partition_ticks >= self.partition_every {
            return Err(Error::Config(
                "partition_ticks must be shorter than partition_every".into(),
            ));
        }
        Ok(())
    }
}

/// Redo shipping transport configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// One-way latency added to every shipped redo batch.
    pub latency: Duration,
    /// How redo travels to the standby.
    pub mode: LinkMode,
    /// Fault injection for framed links (`None` = clean link).
    pub faults: Option<FaultPlan>,
    /// Max sent frames retained on the primary for serving NAKs — the
    /// bounded retained-redo window modelling gap resolution from
    /// online/archived logs.
    pub retained_window: usize,
    /// Receiver polls between NAK retries while a gap stays open.
    pub nak_retry_polls: u32,
    /// Sender service calls with outstanding unACKed frames and no control
    /// traffic before a liveness ping is sent.
    pub ping_idle_polls: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            latency: Duration::ZERO,
            mode: LinkMode::Framed,
            faults: None,
            retained_window: 4096,
            nak_retry_polls: 8,
            ping_idle_polls: 16,
        }
    }
}

impl TransportConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.retained_window == 0 {
            return Err(Error::Config("retained_window must be > 0".into()));
        }
        if self.nak_retry_polls == 0 || self.ping_idle_polls == 0 {
            return Err(Error::Config("protocol poll cadences must be > 0".into()));
        }
        if let Some(f) = &self.faults {
            f.validate()?;
        }
        Ok(())
    }
}

/// Redo durability configuration: the segmented on-disk log and the
/// archive tier.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Root directory for durable state: `<dir>/primary/tN` and, per
    /// standby, `<dir>/standby-<name>/tN` plus its cold tier
    /// `<dir>/standby-<name>/coldstore/`. `None` disables persistence:
    /// redo lives only in memory, and no memory budget can be set.
    pub dir: Option<String>,
    /// Size bound after which the active wal segment is sealed and becomes
    /// eligible for archival.
    pub segment_max_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { dir: None, segment_max_bytes: 256 * 1024 }
    }
}

impl DurabilityConfig {
    /// Whether durable persistence is enabled.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.enabled() && self.segment_max_bytes < 1024 {
            return Err(Error::Config("segment_max_bytes must be >= 1024".into()));
        }
        Ok(())
    }
}

/// Top-level system configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemConfig {
    /// Media-recovery settings.
    pub recovery: RecoveryConfig,
    /// Column-store settings.
    pub imcs: ImcsConfig,
    /// Redo-shipping settings.
    pub transport: TransportConfig,
    /// Redo-durability settings.
    pub durability: DurabilityConfig,
}

impl SystemConfig {
    /// Validate all sections.
    pub fn validate(&self) -> Result<()> {
        self.recovery.validate()?;
        self.imcs.validate()?;
        self.transport.validate()?;
        self.durability.validate()?;
        if self.imcs.memory_budget_bytes > 0 && !self.durability.enabled() {
            // Eviction puts the cold files in the durable state tree.
            return Err(Error::Config("memory_budget_bytes requires a durability dir".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        let c = RecoveryConfig { workers: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_threshold_rejected() {
        let c = ImcsConfig { repopulate_threshold: 1.5, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_fault_plan_rejected() {
        let mut c = TransportConfig {
            faults: Some(FaultPlan { drop_per_mille: 1000, ..FaultPlan::default() }),
            ..TransportConfig::default()
        };
        assert!(c.validate().is_err());
        c.faults =
            Some(FaultPlan { partition_every: 4, partition_ticks: 4, ..FaultPlan::default() });
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_retained_window_rejected() {
        let c = TransportConfig { retained_window: 0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_durability_knobs_rejected() {
        let mut c = DurabilityConfig::default();
        c.validate().unwrap();
        c.dir = Some("/tmp/imadg".into());
        c.segment_max_bytes = 16;
        assert!(c.validate().is_err());
        c.segment_max_bytes = 4096;
        c.validate().unwrap();
    }

    #[test]
    fn budget_without_durability_rejected() {
        let mut c = SystemConfig::default();
        c.imcs.memory_budget_bytes = 1024;
        assert!(c.validate().is_err());
        c.durability.dir = Some("/tmp/imadg".into());
        c.validate().unwrap();
    }
}
