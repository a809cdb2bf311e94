//! RAC distribution of invalidation groups (paper §III.F).
//!
//! On a RAC standby, redo apply runs only on the master instance (Single
//! Instance Redo Apply), so the IM-ADG Journal and Commit Table exist only
//! there. During QuerySCN advancement the flush component looks up each
//! invalidation group's home instance and transmits it over the (simulated)
//! interconnect; the receiving instance's *local recovery coordinator*
//! applies it to its SMUs and acknowledges. "Since messaging over the
//! network can become a bottleneck, DBIM-on-ADG employs batching and
//! pipelined transmission of invalidation groups".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use imadg_common::{InstanceId, ObjectId, Result, Stage, StageOutcome, TenantId, WakeToken};
use imadg_imcs::ImcsStore;
use parking_lot::Mutex;

use crate::flush::FlushTarget;
use crate::home_location::HomeLocationMap;
use crate::invalidation::InvalidationGroup;

/// A message on the standby interconnect.
#[derive(Debug, Clone)]
pub enum RacMessage {
    /// A batch of invalidation groups (batched transmission, §III.F).
    Invalidate(Vec<InvalidationGroup>),
    /// Per-tenant coarse invalidation.
    Coarse(TenantId),
    /// Drop all units of an object (DDL).
    DropObject(ObjectId),
}

/// The receiving end on a non-master instance: its local recovery
/// coordinator applies messages to the local column store and acks.
pub struct RacEndpoint {
    /// This instance.
    pub instance: InstanceId,
    /// Stage id for the runtime (`rac.N`).
    stage_name: String,
    rx: Mutex<Receiver<RacMessage>>,
    imcs: Arc<ImcsStore>,
    acked: Arc<AtomicU64>,
    /// Woken by the master's flush target on every send.
    waker: Mutex<Option<WakeToken>>,
}

impl RacEndpoint {
    /// The local column store served by this endpoint.
    pub fn imcs(&self) -> &Arc<ImcsStore> {
        &self.imcs
    }

    /// Wake `token` whenever the master sends this endpoint a message, so
    /// its stage parks instead of polling.
    pub fn set_waker(&self, token: WakeToken) {
        *self.waker.lock() = Some(token);
    }

    fn wake(&self) {
        if let Some(w) = self.waker.lock().as_ref() {
            w.wake();
        }
    }

    /// Apply every pending message; returns how many were processed.
    pub fn process_pending(&self) -> usize {
        let rx = self.rx.lock();
        let mut n = 0;
        while let Ok(msg) = rx.try_recv() {
            match msg {
                RacMessage::Invalidate(groups) => {
                    for g in groups {
                        for &loc in &g.locs {
                            self.imcs.invalidate(g.object, loc, g.commit_scn);
                        }
                    }
                }
                RacMessage::Coarse(tenant) => {
                    self.imcs.mark_tenant_invalid(tenant);
                }
                RacMessage::DropObject(object) => {
                    self.imcs.drop_object(object);
                }
            }
            self.acked.fetch_add(1, Ordering::AcqRel);
            n += 1;
        }
        n
    }
}

/// The endpoint's "local recovery coordinator" as a runtime stage
/// (metrics id `rac.N`): drains the interconnect queue when woken.
impl Stage for RacEndpoint {
    fn name(&self) -> &str {
        &self.stage_name
    }

    fn run_once(&self) -> Result<StageOutcome> {
        Ok(if self.process_pending() > 0 { StageOutcome::Progress } else { StageOutcome::Idle })
    }
}

struct RemoteLink {
    tx: Sender<RacMessage>,
    sent: AtomicU64,
    acked: Arc<AtomicU64>,
    endpoint: Arc<RacEndpoint>,
}

/// Master-side flush target distributing groups across the cluster.
pub struct RacFlushTarget {
    home: HomeLocationMap,
    local_instance: InstanceId,
    local: Arc<ImcsStore>,
    remotes: HashMap<InstanceId, RemoteLink>,
    /// Groups per interconnect message; 1 disables batching (ablation).
    batch: usize,
    /// Buffered groups awaiting a full batch, per remote instance.
    pending: Mutex<HashMap<InstanceId, Vec<InvalidationGroup>>>,
    /// Interconnect messages sent (batching ablation metric).
    pub messages_sent: AtomicU64,
}

impl RacFlushTarget {
    /// Build the distributor plus the remote endpoints.
    ///
    /// `instances` lists the whole cluster; `local_instance` (the master)
    /// applies its share directly. Returns the target and the endpoints of
    /// every non-master instance.
    pub fn new(
        home: HomeLocationMap,
        local_instance: InstanceId,
        stores: HashMap<InstanceId, Arc<ImcsStore>>,
        batch: usize,
    ) -> (RacFlushTarget, Vec<Arc<RacEndpoint>>) {
        let local = stores.get(&local_instance).expect("master has a store").clone();
        let mut remotes = HashMap::new();
        let mut endpoints = Vec::new();
        for (&inst, store) in &stores {
            if inst == local_instance {
                continue;
            }
            let (tx, rx) = unbounded();
            let acked = Arc::new(AtomicU64::new(0));
            let endpoint = Arc::new(RacEndpoint {
                instance: inst,
                stage_name: format!("rac.{}", inst.0),
                rx: Mutex::new(rx),
                imcs: store.clone(),
                acked: acked.clone(),
                waker: Mutex::new(None),
            });
            endpoints.push(endpoint.clone());
            remotes.insert(inst, RemoteLink { tx, sent: AtomicU64::new(0), acked, endpoint });
        }
        (
            RacFlushTarget {
                home,
                local_instance,
                local,
                remotes,
                batch: batch.max(1),
                pending: Mutex::new(HashMap::new()),
                messages_sent: AtomicU64::new(0),
            },
            endpoints,
        )
    }

    fn send(&self, inst: InstanceId, msg: RacMessage) {
        let link = &self.remotes[&inst];
        link.sent.fetch_add(1, Ordering::AcqRel);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        let _ = link.tx.send(msg);
        link.endpoint.wake();
    }

    fn enqueue_group(&self, inst: InstanceId, group: InvalidationGroup) {
        let full: Option<Vec<InvalidationGroup>> = {
            let mut pending = self.pending.lock();
            let buf = pending.entry(inst).or_default();
            buf.push(group);
            if buf.len() >= self.batch {
                Some(std::mem::take(buf))
            } else {
                None
            }
        };
        if let Some(groups) = full {
            // Pipelined: ship without waiting for the ack.
            self.send(inst, RacMessage::Invalidate(groups));
        }
    }

    fn flush_pending(&self) {
        let drained: Vec<(InstanceId, Vec<InvalidationGroup>)> = {
            let mut pending = self.pending.lock();
            pending
                .iter_mut()
                .filter(|(_, v)| !v.is_empty())
                .map(|(k, v)| (*k, std::mem::take(v)))
                .collect()
        };
        for (inst, groups) in drained {
            self.send(inst, RacMessage::Invalidate(groups));
        }
    }
}

impl FlushTarget for RacFlushTarget {
    fn flush_group(&self, group: &InvalidationGroup) {
        // Split the group's locations by home instance.
        let mut by_instance: HashMap<InstanceId, Vec<imadg_storage::RowLoc>> = HashMap::new();
        for &loc in &group.locs {
            by_instance.entry(self.home.instance_for(loc.dba)).or_default().push(loc);
        }
        for (inst, locs) in by_instance {
            if inst == self.local_instance {
                for &loc in &locs {
                    self.local.invalidate(group.object, loc, group.commit_scn);
                }
            } else {
                self.enqueue_group(
                    inst,
                    InvalidationGroup {
                        object: group.object,
                        tenant: group.tenant,
                        commit_scn: group.commit_scn,
                        locs,
                    },
                );
            }
        }
    }

    fn coarse_invalidate(&self, tenant: TenantId) {
        self.local.mark_tenant_invalid(tenant);
        for &inst in self.home.instances() {
            if inst != self.local_instance {
                self.send(inst, RacMessage::Coarse(tenant));
            }
        }
    }

    fn drop_object_units(&self, object: ObjectId) {
        self.local.drop_object(object);
        for &inst in self.home.instances() {
            if inst != self.local_instance {
                self.send(inst, RacMessage::DropObject(object));
            }
        }
    }

    fn synchronize(&self) {
        self.flush_pending();
        // Drain the endpoints inline until every instance acknowledged
        // everything we sent; endpoints running as their own stages may
        // drain concurrently.
        loop {
            let all_acked = self
                .remotes
                .values()
                .all(|l| l.acked.load(Ordering::Acquire) >= l.sent.load(Ordering::Acquire));
            if all_acked {
                return;
            }
            for link in self.remotes.values() {
                link.endpoint.process_pending();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imadg_common::{Dba, Scn};
    use imadg_imcs::{Imcu, ImcuHandle};
    use imadg_storage::RowLoc;

    fn cluster() -> (RacFlushTarget, Vec<Arc<RacEndpoint>>, HashMap<InstanceId, Arc<ImcsStore>>) {
        let mut stores = HashMap::new();
        for i in 0..2u8 {
            stores.insert(InstanceId(i), Arc::new(ImcsStore::new()));
        }
        // Stripe 4: DBAs 0..4 → inst 0 (master), 4..8 → inst 1.
        let home = HomeLocationMap::new(vec![InstanceId(0), InstanceId(1)], 4);
        let (target, endpoints) = RacFlushTarget::new(home, InstanceId(0), stores.clone(), 2);
        (target, endpoints, stores)
    }

    fn unit_on(store: &ImcsStore, obj: u32, dbas: &[u64]) -> Arc<ImcuHandle> {
        let o = store.ensure_object(ObjectId(obj), TenantId::DEFAULT);
        let h = Arc::new(ImcuHandle::new(Imcu::pending(
            ObjectId(obj),
            TenantId::DEFAULT,
            dbas.iter().map(|&d| Dba(d)).collect(),
            Scn(1),
            1,
        )));
        o.register(h.clone());
        h
    }

    fn group(obj: u32, scn: u64, locs: &[(u64, u16)]) -> InvalidationGroup {
        InvalidationGroup {
            object: ObjectId(obj),
            tenant: TenantId::DEFAULT,
            commit_scn: Scn(scn),
            locs: locs.iter().map(|&(d, s)| RowLoc { dba: Dba(d), slot: s }).collect(),
        }
    }

    #[test]
    fn groups_split_by_home_instance() {
        let (target, _eps, stores) = cluster();
        let h0 = unit_on(&stores[&InstanceId(0)], 1, &[1]);
        let h1 = unit_on(&stores[&InstanceId(1)], 1, &[5]);
        target.flush_group(&group(1, 9, &[(1, 0), (5, 0)]));
        target.synchronize();
        assert!(h0.smu().read().is_invalid(RowLoc { dba: Dba(1), slot: 0 }), "local applied");
        assert!(
            h1.smu().read().is_invalid(RowLoc { dba: Dba(5), slot: 0 }),
            "remote applied after sync"
        );
    }

    #[test]
    fn batching_reduces_messages() {
        let (target, _eps, stores) = cluster();
        unit_on(&stores[&InstanceId(1)], 1, &[5]);
        // 6 remote groups, batch=2 → 3 messages.
        for i in 0..6 {
            target.flush_group(&group(1, 9 + i, &[(5, i as u16)]));
        }
        target.synchronize();
        assert_eq!(target.messages_sent.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn partial_batch_flushed_at_synchronize() {
        let (target, _eps, stores) = cluster();
        let h1 = unit_on(&stores[&InstanceId(1)], 1, &[5]);
        target.flush_group(&group(1, 9, &[(5, 3)]));
        // One group < batch of 2: only synchronize pushes it out.
        assert_eq!(target.messages_sent.load(Ordering::Relaxed), 0);
        target.synchronize();
        assert_eq!(target.messages_sent.load(Ordering::Relaxed), 1);
        assert!(h1.smu().read().is_invalid(RowLoc { dba: Dba(5), slot: 3 }));
    }

    #[test]
    fn coarse_and_drop_fan_out() {
        let (target, _eps, stores) = cluster();
        let h0 = unit_on(&stores[&InstanceId(0)], 1, &[1]);
        let h1 = unit_on(&stores[&InstanceId(1)], 1, &[5]);
        target.coarse_invalidate(TenantId::DEFAULT);
        target.synchronize();
        assert!(h0.smu().read().all_invalid());
        assert!(h1.smu().read().all_invalid());
        target.drop_object_units(ObjectId(1));
        target.synchronize();
        assert!(stores[&InstanceId(0)].object(ObjectId(1)).is_none());
        assert!(stores[&InstanceId(1)].object(ObjectId(1)).is_none());
    }

    #[test]
    fn threaded_endpoints_ack_alongside_inline_drain() {
        let (target, endpoints, stores) = cluster();
        let h1 = unit_on(&stores[&InstanceId(1)], 1, &[5]);
        // Endpoints run as runtime stages, woken by the master's sends.
        let mut rt = imadg_common::Runtime::new();
        for ep in &endpoints {
            let id = rt.register(ep.clone() as Arc<dyn Stage>, Arc::default());
            ep.set_waker(rt.wake_token(id));
        }
        let threads = rt.start_threaded();
        target.flush_group(&group(1, 9, &[(5, 0)]));
        target.synchronize();
        assert!(h1.smu().read().is_invalid(RowLoc { dba: Dba(5), slot: 0 }));
        assert!(threads.shutdown().is_healthy());
    }
}
