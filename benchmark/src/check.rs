//! Correctness checks, run outside every timed window.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use imadg_db::{Filter, QueryOutput, QueryRequest};
use imadg_workload::oltap::{NUM_DOMAIN, STR_DOMAIN};
use imadg_workload::{q1, q2};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{Deployment, Res, WIDE};

/// Row count plus an order-free hash over every column of every row: the
/// two engines return rows in different orders.
fn fingerprint(out: &QueryOutput) -> (usize, u64) {
    let hash = out.rows.iter().fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    (out.rows.len(), hash)
}

/// Zero committed-row loss: stop the runtime, `cluster.sync()`, then the
/// standby's column-store answers to 8 seeded Q1/Q2 binds and a full
/// `COUNT`/`SUM(id)` must equal the primary's row-store answers at the same
/// SCN, and that SCN must cover the primary's last commit. Leaves the
/// runtime stopped. Returns the mismatches found, one line each.
pub fn committed_rows_match(dep: &mut Deployment, seed: u64) -> Res<Vec<String>> {
    dep.stop()?;
    dep.cluster.sync()?;
    let (primary, standby) = (dep.primary(), dep.standby());
    let scn = standby.current_query_scn()?;
    let mut wrong = Vec::new();
    if scn < primary.current_scn() {
        wrong.push(format!("QuerySCN {scn} is behind the primary's {}", primary.current_scn()));
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4EC);
    for i in 0..8 {
        let (name, filter) = if i % 2 == 0 {
            ("Q1", q1(&dep.schema, rng.gen_range(0..NUM_DOMAIN))?)
        } else {
            ("Q2", q2(&dep.schema, rng.gen_range(0..STR_DOMAIN))?)
        };
        let req = QueryRequest::scan(WIDE).filter(filter).at(scn);
        let (got, want) = (standby.query(&req)?, primary.query(&req)?);
        if !got.used_imcs || want.used_imcs {
            wrong.push(format!("{name} #{i}: column store must answer on the standby only"));
        }
        if fingerprint(&got) != fingerprint(&want) {
            wrong.push(format!(
                "{name} #{i}: standby {:?} != primary {:?}",
                fingerprint(&got),
                fingerprint(&want)
            ));
        }
    }
    let count = QueryRequest::scan(WIDE).filter(Filter::all()).aggregate("id").at(scn);
    let aggs = |out: QueryOutput| out.aggregate.map(|a| (a.aggs.count, a.aggs.sum));
    let (got, want) = (aggs(standby.query(&count)?), aggs(primary.query(&count)?));
    if got.is_none() || got != want {
        wrong.push(format!("full count: standby {got:?} != primary {want:?}"));
    }
    Ok(wrong)
}
