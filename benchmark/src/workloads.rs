//! The four workloads. Each gives one instrument its window under its own
//! condition; the probes that follow fill in the end-to-end metrics the
//! window does not measure, because every run must report every one of
//! them. A traced run (`--trace 1`) re-runs the same inputs under spans
//! and reports the per-layer metrics instead.

use std::time::{Duration, Instant};

use imadg_workload::OpMix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::committed_rows_match;
use crate::deploy::{out_dir, wait_until, Deployment, Res, Scale, KROWS_PER_UNIT, WIDE};
use crate::hist::percentile;
use crate::instruments::{
    commit_backlog, drain_threaded, open_loop, reference_answers, scan_loop, step_until,
    BacklogOut, Binds, OpKind, OpenLoop, OpenLoopOut, ScanOut, Shape,
};
use crate::layers::{set_scan_profile, set_waits, LayerProbe};
use crate::pacer::Sample;
use crate::spec::Metrics;
use crate::trace::{self_times, write_jsonl, Span, Tracer};

/// Client threads of `oltap_mixed` (the host has two cores).
const CLIENTS: usize = 2;

/// Everything one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each; empty = correct.
    pub problems: Vec<String>,
}

struct Run<'a> {
    scale: &'a Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    m: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
}

pub fn run(workload: &str, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let mut run = Run {
        scale,
        seed,
        seconds,
        trace,
        epoch: Instant::now(),
        m: Metrics::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        spans: Vec::new(),
    };
    let durable = workload == "restart";
    let mut dep = Deployment::set_up(scale.rows, seed, durable, true)?;
    run.m.set("setup_s", dep.setup_s);
    match (workload, trace) {
        ("oltap_mixed", false) => run.oltap_mixed(&dep)?,
        ("oltap_mixed", true) => run.oltap_mixed_traced(&dep)?,
        ("scan_quiet", false) => run.scan_quiet(&dep)?,
        ("scan_quiet", true) => run.scan_quiet_traced(&dep)?,
        ("catchup", false) => run.catchup(&mut dep)?,
        ("catchup", true) => run.catchup_traced(&mut dep)?,
        ("restart", false) => run.restart(&mut dep)?,
        ("restart", true) => run.restart_traced(&mut dep)?,
        _ => return Err(format!("unknown workload {workload}").into()),
    }
    if !trace {
        run.probes(&dep)?;
    }
    run.problems.extend(committed_rows_match(&mut dep, seed)?);
    if trace {
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        write_jsonl(&path, &run.spans)?;
        println!("# {} spans written to {}", run.spans.len(), path.display());
    }
    Ok(Outcome {
        metrics: run.m,
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
    })
}

impl Run<'_> {
    fn set_absent(&mut self, name: &'static str, value: f64) {
        if !self.m.has(name) {
            self.m.set(name, value);
        }
    }

    /// A tail percentile, reported only when at least ten samples lie
    /// beyond it.
    fn set_tail(&mut self, name: &'static str, samples: &mut [f64], q: f64) {
        if samples.len() as f64 * (1.0 - q) >= 10.0 {
            self.m.set(name, percentile(samples, q));
        }
    }

    fn tracer(&self) -> Tracer {
        Tracer::new(self.trace, self.epoch, 0)
    }

    fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ salt)
    }

    // -- reporting ----------------------------------------------------------

    /// Scan-loop metrics; a metric the window already measured is kept.
    fn report_scans(&mut self, dep: &Deployment, out: &mut ScanOut) {
        self.attempted += out.queries;
        self.failed += out.failed;
        let names = ["q1_p50_ms", "q2_p50_ms", "q1_d2_p50_ms", "agg_p50_ms"];
        for (samples, p50) in out.lat_ms.iter_mut().zip(names) {
            println!("# {p50}: {} samples", samples.len());
            self.set_absent(p50, percentile(samples, 0.50));
        }
        let table_rows = dep.next_key.load(std::sync::atomic::Ordering::Relaxed) as f64;
        self.set_absent("scan_rows_per_s", out.queries as f64 * table_rows / out.elapsed_s);
    }

    /// Open-loop metrics, every latency from the due time. A failed
    /// operation misses every latency limit: it counts as failed and has no
    /// latency sample.
    fn report_open_loop(&mut self, cfg: &OpenLoop, out: &OpenLoopOut) {
        self.attempted += out.samples.len() as u64;
        self.failed += out.failed();
        let ms = |kind: OpKind| -> Vec<f64> {
            out.samples
                .iter()
                .filter(|s| s.kind.ok && s.kind.kind == kind)
                .map(|s| s.latency().as_secs_f64() * 1e3)
                .collect()
        };
        for (kind, p50) in [(OpKind::Q1, "q1_p50_ms"), (OpKind::Q2, "q2_p50_ms")] {
            let mut samples = ms(kind);
            if !samples.is_empty() {
                println!("# {p50}: {} samples", samples.len());
                self.set_absent(p50, percentile(&mut samples, 0.50));
            }
        }
        let mut dml = out.dml_us(Sample::latency);
        println!(
            "# dml_p50_us: {} samples; staleness_p50_us: {} samples",
            dml.len(),
            out.stages.e2e.count
        );
        self.set_absent("dml_p50_us", percentile(&mut dml, 0.50));
        self.set_absent("staleness_p50_us", out.stages.e2e.quantile(0.50));
        // Successful operations per second from the window's opening to the
        // last completion: the offered rate while the system keeps up, less
        // once the schedule's debt runs past the window's end.
        let succeeded = out.samples.iter().filter(|s| s.kind.ok).count();
        let last_done = out.samples.iter().map(|s| s.done).max().unwrap_or(cfg.warmup + cfg.window);
        self.set_absent(
            "achieved_ops_per_s",
            succeeded as f64 / (last_done - cfg.warmup).as_secs_f64(),
        );
    }

    fn report_drain(&mut self, backlog: &BacklogOut, drain_s: f64) {
        self.attempted += backlog.ops;
        self.failed += backlog.failed;
        println!("# drained {} redo records in {drain_s:.3} s", backlog.records);
        self.set_absent("apply_records_per_s", backlog.records as f64 / drain_s);
    }

    // -- probes -------------------------------------------------------------

    /// The short fixed-size probes that follow a window, for whichever
    /// end-to-end metrics the window did not measure.
    fn probes(&mut self, dep: &Deployment) -> Res<()> {
        if !self.m.has("q1_d2_p50_ms") {
            // Let the repopulation the window provoked finish first.
            dep.wait_population_idle()?;
            let binds = Binds::from_seed(self.seed);
            let mut out = scan_loop(dep, &binds, self.scale.probe_secs, &mut Tracer::off())?;
            self.report_scans(dep, &mut out);
        }
        if !self.m.has("staleness_p50_us") {
            let cfg = OpenLoop {
                rate: self.scale.probe_rate,
                clients: 1,
                warmup: Duration::from_secs_f64(self.scale.probe_secs / 10.0),
                window: Duration::from_secs_f64(self.scale.probe_secs),
                mix: OpMix { update_pct: 100.0, insert_pct: 0.0, fetch_pct: 0.0, scan_pct: 0.0 },
                seed: self.seed ^ 0xF5E5,
            };
            let out = open_loop(dep, &cfg, false)?;
            self.report_open_loop(&cfg, &out);
        }
        if !self.m.has("apply_records_per_s") {
            // No drain in this window: the standby's first catch-up, on the
            // whole load, was this run's drain at saturation.
            let (records, secs) = dep.first_catchup;
            println!("# first catch-up: {records} redo records in {secs:.3} s");
            self.m.set("apply_records_per_s", records as f64 / secs);
        }
        Ok(())
    }

    // -- oltap_mixed --------------------------------------------------------

    fn oltap_cfg(&self, warmup: f64, window: f64) -> OpenLoop {
        OpenLoop {
            rate: self.scale.oltap_rate,
            clients: CLIENTS,
            warmup: Duration::from_secs_f64(warmup),
            window: Duration::from_secs_f64(window),
            mix: OpMix::update_insert(),
            seed: self.seed,
        }
    }

    fn oltap_mixed(&mut self, dep: &Deployment) -> Res<()> {
        // The scan shapes the mix does not issue (degree 2, aggregate) are
        // probed before the window, on the clean column store: after it, the
        // units the window left half-repopulated made them bimodal.
        let mut clean = scan_loop(
            dep,
            &Binds::from_seed(self.seed),
            self.scale.probe_secs,
            &mut Tracer::off(),
        )?;
        let cfg = self.oltap_cfg(self.seconds / 10.0, self.seconds);
        let out = open_loop(dep, &cfg, false)?;
        self.report_open_loop(&cfg, &out);
        self.report_scans(dep, &mut clean);
        Ok(())
    }

    /// Half the window untraced, half traced: the difference is what the
    /// benchmark's own spans and `.profile()` cost.
    fn oltap_mixed_traced(&mut self, dep: &Deployment) -> Res<()> {
        let half = self.seconds / 2.0;
        let plain_cfg = self.oltap_cfg(self.seconds / 10.0, half);
        let plain = open_loop(dep, &plain_cfg, false)?;
        let probe = LayerProbe::begin(dep);
        let cfg = OpenLoop { seed: self.seed ^ 1, ..self.oltap_cfg(0.0, half) };
        let mut traced = open_loop(dep, &cfg, true)?;
        probe.end(dep, true, &mut self.m);
        self.attempted += (plain.samples.len() + traced.samples.len()) as u64;
        self.failed += plain.failed() + traced.failed();

        let service = |out: &OpenLoopOut, kind: OpKind| {
            let us: Vec<f64> = out
                .samples
                .iter()
                .filter(|s| s.kind.kind == kind)
                .map(|s| s.service().as_secs_f64() * 1e6)
                .collect();
            us.iter().sum::<f64>() / us.len().max(1) as f64
        };
        self.m.set("txn.update_us", service(&traced, OpKind::Update));
        self.m.set("txn.insert_us", service(&traced, OpKind::Insert));
        self.m.set("storage.fetch_us", service(&traced, OpKind::Fetch));
        self.m.set("txn.conflicts", traced.conflicts as f64);
        set_waits(&traced.stages, &mut self.m);
        set_scan_profile(&traced.scan_profile, &mut self.m);
        let mut late: Vec<f64> =
            traced.samples.iter().map(|s| s.lateness().as_secs_f64() * 1e6).collect();
        self.m.set("bench.gen_late_p95_us", percentile(&mut late, 0.95));
        let service_p50 = |out: &OpenLoopOut| percentile(&mut out.dml_us(Sample::service), 0.50);
        self.m.set("bench.trace_overhead_share", service_p50(&traced) / service_p50(&plain) - 1.0);
        self.set_tail("tail.dml_p95_us", &mut traced.dml_us(Sample::latency), 0.95);
        if traced.stages.e2e.count >= 1_000 {
            self.m.set("tail.staleness_p99_us", traced.stages.e2e.quantile(0.99));
        }
        let sum = self.m.get("wait.sum_over_e2e").unwrap_or(0.0);
        if (sum - 1.0).abs() > 0.01 {
            self.problems.push(format!("stage waits sum to {sum:.4} of the e2e staleness mean"));
        }
        self.spans.append(&mut traced.spans);
        Ok(())
    }

    // -- scan_quiet ---------------------------------------------------------

    /// Every answer of the loop against the primary's row store. Nothing
    /// has been committed since set-up, so the current QuerySCN is the SCN
    /// every query of the loop ran at.
    fn verify_scans(&mut self, dep: &Deployment, binds: &Binds, out: &ScanOut) -> Res<()> {
        if out.inconsistent > 0 {
            self.problems
                .push(format!("{} repeated queries disagreed with themselves", out.inconsistent));
        }
        let reference = reference_answers(dep, binds, dep.query_scn())?;
        for (key, got) in &out.answers {
            if reference.get(key) != Some(got) {
                self.problems.push(format!(
                    "{key:?}: standby {got:?} != row store {:?}",
                    reference.get(key)
                ));
            }
        }
        if out.answers.len() != reference.len() {
            self.problems.push(format!(
                "{} of {} queries answered",
                out.answers.len(),
                reference.len()
            ));
        }
        Ok(())
    }

    fn scan_quiet(&mut self, dep: &Deployment) -> Res<()> {
        let binds = Binds::from_seed(self.seed);
        let mut out = scan_loop(dep, &binds, self.seconds, &mut Tracer::off())?;
        self.report_scans(dep, &mut out);
        self.verify_scans(dep, &binds, &out)
    }

    fn scan_quiet_traced(&mut self, dep: &Deployment) -> Res<()> {
        let binds = Binds::from_seed(self.seed);
        let mut plain = scan_loop(dep, &binds, self.seconds / 2.0, &mut Tracer::off())?;
        let probe = LayerProbe::begin(dep);
        let mut tracer = self.tracer();
        let mut traced = scan_loop(dep, &binds, self.seconds / 2.0, &mut tracer)?;
        probe.end(dep, true, &mut self.m);
        self.attempted += plain.queries + traced.queries;
        self.failed += plain.failed + traced.failed;
        set_scan_profile(&traced.profile, &mut self.m);
        let q1 = Shape::Q1 as usize;
        self.m.set(
            "bench.trace_overhead_share",
            percentile(&mut traced.lat_ms[q1], 0.5) / percentile(&mut plain.lat_ms[q1], 0.5) - 1.0,
        );
        self.set_tail("tail.q1_p95_ms", &mut traced.lat_ms[q1], 0.95);
        self.set_tail("tail.q2_p95_ms", &mut traced.lat_ms[Shape::Q2 as usize], 0.95);
        self.verify_scans(dep, &binds, &plain)?;
        self.verify_scans(dep, &binds, &traced)?;
        self.spans = tracer.into_spans();
        Ok(())
    }

    // -- catchup ------------------------------------------------------------

    fn catchup_backlog(&self, dep: &Deployment) -> Res<BacklogOut> {
        let updates = (self.scale.backlog_updates_per_s as f64 * self.seconds) as usize;
        let inserts = (self.scale.backlog_inserts_per_s as f64 * self.seconds) as usize;
        commit_backlog(dep, updates, inserts, &mut self.rng(0xCA7C))
    }

    fn catchup(&mut self, dep: &mut Deployment) -> Res<()> {
        dep.stop()?;
        let backlog = self.catchup_backlog(dep)?;
        let drain_s = drain_threaded(dep)?;
        self.report_drain(&backlog, drain_s);
        Ok(())
    }

    /// Layer self times of the stepped phase in `self.spans`, per record.
    /// `driven_us` is the wall time of the drive, clocked outside the spans.
    fn set_step_layers(&mut self, driven_us: f64, records: f64, krows: f64) {
        let own = self_times(&self.spans);
        let of = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let per = |us: f64, n: f64| if n > 0.0 { us / n } else { 0.0 };
        self.m.set("redo.ship_us_per_record", per(of("redo.ship"), records));
        self.m.set("recovery.ingest_us_per_record", per(of("recovery.ingest"), records));
        self.m.set("recovery.apply_us_per_record", per(of("recovery.apply"), records));
        let publishes = self.m.get("recovery.publishes").unwrap_or(0.0);
        self.m.set("recovery.advance_us_per_publish", per(of("recovery.advance"), publishes));
        self.m.set("imcs.populate_us_per_krow", per(of("imcs.populate"), krows));
        let share = own.values().sum::<f64>() / driven_us;
        self.m.set("bench.step_self_time_share", share);
        if (share - 1.0).abs() > 0.05 {
            self.problems
                .push(format!("step-mode self times are {share:.3} of the driven wall time"));
        }
    }

    /// The same backlog stepped through the pipeline on this thread, one
    /// span per public call; then once more on a twin without DBIM-on-ADG,
    /// for what mining, journaling and flushing add to redo apply.
    fn catchup_traced(&mut self, dep: &mut Deployment) -> Res<()> {
        dep.stop()?;
        let probe = LayerProbe::begin(dep);
        let backlog = self.catchup_backlog(dep)?;
        self.attempted += backlog.ops;
        self.failed += backlog.failed;
        let mut tracer = self.tracer();
        let driven_us = step_backlog(dep, &mut tracer)?;
        probe.end(dep, false, &mut self.m);
        self.spans = tracer.into_spans();
        let rebuilt_krows = self.m.get("imcs.repopulations").unwrap_or(0.0) * KROWS_PER_UNIT;
        self.set_step_layers(driven_us, backlog.records as f64, rebuilt_krows);

        let mut twin = Deployment::set_up(self.scale.rows, self.seed, false, false)?;
        twin.stop()?;
        self.catchup_backlog(&twin)?;
        let mut twin_tracer = Tracer::new(true, self.epoch, 1 << 40);
        step_backlog(&twin, &mut twin_tracer)?;
        let ratio = recovery_self_time(&self.spans) / recovery_self_time(&twin_tracer.into_spans());
        self.m.set("core.apply_cost_ratio", ratio);
        Ok(())
    }

    // -- restart ------------------------------------------------------------

    /// Updates committed and synced on top of the load, before the crash.
    fn pre_crash_updates(&mut self, dep: &Deployment) -> Res<()> {
        let updates = (self.scale.restart_updates_per_s as f64 * self.seconds) as usize;
        let backlog = commit_backlog(dep, updates, 0, &mut self.rng(0x5E57))?;
        self.attempted += backlog.ops;
        self.failed += backlog.failed;
        dep.wait_caught_up()?;
        Ok(())
    }

    /// Whether the standby answers Q1 from its column store.
    fn columnar(dep: &Deployment, binds: &Binds) -> bool {
        binds
            .request(&dep.schema, Shape::Q1, 0)
            .ok()
            .and_then(|req| dep.standby().query(&req).ok())
            .is_some_and(|out| out.used_imcs)
    }

    fn restart(&mut self, dep: &mut Deployment) -> Res<()> {
        self.pre_crash_updates(dep)?;
        let pre_crash = dep.primary().current_scn();
        dep.stop()?;
        let crashed = Instant::now();
        dep.cluster.crash_restart_standby(0)?;
        // Population is held until the replay has passed the pre-crash SCN
        // and only then enabled, so the two run back to back. Letting them
        // overlap, as `crash_restart_standby` does by default, is unsafe at
        // this commit: a unit built at a QuerySCN below the restart
        // checkpoint never sees the invalidations of the DML between its
        // snapshot and the checkpoint, because the mining gate skips them,
        // and the column store then answers with stale rows (about one run
        // in four failed the zero-loss check). README.md records the finding.
        dep.standby().disable_inmemory(WIDE);
        dep.start();
        wait_until("QuerySCN to pass the pre-crash SCN", || dep.query_scn() >= pre_crash)?;
        let to_queryable = crashed.elapsed().as_secs_f64();
        let replayed = dep.standby().metrics().durability.replayed_records;
        dep.standby().enable_inmemory(WIDE);
        let binds = Binds::from_seed(self.seed);
        dep.wait_population_idle()?;
        wait_until("the first columnar Q1", || Self::columnar(dep, &binds))?;
        let to_columnar = crashed.elapsed().as_secs_f64();
        self.attempted += 1;
        println!("# restart.to_queryable_s {to_queryable:.4} s; restart.to_columnar_s {to_columnar:.4} s");
        println!("# replayed {replayed} redo records from disk");
        self.m.set("apply_records_per_s", replayed as f64 / to_queryable);
        Ok(())
    }

    fn restart_traced(&mut self, dep: &mut Deployment) -> Res<()> {
        self.pre_crash_updates(dep)?;
        let pre_crash = dep.primary().current_scn();
        dep.stop()?;
        // What set-up and the updates cost in durable writes, both link ends.
        let durable = (dep.primary().metrics().durability, dep.standby().metrics().durability);
        let redo_bytes = dep.primary().log_stats().bytes as f64;

        let mut tracer = self.tracer();
        let crashed = Instant::now();
        tracer
            .span("recovery.restart_open", None, 0, |_, _| dep.cluster.crash_restart_standby(0))?;
        // Population held until queryable, as in `restart`.
        dep.standby().disable_inmemory(WIDE);
        let probe = LayerProbe::begin(dep);
        step_until(dep, &mut tracer, |d, _| d.query_scn() >= pre_crash)?;
        let to_queryable = crashed.elapsed().as_secs_f64();
        let replayed = dep.standby().metrics().durability.replayed_records as f64;
        let replay_us = recovery_self_time(tracer.spans());
        dep.standby().enable_inmemory(WIDE);
        let binds = Binds::from_seed(self.seed);
        step_until(dep, &mut tracer, |d, populated| !populated && Self::columnar(d, &binds))?;
        let to_columnar = crashed.elapsed().as_secs_f64();
        probe.end(dep, false, &mut self.m);
        self.attempted += 1;

        self.spans = tracer.into_spans();
        self.set_step_layers(to_columnar * 1e6, replayed, dep.rows as f64 / 1e3);
        self.m.set(
            "recovery.replay_us_per_record",
            if replayed > 0.0 { replay_us / replayed } else { 0.0 },
        );
        self.m.set("redo.fsyncs", (durable.0.fsyncs + durable.1.fsyncs) as f64);
        self.m.set(
            "redo.persisted_bytes_per_redo_byte",
            (durable.0.bytes_persisted + durable.1.bytes_persisted) as f64 / redo_bytes,
        );
        self.m.set("restart.to_queryable_s", to_queryable);
        self.m.set("restart.to_columnar_s", to_columnar);
        Ok(())
    }
}

/// Step a committed backlog through the pipeline until the standby has
/// caught up. Returns the driven wall time, µs.
fn step_backlog(dep: &Deployment, tracer: &mut Tracer) -> Res<f64> {
    let target = dep.primary().current_scn();
    step_until(dep, tracer, |d, _| d.caught_up_to(target))
}

/// Self time of the `recovery` layer's spans (open, ingest, apply, advance), µs.
fn recovery_self_time(spans: &[Span]) -> f64 {
    self_times(spans)
        .iter()
        .filter(|(name, _)| name.starts_with("recovery."))
        .map(|(_, us)| us)
        .sum()
}
