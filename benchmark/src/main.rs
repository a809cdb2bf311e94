//! The repository's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! imadg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! imadg-benchmark --smoke
//! imadg-benchmark --repeat <N> [--workload <name>] [--seed <n>] [--seconds <s>]
//! imadg-benchmark --spec        (prints BENCHMARK.json)
//! ```

mod check;
mod deploy;
mod hist;
mod instruments;
mod layers;
mod pacer;
mod repeat;
mod spec;
mod trace;
mod workloads;

use std::process::ExitCode;

use serde::Content;

use deploy::{Res, Scale};
use spec::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, UNGATED, WORKLOADS};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spec: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Res<Args> {
    let mut args = Args { seed: 1, seconds: RUN_SECONDS as f64, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => args.trace = value()?.parse::<u8>()? != 0,
            "--repeat" => args.repeat = Some(value()?.parse()?),
            "--smoke" => args.smoke = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &args.workload {
        let names: Vec<_> = WORKLOADS.iter().chain(UNGATED).map(|w| w.name).collect();
        if !names.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {names:?}").into());
        }
    }
    Ok(args)
}

/// The metrics object of the result line: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one.
fn metrics_object(metrics: &Metrics, trace: bool) -> Res<Content> {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}").into()),
            // A layer the workload bypasses did no work.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured").into()),
        };
        let entry = vec![
            ("value".to_string(), Content::F64(value)),
            ("unit".to_string(), Content::Str(unit.to_string())),
        ];
        fields.push((name.to_string(), Content::Map(entry)));
    }
    Ok(Content::Map(fields))
}

/// One run: human-readable lines first, the result object as the last line.
fn run_once(workload: &str, scale: &Scale, args: &Args) -> Res<bool> {
    let outcome = workloads::run(workload, scale, args.seed, args.seconds, args.trace)?;
    for (name, value) in outcome.metrics.iter() {
        println!("# {workload} {name} {value:.4} {}", spec::unit_of(name));
    }
    println!("# {workload} ops_attempted {} ops_failed {}", outcome.attempted, outcome.failed);
    for problem in &outcome.problems {
        println!("# {workload} CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let line = Content::Map(vec![
        ("correct".to_string(), Content::Bool(correct)),
        ("attempted".to_string(), Content::U64(outcome.attempted.max(1))),
        ("failed".to_string(), Content::U64(outcome.failed)),
        ("metrics".to_string(), metrics_object(&outcome.metrics, args.trace)?),
    ]);
    println!("{}", serde_json::to_string(&line)?);
    Ok(correct)
}

/// All four workloads at toy size, untraced then traced, checks on: proves
/// the harness, measures nothing.
fn smoke() -> Res<bool> {
    let scale = Scale::smoke();
    let mut correct = true;
    for trace in [false, true] {
        for w in WORKLOADS.iter().chain(UNGATED) {
            let args = Args { seconds: 1.0, seed: 7, trace, ..Args::default() };
            correct &= run_once(w.name, &scale, &args)?;
        }
    }
    Ok(correct)
}

fn real_main() -> Res<bool> {
    let args = parse_args()?;
    if args.spec {
        println!("{}", serde_json::to_string(&spec::document())?);
        return Ok(true);
    }
    if args.smoke {
        return smoke();
    }
    if let Some(n) = args.repeat {
        return repeat::repeat(n, args.workload.as_deref(), args.seed, args.seconds);
    }
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    run_once(workload, &Scale::full(), &args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("imadg-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
