//! `--repeat N`: N runs of every workload, each a fresh process with its own
//! seed (as the driver runs them), then per metric and workload the median,
//! the quartiles and the spread as a share of the bound. This is how the
//! bounds in `BENCHMARK.json` were fixed and how two sets of runs are
//! compared.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Content;

use crate::deploy::Res;
use crate::hist::quartiles;
use crate::spec::{END_TO_END, UNGATED, WORKLOADS};

/// The result line of one child run, as `name -> value`.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Res<BTreeMap<String, f64>> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc: Content = serde_json::from_str(line)?;
    if doc.field("correct") != Some(&Content::Bool(true))
        || doc.field("failed").and_then(Content::as_u64) != Some(0)
    {
        return Err(format!("{workload} seed {seed} was not clean: {line}").into());
    }
    let metrics =
        doc.field("metrics").and_then(Content::as_map).ok_or("no metrics in the result line")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value =
                m.field("value").and_then(Content::as_f64).ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

pub fn repeat(n: usize, only: Option<&str>, base_seed: u64, seconds: f64) -> Res<bool> {
    if n < 2 {
        return Err("--repeat needs at least 2 runs".into());
    }
    let mut summary = Vec::new();
    let mut within = true;
    // Every gated workload, or the one named (gated or not).
    let chosen = WORKLOADS.iter().chain(UNGATED).filter(|w| match only {
        Some(name) => name == w.name,
        None => WORKLOADS.iter().any(|g| g.name == w.name),
    });
    for w in chosen {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            let started = std::time::Instant::now();
            for (name, value) in run_child(w.name, base_seed + i as u64, seconds)? {
                values.entry(name).or_default().push(value);
            }
            eprintln!("{} run {}/{n}: {:.1} s", w.name, i + 1, started.elapsed().as_secs_f64());
        }
        println!(
            "{:<14} {:<22} {:>12} {:>12} {:>12} {:>8} {:>6} {:>13}",
            "workload", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound"
        );
        let mut rows = Vec::new();
        for spec in END_TO_END {
            let [q1, median, q3] = quartiles(&values[spec.name]);
            let spread = (q3 - q1) / median;
            let ratio = spread / spec.bound;
            // setup_s is held to its bound by median only, not by spread.
            within &= ratio <= 1.0 || spec.name == "setup_s";
            println!(
                "{:<14} {:<22} {q1:>12.4} {median:>12.4} {q3:>12.4} {:>7.1}% {:>5.0}% {ratio:>13.2}",
                w.name,
                spec.name,
                spread * 100.0,
                spec.bound * 100.0
            );
            rows.push((
                spec.name.to_string(),
                Content::Map(vec![
                    ("unit".to_string(), Content::Str(spec.unit.to_string())),
                    ("q1".to_string(), Content::F64(q1)),
                    ("median".to_string(), Content::F64(median)),
                    ("q3".to_string(), Content::F64(q3)),
                    ("spread".to_string(), Content::F64(spread)),
                    ("bound".to_string(), Content::F64(spec.bound)),
                    (
                        "values".to_string(),
                        Content::Seq(values[spec.name].iter().map(|v| Content::F64(*v)).collect()),
                    ),
                ]),
            ));
        }
        summary.push((w.name.to_string(), Content::Map(rows)));
    }
    let doc = Content::Map(vec![
        ("runs".to_string(), Content::U64(n as u64)),
        ("seconds".to_string(), Content::F64(seconds)),
        ("base_seed".to_string(), Content::U64(base_seed)),
        ("within_bounds".to_string(), Content::Bool(within)),
        ("workloads".to_string(), Content::Map(summary)),
        // This benchmark defines the measurement; it claims no gain.
        ("claim".to_string(), Content::Null),
    ]);
    println!("{}", serde_json::to_string(&doc)?);
    Ok(within)
}
