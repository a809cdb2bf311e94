//! The harness tested through its own command line: `--smoke` runs all four
//! workloads, untraced and traced, at toy size with every check on.

use std::process::Command;

use serde::Content;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_imadg-benchmark"))
}

#[test]
fn smoke_runs_every_workload_with_checks_and_prints_every_metric() {
    let out = bench().arg("--smoke").output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let spec: Content = {
        let out = bench().arg("--spec").output().expect("the benchmark binary runs");
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
            .expect("--spec prints JSON")
    };
    let names = |key: &str| -> Vec<String> {
        spec.field(key)
            .and_then(Content::as_seq)
            .expect("a list in the spec")
            .iter()
            .map(|m| match m.field("name") {
                Some(Content::Str(s)) => s.clone(),
                other => panic!("entry without a name: {other:?}"),
            })
            .collect()
    };
    let results: Vec<Content> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("a result line is JSON"))
        .collect();
    // The gated workloads and `restart`, untraced; then the same, traced.
    let workloads = names("workloads").len() + 1;
    assert_eq!(results.len(), 2 * workloads);
    for (i, result) in results.iter().enumerate() {
        let keys: Vec<&str> = result.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.field("correct"), Some(&Content::Bool(true)));
        assert_eq!(result.field("failed").and_then(Content::as_u64), Some(0));
        assert!(result.field("attempted").and_then(Content::as_u64).unwrap() >= 1);
        let traced = i >= workloads;
        let printed: Vec<String> = result
            .field("metrics")
            .and_then(Content::as_map)
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(printed, names(if traced { "per_layer" } else { "end_to_end" }));
        if !traced {
            for (name, m) in result.field("metrics").and_then(Content::as_map).unwrap() {
                let value = m.field("value").and_then(Content::as_f64).unwrap();
                assert!(value > 0.0, "end-to-end metric {name} must never be 0");
            }
        }
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result_line() {
    for args in
        [&["--workload", "no_such_workload"][..], &["--seconds", "0", "--workload", "catchup"], &[]]
    {
        let out = bench().args(args).output().expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
