//! Smoke-size runs of every workload: each prints every named metric with
//! its unit, holds every correctness gate, and does so on two seeds, so a
//! claim can be re-checked on a seed that was not used while writing it.

use aladin_e2ebench::workload::{Scale, WORKLOADS};
use aladin_e2ebench::{run, Options, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: &str, seed: u64, trace: bool) -> (Report, PathBuf) {
    let workload = aladin_e2ebench::workload::by_name(workload).expect("listed workload");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{seed}-{}",
        workload.name,
        u8::from(trace)
    ));
    let spans = tmp.join("spans.jsonl");
    let options = Options {
        workload,
        seed,
        seconds: 2.0,
        trace,
        scale: Scale::Smoke,
        work_dir: tmp.join("work"),
        trace_out: Some(spans.clone()),
    };
    let report = run(&options);
    assert!(
        report.correct,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name, report.broken
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    assert!(!options.work_dir.exists(), "scratch directory removed");
    (report, spans)
}

fn assert_metrics(report: &Report, table: &[(&str, &str)]) {
    let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, table.to_vec());
    let json = report.to_json();
    for (name, unit) in table {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {json}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_on_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let (report, _) = smoke(workload.name, seed, false);
            assert_metrics(&report, &END_TO_END);
            let value = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("reported")
            };
            for (name, unit) in END_TO_END {
                // A smoke world is too small to promise every quality
                // ratio above zero; times, rates and sizes always are.
                let v = value(name);
                if unit == "ratio" {
                    assert!((0.0..=1.0).contains(&v), "{} {name} = {v}", workload.name);
                } else {
                    assert!(v > 0.0, "{} {name} is not positive", workload.name);
                }
            }
            assert!(value("read_p50_ms") <= value("read_p99_ms"));
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_on_two_seeds() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let (report, spans) = smoke(workload.name, seed, true);
            assert_metrics(&report, &PER_LAYER);
            let written = std::fs::read_to_string(&spans).expect("spans written");
            for name in [
                "\"name\":\"pair\"",
                "\"name\":\"links.sequence\"",
                "\"name\":\"serve.read.",
            ] {
                assert!(written.contains(name), "{name} missing from the spans");
            }
        }
    }
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
    }
    for workload in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name)));
    }
}
