//! The benchmark's own tests, at smoke size.

use serde::Deserialize;

use crate::metrics::valid_name;
use crate::run;
use crate::workload::Spec;

const WORKLOADS: [&str; 3] = ["solve_mix", "season", "flood"];

fn smoke(name: &str) -> Spec {
    Spec::named(name).expect("workload exists").smoke()
}

#[derive(Deserialize)]
struct Entry {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Entry>,
    per_layer: Vec<Entry>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn each_workload_completes_both_runs_with_identical_records() {
    for name in WORKLOADS {
        let spec = smoke(name);
        // A zero budget still runs one whole round untraced and one
        // neighbourhood untraced then traced, records compared.
        let plain = run::untraced(&spec, 7, 0.0);
        assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
        assert!(plain.attempted > 0);
        let traced = run::traced(&spec, 7, 0.0, None);
        assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
        assert!(
            traced.metrics.get("durable.recover_us").unwrap() > 0.0,
            "{name} restarts"
        );
    }
}

#[test]
fn flood_smoke_still_overloads_the_front_end() {
    let traced = run::traced(&smoke("flood"), 3, 0.0, None);
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert!(traced.metrics.get("serve.deferred_per_day").unwrap() > 0.0);
    assert!(traced.metrics.get("serve.admit_ratio").unwrap() < 1.0);
}

#[test]
fn same_seed_gives_identical_deterministic_metrics() {
    let deterministic_e2e = ["billed_share", "cost_vs_reported", "par_vs_reported"];
    let counts = [
        "serve.frames_per_day",
        "serve.deferred_per_day",
        "serve.shed_per_day",
        "serve.admit_ratio",
        "serve.queue_wait_ticks_p50",
        "serve.queue_wait_ticks_p90",
        "solver.nodes_per_day",
        "solver.proven_share",
        "solver.refined_share",
        "durable.bytes_per_household_day",
        "durable.appends_per_day",
        "durable.compactions",
        "durable.replayed_records",
    ];
    for name in WORKLOADS {
        let spec = smoke(name);
        let (a, b) = (run::untraced(&spec, 11, 0.0), run::untraced(&spec, 11, 0.0));
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{name}");
        for m in deterministic_e2e {
            assert_eq!(a.metrics.get(m), b.metrics.get(m), "{name}: {m}");
        }
        let (a, b) = (
            run::traced(&spec, 11, 0.0, None),
            run::traced(&spec, 11, 0.0, None),
        );
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{name}");
        for m in counts {
            assert_eq!(a.metrics.get(m), b.metrics.get(m), "{name}: {m}");
        }
    }
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let bench = benchmark_json();
    let declared: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(declared, WORKLOADS);
    let spec = smoke("season");
    let cases = [
        (run::untraced(&spec, 1, 0.0), &bench.end_to_end),
        (run::traced(&spec, 1, 0.0, None), &bench.per_layer),
    ];
    for (outcome, entries) in cases {
        let reported: Vec<(&str, &str)> =
            outcome.metrics.0.iter().map(|m| (m.name, m.unit)).collect();
        let listed: Vec<(&str, &str)> = entries
            .iter()
            .map(|e| (e.name.as_str(), e.unit.as_str()))
            .collect();
        assert_eq!(reported, listed);
        for (name, _) in reported {
            assert!(valid_name(name), "{name}");
        }
    }
}
