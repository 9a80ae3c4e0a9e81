//! The benchmark's own tests: its names, its metric table against
//! `BENCHMARK.json`, a short smoke run of every workload, and the output
//! checks that define a failed operation.

use perfbench::calibrate::HostSpeed;
use perfbench::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use perfbench::workload::{workload, ComparisonSpec, WORKLOADS};
use perfbench::{ComparisonRecord, Iteration, Tally};
use std::sync::OnceLock;

const SMOKE_SEED: u64 = 7;

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn smoke_specs(name: &str) -> Vec<ComparisonSpec> {
    // Long enough for every fault profile to land and for the adaptive runs
    // to repair; short enough for a test.
    let duration = match name {
        "paper-faults" | "paper-planned" => 600.0,
        _ => 60.0,
    };
    workload(name)
        .unwrap()
        .comparisons(SMOKE_SEED, Some(duration))
        .unwrap()
}

/// One passing smoke comparison, shared by the corruption tests.
fn paper_record() -> &'static ComparisonRecord {
    static RECORD: OnceLock<ComparisonRecord> = OnceLock::new();
    RECORD.get_or_init(|| {
        let specs = smoke_specs("paper-faults");
        perfbench::run_comparison(&specs[0], false).expect("smoke comparison passes")
    })
}

#[test]
fn metric_and_workload_names_follow_the_naming_rule() {
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(
            valid_unit(def.unit),
            "bad unit {} of {}",
            def.unit,
            def.name
        );
        assert!(seen.insert(def.name), "metric {} named twice", def.name);
    }
    for w in WORKLOADS {
        assert!(valid_name(w.name), "bad workload name {}", w.name);
        assert!(seen.insert(w.name), "name {} used twice", w.name);
        assert!(
            !w.why.contains('\n') && w.why.len() <= 200,
            "{}: why",
            w.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
}

#[test]
fn benchmark_json_matches_the_metric_and_workload_tables() {
    let json = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let expected = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expected(END_TO_END));
    assert_eq!(listed("per_layer"), expected(PER_LAYER));
    for metric in json.get("end_to_end").unwrap().as_array().unwrap() {
        let bound = metric.get("bound").and_then(|b| b.as_f64()).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads: Vec<(String, String)> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| {
            let field = |f: &str| w.get(f).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    // Every listed workload is defined here with the same reason; the
    // benchmark may define more than the file lists.
    assert!(workloads.len() >= 2);
    for (name, why) in &workloads {
        let defined = workload(name).unwrap_or_else(|| panic!("{name} is not defined"));
        assert_eq!(why, defined.why, "{name}");
    }
}

#[test]
fn every_workload_name_resolves_against_the_registries() {
    for w in WORKLOADS {
        assert!(
            gridapp::testbed_preset_names().contains(&w.preset),
            "{}",
            w.preset
        );
        assert!(
            gridapp::workload_names().contains(&w.schedule),
            "{}",
            w.schedule
        );
        assert!(
            arch_adapt::strategy_names().contains(&w.strategy),
            "{}",
            w.strategy
        );
        for profile in w.fault_profiles() {
            assert!(
                faultsim::fault_profile_names().contains(&profile),
                "{profile}"
            );
        }
        let specs = w.comparisons(SMOKE_SEED, None).unwrap();
        assert_eq!(specs.len(), w.fault_profiles().len());
        assert!(specs.iter().all(|s| s.grid.seed == SMOKE_SEED));
    }
    let paper = workload("paper-faults").unwrap();
    assert_eq!(paper.fault_profiles(), faultsim::fault_profile_names());
    assert!(workload("no-such-workload").is_none());
}

#[test]
fn paper_faults_smoke_run_passes_its_checks_and_replays_metered() {
    let specs = smoke_specs("paper-faults");
    let report = perfbench::measure_layers(&specs);
    assert!(
        report.tally.failures.is_empty(),
        "{:?}",
        report.tally.failures
    );
    assert_eq!(report.tally.attempted, 2 * specs.len() as u64);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
}

#[test]
fn paper_planned_smoke_run_passes_its_checks_with_calibration() {
    let specs = smoke_specs("paper-planned");
    let mut speed = HostSpeed::default();
    let iteration = Iteration::run(&specs, false, Some(&mut speed));
    let mut tally = Tally::default();
    tally.count(&iteration, None);
    assert!(tally.failures.is_empty(), "{:?}", tally.failures);
    let passed = iteration.passed().unwrap();
    assert!(passed
        .iter()
        .any(|c| c.adaptive.summary.repairs_completed > 0));
    // One sample before each comparison.
    assert_eq!(speed.samples(), specs.len());
    let scale = speed.scale();
    assert!(scale.is_finite() && scale > 0.0, "host scale {scale}");
}

#[test]
fn planner_2k_smoke_run_passes_its_checks() {
    let iteration = Iteration::run(&smoke_specs("planner-2k"), false, None);
    let mut tally = Tally::default();
    tally.count(&iteration, None);
    assert!(tally.failures.is_empty(), "{:?}", tally.failures);
}

#[test]
fn fleet_50k_smoke_run_passes_its_checks() {
    let iteration = Iteration::run(&smoke_specs("fleet-50k"), false, None);
    let mut tally = Tally::default();
    tally.count(&iteration, None);
    assert!(tally.failures.is_empty(), "{:?}", tally.failures);
}

#[test]
fn a_corrupted_summary_is_a_failed_operation() {
    let good = paper_record();
    assert!(good.check().is_ok());
    assert!(good.check_replay(good).is_ok());

    let mut bad = good.clone();
    bad.adaptive.summary.fraction_latency_above_bound = 1.5;
    assert!(bad.check().is_err(), "violation fraction above 1");
    assert!(
        good.check_replay(&bad).is_err(),
        "summary differs on replay"
    );

    let mut bad = good.clone();
    bad.adaptive.summary.repairs_completed = bad.adaptive.summary.repairs_started + 1;
    assert!(bad.check().is_err(), "more repairs completed than started");

    let mut bad = good.clone();
    bad.control.requests_completed = 0;
    assert!(bad.check().is_err(), "no completed requests");

    let mut bad = good.clone();
    bad.control.summary.repairs_started = 1;
    assert!(bad.check().is_err(), "control run repaired");

    let mut bad = good.clone();
    bad.adaptive.conformance = Err("User1 bound to two groups".into());
    assert!(bad.check().is_err(), "model/runtime divergence");

    let mut bad = good.clone();
    bad.adaptive.counters.rate_epochs += 1;
    assert!(
        good.check_replay(&bad).is_err(),
        "counters differ on replay"
    );

    // The tally counts a replay mismatch as one failed operation.
    let first = Iteration {
        wall_s: 1.0,
        outcomes: vec![Ok(good.clone())],
    };
    let mut corrupted = good.clone();
    corrupted.adaptive.summary.client_moves += 1;
    let again = Iteration {
        wall_s: 1.0,
        outcomes: vec![Ok(corrupted)],
    };
    let mut tally = Tally::default();
    tally.count(&first, None);
    tally.count(&again, Some(&first));
    assert_eq!(tally.attempted, 2);
    assert_eq!(tally.failures.len(), 1);
}
