//! Drives one run through the program's public entry points, timing
//! `AdaptationFramework::new` and `run_with_faults` from outside, then
//! reads `publish_metrics` and the summary accessors.

use crate::check;
use crate::workload::ComparisonSpec;
use arch_adapt::{AdaptationFramework, FrameworkConfig, PerformanceProfile, RunSummary};
use gridapp::{GridApp, GridConfig, Testbed, FLEET_SCALE_MIN_CLIENTS};
use simnet::Summary;
use std::time::Instant;

/// The deterministic counters a run's components keep whether or not a
/// metrics registry is attached, read through the public accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rate-allocation epochs solved (`simnet.rate_epochs`).
    pub rate_epochs: u64,
    /// Remos probe queries (`simnet.probe.queries`).
    pub probe_queries: u64,
    /// Remos probe queries that needed a solve (`simnet.probe.solves`).
    pub probe_solves: u64,
    /// Shortest-path trees built (`simnet.paths.trees_built`).
    pub paths_trees_built: u64,
    /// Path-table lookups (`simnet.paths.lookups`).
    pub paths_lookups: u64,
    /// Due-queue inserts (`gridapp.due.inserts`).
    pub due_inserts: u64,
    /// Due-queue entries collected by due-window scans
    /// (`gridapp.due.collected`).
    pub due_collected: u64,
    /// Constraint (invariant, element) pairs replayed from cache
    /// (`constraint.pairs_skipped`).
    pub pairs_skipped: u64,
    /// Gauge readings suppressed as no-op writes
    /// (`monitoring.gauge_noop_suppressed`).
    pub gauge_noops: u64,
}

impl Counters {
    /// Reads the counters of a framework after its run.
    pub fn read(framework: &AdaptationFramework) -> Counters {
        let app = framework.app();
        let paths = app.path_table_stats();
        let due = app.due_queue_stats();
        Counters {
            rate_epochs: app.rate_epoch_count(),
            probe_queries: app.probe_query_count(),
            probe_solves: app.probe_solve_count(),
            paths_trees_built: paths.trees_built,
            paths_lookups: paths.lookups,
            due_inserts: due.inserts,
            due_collected: due.collected,
            pairs_skipped: framework.constraint_pairs_skipped(),
            gauge_noops: framework.gauge_noops_suppressed(),
        }
    }

    /// The same counters as published into a metrics registry, by their
    /// registry names, so a metered run can be checked against them.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("simnet.rate_epochs", self.rate_epochs),
            ("simnet.probe.queries", self.probe_queries),
            ("simnet.probe.solves", self.probe_solves),
            ("simnet.paths.trees_built", self.paths_trees_built),
            ("simnet.paths.lookups", self.paths_lookups),
            ("gridapp.due.inserts", self.due_inserts),
            ("gridapp.due.collected", self.due_collected),
            ("constraint.pairs_skipped", self.pairs_skipped),
            ("monitoring.gauge_noop_suppressed", self.gauge_noops),
        ]
    }
}

/// Host seconds spent in the two calls of one run that the end-to-end
/// metrics break out; the comparison's wall clock covers the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// `AdaptationFramework::new`.
    pub setup_s: f64,
    /// `AdaptationFramework::run_with_faults`.
    pub loop_s: f64,
}

/// Everything the benchmark keeps from one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `"control"` or `"adaptive"`.
    pub label: &'static str,
    /// Whether adaptation was enabled.
    pub adaptive: bool,
    /// The headline summary, built the way the experiment harness builds it.
    pub summary: RunSummary,
    /// Completed requests (pooled latency observations).
    pub requests_completed: u64,
    /// Time-weighted unserved demand at run end (simulated seconds).
    pub unserved_s: f64,
    /// Deterministic component counters.
    pub counters: Counters,
    /// End-of-run model↔runtime conformance: `Err` names the first
    /// disagreement.
    pub conformance: Result<(), String>,
    /// Host timings of the run's calls.
    pub timings: Timings,
    /// The run's metrics registry when it was metered.
    pub registry: Option<obs::MetricsRegistry>,
}

/// Runs one configuration: `new`, fault compile, `run_with_faults`, then
/// the summary. A `registry` meters the run (`set_metrics`).
pub fn run_one(
    label: &'static str,
    spec: &ComparisonSpec,
    framework_config: FrameworkConfig,
    registry: Option<obs::MetricsRegistry>,
) -> Result<RunRecord, String> {
    let mut timings = Timings::default();
    let started = Instant::now();
    let mut framework =
        AdaptationFramework::new(spec.grid, framework_config).map_err(|e| e.to_string())?;
    timings.setup_s = started.elapsed().as_secs_f64();
    if let Some(registry) = &registry {
        framework.set_metrics(registry.handle());
    }

    let compiled = if spec.faults.is_empty() {
        None
    } else {
        Some(
            spec.faults
                .compile(framework.app().testbed(), spec.grid.seed)
                .map_err(|e| e.to_string())?,
        )
    };

    let started = Instant::now();
    framework.run_with_faults(spec.duration_secs, Some(&spec.schedule), compiled.as_ref());
    timings.loop_s = started.elapsed().as_secs_f64();

    framework.publish_metrics();
    let (summary, requests_completed) =
        summarise(label, &spec.grid, spec.duration_secs, &framework);
    let unserved_s = framework.app().unserved_demand_secs();
    let counters = Counters::read(&framework);
    let conformance = check::conformance(&framework);
    Ok(RunRecord {
        label,
        adaptive: framework_config.adaptation_enabled,
        summary,
        requests_completed,
        unserved_s,
        counters,
        conformance,
        timings,
        registry,
    })
}

/// The run's headline summary, field for field as the experiment harness
/// derives it from `metrics()` and `repair_stats()`, plus the completed
/// request count.
fn summarise(
    label: &str,
    grid: &GridConfig,
    duration_secs: f64,
    framework: &AdaptationFramework,
) -> (RunSummary, u64) {
    let metrics = framework.metrics();
    let stats = framework.repair_stats();
    let bound = grid.max_latency_secs;
    let squeezed_client = format!("User{}", grid.testbed.first_squeezed_client());
    let pooled = metrics.pooled_latency();
    let summary = RunSummary {
        label: label.to_string(),
        duration_secs,
        fraction_latency_above_bound: pooled.window(0.0, duration_secs).fraction_above(bound),
        latency: Summary::of(&pooled),
        queue_sg1: metrics
            .queue_series(gridapp::SERVER_GROUP_1)
            .and_then(Summary::of),
        bandwidth_squeezed: metrics
            .bandwidth_series(&squeezed_client)
            .and_then(Summary::of),
        squeezed_client,
        first_violation_secs: pooled.first_time_above(bound),
        repairs_started: stats.started,
        repairs_completed: stats.completed,
        repairs_aborted: stats.aborted,
        mean_repair_duration_secs: stats.mean_duration_secs,
        servers_activated: stats.servers_activated,
        client_moves: stats.client_moves,
    };
    (summary, pooled.len() as u64)
}

/// Host seconds of each setup stage, timed by calling the stage's public
/// entry point on its own (`AdaptationFramework::new` runs them all).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStages {
    /// `Testbed::from_spec`.
    pub testbed_s: f64,
    /// `GridApp::build` (includes its own `Testbed::from_spec`).
    pub build_s: f64,
    /// `build_model`.
    pub model_s: f64,
    /// `ClassIndex::build`, as many times as `new` builds one: once for
    /// the group planner, once for fleet-scale monitoring.
    pub class_index_s: f64,
    /// `AdaptationFramework::new`, timed right after the stages above so
    /// that the part of `new` they do not cover is a difference of
    /// neighbouring measurements.
    pub framework_new_s: f64,
}

/// Times the setup stages of one run's configuration from outside, then
/// the `AdaptationFramework::new` that runs them all.
pub fn time_setup_stages(
    grid: GridConfig,
    framework_config: FrameworkConfig,
) -> Result<SetupStages, String> {
    let started = Instant::now();
    std::hint::black_box(Testbed::from_spec(&grid.testbed).map_err(|e| e.to_string())?);
    let testbed_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let app = GridApp::build(grid).map_err(|e| e.to_string())?;
    let build_s = started.elapsed().as_secs_f64();

    let profile = PerformanceProfile {
        max_latency_secs: grid.max_latency_secs,
        max_server_load: grid.max_server_load,
        min_bandwidth_bps: grid.min_bandwidth_bps,
    };
    let started = Instant::now();
    std::hint::black_box(arch_adapt::build_model(&app, &profile).map_err(|e| e.to_string())?);
    let model_s = started.elapsed().as_secs_f64();

    let indices = usize::from(framework_config.group_planner)
        + usize::from(app.testbed().num_clients() >= FLEET_SCALE_MIN_CLIENTS);
    let started = Instant::now();
    for _ in 0..indices {
        std::hint::black_box(planner::ClassIndex::build(app.testbed()));
    }
    let class_index_s = started.elapsed().as_secs_f64();
    drop(app);

    let started = Instant::now();
    std::hint::black_box(
        AdaptationFramework::new(grid, framework_config).map_err(|e| e.to_string())?,
    );
    let framework_new_s = started.elapsed().as_secs_f64();

    Ok(SetupStages {
        testbed_s,
        build_s,
        model_s,
        class_index_s,
        framework_new_s,
    })
}
