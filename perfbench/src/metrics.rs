//! The benchmark's metrics: their names, units and directions, and how the
//! end-to-end and per-layer values are computed from the records.
//!
//! Spans are reported as totals, counts and maxima only: the registry's
//! power-of-two histogram p95 can exceed the observed maximum. Every ratio
//! is reported next to its base.

use crate::run::{RunRecord, SetupStages};
use crate::ComparisonRecord;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The direction as written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of one workload iteration, measured with metering off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("loop_s", "s", Lower),
    def("wall_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("violation_frac", "ratio", Lower),
    def("requests_completed", "count", Higher),
    def("repair_mean_s", "sim_s", Lower),
];

/// Per-layer metrics of one metered iteration, summed over its runs.
pub const PER_LAYER: &[MetricDef] = &[
    // gridapp / core / planner setup, timed from outside.
    def("gridapp.testbed_s", "s", Lower),
    def("gridapp.build_s", "s", Lower),
    def("core.model_build_s", "s", Lower),
    def("planner.class_index_s", "s", Lower),
    def("core.framework_new_s", "s", Lower),
    def("core.framework_rest_s", "s", Lower),
    // gridapp + simnet event loop.
    def("gridapp.advance_s", "s", Lower),
    def("simnet.rate_epochs", "count", Lower),
    def("gridapp.advance_per_epoch_us", "us", Lower),
    def("simnet.probe.queries", "count", Lower),
    def("simnet.probe.solves", "count", Lower),
    def("simnet.probe.memo_hit_ratio", "ratio", Higher),
    def("simnet.paths.trees_built", "count", Lower),
    def("simnet.paths.lookups", "count", Lower),
    def("gridapp.due.inserts", "count", Lower),
    def("gridapp.due.collected", "count", Higher),
    def("gridapp.due.collect_ratio", "ratio", Higher),
    def("gridapp.unserved_s", "sim_s", Lower),
    // monitoring.
    def("monitoring.gauge_dispatch_s", "s", Lower),
    def("monitoring.gauge_readings", "count", Lower),
    def("monitoring.gauge_noops", "count", Higher),
    def("monitoring.noop_ratio", "ratio", Higher),
    // archmodel.
    def("archmodel.constraint_check_s", "s", Lower),
    def("archmodel.check_calls", "count", Lower),
    def("archmodel.pairs_skipped", "count", Higher),
    // planner + repair.
    def("planner.plan_s", "s", Lower),
    def("planner.plan_calls", "count", Lower),
    def("planner.plan_max_s", "s", Lower),
    def("planner.plans", "count", Lower),
    def("repair.started", "count", Lower),
    def("repair.completed", "count", Higher),
    def("repair.aborted", "count", Lower),
    def("repair.useful_ratio", "ratio", Higher),
    // translator + core commit.
    def("translator.translate_s", "s", Lower),
    def("translator.execute_s", "s", Lower),
    def("core.commit_replay_s", "s", Lower),
    def("translator.plan_ops", "count", Lower),
    // core loop and the trace's own accounting.
    def("core.tick_s", "s", Lower),
    def("core.tick_max_s", "s", Lower),
    def("core.traced_wall_s", "s", Lower),
    def("core.span_coverage", "ratio", Higher),
    def("core.untraced_wall_s", "s", Lower),
    def("core.trace_overhead", "ratio", Lower),
];

/// The naming rule every metric and workload name follows: it starts with
/// a letter or a digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The naming rule for units: at most 16 letters, digits, `_`, `/`, `%`,
/// `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The simulated (deterministic) end-to-end values of one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean over adaptive runs of the fraction of completed requests above
    /// the latency bound.
    pub violation_frac: f64,
    /// Σ completed requests of the adaptive runs.
    pub requests_completed: u64,
    /// Mean simulated duration of the adaptive runs' completed repairs;
    /// `None` when no repair completed.
    pub repair_mean_s: Option<f64>,
}

/// Computes the simulated end-to-end values of one iteration.
pub fn quality(comparisons: &[ComparisonRecord]) -> Quality {
    let adaptive = || comparisons.iter().map(|c| &c.adaptive);
    let completed: u64 = adaptive().map(|r| r.summary.repairs_completed).sum();
    let repair_secs: f64 = adaptive()
        .filter_map(|r| {
            r.summary
                .mean_repair_duration_secs
                .map(|mean| mean * r.summary.repairs_completed as f64)
        })
        .sum();
    Quality {
        violation_frac: adaptive()
            .map(|r| r.summary.fraction_latency_above_bound)
            .sum::<f64>()
            / comparisons.len().max(1) as f64,
        requests_completed: adaptive().map(|r| r.requests_completed).sum(),
        repair_mean_s: (completed > 0).then(|| repair_secs / completed as f64),
    }
}

/// One span's totals over several registries.
#[derive(Debug, Clone, Copy, Default)]
struct SpanTotals {
    count: u64,
    total_s: f64,
    max_s: f64,
}

/// Sums span totals and counters over the metered runs' registries.
#[derive(Debug, Default)]
struct Registries {
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
}

impl Registries {
    fn collect<'a>(runs: impl Iterator<Item = &'a RunRecord>) -> Registries {
        let mut out = Registries::default();
        for registry in runs.filter_map(|r| r.registry.as_ref()) {
            for row in registry.perf_report().rows {
                let span = out.spans.entry(row.name).or_default();
                span.count += row.count;
                span.total_s += row.total_ms / 1e3;
                span.max_s = span.max_s.max(row.max_us / 1e6);
            }
            for (key, value) in registry.counters() {
                *out.counters.entry(key.as_str().to_string()).or_default() += value;
            }
        }
        out
    }

    fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Total host seconds of one span in a metered run (zero when unmetered).
pub fn span_total_s(run: &RunRecord, name: &str) -> f64 {
    Registries::collect(std::iter::once(run)).span(name).total_s
}

fn ratio(numerator: f64, base: f64) -> f64 {
    if base > 0.0 {
        numerator / base
    } else {
        0.0
    }
}

/// Per-layer values of one metered iteration. `stages` holds the
/// setup-stage timings of every run of that iteration; `untraced_wall_s`
/// is the wall clock of the same iteration run with metering off.
pub fn per_layer(
    comparisons: &[ComparisonRecord],
    stages: &[SetupStages],
    traced_wall_s: f64,
    untraced_wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let runs = || comparisons.iter().flat_map(|c| [&c.control, &c.adaptive]);
    let reg = Registries::collect(runs());
    let sum_stage = |f: fn(&SetupStages) -> f64| stages.iter().map(f).sum::<f64>();
    let build_s = sum_stage(|s| s.build_s);
    let model_s = sum_stage(|s| s.model_s);
    let class_index_s = sum_stage(|s| s.class_index_s);
    let new_s: f64 = runs().map(|r| r.timings.setup_s).sum();

    let advance = reg.span("phase.advance");
    let epochs = reg.counter("simnet.rate_epochs");
    let queries = reg.counter("simnet.probe.queries");
    let inserts = reg.counter("gridapp.due.inserts");
    let collected = reg.counter("gridapp.due.collected");
    let readings = reg.counter("framework.gauge_readings");
    let noops = reg.counter("monitoring.gauge_noop_suppressed");
    let check = reg.span("phase.constraint_check");
    let plan = reg.span("phase.plan");
    let completed = reg.counter("framework.repairs.completed");
    let tick = reg.span("phase.tick");

    vec![
        ("gridapp.testbed_s", sum_stage(|s| s.testbed_s)),
        ("gridapp.build_s", build_s),
        ("core.model_build_s", model_s),
        ("planner.class_index_s", class_index_s),
        ("core.framework_new_s", new_s),
        (
            "core.framework_rest_s",
            sum_stage(|s| s.framework_new_s) - build_s - model_s - class_index_s,
        ),
        ("gridapp.advance_s", advance.total_s),
        ("simnet.rate_epochs", epochs),
        (
            "gridapp.advance_per_epoch_us",
            ratio(advance.total_s * 1e6, epochs),
        ),
        ("simnet.probe.queries", queries),
        ("simnet.probe.solves", reg.counter("simnet.probe.solves")),
        (
            "simnet.probe.memo_hit_ratio",
            ratio(reg.counter("simnet.probe.memo_hits"), queries),
        ),
        (
            "simnet.paths.trees_built",
            reg.counter("simnet.paths.trees_built"),
        ),
        ("simnet.paths.lookups", reg.counter("simnet.paths.lookups")),
        ("gridapp.due.inserts", inserts),
        ("gridapp.due.collected", collected),
        ("gridapp.due.collect_ratio", ratio(collected, inserts)),
        (
            "gridapp.unserved_s",
            comparisons.iter().map(|c| c.adaptive.unserved_s).sum(),
        ),
        (
            "monitoring.gauge_dispatch_s",
            reg.span("phase.gauge_dispatch").total_s,
        ),
        ("monitoring.gauge_readings", readings),
        ("monitoring.gauge_noops", noops),
        ("monitoring.noop_ratio", ratio(noops, readings)),
        ("archmodel.constraint_check_s", check.total_s),
        ("archmodel.check_calls", check.count as f64),
        (
            "archmodel.pairs_skipped",
            reg.counter("constraint.pairs_skipped"),
        ),
        ("planner.plan_s", plan.total_s),
        ("planner.plan_calls", plan.count as f64),
        ("planner.plan_max_s", plan.max_s),
        ("planner.plans", reg.counter("planner.plans")),
        ("repair.started", reg.counter("framework.repairs.started")),
        ("repair.completed", completed),
        ("repair.aborted", reg.counter("framework.repairs.aborted")),
        ("repair.useful_ratio", ratio(completed, plan.count as f64)),
        (
            "translator.translate_s",
            reg.span("phase.translate").total_s,
        ),
        ("translator.execute_s", reg.span("phase.execute").total_s),
        (
            "core.commit_replay_s",
            reg.span("phase.commit_replay").total_s,
        ),
        ("translator.plan_ops", reg.counter("framework.plan_ops")),
        ("core.tick_s", tick.total_s),
        ("core.tick_max_s", tick.max_s),
        ("core.traced_wall_s", traced_wall_s),
        (
            "core.span_coverage",
            ratio(new_s + tick.total_s, traced_wall_s),
        ),
        ("core.untraced_wall_s", untraced_wall_s),
        ("core.trace_overhead", ratio(traced_wall_s, untraced_wall_s)),
    ]
}

/// The median of a non-empty sample (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
