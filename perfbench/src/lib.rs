//! The repository benchmark: host cost and adaptation quality of
//! control-vs-adaptive comparisons on three named workloads, with
//! per-layer attribution from a separate metered run.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! the numbers measured so far.

pub mod calibrate;
pub mod check;
pub mod metrics;
pub mod run;
pub mod workload;

use calibrate::HostSpeed;
use run::{RunRecord, SetupStages};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{ComparisonSpec, Workload};

/// One control-vs-adaptive comparison that passed its run checks.
#[derive(Debug, Clone)]
pub struct ComparisonRecord {
    /// The fault profile it injected.
    pub fault_profile: &'static str,
    /// Host seconds for the comparison: both runs and their checks.
    pub wall_s: f64,
    /// The control run.
    pub control: RunRecord,
    /// The adaptive run.
    pub adaptive: RunRecord,
}

impl ComparisonRecord {
    /// Checks both runs' outputs (sanity bounds and conformance).
    pub fn check(&self) -> Result<(), String> {
        check::check_run(&self.control)?;
        check::check_run(&self.adaptive)
    }

    /// Checks that `again`, a second comparison of the same inputs, reports
    /// the same deterministic outputs.
    pub fn check_replay(&self, again: &ComparisonRecord) -> Result<(), String> {
        check::check_replay(&self.control, &again.control)?;
        check::check_replay(&self.adaptive, &again.adaptive)
    }
}

/// Runs one comparison (control first, then adaptive) and checks it. A
/// panic inside the program is caught and reported as a failure. Metered
/// runs get a registry each and are checked against their accessors.
pub fn run_comparison(spec: &ComparisonSpec, metered: bool) -> Result<ComparisonRecord, String> {
    let registry = || metered.then(obs::MetricsRegistry::new);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<ComparisonRecord, String> {
        let mut record = ComparisonRecord {
            fault_profile: spec.fault_profile,
            wall_s: 0.0,
            control: run::run_one("control", spec, spec.control(), registry())?,
            adaptive: run::run_one("adaptive", spec, spec.adaptive, registry())?,
        };
        record.check()?;
        if metered {
            check::check_metered(&record.control)?;
            check::check_metered(&record.adaptive)?;
        }
        record.wall_s = started.elapsed().as_secs_f64();
        Ok(record)
    }));
    outcome
        .unwrap_or_else(|_| Err("the comparison panicked".to_string()))
        .map_err(|e| format!("{}: {e}", spec.fault_profile))
}

/// One iteration of a workload: every comparison, with its wall clock.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds for the whole iteration, calibration samples included.
    pub wall_s: f64,
    /// One outcome per comparison, in spec order.
    pub outcomes: Vec<Result<ComparisonRecord, String>>,
}

impl Iteration {
    /// Runs every comparison of `specs`. With `speed`, a calibration
    /// sample is taken before each comparison, outside its wall clock.
    pub fn run(
        specs: &[ComparisonSpec],
        metered: bool,
        mut speed: Option<&mut HostSpeed>,
    ) -> Iteration {
        let started = Instant::now();
        let outcomes = specs
            .iter()
            .map(|s| {
                if let Some(speed) = speed.as_deref_mut() {
                    speed.sample();
                }
                run_comparison(s, metered)
            })
            .collect();
        Iteration {
            wall_s: started.elapsed().as_secs_f64(),
            outcomes,
        }
    }

    /// The passing comparisons, or `None` if any comparison failed.
    pub fn passed(&self) -> Option<Vec<ComparisonRecord>> {
        self.outcomes
            .iter()
            .map(|o| o.as_ref().ok().cloned())
            .collect()
    }
}

/// Attempted and failed operations (comparisons) of a benchmark run, with
/// one message per failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Comparisons attempted.
    pub attempted: u64,
    /// Failure messages, one per failed comparison.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts an iteration's comparisons; `reference` (an earlier iteration
    /// of the same inputs) adds the replay check to each.
    pub fn count(&mut self, iteration: &Iteration, reference: Option<&Iteration>) {
        for (index, outcome) in iteration.outcomes.iter().enumerate() {
            self.attempted += 1;
            let checked = match (outcome, reference.map(|r| &r.outcomes[index])) {
                (Err(e), _) => Err(e.clone()),
                (Ok(record), Some(Ok(first))) => first.check_replay(record),
                (Ok(_), _) => Ok(()),
            };
            if let Err(e) = checked {
                self.failures.push(e);
            }
        }
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric name, value and unit, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failures.is_empty(),
            self.tally.attempted,
            self.tally.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Attaches units from `defs` to computed values, in `defs` order.
fn with_units(
    defs: &[metrics::MetricDef],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    defs.iter()
        .filter_map(|d| {
            values
                .iter()
                .find(|(name, _)| *name == d.name)
                .map(|(_, v)| (d.name, *v, d.unit))
        })
        .collect()
}

/// The unmetered measurement: iterations of the workload within `seconds`
/// (at least one; no iteration starts that would, at the median pace so
/// far, end after it), each checked and replay-checked against the first.
/// Simulated metrics are deterministic for the seed. Host times are taken
/// per comparison as the median over iterations, then summed over the
/// iteration's comparisons, so a burst of host contention during one
/// comparison moves only that comparison's median. The sums are scaled to
/// the reference host by the measurement's calibration samples
/// ([`calibrate`]).
pub fn measure(specs: &[ComparisonSpec], seconds: f64) -> Report {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut iterations: Vec<Iteration> = Vec::new();
    // Read after the first iteration, so it does not depend on how many
    // iterations fit in the measurement.
    let mut peak_rss_mb = None;
    let mut speed = HostSpeed::default();
    loop {
        let iteration = Iteration::run(specs, false, Some(&mut speed));
        eprintln!(
            "  iteration {}: {:.3} s",
            iterations.len() + 1,
            iteration.wall_s
        );
        tally.count(&iteration, iterations.first());
        iterations.push(iteration);
        peak_rss_mb = peak_rss_mb.or_else(metrics::peak_rss_mib);
        let pace = metrics::median(&iterations.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        if started.elapsed().as_secs_f64() + pace > seconds {
            break;
        }
    }
    let passed: Vec<Vec<ComparisonRecord>> =
        iterations.iter().filter_map(Iteration::passed).collect();
    let mut values = Vec::new();
    if let Some(first) = passed.first() {
        for record in first {
            let (c, a) = (&record.control, &record.adaptive);
            eprintln!(
                "  {:<20} violation {:.4} -> {:.4}  completed {} -> {}  \
                 unserved {:.0} -> {:.0} s  repairs {}/{} mean {:?} s",
                record.fault_profile,
                c.summary.fraction_latency_above_bound,
                a.summary.fraction_latency_above_bound,
                c.requests_completed,
                a.requests_completed,
                c.unserved_s,
                a.unserved_s,
                a.summary.repairs_completed,
                a.summary.repairs_started,
                a.summary.mean_repair_duration_secs,
            );
        }
        // Σ over comparisons of the per-comparison median over iterations.
        let host = |f: fn(&ComparisonRecord) -> f64| -> f64 {
            (0..first.len())
                .map(|i| metrics::median(&passed.iter().map(|it| f(&it[i])).collect::<Vec<_>>()))
                .sum()
        };
        // Σ setup over an iteration's runs, estimated as the run count times
        // the median of every setup in the measurement: the setups of one
        // workload all build the same deployment.
        let setups: Vec<f64> = passed
            .iter()
            .flatten()
            .flat_map(|c| [c.control.timings.setup_s, c.adaptive.timings.setup_s])
            .collect();
        let setup_s = setups.len() as f64 / passed.len() as f64 * metrics::median(&setups);
        let loop_s = host(|c| c.control.timings.loop_s + c.adaptive.timings.loop_s);
        let wall_s = host(|c| c.wall_s);
        let scale = speed.scale();
        eprintln!(
            "  host scale {scale:.4} over {} samples; unscaled setup {setup_s:.6} s, \
             loop {loop_s:.6} s, wall {wall_s:.6} s",
            speed.samples()
        );
        values.push(("setup_s", setup_s * scale));
        values.push(("loop_s", loop_s * scale));
        values.push(("wall_s", wall_s * scale));
        let quality = metrics::quality(first);
        values.push(("violation_frac", quality.violation_frac));
        values.push(("requests_completed", quality.requests_completed as f64));
        match quality.repair_mean_s {
            Some(mean) => values.push(("repair_mean_s", mean)),
            None => tally
                .failures
                .push("no adaptive run completed a repair".to_string()),
        }
    }
    if let Some(rss) = peak_rss_mb {
        values.push(("peak_rss_mb", rss));
    }
    Report {
        tally,
        metrics: with_units(metrics::END_TO_END, &values),
    }
}

/// The metered measurement: one unmetered iteration, the same iteration
/// metered, then the setup stages timed from outside. The metered
/// comparisons must replay the unmetered ones exactly. A comparison's two
/// runs set up identically (setup never reads `adaptation_enabled`), so its
/// stages are timed once and counted for both runs.
pub fn measure_layers(specs: &[ComparisonSpec]) -> Report {
    let mut tally = Tally::default();
    let untraced = Iteration::run(specs, false, None);
    tally.count(&untraced, None);
    let traced = Iteration::run(specs, true, None);
    tally.count(&traced, Some(&untraced));

    let mut stages: Vec<SetupStages> = Vec::new();
    for spec in specs {
        match run::time_setup_stages(spec.grid, spec.adaptive) {
            Ok(s) => stages.extend([s, s]),
            Err(e) => tally.failures.push(format!("setup stages: {e}")),
        }
    }
    for record in traced.outcomes.iter().flatten() {
        let show = |run: &RunRecord| {
            format!(
                "advance {:.3} s over {} epochs, plan {:.3} s",
                metrics::span_total_s(run, "phase.advance"),
                run.counters.rate_epochs,
                metrics::span_total_s(run, "phase.plan"),
            )
        };
        eprintln!(
            "  {:<20} control: {}; adaptive: {}",
            record.fault_profile,
            show(&record.control),
            show(&record.adaptive)
        );
    }
    let values = traced
        .passed()
        .map(|p| metrics::per_layer(&p, &stages, traced.wall_s, untraced.wall_s))
        .unwrap_or_default();
    Report {
        tally,
        metrics: with_units(metrics::PER_LAYER, &values),
    }
}

/// Runs `workload` for `seed`: the unmetered measurement, or with `trace`
/// the metered one.
pub fn bench(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let specs = workload.comparisons(seed, None)?;
    Ok(if trace {
        measure_layers(&specs)
    } else {
        measure(&specs, seconds)
    })
}
