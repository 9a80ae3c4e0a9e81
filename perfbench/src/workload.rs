//! The benchmark's named workloads and how a seed becomes their inputs.
//!
//! A workload names a testbed preset, a workload schedule, a strategy and a
//! run length, plus the fault profiles it sweeps. One *iteration* of a
//! workload is one control-vs-adaptive comparison per fault profile; the
//! benchmark's `--seed` becomes the [`GridConfig::seed`] of every run, which
//! is the only input the program receives.

use arch_adapt::FrameworkConfig;
use faultsim::FaultSchedule;
use gridapp::{ExperimentSchedule, GridConfig, TestbedSpec};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Testbed preset (one of `gridapp::testbed_preset_names`).
    pub preset: &'static str,
    /// Workload schedule (one of `gridapp::workload_names`).
    pub schedule: &'static str,
    /// Adaptive strategy (one of `arch_adapt::strategy_names`).
    pub strategy: &'static str,
    /// Simulated seconds per run.
    pub duration_secs: f64,
    /// Sweep every entry of `faultsim::FAULT_PROFILE_REGISTRY` (one
    /// comparison each) instead of the single fault-free comparison.
    pub all_fault_profiles: bool,
}

/// The benchmark's workloads: the ones `BENCHMARK.json` lists, in its
/// order, then the ones it does not list.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper-faults",
        why: "the paper testbed and Figure 7 schedule under every fault profile: \
              per-element repair, translator and topology writes under probe reads",
        preset: "paper",
        schedule: "figure7",
        strategy: "adaptive",
        duration_secs: 1800.0,
        all_fault_profiles: true,
    },
    Workload {
        name: "paper-planned",
        why: "the same fault sweep under plannedRepair: the group planner, its class index \
              and planned multi-element commits on the paper's experiment",
        preset: "paper",
        schedule: "figure7",
        strategy: "plannedRepair",
        duration_secs: 1800.0,
        all_fault_profiles: true,
    },
    Workload {
        name: "planner-2k",
        why: "2,000 clients with exact per-client monitoring and no faults: \
              plan time dominates the adaptive run, advance the control run",
        preset: "large-scale",
        schedule: "step",
        strategy: "plannedRepair",
        duration_secs: 180.0,
        all_fault_profiles: false,
    },
    Workload {
        name: "fleet-50k",
        why: "50,000 clients: setup is half the wall clock, plus aggregate-row \
              advance, the incremental check and one bulk commit; no plan cost",
        preset: "large-scale-50k",
        schedule: "step",
        strategy: "plannedRepair",
        duration_secs: 300.0,
        all_fault_profiles: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fully resolved inputs of one control-vs-adaptive comparison.
#[derive(Debug, Clone)]
pub struct ComparisonSpec {
    /// The fault profile the comparison injects (`"none"` for none).
    pub fault_profile: &'static str,
    /// Application configuration shared by both runs (carries the seed).
    pub grid: GridConfig,
    /// Framework configuration of the adaptive run; the control run is the
    /// same configuration with adaptation disabled.
    pub adaptive: FrameworkConfig,
    /// The workload schedule both runs follow.
    pub schedule: ExperimentSchedule,
    /// The fault schedule both runs receive (empty for `"none"`).
    pub faults: FaultSchedule,
    /// Simulated seconds per run.
    pub duration_secs: f64,
}

impl ComparisonSpec {
    /// The control run's framework configuration.
    pub fn control(&self) -> FrameworkConfig {
        FrameworkConfig {
            adaptation_enabled: false,
            ..self.adaptive
        }
    }
}

impl Workload {
    /// The fault profiles one iteration sweeps, in registry order.
    pub fn fault_profiles(&self) -> Vec<&'static str> {
        if self.all_fault_profiles {
            faultsim::fault_profile_names().to_vec()
        } else {
            vec![faultsim::NO_FAULTS]
        }
    }

    /// Resolves every name against the program's registries and builds the
    /// comparisons of one iteration for `seed`. `duration_secs` overrides
    /// the workload's run length (the smoke tests shorten it).
    pub fn comparisons(
        &self,
        seed: u64,
        duration_secs: Option<f64>,
    ) -> Result<Vec<ComparisonSpec>, String> {
        let duration_secs = duration_secs.unwrap_or(self.duration_secs);
        let testbed = TestbedSpec::by_name(self.preset)
            .ok_or_else(|| format!("unknown testbed preset {}", self.preset))?;
        let grid = GridConfig {
            seed,
            ..GridConfig::with_testbed(testbed)
        };
        let schedule = ExperimentSchedule::by_name(self.schedule, &grid, duration_secs)
            .ok_or_else(|| format!("unknown workload schedule {}", self.schedule))?;
        let adaptive = FrameworkConfig::by_name(self.strategy)
            .ok_or_else(|| format!("unknown strategy {}", self.strategy))?;
        self.fault_profiles()
            .into_iter()
            .map(|profile| {
                let faults = faultsim::fault_profile_by_name(profile, duration_secs)
                    .ok_or_else(|| format!("unknown fault profile {profile}"))?;
                Ok(ComparisonSpec {
                    fault_profile: profile,
                    grid,
                    adaptive,
                    schedule: schedule.clone(),
                    faults,
                    duration_secs,
                })
            })
            .collect()
    }
}
