//! Host-speed calibration for the end-to-end host times.
//!
//! The benchmark runs on hosts shared with other tenants, whose speed
//! drifts by tens of percent over seconds to minutes. A medians-only
//! measurement cannot remove drift that lasts as long as a run. So the
//! unmetered measurement times a fixed reference kernel before every
//! comparison, and scales its host times by the reference kernel time over
//! the median kernel time of the measurement. The kernel's code lives here
//! and does not call the program, so a change to the program moves the
//! scaled times as it moves the raw ones on a steady host.
//!
//! The kernel is ordered-map churn with small heap allocations: the mix of
//! allocator and pointer-chasing work that the simulation's event loop
//! does. Of the kernels tried, its time tracked the program's time best
//! (correlation 0.83 over 107 two-second runs, against 0.56–0.71 for
//! pointer chases over 2–32 MiB and 0.25 for integer arithmetic). One
//! sample is noisy, so the scale uses the median of all of a measurement's
//! samples rather than the samples next to each call.

use crate::metrics;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Map operations in one kernel pass.
const KERNEL_OPS: usize = 60_000;

/// Entries the map keeps, so that its working set stays fixed.
const KERNEL_MAP_CAP: usize = 4_096;

/// Kernel passes per sample; a sample is their median.
const PASSES_PER_SAMPLE: usize = 3;

/// Seconds one kernel pass takes on the reference host: a round figure
/// inside the range of its per-run medians (0.0070–0.0103 s) on the
/// 2.0 GHz Intel Xeon vCPU the benchmark was tuned on. Scaled times are
/// host seconds on a host that runs the kernel at this speed.
pub const REFERENCE_PASS_S: f64 = 0.0095;

/// One pass of the reference kernel.
fn kernel_pass() -> usize {
    let mut map: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut total = 0;
    for i in 0..black_box(KERNEL_OPS) {
        let value: Vec<u64> = (0..(i % 16) as u64).collect();
        total += value.len();
        map.insert((i * 7_919) % KERNEL_OPS, value);
        if map.len() > KERNEL_MAP_CAP {
            map.pop_first();
        }
    }
    total + map.len()
}

/// The reference kernel's samples over one measurement.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Seconds per kernel pass, one entry per sample.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes one sample: the median of [`PASSES_PER_SAMPLE`] kernel passes.
    pub fn sample(&mut self) {
        let passes: Vec<f64> = (0..PASSES_PER_SAMPLE)
            .map(|_| {
                let started = Instant::now();
                black_box(kernel_pass());
                started.elapsed().as_secs_f64()
            })
            .collect();
        self.samples.push(metrics::median(&passes));
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Reference-host seconds per host second over the measurement: the
    /// reference pass time over the median sampled pass time.
    pub fn scale(&self) -> f64 {
        REFERENCE_PASS_S / metrics::median(&self.samples)
    }
}
