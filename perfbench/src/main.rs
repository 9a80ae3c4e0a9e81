//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints failures and a per-metric table to stderr and, as the last line
//! of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use perfbench::workload::{workload, WORKLOADS};

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (name, seed, seconds, trace) else {
        usage()
    };
    let Some(workload) = workload(&name) else {
        usage()
    };

    eprintln!(
        "perfbench: {} seed {seed}, {seconds} s, {}",
        workload.name,
        if trace { "metered" } else { "unmetered" }
    );
    let report = perfbench::bench(workload, seed, seconds, trace).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for failure in &report.tally.failures {
        eprintln!("FAILED {failure}");
    }
    for (metric, value, unit) in &report.metrics {
        eprintln!("  {metric:<32} {value:>16.6} {unit}");
    }
    println!("{}", report.to_json());
}
