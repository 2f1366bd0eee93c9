//! The repository benchmark: one command, two workloads, every
//! output checked (see README.md for the workload make-up, the metric
//! map and how to read a traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_event|serve_routed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with every piece of
//! instrumentation off; with `--trace 1` they are the per-layer ones,
//! from a run that turns the phase profiler and the wire `trace` field
//! on. Progress and check failures go to standard error.

mod check;
mod serve;
mod sim;

use std::time::Duration;

/// One named metric value with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one run hands back: the operation counts, every check failure,
/// and the metrics of the requested kind.
#[derive(Default)]
pub struct Outcome {
    /// Operations (cells or jobs) started.
    pub attempted: u64,
    /// Operations that returned an error instead of an output.
    pub failed: u64,
    /// Check failures, one line each (empty when every output held).
    pub errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric; a value that is not finite is reported as a
    /// check failure rather than printed.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite ({value})"));
            return;
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Folds a check result into the run's verdict.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 for an empty slice; callers always have samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` in (0, 1] of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Fastest of `xs`.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The workload-input seed for benchmark seed `seed` and stream `k`
/// (splitmix64), so each workload draws distinct, reproducible values.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <paper_event|serve_routed> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let budget = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();
    // Every checker must reject a deliberately wrong output before its
    // verdict on a real one means anything.
    out.check(check::self_test());
    match args.workload.as_str() {
        "paper_event" => sim::run(args.seed, budget, args.trace, &mut out),
        "serve_routed" => serve::run(args.seed, budget, args.trace, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    if args.trace {
        // Every workload prints every per-layer metric; a layer the
        // workload does not reach reads 0.
        for (name, unit) in sim::per_layer_names()
            .into_iter()
            .chain(serve::per_layer_names())
        {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metric(name, 0.0, unit);
            }
        }
    } else {
        match peak_rss_mb() {
            Ok(mb) => out.metric("peak_rss_mb", mb, "MB"),
            Err(e) => out.errors.push(e),
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", out.to_json());
    // The serving workload leaves its in-process daemon and router
    // event loops blocked in the poller; exiting ends them.
    std::process::exit(0);
}
