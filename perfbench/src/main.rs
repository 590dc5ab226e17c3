//! `perfbench`: the wall-clock benchmark of the protected-call path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload syscall_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process drives one workload through the program's public API,
//! checks every result against an oracle, and prints the metrics as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. `RATIONALE.md`
//! explains the workloads and metrics.

mod alloc;
mod asyncw;
mod inputs;
mod legs;
mod plane;
mod stats;
mod sync;
mod trace;
mod world;

use stats::{median, Series, SUBWINDOW};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads `BENCHMARK.json` lists, which gate changes.
pub const WORKLOADS: [&str; 2] = ["syscall_hot", "async_closed"];
/// Runnable, but not gated: on the reference host their figures follow
/// the host's contention phases more than the program (see
/// RATIONALE.md), so their spread across seeds exceeds any bound the
/// gate allows.
pub const UNGATED: [&str; 2] = ["policy_churn", "plane_open"];

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_cps", "calls/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_call", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`; 0 where the layer is
/// not on the workload's path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("policy.l0_hit_ratio", "ratio"),
    ("policy.l0_ns_p50", "ns"),
    ("policy.shared_hit_ratio", "ratio"),
    ("policy.shared_ns_p50", "ns"),
    ("policy.evictions", "count"),
    ("policy.engine_ratio", "ratio"),
    ("policy.engine_us_p50", "us"),
    ("policy.grant_us_p50", "us"),
    ("policy.mutation_us_p50", "us"),
    ("policy.mutation_us_p99", "us"),
    ("kernel.call_ns_p50", "ns"),
    ("kernel.call_ns_p99", "ns"),
    ("kernel.getpid_ns_p50", "ns"),
    ("kernel.session_start_us_p50", "us"),
    ("kernel.detach_us_p50", "us"),
    ("kernel.eidrm_failures", "count"),
    ("kernel.submit_ns_p50", "ns"),
    ("kernel.reap_ns_p50", "ns"),
    ("kernel.queue_wait_us_p50", "us"),
    ("kernel.queue_wait_us_p99", "us"),
    ("kernel.sweep_ns_per_entry", "ns"),
    ("kernel.sessions_per_sweep", "count"),
    ("kernel.productive_sweep_ratio", "ratio"),
    ("kernel.parks_per_kcall", "count"),
    ("kernel.unparks_per_kcall", "count"),
    ("kernel.full_bounces_per_kcall", "count"),
    ("kernel.model_ns_per_call", "model_ns"),
    ("kernel.smod_add_ms", "ms"),
    ("ring.submit_ns_p50", "ns"),
    ("ring.claim_ns_p50", "ns"),
    ("ring.arena_alloc_ns_p50", "ns"),
    ("ring.arena_fallback_ratio", "ratio"),
    ("ring.arena_bytes_end", "bytes"),
    ("qos.plan_ns_p50", "ns"),
    ("qos.deferred_ratio", "ratio"),
    ("qos.min_weighted_share", "ratio"),
    ("qos.max_starvation_rounds", "count"),
    ("async.routed_per_call", "ratio"),
    ("async.resubmits_per_kcall", "count"),
    ("async.in_flight_mean", "count"),
    ("module.build_ms", "ms"),
    ("crypto.seal_ms", "ms"),
    ("bench.allocs_per_call", "count"),
    ("bench.clock_read_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.layer_sum_frac", "ratio"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.failed_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: every clock value of the run is relative to it.
    pub base: Instant,
}

fn parse_args(base: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !UNGATED.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {UNGATED:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        base,
    })
}

/// The length of the measured window: half the run when traced (the
/// other half runs untraced, for the tracing overhead).
pub fn window_ns(args: &Args) -> u64 {
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    (secs * 1e9) as u64
}

/// The measured window of a workload.
pub struct Window {
    /// Per-call latency by completion time, ns.
    pub lat: Series,
    /// Calls that completed within the window with the oracle's answer.
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU the program spent over the window, s.
    pub cpu_s: f64,
    /// `VmHWM` when the window ended (before the ladder).
    pub peak_rss_mib: f64,
}

#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants (beyond per-call oracle mismatches).
    pub broken: Vec<String>,
}

impl Report {
    /// Record the measured window (and, on a traced run, the untraced
    /// half that preceded it).
    pub fn window(&mut self, w: &Window, untraced: Option<&Window>) {
        for win in std::iter::once(w).chain(untraced) {
            self.attempted += win.attempted;
            self.failed += win.failed;
        }
        let throughput = w.lat.rate();
        let m = &mut self.metrics;
        m.insert("throughput_cps", throughput);
        m.insert("latency_p50_us", w.lat.p50() / 1e3);
        m.insert("latency_p99_us", w.lat.p99() / 1e3);
        m.insert("cpu_us_per_call", w.cpu_s * 1e6 / w.completed.max(1) as f64);
        m.insert("peak_rss_mib", w.peak_rss_mib);
        println!(
            "window: {} attempted, {} failed; latency p50 {:.3} us, p99 {:.3} us \
             (medians of {} sub-windows of {SUBWINDOW}); whole window p50 {:.3} us, \
             p99 {:.3} us over {} samples",
            w.attempted,
            w.failed,
            w.lat.p50() / 1e3,
            w.lat.p99() / 1e3,
            w.lat.subwindows(),
            w.lat.merged().quantile(0.5) / 1e3,
            w.lat.merged().quantile(0.99) / 1e3,
            w.lat.count()
        );
    }

    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("invariant broken: {what}");
            self.broken.push(what);
        }
    }

    /// Invariants every workload shares: arena bytes settle to zero.
    pub fn check_kernel_invariants(&mut self, kernel: &secmod_kernel::Kernel) {
        let bytes = kernel.metrics.arena.bytes_in_flight.get();
        self.metrics.insert("ring.arena_bytes_end", bytes as f64);
        self.invariant(bytes == 0, || {
            format!("{bytes} arena bytes in flight at the end")
        });
    }
}

/// Run `setup` `SETUP_REPS` times and keep the last result; records the
/// median set-up time (the first measured from process start) and the
/// median cost of each set-up layer.
pub fn repeat_setup<T>(
    report: &mut Report,
    base: Instant,
    mut setup: impl FnMut() -> (T, world::SetupTimes),
) -> T {
    let mut secs = Vec::new();
    let mut layers = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = if rep == 0 { base } else { Instant::now() };
        let (value, times) = setup();
        secs.push(t0.elapsed().as_secs_f64());
        layers.push(times);
        kept = Some(value);
    }
    let m = &mut report.metrics;
    m.insert("setup_s", median(&secs));
    let layer =
        |f: fn(&world::SetupTimes) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    m.insert("module.build_ms", layer(|t| t.build_ms));
    m.insert("crypto.seal_ms", layer(|t| t.seal_ms));
    m.insert("kernel.smod_add_ms", layer(|t| t.smod_add_ms));
    kept.expect("at least one set-up")
}

static MISMATCHES: AtomicU64 = AtomicU64::new(0);

/// Log an oracle mismatch (the first few in full).
pub fn report_mismatch(what: &str) {
    if MISMATCHES.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!("oracle mismatch: {what}");
    }
}

fn main() {
    let base = Instant::now();
    let args = match parse_args(base) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "syscall_hot" => sync::run(&args, false),
        "policy_churn" => sync::run(&args, true),
        "plane_open" => plane::run(&args),
        "async_closed" => asyncw::run(&args),
        _ => unreachable!("workload validated"),
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} not measured"),
        };
        assert!(value.is_finite(), "{name} = {value}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0 && report.broken.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_with_a_valid_name() {
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(
                declared(section),
                names,
                "{section} differs from BENCHMARK.json"
            );
            assert!(names.iter().all(|n| valid(n)), "{names:?}");
        }
        let workloads = declared("workloads");
        assert_eq!(workloads, WORKLOADS);
    }
}
