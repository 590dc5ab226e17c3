//! The two synchronous closed loops: `syscall_hot` (one client, eight
//! operations, every key resident in the caller's L0) and
//! `policy_churn` (64 sessions round-robin, a policy write every
//! `CHURN_EVERY` calls).

use crate::inputs::{self, Call, Write};
use crate::legs;
use crate::stats::{ns_since, Series};
use crate::trace::Tracer;
use crate::world::World;
use crate::{Args, Report, Window};
use secmod_kernel::Dispatcher;
use secmod_obs::Flavor;
use std::time::Instant;

/// Tenants of `policy_churn`: 64 sessions × 8 operations is 512 keys,
/// eight times the 64-slot L0.
pub const CHURN_TENANTS: usize = 64;
/// Calls between two writes of `policy_churn`.
pub const CHURN_EVERY: u64 = 1024;
/// Calls in the pre-generated stream (cycled).
const STREAM: usize = 1 << 16;
/// Calls of the fixed warm-up that ends every set-up.
const WARM_CALLS: u64 = 20_000;

struct Input {
    churn: bool,
    calls: Vec<Call>,
    writes: Vec<Write>,
    grant_order: Vec<usize>,
    withheld: Vec<Option<usize>>,
}

/// Progress through the input.
#[derive(Default)]
struct Cursor {
    i: u64,
    writes: u64,
    grants: usize,
}

/// What one stretch of the loop measured.
struct Tally {
    lat: Series,
    completed: u64,
    failed: u64,
}

impl Tally {
    fn new(start_ns: u64) -> Tally {
        Tally {
            lat: Series::new(start_ns),
            completed: 0,
            failed: 0,
        }
    }
}

impl Cursor {
    fn write(&mut self, w: &mut World, input: &Input) {
        let write = input.writes[self.writes as usize % input.writes.len()];
        self.writes += 1;
        match write {
            Write::Grant if self.grants < input.grant_order.len() => {
                let t = input.grant_order[self.grants];
                self.grants += 1;
                let op = input.withheld[t].expect("every churn tenant has a withheld op");
                w.grant(t, op);
            }
            // Once every withheld operation is granted, a grant slot
            // registers a key instead, so the policy stops growing.
            Write::Grant | Write::Key => w.register_key(),
            Write::Cycle(t) => w.cycle_session(t),
        }
    }

    /// Run calls until `stop(calls, now)` says so. One clock read per
    /// call boundary untraced; traced, two more around the kernel call.
    fn run(
        &mut self,
        w: &mut World,
        input: &Input,
        base: Instant,
        tally: &mut Tally,
        mut tr: Option<&mut Tracer>,
        stop: impl Fn(u64, u64) -> bool,
    ) {
        let mut prev = ns_since(base);
        let start_i = self.i;
        loop {
            if input.churn && self.i % CHURN_EVERY == CHURN_EVERY - 1 {
                if let Some(tr) = tr.as_deref_mut() {
                    tr.begin_at("bench.write", self.i, prev);
                }
                self.write(w, input);
                let now = ns_since(base);
                if let Some(tr) = tr.as_deref_mut() {
                    tr.end_at(now);
                }
                prev = now;
            }
            let c = input.calls[self.i as usize % input.calls.len()];
            let client = w.clients[c.tenant].pid;
            let args = c.arg.to_le_bytes();
            let outcome = match tr.as_deref_mut() {
                None => w.kernel.dispatch_one(client, w.func_ids[c.op], &args),
                Some(tr) => {
                    tr.begin_at("bench.request", self.i, prev);
                    let a = tr.now();
                    let outcome = w.kernel.dispatch_one(client, w.func_ids[c.op], &args);
                    let b = tr.now();
                    tr.leaf("kernel.sys_smod_call", self.i, a, b);
                    outcome
                }
            };
            let ok = w.check(c.tenant, c.op, c.arg, &outcome);
            let now = ns_since(base);
            if let Some(tr) = tr.as_deref_mut() {
                tr.end_at(now);
            }
            if ok {
                tally.completed += 1;
                tally.lat.record(now, now - prev);
            } else {
                tally.failed += 1;
                crate::report_mismatch(&format!("call {} {c:?} -> {outcome:?}", self.i));
            }
            prev = now;
            self.i += 1;
            if stop(self.i - start_i, now) {
                break;
            }
        }
    }
}

pub fn run(args: &Args, churn: bool) -> Report {
    let tenants = if churn { CHURN_TENANTS } else { 1 };
    let (withheld, grant_order) = if churn {
        inputs::withheld(args.seed, tenants)
    } else {
        (vec![None; tenants], Vec::new())
    };
    let input = Input {
        churn,
        calls: inputs::calls(args.seed, tenants, churn, STREAM),
        writes: inputs::writes(args.seed, tenants, 3 * 1024),
        grant_order,
        withheld,
    };
    let base = args.base;
    let mut report = Report::default();

    // Set up several times; the last world is the one measured.
    let (mut w, mut cur) = crate::repeat_setup(&mut report, base, || {
        let mut w = World::build(tenants, &input.withheld);
        let mut cur = Cursor::default();
        let mut warm = Tally::new(0);
        cur.run(&mut w, &input, base, &mut warm, None, |n, _| {
            n >= WARM_CALLS
        });
        assert!(warm.failed == 0, "warm-up failed");
        let times = w.setup;
        ((w, cur), times)
    });
    let kernel = w.kernel.clone();
    let gate0 = w.module.gateway.cache_stats();

    let window_ns = crate::window_ns(args);
    let window = |w: &mut World, cur: &mut Cursor, tr: Option<&mut Tracer>| {
        let cpu0 = crate::stats::process_cpu_s();
        let t0 = ns_since(base);
        let mut tally = Tally::new(t0);
        cur.run(w, &input, base, &mut tally, tr, |_, now| {
            now >= t0 + window_ns
        });
        Window {
            attempted: tally.completed + tally.failed,
            completed: tally.completed,
            failed: tally.failed,
            lat: tally.lat,
            cpu_s: crate::stats::process_cpu_s() - cpu0,
            peak_rss_mib: crate::stats::peak_rss_mib(),
        }
    };
    let untraced = args.trace.then(|| window(&mut w, &mut cur, None));
    let mut tracer = Tracer::new(base);
    let model0 = kernel.metrics.latency(Flavor::Syscall).snapshot();
    crate::alloc::start_counting(args.trace);
    let win = window(&mut w, &mut cur, args.trace.then_some(&mut tracer));
    let allocs = crate::alloc::stop_counting();
    let model1 = kernel.metrics.latency(Flavor::Syscall).snapshot();
    report.window(&win, untraced.as_ref());

    if args.trace {
        let tr = tracer;
        let lat_p50 = win.lat.p50();
        let untraced_p50 = untraced.expect("untraced half ran").lat.p50();
        let m = &mut report.metrics;
        m.insert("kernel.call_ns_p50", tr.dur_p("kernel.sys_smod_call", 0.5));
        m.insert("policy.mutation_us_p50", tr.dur_p("bench.write", 0.5) / 1e3);
        m.insert(
            "policy.mutation_us_p99",
            tr.dur_p("bench.write", 0.99) / 1e3,
        );
        m.insert("kernel.call_ns_p99", tr.dur_p("kernel.sys_smod_call", 0.99));
        m.insert(
            "bench.layer_sum_frac",
            (tr.self_p50("bench.request") + tr.self_p50("kernel.sys_smod_call")) / lat_p50,
        );
        m.insert("bench.trace_overhead_frac", lat_p50 / untraced_p50 - 1.0);
        m.insert(
            "bench.allocs_per_call",
            allocs as f64 / win.attempted as f64,
        );
        let calls = model1.count() - model0.count();
        m.insert(
            "kernel.model_ns_per_call",
            (model1.sum() - model0.sum()) as f64 / calls.max(1) as f64,
        );
        let stats = w.module.gateway.cache_stats();
        m.insert(
            "policy.evictions",
            (stats.evictions - gate0.evictions) as f64,
        );
        // The decision stream of the window, replayed with an epoch bump
        // wherever a write fell.
        let stream: Vec<Option<(usize, usize)>> = (0..legs::REPLAY as u64)
            .flat_map(|i| {
                let c = input.calls[i as usize % input.calls.len()];
                let write = churn && i % CHURN_EVERY == CHURN_EVERY - 1;
                write
                    .then_some(None)
                    .into_iter()
                    .chain([Some((c.tenant, c.op))])
            })
            .collect();
        legs::policy_replay(&mut report, &w, &stream);
        legs::common(&mut report, &w, &tr, args);
    }
    report.check_kernel_invariants(&kernel);
    drop(w);
    report
}
