//! `plane_open`: an open loop of seeded Poisson bursts into 64
//! `PlaneHandle`s in four weighted tenants, drained by one drainer
//! under a weighted-fair `QosPolicy`.
//!
//! Latency runs from each call's scheduled send time to the moment the
//! generator reaps its completion, so a stall also charges the calls
//! queued behind it. The generator polls without sleeping: a sleep
//! oversleeps by tens of microseconds, which would show up as latency.
//! Its idle polling is not the program's work, so `cpu_us_per_call`
//! counts the process's CPU minus the generator thread's, plus the
//! wall time the generator spent submitting and reaping.
//!
//! After the window, a ladder of fixed offered rates finds the highest
//! rate whose p99 stays under `P99_LIMIT_US` with no backlog left
//! behind.

use crate::inputs::{self, Arrivals};
use crate::legs;
use crate::stats::{ns_since, process_cpu_s, thread_cpu_s, Hist, Series};
use crate::trace::Tracer;
use crate::world::{self, World};
use crate::{Args, Report, Window};
use secmod_kernel::{DispatchPlane, PlaneConfig, PlaneHandle};
use secmod_obs::Flavor;
use secmod_qos::{QosPolicy, SweepScheduler, TenantId, TenantSpec};
use secmod_ring::SmodCallResp;
use std::time::{Duration, Instant};

/// The window's offered call rate, about half the highest rate the
/// ladder sustains on the reference host.
pub const OFFERED_CPS: f64 = 400_000.0;
/// Producer handles; 64 sessions × 8 operations is eight times the
/// drainer's 64-slot L0.
const HANDLES: usize = 64;
/// QoS tenants and their weights: handle `i` belongs to tenant
/// `1 + i % 4`.
const WEIGHTS: [u32; 4] = [1, 2, 3, 4];
/// The offered-rate ladder, calls/s, and the time spent on each rung.
const LADDER: [f64; 5] = [100e3, 200e3, 400e3, 800e3, 1_600e3];
const RUNG: Duration = Duration::from_millis(500);
/// The workload's latency limit on p99. On the two-vCPU reference host
/// calls wait up to several milliseconds whenever a thread runs late,
/// so the limit sits above that; a rung whose backlog grows blows
/// through it within the rung.
pub const P99_LIMIT_US: f64 = 20_000.0;
/// A rung also fails when its last completion comes later than this
/// after its last arrival: the backlog grew.
const TAIL_LIMIT: Duration = Duration::from_millis(20);
/// Calls of the fixed warm-up that ends every set-up.
const WARM_CALLS: u64 = 20_000;
/// How long a phase waits for its last completions.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);

pub fn qos_policy() -> QosPolicy {
    QosPolicy::weighted_fair(
        WEIGHTS
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantSpec::new(i as u32 + 1, w)),
    )
}

struct Plane {
    w: World,
    plane: DispatchPlane,
    handles: Vec<PlaneHandle>,
    /// Entries the rings accepted, over the plane's life.
    submitted: u64,
    next_ud: u64,
}

/// What one phase of the open loop measured.
#[derive(Default)]
struct Phase {
    lat: Series,
    gen_lag: Hist,
    submit_entry: Hist,
    queue_wait: Hist,
    calls: u64,
    completed: u64,
    failed: u64,
    secs: f64,
    /// Wall time of generator iterations that submitted or reaped.
    busy_ns: u64,
    /// From the end of the arrivals to the last completion.
    tail_ns: u64,
    /// Whether every call completed before the drain limit.
    drained: bool,
}

impl Plane {
    fn start(w: World) -> Plane {
        let plane = DispatchPlane::start(
            w.kernel.clone(),
            PlaneConfig::builder()
                .drainers(1)
                .slots(HANDLES)
                .qos(qos_policy())
                .build(),
        )
        .expect("start plane");
        let handles = (0..HANDLES)
            .map(|i| {
                plane
                    .attach_tenant(w.clients[i].pid, TenantId(1 + (i % WEIGHTS.len()) as u32))
                    .expect("attach handle")
            })
            .collect();
        Plane {
            w,
            plane,
            handles,
            submitted: 0,
            next_ud: 0,
        }
    }

    /// Offer `rate` calls/s for `dur` (or until `max_calls`), then reap
    /// until every call of the phase has completed.
    fn phase(
        &mut self,
        seed: u64,
        rate: f64,
        dur: Duration,
        max_calls: u64,
        base: Instant,
        mut tr: Option<&mut Tracer>,
    ) -> Phase {
        let first_ud = self.next_ud;
        let mut due: Vec<u64> = Vec::new();
        let mut sub: Vec<u64> = Vec::new();
        let mut done: Vec<bool> = Vec::new();
        let mut backlog: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); HANDLES];
        let mut scratch: Vec<SmodCallResp> = Vec::new();
        let mut outstanding = 0u64;
        let start = ns_since(base);
        let end = start + dur.as_nanos() as u64;
        let mut ph = Phase {
            lat: Series::new(start),
            ..Phase::default()
        };
        let mut arrivals = Arrivals::new(seed ^ first_ud, HANDLES, rate);
        let mut next = arrivals.next().expect("endless arrivals");
        let mut generating = true;
        loop {
            let now = ns_since(base);
            let mut busy = false;
            while generating && start + next.due_ns <= now {
                let due_at = start + next.due_ns;
                if due_at >= end || ph.calls >= max_calls {
                    generating = false;
                    break;
                }
                busy = true;
                ph.gen_lag.record(now - due_at);
                let h = next.handle;
                let first = self.next_ud;
                if let Some(tr) = tr.as_deref_mut() {
                    tr.begin_at("bench.burst", first, now);
                }
                let a = tr.as_deref().map_or(0, Tracer::now);
                let mut batch = self.handles[h].batch();
                for _ in 0..next.len {
                    let ud = self.next_ud;
                    self.next_ud += 1;
                    due.push(due_at);
                    done.push(false);
                    ph.calls += 1;
                    outstanding += 1;
                    if !backlog[h].is_empty() {
                        backlog[h].push_back(ud);
                        continue;
                    }
                    let (op, arg, size) = inputs::plane_call(seed, ud);
                    match batch.push(self.w.func_ids[op], ud, inputs::payload(arg, size)) {
                        Ok(()) => self.submitted += 1,
                        Err(e) if e.is_full() => backlog[h].push_back(ud),
                        Err(e) => panic!("plane refused a submission: {e:?}"),
                    }
                }
                batch.flush();
                drop(batch);
                if let Some(tr) = tr.as_deref_mut() {
                    let b = tr.now();
                    tr.leaf("kernel.submit_batch", first, a, b);
                    tr.end_at(b);
                    ph.submit_entry.record((b - a) / next.len as u64);
                    sub.resize(due.len(), b);
                }
                next = arrivals.next().expect("endless arrivals");
            }
            // Entries a full ring refused: retried in order, after reaps
            // made room.
            for (h, queue) in backlog.iter_mut().enumerate() {
                while let Some(&ud) = queue.front() {
                    let (op, arg, size) = inputs::plane_call(seed, ud);
                    match self.handles[h].submit(
                        self.w.func_ids[op],
                        ud,
                        inputs::payload(arg, size),
                    ) {
                        Ok(()) => {
                            self.submitted += 1;
                            queue.pop_front();
                            if let Some(tr) = tr.as_deref() {
                                sub[(ud - first_ud) as usize] = tr.now();
                            }
                        }
                        Err(e) if e.is_full() => break,
                        Err(e) => panic!("plane refused a retry: {e:?}"),
                    }
                }
            }
            for handle in &self.handles {
                match tr.as_deref_mut() {
                    None => scratch.extend(std::iter::from_fn(|| handle.reap())),
                    Some(tr) => {
                        let mut a = tr.now();
                        while let Some(resp) = handle.reap() {
                            let b = tr.now();
                            tr.leaf("kernel.reap", resp.user_data, a, b);
                            let i = (resp.user_data - first_ud) as usize;
                            ph.queue_wait.record(b.saturating_sub(sub[i]));
                            scratch.push(resp);
                            a = b;
                        }
                    }
                }
            }
            if !scratch.is_empty() {
                busy = true;
                let t = ns_since(base);
                for resp in scratch.drain(..) {
                    let i = (resp.user_data.wrapping_sub(first_ud)) as usize;
                    let (op, arg, _) = inputs::plane_call(seed, resp.user_data);
                    let ok = i < done.len()
                        && !done[i]
                        && world::check_completion(op != 0, arg, resp.errno, resp.ret_bytes());
                    if i < done.len() && !done[i] {
                        done[i] = true;
                        outstanding -= 1;
                        ph.lat.record(t, t - due[i]);
                    }
                    if ok {
                        ph.completed += 1;
                    } else {
                        ph.failed += 1;
                        crate::report_mismatch(&format!(
                            "plane entry {} errno {}",
                            resp.user_data, resp.errno
                        ));
                    }
                }
            }
            if busy {
                ph.busy_ns += ns_since(base) - now;
            }
            if !generating && outstanding == 0 {
                ph.drained = true;
                ph.tail_ns = ns_since(base).saturating_sub(end);
                break;
            }
            if !generating && now > end + DRAIN_LIMIT.as_nanos() as u64 {
                break;
            }
            if !busy {
                std::hint::spin_loop();
            }
        }
        // Calls that never completed count as failed.
        ph.failed += outstanding;
        ph.secs = (end.min(ns_since(base)) - start) as f64 / 1e9;
        ph
    }
}

pub fn run(args: &Args) -> Report {
    let base = args.base;
    let seed = args.seed;
    let mut report = Report::default();
    let mut p = crate::repeat_setup(&mut report, base, || {
        let mut p = Plane::start(World::build(HANDLES, &[]));
        let warm = p.phase(
            seed,
            OFFERED_CPS,
            Duration::from_secs(1),
            WARM_CALLS,
            base,
            None,
        );
        assert!(warm.drained && warm.failed == 0, "warm-up failed");
        let times = p.w.setup;
        (p, times)
    });
    let kernel = p.w.kernel.clone();
    let window_dur = Duration::from_nanos(crate::window_ns(args));
    let window = |p: &mut Plane, tr: Option<&mut Tracer>| {
        let (cpu0, gen0) = (process_cpu_s(), thread_cpu_s());
        let mut ph = p.phase(seed, OFFERED_CPS, window_dur, u64::MAX, base, tr);
        let program_cpu = process_cpu_s() - cpu0 - (thread_cpu_s() - gen0);
        let win = Window {
            attempted: ph.calls,
            completed: ph.completed,
            failed: ph.failed,
            lat: std::mem::take(&mut ph.lat),
            cpu_s: program_cpu + ph.busy_ns as f64 / 1e9,
            peak_rss_mib: crate::stats::peak_rss_mib(),
        };
        (win, ph)
    };
    let untraced = args.trace.then(|| window(&mut p, None));
    let m = &kernel.metrics;
    let counters = || {
        [
            m.drainer_parks.get(),
            m.drainer_unparks.get(),
            m.ring_full_bounces.get(),
            m.sweep_sessions.get(),
            m.sweep_traps.get(),
            m.arena.arena_args.get(),
            m.arena.alloc_fallbacks.get(),
        ]
    };
    let c0 = counters();
    let model0 = m.latency(Flavor::Plane).snapshot();
    let gate0 = p.w.module.gateway.cache_stats();
    let mut tracer = Tracer::new(base);
    crate::alloc::start_counting(args.trace);
    let (win, ph) = window(&mut p, args.trace.then_some(&mut tracer));
    let allocs = crate::alloc::stop_counting();
    let c1 = counters();
    let model1 = m.latency(Flavor::Plane).snapshot();
    let gate1 = p.w.module.gateway.cache_stats();

    if !args.trace {
        let mut max_rate = 0.0;
        for (k, &rate) in LADDER.iter().enumerate() {
            let rung = p.phase(
                seed ^ ((k as u64 + 1) << 32),
                rate,
                RUNG,
                u64::MAX,
                base,
                None,
            );
            let p99_us = rung.lat.p99() / 1e3;
            let achieved = rung.completed as f64 / rung.secs;
            let passed = rung.drained
                && rung.failed == 0
                && p99_us <= P99_LIMIT_US
                && rung.tail_ns <= TAIL_LIMIT.as_nanos() as u64;
            println!(
                "ladder: offered {rate:.0} calls/s, achieved {achieved:.0}, p99 {p99_us:.1} us \
                 over {} samples, tail {:.1} ms: {}",
                rung.lat.count(),
                rung.tail_ns as f64 / 1e6,
                if passed { "pass" } else { "fail" }
            );
            report.attempted += rung.calls;
            report.failed += rung.failed;
            if !passed {
                break;
            }
            max_rate = achieved;
        }
        println!("max_rate_cps {max_rate:.0}");
    }

    let Plane {
        w,
        plane,
        handles,
        submitted,
        ..
    } = p;
    // Handles detach their slots before the plane's final sweep.
    drop(handles);
    let sched = plane.scheduler().expect("QoS plane has a scheduler");
    let stats = plane.shutdown();
    report.invariant(
        stats.completed + stats.failed == stats.drained && stats.drained == submitted,
        || format!("PlaneStats {stats:?} vs {submitted} submitted"),
    );

    report.window(&win, untraced.as_ref().map(|(u, _)| u));
    println!(
        "generator lag p99 {:.3} us over {} bursts",
        ph.gen_lag.quantile(0.99) / 1e3,
        ph.gen_lag.count()
    );

    if args.trace {
        let (untraced, untraced_ph) = untraced.expect("untraced half ran");
        let per_kcall = |i: usize| (c1[i] - c0[i]) as f64 * 1e3 / ph.calls.max(1) as f64;
        let mm = &mut report.metrics;
        mm.insert("kernel.parks_per_kcall", per_kcall(0));
        mm.insert("kernel.unparks_per_kcall", per_kcall(1));
        mm.insert("kernel.full_bounces_per_kcall", per_kcall(2));
        mm.insert(
            "kernel.sessions_per_sweep",
            (c1[3] - c0[3]) as f64 / (c1[4] - c0[4]).max(1) as f64,
        );
        mm.insert(
            "kernel.productive_sweep_ratio",
            stats.productive_sweeps as f64 / stats.sweeps.max(1) as f64,
        );
        let arena_total = (c1[5] - c0[5]) + (c1[6] - c0[6]);
        mm.insert(
            "ring.arena_fallback_ratio",
            (c1[6] - c0[6]) as f64 / arena_total.max(1) as f64,
        );
        mm.insert(
            "kernel.model_ns_per_call",
            (model1.sum() - model0.sum()) as f64 / (model1.count() - model0.count()).max(1) as f64,
        );
        mm.insert(
            "policy.evictions",
            (gate1.evictions - gate0.evictions) as f64,
        );
        mm.insert(
            "bench.allocs_per_call",
            allocs as f64 / ph.calls.max(1) as f64,
        );
        mm.insert(
            "bench.gen_lag_p99_us",
            untraced_ph.gen_lag.quantile(0.99) / 1e3,
        );
        let lat_p50 = win.lat.p50();
        mm.insert(
            "bench.trace_overhead_frac",
            lat_p50 / untraced.lat.p50() - 1.0,
        );
        let reap_p50 = tracer.dur_p("kernel.reap", 0.5);
        let submit_p50 = ph.submit_entry.quantile(0.5);
        mm.insert("kernel.submit_ns_p50", submit_p50);
        mm.insert("kernel.reap_ns_p50", reap_p50);
        mm.insert(
            "kernel.queue_wait_us_p50",
            ph.queue_wait.quantile(0.5) / 1e3,
        );
        mm.insert(
            "kernel.queue_wait_us_p99",
            ph.queue_wait.quantile(0.99) / 1e3,
        );
        mm.insert(
            "bench.layer_sum_frac",
            (ph.gen_lag.quantile(0.5) + submit_p50 + ph.queue_wait.quantile(0.5) + reap_p50)
                / lat_p50,
        );
        for (name, value) in qos_lanes(&sched) {
            mm.insert(name, value);
        }
        let stream: Vec<Option<(usize, usize)>> = Arrivals::new(seed, HANDLES, OFFERED_CPS)
            .flat_map(|b| std::iter::repeat_n(b.handle, b.len))
            .enumerate()
            .map(|(ud, h)| Some((h, inputs::plane_call(seed, ud as u64).0)))
            .take(legs::REPLAY)
            .collect();
        legs::policy_replay(&mut report, &w, &stream);
        let sessions: Vec<legs::LegSession> = (0..HANDLES)
            .map(|i| {
                let pid = w.clients[i].pid;
                let session = kernel.session_of(pid).expect("live session");
                (session.id.0, pid.0, 1 + (i % WEIGHTS.len()) as u32)
            })
            .collect();
        legs::drainer_leg(
            &mut report,
            &w,
            &sessions,
            Some(qos_policy()),
            PlaneConfig::default().arena_bytes,
            |i| inputs::plane_call(seed ^ 0x1e9, i),
        );
        legs::common(&mut report, &w, &tracer, args);
    }
    report.check_kernel_invariants(&kernel);
    report
}

/// QoS lane figures of the plane's scheduler: deferred share, the
/// lowest drained share relative to weight, the worst starvation
/// streak.
fn qos_lanes(sched: &SweepScheduler) -> Vec<(&'static str, f64)> {
    let lanes = sched.metrics().lanes();
    let claimed: u64 = lanes.iter().map(|l| l.claimed.get()).sum();
    let deferred: u64 = lanes.iter().map(|l| l.deferred.get()).sum();
    let drained: u64 = lanes.iter().map(|l| l.drained.get()).sum();
    let weight_sum: u32 = WEIGHTS.iter().sum();
    let min_share = lanes
        .iter()
        .filter(|l| l.tenant >= 1)
        .map(|l| {
            let weight = WEIGHTS[(l.tenant - 1) as usize % WEIGHTS.len()];
            (l.drained.get() as f64 / drained.max(1) as f64)
                / (f64::from(weight) / f64::from(weight_sum))
        })
        .fold(f64::INFINITY, f64::min);
    let starvation = lanes
        .iter()
        .map(|l| l.starvation.high_water())
        .max()
        .unwrap_or(0);
    vec![
        (
            "qos.deferred_ratio",
            deferred as f64 / claimed.max(1) as f64,
        ),
        (
            "qos.min_weighted_share",
            if min_share.is_finite() {
                min_share
            } else {
                0.0
            },
        ),
        ("qos.max_starvation_rounds", starvation as f64),
    ]
}
