//! `async_closed`: 1,000 logical clients on one executor worker, each
//! awaiting `AsyncSession::call` on a default (non-QoS) `AsyncPlane`
//! before it issues its next call. The only path through the async
//! routing and the plain `sys_smod_sweep`.

use crate::inputs;
use crate::legs;
use crate::stats::{ns_since, process_cpu_s, Series};
use crate::trace::Tracer;
use crate::world::{self, World, OPS};
use crate::{Args, Report, Window};
use secmod_async::{AsyncPlane, AsyncSession, Executor};
use secmod_kernel::PlaneConfig;
use secmod_obs::Flavor;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Kernel sessions the logical clients share.
const SESSIONS: usize = 8;
/// Logical clients (tasks) on the one executor worker.
const LOGICAL: usize = 1_000;
/// Calls per logical client in the fixed warm-up.
const WARM_PER_CLIENT: u64 = 20;

/// What the tasks of one phase measured, behind one lock: every task
/// runs on the single executor worker, so it is never contended.
#[derive(Default)]
struct Tally {
    lat: Series,
    completed: u64,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
}

struct Fixture {
    w: World,
    plane: AsyncPlane,
    sessions: Vec<AsyncSession>,
    exec: Executor,
    /// Calls issued over the plane's life.
    issued: u64,
    phases: u64,
}

impl Fixture {
    /// Run every logical client until `end_ns` (or `max_per_client`
    /// calls); `in_flight` samples the sessions' outstanding calls
    /// every millisecond while it waits, when set.
    fn phase(
        &mut self,
        args: &Args,
        end_ns: u64,
        max_per_client: u64,
        trace: bool,
        in_flight: Option<&mut Vec<usize>>,
    ) -> Tally {
        let base = args.base;
        self.phases += 1;
        let lat = Series::new(ns_since(base));
        let tally = Arc::new(Mutex::new(Tally {
            lat,
            tracer: trace.then(|| Tracer::new(base)),
            ..Tally::default()
        }));
        let handles: Vec<_> = (0..LOGICAL)
            .map(|j| {
                let session = self.sessions[j % SESSIONS].clone();
                let func_ids = self.w.func_ids;
                let tally = Arc::clone(&tally);
                let mut rng = inputs::async_client(args.seed ^ (self.phases << 40), j);
                self.exec.spawn(async move {
                    let mut prev = ns_since(base);
                    let mut calls = 0u64;
                    loop {
                        let op = rng.below(OPS as u64) as usize;
                        let arg = rng.next_u64() >> 1;
                        let issue = if trace { ns_since(base) } else { prev };
                        let outcome = session.call(func_ids[op], arg.to_le_bytes()).await;
                        let now = ns_since(base);
                        calls += 1;
                        let ok = world::check_reply(op != 0, arg, &outcome);
                        let mut t = tally.lock().expect("tally lock");
                        t.attempted += 1;
                        if !ok {
                            t.failed += 1;
                            crate::report_mismatch(&format!(
                                "async call {op} {arg} -> {outcome:?}"
                            ));
                        } else if now < end_ns {
                            t.completed += 1;
                            t.lat.record(now, now - prev);
                        }
                        if let Some(tr) = t.tracer.as_mut() {
                            tr.leaf("bench.task", j as u64, prev, issue);
                            tr.leaf("async.call", j as u64, issue, now);
                        }
                        drop(t);
                        prev = now;
                        if now >= end_ns || calls >= max_per_client {
                            return calls;
                        }
                    }
                })
            })
            .collect();
        if let Some(samples) = in_flight {
            while ns_since(base) < end_ns {
                samples.push(self.sessions.iter().map(AsyncSession::in_flight).sum());
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.issued += handles.into_iter().map(|h| h.join()).sum::<u64>();
        Arc::try_unwrap(tally)
            .ok()
            .expect("every task joined")
            .into_inner()
            .expect("tally lock")
    }
}

pub fn run(args: &Args) -> Report {
    let base = args.base;
    let mut report = Report::default();
    let mut f = crate::repeat_setup(&mut report, base, || {
        let w = World::build(SESSIONS, &[]);
        let plane = AsyncPlane::start(
            w.kernel.clone(),
            PlaneConfig::builder().drainers(1).slots(SESSIONS).build(),
        )
        .expect("start async plane");
        let sessions = (0..SESSIONS)
            .map(|i| plane.session(w.clients[i].pid).expect("attach session"))
            .collect();
        let mut f = Fixture {
            w,
            plane,
            sessions,
            exec: Executor::new(1),
            issued: 0,
            phases: 0,
        };
        let warm = f.phase(args, u64::MAX, WARM_PER_CLIENT, false, None);
        assert!(warm.failed == 0, "warm-up failed");
        let times = f.w.setup;
        (f, times)
    });
    let kernel = f.w.kernel.clone();
    let window = |f: &mut Fixture, trace: bool, in_flight: Option<&mut Vec<usize>>| {
        let cpu0 = process_cpu_s();
        let end = ns_since(base) + crate::window_ns(args);
        let mut tally = f.phase(args, end, u64::MAX, trace, in_flight);
        let win = Window {
            lat: std::mem::take(&mut tally.lat),
            completed: tally.completed,
            attempted: tally.attempted,
            failed: tally.failed,
            cpu_s: process_cpu_s() - cpu0,
            peak_rss_mib: crate::stats::peak_rss_mib(),
        };
        (win, tally.tracer)
    };
    let untraced = args.trace.then(|| window(&mut f, false, None).0);
    let m = &kernel.metrics;
    let counters = || {
        [
            m.drainer_parks.get(),
            m.drainer_unparks.get(),
            m.ring_full_bounces.get(),
            m.async_resubmits.get(),
            m.sweep_sessions.get(),
            m.sweep_traps.get(),
        ]
    };
    let c0 = counters();
    let routed0 = f.plane.routed();
    let model0 = m.latency(Flavor::Async).snapshot();
    let mut in_flight = Vec::new();
    crate::alloc::start_counting(args.trace);
    let (win, tracer) = window(&mut f, args.trace, args.trace.then_some(&mut in_flight));
    let allocs = crate::alloc::stop_counting();
    let c1 = counters();
    let routed1 = f.plane.routed();
    let model1 = m.latency(Flavor::Async).snapshot();

    let Fixture {
        w,
        plane,
        sessions,
        exec,
        issued,
        ..
    } = f;
    drop(sessions);
    drop(exec);
    let stats = plane.shutdown();
    report.invariant(
        stats.completed + stats.failed == stats.drained && stats.drained == issued,
        || format!("PlaneStats {stats:?} vs {issued} issued"),
    );
    report.window(&win, untraced.as_ref());

    if args.trace {
        let tr = tracer.expect("traced tally");
        let calls = win.attempted.max(1) as f64;
        let per_kcall = |i: usize| (c1[i] - c0[i]) as f64 * 1e3 / calls;
        let lat_p50 = win.lat.p50();
        let untraced_p50 = untraced.expect("untraced half ran").lat.p50();
        let mm = &mut report.metrics;
        mm.insert("kernel.parks_per_kcall", per_kcall(0));
        mm.insert("kernel.unparks_per_kcall", per_kcall(1));
        mm.insert("kernel.full_bounces_per_kcall", per_kcall(2));
        mm.insert("async.resubmits_per_kcall", per_kcall(3));
        mm.insert(
            "kernel.sessions_per_sweep",
            (c1[4] - c0[4]) as f64 / (c1[5] - c0[5]).max(1) as f64,
        );
        mm.insert(
            "kernel.productive_sweep_ratio",
            stats.productive_sweeps as f64 / stats.sweeps.max(1) as f64,
        );
        mm.insert("async.routed_per_call", (routed1 - routed0) as f64 / calls);
        mm.insert(
            "async.in_flight_mean",
            in_flight.iter().sum::<usize>() as f64 / in_flight.len().max(1) as f64,
        );
        mm.insert(
            "kernel.model_ns_per_call",
            (model1.sum() - model0.sum()) as f64 / (model1.count() - model0.count()).max(1) as f64,
        );
        mm.insert("bench.allocs_per_call", allocs as f64 / calls);
        mm.insert("bench.trace_overhead_frac", lat_p50 / untraced_p50 - 1.0);
        mm.insert(
            "bench.layer_sum_frac",
            (tr.self_p50("bench.task") + tr.self_p50("async.call")) / lat_p50,
        );
        // The decision stream as the executor interleaves the clients:
        // one call of every logical client per round.
        let mut rngs: Vec<_> = (0..LOGICAL)
            .map(|j| inputs::async_client(args.seed, j))
            .collect();
        let stream: Vec<Option<(usize, usize)>> = (0..legs::REPLAY)
            .map(|k| {
                let rng = &mut rngs[k % LOGICAL];
                let op = rng.below(OPS as u64) as usize;
                rng.next_u64();
                Some((k % LOGICAL % SESSIONS, op))
            })
            .collect();
        legs::policy_replay(&mut report, &w, &stream);
        let leg_sessions: Vec<legs::LegSession> = (0..SESSIONS)
            .map(|i| {
                let pid = w.clients[i].pid;
                (kernel.session_of(pid).expect("live session").id.0, pid.0, 0)
            })
            .collect();
        // The gated workloads have no QoS plane and no arena payloads;
        // this leg times `claim_ready`, `SweepScheduler::plan` and
        // `ArenaRegion::alloc_with` on `plane_open`'s entry mix and
        // tenants over this workload's sessions. The plain leg after it
        // then times this workload's own sweep and ring submissions.
        let qos_sessions: Vec<legs::LegSession> = leg_sessions
            .iter()
            .enumerate()
            .map(|(i, &(session, owner, _))| (session, owner, 1 + (i % 4) as u32))
            .collect();
        legs::drainer_leg(
            &mut report,
            &w,
            &qos_sessions,
            Some(crate::plane::qos_policy()),
            PlaneConfig::default().arena_bytes,
            |i| inputs::plane_call(args.seed ^ 0x1e9, i),
        );
        legs::drainer_leg(
            &mut report,
            &w,
            &leg_sessions,
            None,
            PlaneConfig::default().arena_bytes,
            |i| {
                let (op, arg, _) = inputs::plane_call(args.seed ^ 0xa5, i);
                (op, arg, 8)
            },
        );
        legs::common(&mut report, &w, &tr, args);
    }
    report.check_kernel_invariants(&kernel);
    report
}
