//! The traced legs that run after the window and time single layers
//! through their public functions: the decision-tier replay, the
//! drainer's own calls, and the per-layer figures every workload shares.

use crate::inputs;
use crate::stats::{clock_read_ns, median, Hist};
use crate::trace::Tracer;
use crate::world::{self, World};
use crate::{Args, Report};
use secmod_kernel::Credential;
use secmod_policy::DecisionTier;
use secmod_qos::{QosPolicy, SweepScheduler};
use secmod_ring::{ArenaRegion, ArgArena, ArgRef, RingPairConfig, RingSet, SmodCallReq};
use std::time::Instant;

/// Decisions replayed through the gateway per traced run.
pub const REPLAY: usize = 200_000;
fn p50_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>()) / 1e3
}

/// Replay a decision stream (`None`: an invalidating write) through
/// `Gateway::is_allowed_tiered` on a fresh thread, whose L0 starts cold
/// as a new drainer's or caller's would, timing each decision by tier.
pub fn policy_replay(report: &mut Report, w: &World, stream: &[Option<(usize, usize)>]) {
    let clock = clock_read_ns();
    let gateway = &w.module.gateway;
    let mut tiers = [Hist::default(), Hist::default(), Hist::default()];
    std::thread::scope(|s| {
        s.spawn(|| {
            for entry in stream {
                let Some((t, op)) = *entry else {
                    gateway.bump_epoch();
                    continue;
                };
                let req = w.request(t, op);
                let a = Instant::now();
                let (_allowed, tier) = gateway.is_allowed_tiered(&req);
                let ns = a.elapsed().as_nanos() as u64;
                let idx = match tier {
                    DecisionTier::L0 => 0,
                    DecisionTier::Shared => 1,
                    DecisionTier::Engine => 2,
                };
                tiers[idx].record(ns);
            }
        })
        .join()
        .expect("replay thread");
    });
    let total: u64 = tiers.iter().map(Hist::count).sum();
    let ratio = |i: usize| tiers[i].count() as f64 / total.max(1) as f64;
    let net = |i: usize| (tiers[i].quantile(0.5) - clock).max(0.0);
    let m = &mut report.metrics;
    m.insert("policy.l0_hit_ratio", ratio(0));
    m.insert("policy.shared_hit_ratio", ratio(1));
    m.insert("policy.engine_ratio", ratio(2));
    m.insert("policy.l0_ns_p50", net(0));
    m.insert("policy.shared_ns_p50", net(1));
    m.insert("policy.engine_us_p50", net(2) / 1e3);
}

/// Per-layer metrics every workload reports, and the trace file.
pub fn common(report: &mut Report, w: &World, tr: &Tracer, args: &Args) {
    let kernel = &w.kernel;
    let pid = w.clients[0].pid;
    let mut per_call = Vec::new();
    for _ in 0..100 {
        let t0 = Instant::now();
        for _ in 0..1_000 {
            std::hint::black_box(
                kernel
                    .sys_getpid(std::hint::black_box(pid))
                    .expect("getpid"),
            );
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
    }
    let m = &mut report.metrics;
    m.insert("kernel.getpid_ns_p50", median(&per_call));
    m.insert("bench.clock_read_ns", clock_read_ns());
    m.insert("kernel.session_start_us_p50", p50_us(&w.session_start_ns));
    m.insert("kernel.detach_us_p50", p50_us(&w.detach_ns));
    m.insert("policy.grant_us_p50", p50_us(&w.grant_ns));
    m.insert(
        "kernel.eidrm_failures",
        kernel.metrics.eidrm_failures.get() as f64,
    );
    m.insert(
        "bench.failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_to(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// One session the drainer leg registers: `(session id, owner pid,
/// tenant)`.
pub type LegSession = (u32, u32, u32);

/// The drainer's own calls, made by the benchmark on the workload's
/// generated entries: `RingSet::submit`, `claim_ready`,
/// `SweepScheduler::plan`, and the sweep (`sys_smod_sweep_qos` with a
/// QoS policy, `sys_smod_sweep` without), each timed; plus
/// `ArenaRegion::alloc_with` over the payload mix. `entry(i)` gives the
/// `(op, arg, payload size)` of generated entry `i`.
pub fn drainer_leg(
    report: &mut Report,
    w: &World,
    sessions: &[LegSession],
    qos: Option<QosPolicy>,
    arena_bytes: usize,
    entry: impl Fn(u64) -> (usize, u64, usize),
) {
    const ROUNDS: u64 = 2_000;
    const PER_ROUND: u64 = 64;
    let clock = clock_read_ns();
    let kernel = &w.kernel;
    let arena = ArgArena::with_capacity(arena_bytes);
    let set = RingSet::with_arena(sessions.len(), std::sync::Arc::clone(&arena), arena_bytes);
    let slots: Vec<_> = sessions
        .iter()
        .map(|&(session, owner, tenant)| {
            set.register_for_tenant(session, owner, tenant, RingPairConfig::default())
                .expect("leg slot")
        })
        .collect();
    let rings: Vec<_> = slots
        .iter()
        .map(|&s| set.get(s).expect("registered"))
        .collect();
    let drainer = kernel
        .spawn_process("leg-drainer", Credential::root(), vec![0x90; 4096], 2, 2)
        .expect("spawn leg drainer");
    let sched = qos.clone().map(SweepScheduler::new);
    let plan_sched = qos.map(SweepScheduler::new);
    let ledger = set.claim_ledger();
    let budget = secmod_ring::SMOD_BATCH_DEFAULT_BUDGET;
    let (mut submit, mut claim, mut plan) = (Hist::default(), Hist::default(), Hist::default());
    let (mut sweep_ns, mut drained) = (0u64, 0u64);
    let mut cands = Vec::new();
    let mut ud = 0u64;
    for _ in 0..ROUNDS {
        for _ in 0..PER_ROUND {
            let (op, arg, size) = entry(ud);
            let k = ud as usize % slots.len();
            let req = SmodCallReq {
                session: rings[k].session,
                proc_id: w.func_ids[op],
                user_data: ud,
                args: ArgRef::place_vec(inputs::payload(arg, size), rings[k].arena.as_ref()),
            };
            let a = Instant::now();
            let pushed = set.submit(slots[k], req);
            submit.record(a.elapsed().as_nanos() as u64);
            pushed.expect("leg rings hold a round");
            ud += 1;
        }
        if let Some(plan_sched) = &plan_sched {
            cands.clear();
            let a = Instant::now();
            set.claim_ready(&ledger, &mut cands);
            claim.record(a.elapsed().as_nanos() as u64);
            let raw: Vec<(usize, u32)> = cands.iter().map(|(s, t)| (s.0, *t)).collect();
            let a = Instant::now();
            std::hint::black_box(plan_sched.plan(&raw, 0, budget));
            plan.record(a.elapsed().as_nanos() as u64);
            for (slot, _) in &cands {
                set.release_claimed(*slot, &ledger);
            }
        }
        while set.any_ready() {
            let a = Instant::now();
            let r = match &sched {
                Some(sched) => kernel.sys_smod_sweep_qos(drainer, &set, sched, &ledger, budget),
                None => kernel.sys_smod_sweep(drainer, &set, budget),
            }
            .expect("leg sweep");
            sweep_ns += a.elapsed().as_nanos() as u64;
            drained += r.drained as u64;
        }
        for r in &rings {
            while let Some(resp) = r.cq.pop() {
                let (op, arg, _) = entry(resp.user_data);
                report.attempted += 1;
                if !world::check_completion(op != 0, arg, resp.errno, resp.ret_bytes()) {
                    report.failed += 1;
                    crate::report_mismatch(&format!("drainer leg entry {}", resp.user_data));
                }
            }
        }
    }
    report.invariant(drained == ud, || {
        format!("drainer leg drained {drained} of {ud} entries")
    });

    // A fresh arena, so the leg's own regions hold none of it.
    let region = ArenaRegion::new(ArgArena::with_capacity(arena_bytes), arena_bytes);
    let mut alloc = Hist::default();
    for i in 0..ROUNDS * PER_ROUND {
        let (_, arg, size) = entry(i);
        if size <= secmod_ring::INLINE_ARG_MAX {
            continue;
        }
        let payload = inputs::payload(arg, size);
        let a = Instant::now();
        let slot = region.alloc_with(&payload);
        alloc.record(a.elapsed().as_nanos() as u64);
        report.invariant(slot.is_some(), || {
            format!("an empty {arena_bytes}-byte arena refused {size} bytes")
        });
    }

    let net = |h: &Hist| (h.quantile(0.5) - clock).max(0.0);
    let m = &mut report.metrics;
    m.insert("ring.submit_ns_p50", net(&submit));
    m.insert(
        "kernel.sweep_ns_per_entry",
        sweep_ns as f64 / drained.max(1) as f64,
    );
    // Claim and plan run only on the QoS sweep; the arena only for
    // payloads above the inline limit.
    if claim.count() > 0 {
        m.insert("ring.claim_ns_p50", net(&claim));
        m.insert("qos.plan_ns_p50", net(&plan));
    }
    if alloc.count() > 0 {
        m.insert("ring.arena_alloc_ns_p50", net(&alloc));
    }
    for slot in slots {
        set.deregister(slot);
    }
}
