//! Runners for the QoS / tenant-isolation traffic shapes
//! ([`ScenarioKind::MultiTenant`], [`ScenarioKind::ChurnStorm`],
//! [`ScenarioKind::HerdEstablish`], [`ScenarioKind::DrainerCrash`]).
//!
//! All four drive the same universe as [`ScenarioKind::PlaneDispatch`] —
//! same kernel builder, same per-thread `SmallRng` streams, same uniform
//! operation draw — so their allow/deny splits are bit-for-bit identical
//! to the plain plane run no matter how the plane is scheduled, churned,
//! or crashed underneath. What each shape adds:
//!
//! * **multitenant** — a one-slot victim tenant against an adversary
//!   tenant flooding four slots per producer thread, on a weighted-fair
//!   plane with equal weights. The victim thread snapshots both tenants'
//!   drain counters at the moment it finishes; the run asserts the
//!   victim received at least *half its fair share* (≥ 25% of service at
//!   1:1 weights) — the starvation-proof contract — plus full per-tenant
//!   lane accounting and a clean park/unpark, EIDRM-free run.
//! * **churnstorm** — producers submit in bursts, dropping their plane
//!   slot after every burst and cycling the whole kernel session
//!   (detach + re-handshake, bumping the invalidation epoch) every
//!   second burst.
//! * **herd** — every established session is torn down, then all
//!   producer threads re-handshake four sessions each simultaneously
//!   from a barrier and drive them round-robin.
//! * **crash** — the QoS plane's fault drill: the targeted drainer
//!   claims ready slots like a real sweep and dies holding them; the
//!   health monitor's supervisor reclaims and respawns, and every
//!   producer proves exactly-once completion with a seen-bitmap over its
//!   `user_data` cookies.
//!
//! [`ScenarioKind::MultiTenant`]: crate::ScenarioKind::MultiTenant
//! [`ScenarioKind::ChurnStorm`]: crate::ScenarioKind::ChurnStorm
//! [`ScenarioKind::HerdEstablish`]: crate::ScenarioKind::HerdEstablish
//! [`ScenarioKind::DrainerCrash`]: crate::ScenarioKind::DrainerCrash
//! [`ScenarioKind::PlaneDispatch`]: crate::ScenarioKind::PlaneDispatch

use crate::cache::mix64;
use crate::scenario::{
    build_dispatch_kernel, build_dispatch_kernel_with_clients, latency_of, layered_cache_stats,
    DispatchKernel, ScenarioConfig, ScenarioReport, WorkerStats,
};
use crossbeam::channel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use secmod_kernel::{CrashSpec, DispatchPlane, Errno, Kernel, PlaneConfig};
use secmod_module::ModuleId;
use secmod_obs::Flavor;
use secmod_qos::{HealthConfig, QosPolicy, TenantId, TenantSpec};
use secmod_ring::{SmodCallResp, SubmitError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use secmod_kernel::plane::PlaneHandle;

/// The victim tenant in the multitenant shape: one slot, one producer.
const VICTIM_TENANT: u32 = 0;
/// The adversary tenant: every other producer thread, four slots each.
const ADVERSARY_TENANT: u32 = 1;
/// Slots each adversary thread floods (same client, so same decisions).
const ADVERSARY_HANDLES: usize = 4;
/// Submission bursts per producer in the churn storm.
const STORM_BURSTS: u64 = 8;
/// The storm cycles the whole kernel session every this-many bursts.
const STORM_REHANDSHAKE_EVERY: u64 = 2;
/// Sessions each producer re-handshakes from the herd barrier.
const HERD_SESSIONS: usize = 4;

/// What one producer's drive produced: the decision split plus the
/// backpressure bounces it personally absorbed (mirrored against
/// `DispatchMetrics::ring_full_bounces` by the crash shape).
struct DriveOutcome {
    stats: WorkerStats,
    full_bounces: u64,
}

/// Drive `ops` submissions round-robin over `handles`, reaping every
/// completion before returning. The operation draw consumes `rng`
/// exactly like the plain plane producer (one draw per submission, drawn
/// only when no bounced request is pending), so a thread's split is
/// independent of how many handles it spreads the stream over.
/// `user_data` is the thread-local submission index — unique per
/// producer, which is what the crash shape's seen-bitmaps key on.
fn drive_round_robin(
    handles: &[PlaneHandle],
    func_ids: &[u32],
    rng: &mut SmallRng,
    ops: u64,
    mut on_completion: impl FnMut(&SmodCallResp),
) -> DriveOutcome {
    let mut stats = WorkerStats::default();
    let mut full_bounces = 0u64;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut pending: Option<(usize, u32, u64)> = None;
    while received < ops {
        let mut progressed = false;
        if sent < ops {
            let (target, func_id, user_data) = pending.take().unwrap_or_else(|| {
                (
                    (sent % handles.len() as u64) as usize,
                    func_ids[rng.gen_range(0..func_ids.len() as u64) as usize],
                    sent,
                )
            });
            match handles[target].submit(func_id, user_data, user_data.to_le_bytes().to_vec()) {
                Ok(()) => {
                    sent += 1;
                    progressed = true;
                }
                Err(SubmitError::Full(back)) => {
                    // Backpressure: space reappears as entries complete —
                    // reap below and retry the same slot.
                    full_bounces += 1;
                    pending = Some((target, back.proc_id, back.user_data));
                }
                Err(SubmitError::Detached(_)) => panic!("plane detached mid-run"),
            }
        }
        for handle in handles {
            while let Some(resp) = handle.reap() {
                received += 1;
                progressed = true;
                if resp.is_ok() {
                    stats.allows += 1;
                } else if resp.errno == Errno::EACCES.code() {
                    stats.denies += 1;
                } else {
                    panic!("unexpected plane completion errno {}", resp.errno);
                }
                on_completion(&resp);
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    DriveOutcome {
        stats,
        full_bounces,
    }
}

/// Assemble the report every runner here shares: the tier-blind gate
/// cache view, the kernel's invalidation epoch, and plane-flavor latency.
fn finish_report(
    cfg: &ScenarioConfig,
    kernel: &Kernel,
    module: ModuleId,
    elapsed: Duration,
    allows: u64,
    denies: u64,
) -> ScenarioReport {
    let cache = layered_cache_stats(kernel, module);
    let total_ops = cfg.total_ops();
    ScenarioReport {
        kind: cfg.kind,
        threads: cfg.threads,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        allows,
        denies,
        epoch_bumps: kernel.smod_epoch(),
        cache,
        latency: latency_of(kernel, Flavor::Plane),
    }
}

/// The [`MultiTenant`](crate::ScenarioKind::MultiTenant) runner: thread 0
/// is the victim (tenant 0, one slot); every other thread is the
/// adversary (tenant 1), flooding [`ADVERSARY_HANDLES`] slots with the
/// *same* request stream a plain plane producer would issue. Equal
/// weights mean the victim's fair share of drain service is 50%; the run
/// asserts it actually received at least half that (≥ 25%) at the moment
/// it finished — with the adversary holding 4× the slots per thread,
/// naive bitmap-order sweeping would give the victim `1/(1+4(n-1))`.
pub(crate) fn run_multi_tenant_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel(cfg);
    let kernel = Arc::new(kernel);
    let adversaries = cfg.threads.saturating_sub(1);
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers())
            .slots(1 + ADVERSARY_HANDLES * adversaries)
            .qos(
                QosPolicy::weighted_fair([
                    TenantSpec::new(VICTIM_TENANT, 1),
                    TenantSpec::new(ADVERSARY_TENANT, 1),
                ])
                .with_quantum(16),
            )
            .build(),
    )
    .expect("start weighted-fair plane");
    let sched = plane.scheduler().expect("qos plane has a scheduler");
    // The victim stores both tenants' drain counters here the moment it
    // finishes — the instant the fairness contract is judged at.
    let at_victim_finish = [AtomicU64::new(0), AtomicU64::new(0)];
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (thread_idx, &client) in clients.iter().enumerate().take(cfg.threads) {
            let tx = tx.clone();
            let func_ids = &func_ids;
            let sched = &sched;
            let at_victim_finish = &at_victim_finish;
            let handles: Vec<PlaneHandle> = if thread_idx == 0 {
                vec![plane
                    .attach_tenant(client, TenantId(VICTIM_TENANT))
                    .expect("attach victim")]
            } else {
                (0..ADVERSARY_HANDLES)
                    .map(|_| {
                        plane
                            .attach_tenant(client, TenantId(ADVERSARY_TENANT))
                            .expect("attach adversary")
                    })
                    .collect()
            };
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx as u64 + 1));
                let out =
                    drive_round_robin(&handles, func_ids, &mut rng, cfg.ops_per_thread, |_| {});
                if thread_idx == 0 {
                    let m = sched.metrics();
                    at_victim_finish[0]
                        .store(m.lane(VICTIM_TENANT).drained.get(), Ordering::Release);
                    at_victim_finish[1]
                        .store(m.lane(ADVERSARY_TENANT).drained.get(), Ordering::Release);
                }
                tx.send(out.stats).expect("report multitenant stats");
            });
        }
    });
    let plane_stats = plane.shutdown();
    let elapsed = start.elapsed();

    if adversaries > 0 {
        let victim = at_victim_finish[0].load(Ordering::Acquire);
        let flood = at_victim_finish[1].load(Ordering::Acquire);
        let share = victim as f64 / (victim + flood).max(1) as f64;
        assert!(
            share >= 0.25,
            "victim starved: {victim} of {} drains ({:.1}% < 25% floor)",
            victim + flood,
            share * 100.0
        );
    }
    // Per-tenant lane accounting must cover the whole run: the producers
    // reaped everything before the scope closed, so every entry was
    // drained by a QoS sweep (never the shutdown fallback) and the lanes
    // must sum to the op count exactly.
    let lanes = sched.metrics().lanes();
    let drained: u64 = lanes.iter().map(|l| l.drained.get()).sum();
    assert_eq!(drained, cfg.total_ops(), "tenant lanes missed drains");
    let answered: u64 = lanes
        .iter()
        .map(|l| l.completed.get() + l.failed.get())
        .sum();
    assert_eq!(answered, cfg.total_ops(), "tenant lanes missed outcomes");
    assert_eq!(plane_stats.drained, cfg.total_ops());
    // And the plane's own hygiene counters: every park was matched by an
    // unpark, and no session saw EIDRM (nothing detached mid-run).
    assert_eq!(
        kernel.metrics.drainer_parks.get(),
        kernel.metrics.drainer_unparks.get(),
        "drainer park/unpark imbalance"
    );
    assert_eq!(kernel.metrics.eidrm_failures.get(), 0, "unexpected EIDRM");

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect multitenant stats");
        allows += stats.allows;
        denies += stats.denies;
    }
    finish_report(cfg, &kernel, module, elapsed, allows, denies)
}

/// The [`ChurnStorm`](crate::ScenarioKind::ChurnStorm) runner: each
/// producer splits its ops into [`STORM_BURSTS`] bursts, attaching a
/// fresh plane slot per burst and dropping it (slot deregisters) once
/// the burst is fully reaped. Every [`STORM_REHANDSHAKE_EVERY`] bursts
/// the whole kernel session is cycled — `smod_detach` (bumping the
/// invalidation epoch under the other producers' cache entries) followed
/// by a full re-handshake — so attachment churn and epoch churn land
/// mid-traffic while the split stays identical to the plain plane run.
pub(crate) fn run_churn_storm_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel(cfg);
    let kernel = Arc::new(kernel);
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers())
            .slots(cfg.threads.max(1))
            .build(),
    )
    .expect("start churn-storm plane");
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (thread_idx, &client) in clients.iter().enumerate().take(cfg.threads) {
            let tx = tx.clone();
            let func_ids = &func_ids;
            let plane = &plane;
            let kernel = &kernel;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx as u64 + 1));
                let mut stats = WorkerStats::default();
                let mut remaining = cfg.ops_per_thread;
                for burst in 0..STORM_BURSTS {
                    if burst > 0 && burst % STORM_REHANDSHAKE_EVERY == 0 {
                        // The previous burst was fully reaped before its
                        // handle dropped, so nothing is in flight: the
                        // detach can never strand an entry into EIDRM.
                        kernel.smod_detach(client, "churn storm").expect("detach");
                        let (_session, hpid) = kernel
                            .sys_smod_start_session(client, module)
                            .expect("restart session");
                        kernel.sys_smod_session_info(hpid).expect("handle ready");
                        kernel.sys_smod_handle_info(client).expect("handshake");
                    }
                    let ops = if burst == STORM_BURSTS - 1 {
                        remaining
                    } else {
                        cfg.ops_per_thread / STORM_BURSTS
                    };
                    remaining -= ops;
                    let handle = plane.attach(client).expect("attach for burst");
                    let out = drive_round_robin(
                        std::slice::from_ref(&handle),
                        func_ids,
                        &mut rng,
                        ops,
                        |_| {},
                    );
                    stats.allows += out.stats.allows;
                    stats.denies += out.stats.denies;
                }
                tx.send(stats).expect("report storm stats");
            });
        }
    });
    plane.shutdown();
    let elapsed = start.elapsed();

    // Each producer cycled its session at bursts 2, 4, 6, … — the epoch
    // must have moved for every one of those detaches.
    let cycles_per_thread = (STORM_BURSTS / STORM_REHANDSHAKE_EVERY).saturating_sub(1);
    assert!(
        kernel.smod_epoch() >= cfg.threads as u64 * cycles_per_thread,
        "the storm never bumped the invalidation epoch"
    );

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect storm stats");
        allows += stats.allows;
        denies += stats.denies;
    }
    finish_report(cfg, &kernel, module, elapsed, allows, denies)
}

/// The [`HerdEstablish`](crate::ScenarioKind::HerdEstablish) runner:
/// build [`HERD_SESSIONS`] clients per thread, tear *every* session down,
/// then release all threads from one barrier to re-handshake their
/// sessions simultaneously — the thundering herd — and drive them
/// round-robin through the plane. The policy delegates to every tenant
/// identically, so spreading one thread's draw stream over four tenants'
/// sessions leaves the split untouched.
pub(crate) fn run_herd_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let threads = cfg.threads.max(1);
    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel_with_clients(cfg, threads * HERD_SESSIONS);
    // The builder clamps the client pool to the tenant key space; spread
    // whatever came back evenly (quick and full shapes get all 4).
    let per_thread = (clients.len() / threads).max(1);
    let kernel = Arc::new(kernel);
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers())
            .slots(threads * per_thread)
            .build(),
    )
    .expect("start herd plane");
    // Tear every established session down: the herd starts cold.
    for &client in &clients {
        kernel.smod_detach(client, "herd teardown").expect("detach");
    }
    let barrier = Barrier::new(threads);
    let (tx, rx) = channel::bounded::<WorkerStats>(threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread_idx in 0..threads {
            let tx = tx.clone();
            let func_ids = &func_ids;
            let plane = &plane;
            let kernel = &kernel;
            let barrier = &barrier;
            let mine = &clients[thread_idx * per_thread..(thread_idx + 1) * per_thread];
            scope.spawn(move || {
                barrier.wait();
                // The stampede: every thread re-handshakes all its
                // sessions at once against the shared kernel.
                let handles: Vec<PlaneHandle> = mine
                    .iter()
                    .map(|&client| {
                        let (_session, hpid) = kernel
                            .sys_smod_start_session(client, module)
                            .expect("herd session");
                        kernel.sys_smod_session_info(hpid).expect("handle ready");
                        kernel.sys_smod_handle_info(client).expect("handshake");
                        plane.attach(client).expect("attach herd session")
                    })
                    .collect();
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx as u64 + 1));
                let out =
                    drive_round_robin(&handles, func_ids, &mut rng, cfg.ops_per_thread, |_| {});
                tx.send(out.stats).expect("report herd stats");
            });
        }
    });
    plane.shutdown();
    let elapsed = start.elapsed();

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..threads {
        let stats = rx.recv().expect("collect herd stats");
        allows += stats.allows;
        denies += stats.denies;
    }
    finish_report(cfg, &kernel, module, elapsed, allows, denies)
}

/// The [`DrainerCrash`](crate::ScenarioKind::DrainerCrash) runner: a QoS
/// plane with the health monitor armed and a [`CrashSpec`] on drainer 0,
/// which claims ready slots like a real sweep and dies holding them. The
/// supervisor must notice the missed heartbeats, reclaim the stranded
/// claims, and respawn the seat — all mid-traffic. Every producer keys a
/// seen-bitmap on its `user_data` cookies, so a lost *or* duplicated
/// entry fails loudly; and because every backpressure bounce is counted
/// locally too, the run cross-checks its own count against the kernel's
/// `ring_full_bounces` counter exactly.
pub(crate) fn run_drainer_crash_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel(cfg);
    let kernel = Arc::new(kernel);
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers().max(2))
            .slots(cfg.threads.max(1))
            .qos(QosPolicy::weighted_fair([]))
            .health(HealthConfig::with_deadline(Duration::from_millis(10)))
            .crash(CrashSpec {
                drainer: 0,
                after_sweeps: 0,
            })
            .build(),
    )
    .expect("start crash-drill plane");
    let local_bounces = AtomicU64::new(0);
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (thread_idx, &client) in clients.iter().enumerate().take(cfg.threads) {
            let tx = tx.clone();
            let func_ids = &func_ids;
            let local_bounces = &local_bounces;
            let handle = plane.attach(client).expect("attach producer");
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx as u64 + 1));
                let mut seen = vec![false; cfg.ops_per_thread as usize];
                let out = drive_round_robin(
                    std::slice::from_ref(&handle),
                    func_ids,
                    &mut rng,
                    cfg.ops_per_thread,
                    |resp| {
                        let idx = resp.user_data as usize;
                        assert!(!seen[idx], "entry {idx} completed twice");
                        seen[idx] = true;
                    },
                );
                assert!(seen.iter().all(|&s| s), "an entry was lost");
                local_bounces.fetch_add(out.full_bounces, Ordering::AcqRel);
                tx.send(out.stats).expect("report crash-drill stats");
            });
        }
    });
    // The producers only finish once every entry — including the ones
    // the corpse died holding — completed, so recovery already happened.
    assert!(plane.crash_fired(), "the crash drill never fired");
    let stats = plane.shutdown();
    let elapsed = start.elapsed();
    assert!(stats.drainer_restarts >= 1, "dead seat never respawned");
    assert!(stats.reclaimed >= 1, "stranded claims never reclaimed");
    // Deterministic metrics wiring: the kernel counted exactly the Full
    // bounces the producers absorbed, no more, no fewer.
    assert_eq!(
        kernel.metrics.ring_full_bounces.get(),
        local_bounces.load(Ordering::Acquire),
        "ring_full_bounces out of step with observed backpressure"
    );

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect crash-drill stats");
        allows += stats.allows;
        denies += stats.denies;
    }
    finish_report(cfg, &kernel, module, elapsed, allows, denies)
}

#[cfg(test)]
mod tests {
    use crate::scenario::{run_scenario, ScenarioConfig, ScenarioKind};

    /// The QoS shapes reshuffle *when and by whom* work is drained —
    /// never *what is decided*: each must reproduce the plain plane
    /// split bit for bit.
    #[test]
    fn qos_shapes_match_the_plain_plane_split() {
        let base = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        for kind in [
            ScenarioKind::MultiTenant,
            ScenarioKind::ChurnStorm,
            ScenarioKind::HerdEstablish,
            ScenarioKind::DrainerCrash,
        ] {
            let report = run_scenario(&ScenarioConfig::builder(kind).quick().seed(11).build());
            assert_eq!(
                (report.allows, report.denies),
                (base.allows, base.denies),
                "{kind:?} diverged from the plane split"
            );
        }
    }

    /// Kernel-backed rows report the tier-blind gate counters: nearly
    /// every decision is an L0 hit, which the sharded tier never sees.
    #[test]
    fn kernel_backed_hit_rate_counts_l0_hits() {
        for kind in [ScenarioKind::DrainerCrash, ScenarioKind::MultiTenant] {
            let report = run_scenario(&ScenarioConfig::builder(kind).quick().seed(5).build());
            assert!(
                report.hit_rate() > 0.9,
                "{kind:?} hit rate {:.3}",
                report.hit_rate()
            );
        }
    }

    /// The storm's whole point: epoch churn lands mid-traffic.
    #[test]
    fn churn_storm_bumps_the_epoch() {
        let report = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::ChurnStorm)
                .quick()
                .seed(3)
                .build(),
        );
        assert!(report.epoch_bumps > 0);
    }
}
