//! [`AsyncPlane`]: the futures frontend over a
//! [`DispatchPlane`][secmod_kernel::plane::DispatchPlane].
//!
//! The plane's drainer threads already sweep the ring set and post
//! completions; what the async frontend adds is the **routing**: a
//! completion hook that, on the drainer that just posted, claims the
//! ring set's *completion* bitmap (the mirror image of the readiness
//! bitmap the drainers claim) and routes every posted response to the
//! waker parked under its `user_data` cookie. The division of labor:
//!
//! ```text
//!   task: session.call(..).await
//!     │ push sq, mark_ready, park waker in SlotTable
//!     ▼
//!   drainer thread ──sweep──▶ kernel ──post cq──▶ mark_completed
//!     │
//!     ▼
//!   same drainer: sweep_completed → route resp to waker
//!     │                               → executor re-polls task
//!     ▼
//!   (next sweep)
//! ```
//!
//! No thread sits between the drainer and the task: a completion costs
//! no extra hand-off, and several drainers routing at once is safe
//! because the completion ring pops are multi-consumer (see
//! `route`). Nobody busy-spins either: tasks suspend (a parked waker
//! costs a table entry, not a thread) and drainers park on the readiness
//! protocol. That is how 100k+ logical clients ride on a handful of OS
//! threads — the paper's fixed-cost-per-dispatch story measured at a
//! concurrency the original syscall frontend cannot even express.

use crate::exec::{block_on, join_all};
use crate::route::{route_completions, SlotTable, TableMap};
use crate::session::{AsyncSession, CallFuture, SessionCore, Target};
use parking_lot::Mutex;
use secmod_kernel::dispatch::{
    DispatchCall, DispatchCaps, DispatchError, DispatchOutcome, Dispatcher,
};
use secmod_kernel::plane::{DispatchPlane, PlaneConfig, PlaneStats};
use secmod_kernel::proc::Pid;
use secmod_kernel::{Kernel, SysResult};
use secmod_obs::DispatchMetrics;
use secmod_ring::RingSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The async dispatch frontend: a [`DispatchPlane`] whose completion
/// hook turns posted completions into task wake-ups.
pub struct AsyncPlane {
    /// `None` only after [`AsyncPlane::shutdown`] has taken it.
    plane: Option<DispatchPlane>,
    set: Arc<RingSet>,
    tables: Arc<TableMap>,
    routed: Arc<AtomicU64>,
    /// The kernel's dispatch-metrics registry: the router records each
    /// routed completion's cost under the async flavor, and sessions
    /// count their backpressure re-submits here.
    metrics: Arc<DispatchMetrics>,
    /// Per-client session cache backing [`AsyncPlane::call`] and the
    /// [`Dispatcher`] impl; cleared at shutdown.
    sessions: Mutex<HashMap<u32, AsyncSession>>,
}

impl std::fmt::Debug for AsyncPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncPlane")
            .field("routed", &self.routed.load(Ordering::Relaxed))
            .field("attached_tables", &self.tables.lock().len())
            .finish()
    }
}

impl AsyncPlane {
    /// Start the underlying plane and hook completion routing onto it.
    pub fn start(kernel: Arc<Kernel>, cfg: PlaneConfig) -> SysResult<AsyncPlane> {
        let metrics = Arc::clone(&kernel.metrics);
        let plane = DispatchPlane::start(kernel, cfg)?;
        let set = plane.ring_set();
        let tables: Arc<TableMap> = Arc::new(Mutex::new(HashMap::new()));
        let routed = Arc::new(AtomicU64::new(0));
        // The hook runs on whichever drainer just posted completions,
        // and once more on the thread shutting the plane down, after the
        // drainers are joined.
        {
            let set = Arc::clone(&set);
            let tables = Arc::clone(&tables);
            let routed = Arc::clone(&routed);
            let metrics = Arc::clone(&metrics);
            plane.on_completions(Arc::new(move || {
                let n = route_completions(&set, &tables, Some(&metrics));
                if n > 0 {
                    routed.fetch_add(n as u64, Ordering::Relaxed);
                }
            }));
        }
        Ok(AsyncPlane {
            plane: Some(plane),
            set,
            tables,
            routed,
            metrics,
            sessions: Mutex::new(HashMap::new()),
        })
    }

    /// Attach `client`'s established session, returning a cloneable
    /// async handle. Each call allocates its own ring slot; prefer
    /// [`AsyncPlane::call`] (which caches one attachment per client)
    /// unless you want several independent ring pairs for one client.
    pub fn attach(&self, client: Pid) -> SysResult<AsyncSession> {
        let plane = self.plane.as_ref().expect("plane not shut down");
        let handle = plane.attach(client)?;
        let table = Arc::new(SlotTable::default());
        self.tables
            .lock()
            .insert(handle.slot().0, Arc::clone(&table));
        Ok(AsyncSession {
            core: Arc::new(SessionCore {
                target: Target::Plane(handle),
                table,
                tables: Arc::clone(&self.tables),
                metrics: Some(Arc::clone(&self.metrics)),
            }),
        })
    }

    /// The cached session for `client`, attaching on first use.
    pub fn session(&self, client: Pid) -> SysResult<AsyncSession> {
        if let Some(session) = self.sessions.lock().get(&client.0) {
            return Ok(session.clone());
        }
        let session = self.attach(client)?;
        Ok(self
            .sessions
            .lock()
            .entry(client.0)
            .or_insert(session)
            .clone())
    }

    /// The headline call: `plane.call(client, proc_id, args)?.await`.
    pub fn call(
        &self,
        client: Pid,
        proc_id: u32,
        args: impl Into<Vec<u8>>,
    ) -> SysResult<CallFuture> {
        Ok(self.session(client)?.call(proc_id, args))
    }

    /// Completions routed to wakers so far.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// The shared ring set (the same one the drainers sweep).
    pub fn ring_set(&self) -> Arc<RingSet> {
        Arc::clone(&self.set)
    }

    /// The kernel the plane dispatches into.
    pub fn kernel(&self) -> Arc<Kernel> {
        self.plane.as_ref().expect("plane not shut down").kernel()
    }

    /// Stop everything, in dependency order: drainers first (every
    /// accepted submission is swept through and posted), then a final
    /// routing pass on this thread (the plane's last completion
    /// notification delivers those responses), then the tables detach
    /// (anything still parked resolves `Detached`).
    pub fn shutdown(mut self) -> PlaneStats {
        self.stop_parts().expect("shutdown consumes a live plane")
    }

    fn stop_parts(&mut self) -> Option<PlaneStats> {
        let plane = self.plane.take()?;
        // Joins the drainers, then runs the hook once more: the final
        // routing pass.
        let stats = plane.shutdown();
        for table in self.tables.lock().values() {
            table.detach();
        }
        self.sessions.lock().clear();
        Some(stats)
    }
}

impl Drop for AsyncPlane {
    fn drop(&mut self) {
        self.stop_parts();
    }
}

impl Dispatcher for AsyncPlane {
    /// One call, driven to completion on the calling thread.
    fn dispatch_one(&self, client: Pid, proc_id: u32, args: &[u8]) -> DispatchOutcome {
        let future = self
            .call(client, proc_id, args.to_vec())
            .map_err(DispatchError::from)?;
        block_on(future)
    }

    /// All calls submitted up front, awaited together — in flight
    /// concurrently through one session's rings. Submission is
    /// coalesced: the whole burst is pushed eagerly with one doorbell
    /// (see [`AsyncSession::call_batch`]).
    fn dispatch_batch(
        &self,
        client: Pid,
        calls: &[DispatchCall],
    ) -> Result<Vec<DispatchOutcome>, DispatchError> {
        let session = self.session(client).map_err(DispatchError::from)?;
        let futures: Vec<CallFuture> =
            session.call_batch(calls.iter().map(|call| (call.proc_id, call.args.clone())));
        Ok(block_on(join_all(futures)))
    }

    fn capabilities(&self) -> DispatchCaps {
        DispatchCaps {
            flavor: "async",
            batched: true,
            trap_free: true,
            asynchronous: true,
        }
    }

    fn metrics(&self) -> Option<&DispatchMetrics> {
        Some(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::testutil::kernel_with_clients;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Wake, Waker};

    /// A waker for futures polled by hand, whose wakes nobody acts on.
    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    #[test]
    fn a_hundred_logical_clients_share_two_executor_threads() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(
            Arc::clone(&kernel),
            PlaneConfig::builder().drainers(2).build(),
        )
        .unwrap();
        let session = plane.session(clients[0]).unwrap();
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..100u64)
            .map(|i| {
                let session = session.clone();
                exec.spawn(async move {
                    let ret = session.call(incr, i.to_le_bytes()).await.unwrap();
                    u64::from_le_bytes(ret.try_into().unwrap())
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (1..=100u64).sum::<u64>());
        assert_eq!(session.in_flight(), 0);
        let (_, routed) = shutdown_counting(plane);
        assert_eq!(routed, 100, "every completion is routed");
    }

    /// Shut `plane` down and read its routed count afterwards: a drainer
    /// adds a routing pass's count only after waking that pass's tasks,
    /// so the count is exact only once the drainers are joined.
    fn shutdown_counting(plane: AsyncPlane) -> (PlaneStats, u64) {
        let routed = Arc::clone(&plane.routed);
        let stats = plane.shutdown();
        (stats, routed.load(Ordering::Relaxed))
    }

    /// Two drainers route four sessions' completions concurrently; every
    /// completion must reach its task exactly once.
    fn routes_exactly_once_over_two_drainers(cfg: PlaneConfig) {
        const TASKS: u64 = 400;
        let (k, _m, clients, incr) = kernel_with_clients(4);
        let plane = AsyncPlane::start(Arc::new(k), cfg).unwrap();
        let sessions: Vec<AsyncSession> = clients
            .iter()
            .map(|&client| plane.session(client).unwrap())
            .collect();
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..TASKS)
            .map(|i| {
                let session = sessions[i as usize % sessions.len()].clone();
                exec.spawn(async move {
                    let ret = session.call(incr, i.to_le_bytes()).await.unwrap();
                    (i, u64::from_le_bytes(ret.try_into().unwrap()))
                })
            })
            .collect();
        for handle in handles {
            let (arg, reply) = handle.join();
            assert_eq!(reply, arg + 1);
        }
        for session in &sessions {
            assert_eq!(session.in_flight(), 0);
        }
        let (stats, routed) = shutdown_counting(plane);
        assert_eq!(routed, TASKS, "each completion routed exactly once");
        assert_eq!(stats.drained, TASKS);
        assert_eq!(stats.completed + stats.failed, TASKS);
    }

    #[test]
    fn two_drainers_route_every_completion_exactly_once() {
        routes_exactly_once_over_two_drainers(PlaneConfig::builder().drainers(2).build());
    }

    #[test]
    fn two_drainers_route_exactly_once_under_qos_and_health() {
        routes_exactly_once_over_two_drainers(
            PlaneConfig::builder()
                .drainers(2)
                .qos(secmod_qos::QosPolicy::weighted_fair([]))
                .health(secmod_qos::HealthConfig::with_deadline(
                    std::time::Duration::from_millis(200),
                ))
                .build(),
        );
    }

    #[test]
    fn a_coalesced_submit_rings_its_doorbell_when_the_scope_ends() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let plane = AsyncPlane::start(Arc::new(k), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut futures: Vec<CallFuture> = (0..4u64)
            .map(|i| session.call(incr, i.to_le_bytes()))
            .collect();
        crate::exec::coalesce(|| {
            for future in &mut futures {
                assert!(Pin::new(future).poll(&mut cx).is_pending());
            }
            // Submitted, but the slot is not flagged: no drainer sees
            // the four calls before the scope rings once for all.
            assert!(!plane.set.any_ready(), "doorbell held until scope end");
        });
        for (i, future) in futures.into_iter().enumerate() {
            assert_eq!(block_on(future), Ok((i as u64 + 1).to_le_bytes().to_vec()));
        }
        plane.shutdown();
    }

    /// A task that blocks on a call (as `Dispatcher::dispatch_one` does)
    /// must not wait on a doorbell its own worker run is holding.
    #[test]
    fn block_on_inside_a_task_rings_the_held_doorbell() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let plane = AsyncPlane::start(Arc::new(k), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let exec = Executor::new(1);
        let handle = exec.spawn(async move { block_on(session.call(incr, 41u64.to_le_bytes())) });
        assert_eq!(handle.join(), Ok(42u64.to_le_bytes().to_vec()));
        drop(exec);
        plane.shutdown();
    }

    #[test]
    fn shutdown_routes_the_final_sweep_before_detaching() {
        const CALLS: u64 = 16; // fits the default submission ring: no bounce
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let plane = AsyncPlane::start(Arc::new(k), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut futures: Vec<CallFuture> = (0..CALLS)
            .map(|i| session.call(incr, i.to_le_bytes()))
            .collect();
        for future in &mut futures {
            assert!(
                Pin::new(future).poll(&mut cx).is_pending(),
                "a first poll submits and suspends"
            );
        }
        // Nothing awaited yet: whatever the drainers did not route, the
        // shutdown's final pass must, before the tables detach.
        let (stats, routed) = shutdown_counting(plane);
        assert_eq!(stats.drained, CALLS);
        assert_eq!(routed, CALLS);
        for (i, future) in futures.into_iter().enumerate() {
            assert_eq!(
                block_on(future),
                Ok((i as u64 + 1).to_le_bytes().to_vec()),
                "call {i} must resolve with its reply, not Detached"
            );
        }
        assert_eq!(session.in_flight(), 0);
    }

    /// 32 single calls against 4-deep rings while routing is held off,
    /// so most first polls bounce; each bounce takes its argument bytes
    /// back and retries.
    fn poll_path_bounce_keeps_args(arg_len: usize) {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                ring: secmod_ring::RingPairConfig {
                    submission: 4,
                    completion: 4,
                },
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let session = plane.session(clients[0]).unwrap();
        let mut all = join_all((0..32u64).map(|i| {
            let mut args = vec![0xA5u8; arg_len];
            args[..8].copy_from_slice(&i.to_le_bytes());
            session.call(incr, args)
        }));
        {
            // Holding the slot→table map stalls every routing pass, so
            // at most 4 completions are posted and 4 submissions queued
            // before the first poll of all 32 calls: the rest bounce.
            let _routing = plane.tables.lock();
            let waker = Waker::from(Arc::new(NoopWake));
            assert!(Pin::new(&mut all)
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
        }
        for (i, result) in block_on(all).into_iter().enumerate() {
            assert_eq!(result.unwrap(), (i as u64 + 1).to_le_bytes().to_vec());
        }
        assert!(
            kernel.metrics.async_resubmits.get() >= 24,
            "4-deep rings with routing stalled must bounce most of 32 calls"
        );
        // The session's arena region (and its magazine) goes with it.
        drop(session);
        plane.shutdown();
        let arena = &kernel.metrics.arena;
        if arg_len > secmod_ring::INLINE_ARG_MAX {
            // Every attempt, bounced or not, was placed in the arena;
            // every call reached the kernel by descriptor.
            assert_eq!(arena.arena_args.get(), 32);
        }
        assert_eq!(arena.bytes_in_flight.get(), 0, "arena bytes settle to 0");
        assert_eq!(arena.allocs.get(), arena.frees.get());
    }

    #[test]
    fn a_poll_path_bounce_keeps_inline_args() {
        poll_path_bounce_keeps_args(8);
    }

    #[test]
    fn a_poll_path_bounce_keeps_arena_args() {
        poll_path_bounce_keeps_args(256);
    }

    #[test]
    fn async_dispatcher_matches_the_kernel_flavor() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let client = clients[0];
        let calls: Vec<DispatchCall> = (0..32u64)
            .map(|i| {
                if i % 5 == 0 {
                    DispatchCall::new(u32::MAX, Vec::new()) // unknown function
                } else {
                    DispatchCall::new(incr, i.to_le_bytes().to_vec())
                }
            })
            .collect();
        let expected = k.dispatch_batch(client, &calls).unwrap();
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(kernel, PlaneConfig::default()).unwrap();
        assert!(plane.capabilities().asynchronous);
        assert_eq!(plane.dispatch_batch(client, &calls).unwrap(), expected);
        assert_eq!(
            plane
                .dispatch_one(client, incr, &41u64.to_le_bytes())
                .unwrap(),
            42u64.to_le_bytes().to_vec()
        );
        plane.shutdown();
    }

    #[test]
    fn dropping_a_future_mid_await_leaks_nothing() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(kernel, PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        // First poll submits; drop before completion is cancellation.
        // (If the drainer wins the race and the poll is already Ready,
        // the drop is an ordinary one — both paths must leave the table
        // empty.)
        let mut future = session.call(incr, 1u64.to_le_bytes());
        let _ = Pin::new(&mut future).poll(&mut cx);
        drop(future);
        // The orphaned completion (if any) is discarded by the router;
        // nothing stays registered and the session keeps working.
        let ret = block_on(session.call(incr, 9u64.to_le_bytes())).unwrap();
        assert_eq!(ret, 10u64.to_le_bytes().to_vec());
        assert_eq!(session.in_flight(), 0);
        plane.shutdown();
    }

    #[test]
    fn call_costed_surfaces_the_simulated_cost() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let (ret, cost_ns) = block_on(session.call_costed(incr, 5u64.to_le_bytes())).unwrap();
        assert_eq!(ret, 6u64.to_le_bytes().to_vec());
        assert!(
            cost_ns >= kernel.cost.cached_decision_ns,
            "the cost covers at least the policy decision, got {cost_ns}"
        );
        // The router recorded the completion under the async flavor.
        let summary = plane.metrics().unwrap().latency(secmod_obs::Flavor::Async);
        assert!(summary.count() >= 1);
        plane.shutdown();
    }

    #[test]
    fn call_batch_resolves_every_call_with_one_doorbell() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let futures = session.call_batch((0..32u64).map(|i| (incr, i.to_le_bytes().to_vec())));
        assert_eq!(futures.len(), 32);
        let results = block_on(join_all(futures));
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap(), (i as u64 + 1).to_le_bytes().to_vec());
        }
        assert_eq!(session.in_flight(), 0);
        plane.shutdown();
    }

    #[test]
    fn call_batch_bounces_retry_through_the_poll_path() {
        // A 4-deep submission ring: most of a 32-call burst bounces at
        // batch time and must still resolve via first-poll resubmission.
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                ring: secmod_ring::RingPairConfig {
                    submission: 4,
                    completion: 64,
                },
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let session = plane.session(clients[0]).unwrap();
        let futures = session.call_batch((0..32u64).map(|i| (incr, i.to_le_bytes().to_vec())));
        let results = block_on(join_all(futures));
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap(), (i as u64 + 1).to_le_bytes().to_vec());
        }
        assert!(
            kernel.metrics.async_resubmits.get() > 0,
            "a 4-deep ring must have bounced part of the burst"
        );
        plane.shutdown();
    }

    #[test]
    fn calls_after_shutdown_resolve_detached() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(kernel, PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        assert!(block_on(session.call(incr, 1u64.to_le_bytes())).is_ok());
        plane.shutdown();
        assert_eq!(
            block_on(session.call(incr, 2u64.to_le_bytes())),
            Err(DispatchError::Detached)
        );
    }
}
