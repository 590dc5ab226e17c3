//! [`Dispatcher`]: the one dispatch vocabulary every frontend speaks.
//!
//! PRs 2–5 grew four ways to get a protected call through the kernel —
//! `sys_smod_call` (one trap per call), `sys_smod_call_batch` (one trap
//! per batch), `sys_smod_sweep` (one trap per *set* of sessions), and the
//! `DispatchPlane`'s submit/reap pair (no producer trap at all) — each
//! with its own request shape and its own error convention (`Errno`,
//! bounced `SmodCallReq`s, per-entry errno codes). This module folds them
//! behind one trait with one request/response vocabulary and one error
//! type, so a harness can be written once and pointed at any flavor:
//!
//! | implementor    | paper cost model                  | trap pattern      |
//! |----------------|-----------------------------------|-------------------|
//! | `Kernel`       | `smod_dispatch_ns` per call       | 1 trap / call     |
//! | `Kernel` batch | `batched_dispatch_ns` per entry   | 1 trap / batch    |
//! | `SimWorld`     | same, via the simulated backend   | 1 trap / call     |
//! | `PlaneHandle`  | `sweep_dispatch_ns` amortised     | 0 producer traps  |
//! | `AsyncPlane`   | `sweep_dispatch_ns` amortised     | 0 producer traps  |
//!
//! Errors partition into the three things a caller can actually react
//! to: a kernel verdict ([`DispatchError::Errno`] — denial, unknown
//! function, torn-down session), transient backpressure
//! ([`DispatchError::Backpressure`] — retry after completions drain), and
//! permanent teardown ([`DispatchError::Detached`] — stop retrying).
//!
//! The `Kernel` flavor's `dispatch_one` is `sys_smod_call` without the
//! wrapper: it resolves the caller's session once and runs the call
//! against it with the caller's borrowed argument bytes
//! (`Kernel::smod_call_on`, the same function `sys_smod_call` ends in),
//! so it builds no `SmodCallArgs`, copies no arguments and does not look
//! the session up a second time. Checks, counters and simulated cost are
//! those of `sys_smod_call`.

use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::Pid;
use secmod_obs::DispatchMetrics;
use secmod_ring::{RingPairConfig, SmodCallReq, SmodCallResp};

/// One request in the unified vocabulary: which module function, with
/// what marshalled argument bytes. The module is implied — a dispatcher
/// call is always made *as* a client pid, and a client's session names
/// its module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchCall {
    /// The function id within the session module's stub table.
    pub proc_id: u32,
    /// Marshalled argument bytes.
    pub args: Vec<u8>,
}

impl DispatchCall {
    /// Build a call.
    pub fn new(proc_id: u32, args: impl Into<Vec<u8>>) -> DispatchCall {
        DispatchCall {
            proc_id,
            args: args.into(),
        }
    }
}

/// What one dispatched call produced: the return bytes, or why not.
pub type DispatchOutcome = Result<Vec<u8>, DispatchError>;

/// The unified dispatch error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchError {
    /// The kernel answered with an errno (policy denial, unknown
    /// function, session torn down mid-call, …).
    Errno(Errno),
    /// Transient backpressure: a ring had no space. The request was not
    /// accepted; retry after reaping/awaiting completions.
    Backpressure,
    /// The dispatcher is permanently gone (plane shut down, session slot
    /// deregistered). Retrying can never succeed.
    Detached,
}

impl DispatchError {
    /// Map a ring completion to the unified vocabulary.
    pub fn from_resp(resp: SmodCallResp) -> DispatchOutcome {
        if resp.is_ok() {
            Ok(resp.into_ret())
        } else {
            Err(DispatchError::Errno(
                Errno::from_code(resp.errno).unwrap_or(Errno::EINVAL),
            ))
        }
    }
}

impl From<Errno> for DispatchError {
    fn from(e: Errno) -> DispatchError {
        DispatchError::Errno(e)
    }
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Errno(e) => write!(f, "kernel errno {e}"),
            DispatchError::Backpressure => write!(f, "backpressure (retry after completions)"),
            DispatchError::Detached => write!(f, "dispatcher detached (do not retry)"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// What a dispatcher flavor can do — a harness uses this to pick batch
/// sizes and parallelism instead of hard-coding per-flavor knowledge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchCaps {
    /// Short flavor name ("syscall", "sim", "plane", "async").
    pub flavor: &'static str,
    /// `dispatch_batch` amortises fixed cost (vs. looping
    /// `dispatch_one`).
    pub batched: bool,
    /// Submitting never traps on the caller's thread (ring-only
    /// producers).
    pub trap_free: bool,
    /// Built for suspension: many logical callers can be in flight per
    /// OS thread.
    pub asynchronous: bool,
}

/// The unified dispatch surface: sync, batched, plane and async callers
/// all speak this.
///
/// `client` is the calling process on whose session the dispatch runs;
/// session-bound implementors ([`crate::plane::PlaneHandle`]) verify it
/// matches their attachment and answer `EPERM` otherwise, exactly as the
/// kernel would.
pub trait Dispatcher {
    /// Dispatch one call and wait for its result.
    fn dispatch_one(&self, client: Pid, proc_id: u32, args: &[u8]) -> DispatchOutcome;

    /// Dispatch a batch, returning one outcome per call, in call order.
    /// The outer `Result` is for failures to dispatch *anything* (dead
    /// client, detached plane); per-call verdicts live in the inner
    /// outcomes.
    ///
    /// The default implementation loops [`Dispatcher::dispatch_one`];
    /// flavors with a real batch path override it.
    fn dispatch_batch(
        &self,
        client: Pid,
        calls: &[DispatchCall],
    ) -> Result<Vec<DispatchOutcome>, DispatchError> {
        Ok(calls
            .iter()
            .map(|c| self.dispatch_one(client, c.proc_id, &c.args))
            .collect())
    }

    /// What this flavor can do.
    fn capabilities(&self) -> DispatchCaps;

    /// The dispatch metrics registry this flavor records into, when it
    /// has one. Kernel-backed flavors return their kernel's registry
    /// (per-flavor latency histograms plus counters); the default is
    /// `None` so trait objects over non-kernel dispatchers keep working.
    fn metrics(&self) -> Option<&DispatchMetrics> {
        None
    }
}

impl Dispatcher for Kernel {
    /// `sys_smod_call`: one trap per call, the paper's headline row.
    fn dispatch_one(&self, client: Pid, proc_id: u32, args: &[u8]) -> DispatchOutcome {
        let session = self.session_of(client).ok_or(Errno::EPERM)?;
        self.smod_call_on(client, &session, session.module, proc_id, args)
            .map_err(DispatchError::from)
    }

    /// `sys_smod_call_batch` over a throwaway ring pair: one trap for
    /// the whole batch.
    fn dispatch_batch(
        &self,
        client: Pid,
        calls: &[DispatchCall],
    ) -> Result<Vec<DispatchOutcome>, DispatchError> {
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let session = self.session_of(client).ok_or(Errno::EPERM)?;
        let (sq, cq) = RingPairConfig {
            submission: calls.len(),
            completion: calls.len(),
        }
        .build();
        for (i, call) in calls.iter().enumerate() {
            sq.push_spsc(SmodCallReq {
                session: session.id.0,
                proc_id: call.proc_id,
                user_data: i as u64,
                args: call.args.clone().into(),
            })
            .expect("ring sized to the batch");
        }
        self.sys_smod_call_batch(client, &sq, &cq, calls.len())?;
        let mut out: Vec<DispatchOutcome> = vec![Err(DispatchError::Detached); calls.len()];
        while let Some(resp) = cq.pop_spsc() {
            let idx = resp.user_data as usize;
            out[idx] = DispatchError::from_resp(resp);
        }
        Ok(out)
    }

    fn capabilities(&self) -> DispatchCaps {
        DispatchCaps {
            flavor: "syscall",
            batched: true,
            trap_free: false,
            asynchronous: false,
        }
    }

    fn metrics(&self) -> Option<&DispatchMetrics> {
        Some(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::kernel_with_clients;
    use crate::cred::Credential;
    use crate::plane::{DispatchPlane, PlaneConfig};
    use crate::smod::tests::{call, establish, func_id, kernel_with_policy, spawn_alice};
    use secmod_obs::Flavor;
    use std::sync::Arc;

    /// Everything one call on `client`'s session can move, read off `k`:
    /// gate hits, gate misses, Syscall latency count and sum, session
    /// calls, module calls, context switches, the clock and the client's
    /// CPU time.
    fn call_footprint(k: &Kernel, client: Pid) -> [u64; 9] {
        let latency = k.metrics.latency(Flavor::Syscall);
        let session = k.session_of(client).unwrap();
        [
            k.metrics.gate_hits.get(),
            k.metrics.gate_misses.get(),
            latency.count(),
            latency.sum(),
            session.calls(),
            session.module_ref().calls_dispatched(),
            k.context_switches(),
            k.clock.now_ns(),
            k.procs.with(client, |p| p.cpu_time_ns).unwrap(),
        ]
    }

    #[test]
    fn kernel_dispatch_one_matches_sys_smod_call() {
        // Twin kernels: `a` is driven through `sys_smod_call`, `b` through
        // `dispatch_one`. Same setup order, so same pids. Alice may call
        // everything but `memcpy`; only `testincr`, `getpid` and `strlen`
        // have bodies.
        let twin = || {
            let (k, m_id) = kernel_with_policy("function != \"memcpy\"");
            let client = spawn_alice(&k);
            establish(&k, client, m_id);
            let pending = spawn_alice(&k);
            k.sys_smod_start_session(pending, m_id).unwrap();
            (k, m_id, client, pending)
        };
        let (a, m_id, client, pending) = twin();
        let (b, ..) = twin();
        let step = |what: &str, who: Pid, func: u32, want: Result<Vec<u8>, Errno>| {
            let (before_a, before_b) = (call_footprint(&a, who), call_footprint(&b, who));
            let via_syscall = call(&a, who, m_id, func, 41u64.to_le_bytes().to_vec());
            let via_dispatch = b.dispatch_one(who, func, &41u64.to_le_bytes());
            assert_eq!(via_syscall, want, "{what}: sys_smod_call");
            assert_eq!(
                via_dispatch,
                want.clone().map_err(DispatchError::Errno),
                "{what}: dispatch_one"
            );
            let moved = |k: &Kernel, before: [u64; 9]| {
                let after = call_footprint(k, who);
                std::array::from_fn::<u64, 9, _>(|i| after[i] - before[i])
            };
            let (moved_a, moved_b) = (moved(&a, before_a), moved(&b, before_b));
            assert_eq!(moved_a, moved_b, "{what}: counters moved differently");
            // The counters really move: a decided call counts one gate
            // verdict, a dispatched one also a session call.
            let decided = matches!(want, Ok(_) | Err(Errno::EACCES) | Err(Errno::ENOSYS));
            assert_eq!(moved_a[0] + moved_a[1], decided as u64, "{what}: gate");
            assert_eq!(moved_a[4], want.is_ok() as u64, "{what}: session calls");
        };

        let incr = func_id(&a, m_id, "testincr");
        let answer = Ok(42u64.to_le_bytes().to_vec());
        step("allowed, first call", client, incr, answer.clone());
        step("allowed, cached", client, incr, answer);
        let memcpy = func_id(&a, m_id, "memcpy");
        step("policy-denied", client, memcpy, Err(Errno::EACCES));
        step("policy-denied, cached", client, memcpy, Err(Errno::EACCES));
        step("unknown func_id", client, u32::MAX, Err(Errno::ENOENT));
        let malloc = func_id(&a, m_id, "malloc");
        step("stub with no body", client, malloc, Err(Errno::ENOSYS));
        step("not established", pending, incr, Err(Errno::EINVAL));
        // A credential revoked mid-session takes the slow path on both.
        for k in [&a, &b] {
            k.procs
                .with_mut(client, |p| p.cred = Credential::user(1000, 100))
                .unwrap();
        }
        step("credential revoked", client, incr, Err(Errno::EACCES));

        // No session at all.
        let loner = b
            .spawn_process("loner", Credential::user(9, 9), vec![0x90; 4096], 2, 2)
            .unwrap();
        assert_eq!(
            b.dispatch_one(loner, incr, &[]),
            Err(DispatchError::Errno(Errno::EPERM))
        );
    }

    #[test]
    fn kernel_dispatch_batch_keeps_call_order() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let client = clients[0];
        let calls: Vec<DispatchCall> = (0..10u64)
            .map(|i| {
                if i == 5 {
                    DispatchCall::new(u32::MAX, Vec::new()) // unknown function
                } else {
                    DispatchCall::new(incr, i.to_le_bytes().to_vec())
                }
            })
            .collect();
        let outcomes = k.dispatch_batch(client, &calls).unwrap();
        assert_eq!(outcomes.len(), 10);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 5 {
                assert_eq!(outcome, &Err(DispatchError::Errno(Errno::ENOENT)));
            } else {
                let ret = outcome.as_ref().unwrap();
                assert_eq!(
                    u64::from_le_bytes(ret.clone().try_into().unwrap()),
                    i as u64 + 1
                );
            }
        }
        assert!(k.dispatch_batch(client, &[]).unwrap().is_empty());
    }

    #[test]
    fn plane_handle_dispatches_the_same_outcomes_as_the_kernel() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let client = clients[0];
        let calls: Vec<DispatchCall> = (0..64u64)
            .map(|i| {
                if i % 7 == 0 {
                    DispatchCall::new(u32::MAX, Vec::new())
                } else {
                    DispatchCall::new(incr, i.to_le_bytes().to_vec())
                }
            })
            .collect();
        let expected = k.dispatch_batch(client, &calls).unwrap();

        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let handle = plane.attach(client).unwrap();
        assert!(handle.capabilities().trap_free);
        let outcomes = handle.dispatch_batch(client, &calls).unwrap();
        assert_eq!(outcomes, expected);
        // Single-call flavor agrees too.
        assert_eq!(
            handle
                .dispatch_one(client, incr, &41u64.to_le_bytes())
                .unwrap(),
            42u64.to_le_bytes().to_vec()
        );
        // A foreign pid cannot dispatch on somebody else's attachment.
        let imposter = kernel
            .spawn_process(
                "imposter",
                crate::cred::Credential::user(9, 9),
                vec![0x90; 4096],
                2,
                2,
            )
            .unwrap();
        assert_eq!(
            handle.dispatch_one(imposter, incr, &[]),
            Err(DispatchError::Errno(Errno::EPERM))
        );
        plane.shutdown();
    }

    #[test]
    fn plane_dispatch_after_shutdown_reports_detached() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let client = clients[0];
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let handle = plane.attach(client).unwrap();
        plane.shutdown();
        assert_eq!(
            handle.dispatch_one(client, incr, &1u64.to_le_bytes()),
            Err(DispatchError::Detached)
        );
    }
}
