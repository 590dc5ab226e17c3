//! The workload scenario engine: deterministic multi-tenant traffic
//! generators that drive a [`Gateway`] from many threads, in the spirit of
//! actor-based access-control evaluation frameworks.
//!
//! Fifteen traffic shapes are modelled:
//!
//! * **uniform** — every tenant equally likely, modules and operations
//!   drawn uniformly: the keyspace is about the size of the cache, so the
//!   hit rate reflects steady-state reuse under eviction pressure.
//! * **zipfian** — tenant popularity follows a Zipf law (a few hot
//!   tenants dominate), the classic web/multi-tenant skew where a decision
//!   cache earns its keep.
//! * **thrash** — adversarial: every request carries a fresh uid, so no
//!   two cache keys ever collide and the hit rate is pinned to zero; this
//!   measures the cache's pure overhead.
//! * **churn** — uniform traffic while a churn actor attaches and
//!   detaches real kernel SecModule sessions mid-stream; every detach
//!   bumps `Kernel::smod_epoch`, which the actor folds into the gateway,
//!   invalidating the cache under the workers' feet.
//! * **kernel** — the real thing: N threads drive `sys_smod_call` on one
//!   shared `&self` kernel, each through its own established session on
//!   the same module, so every per-call check goes through the module's
//!   *embedded* gateway (the decision cache inside the kernel dispatch
//!   path) rather than a free-standing one.
//! * **pool** — the session-pool variant of **kernel**: far more
//!   established sessions than worker threads (`tenants` sessions, e.g.
//!   64, round-robined across the workers), so consecutive dispatches
//!   from one thread land on *different* sessions and the session-table
//!   shards feel honest multi-tenant pressure instead of one pinned
//!   session per thread.
//! * **ring** — the batched path: each producer thread fills its own
//!   submission ring with `SmodCallReq`s while drainer threads run
//!   `sys_smod_call_batch`, which resolves the session once per batch and
//!   completes entries through the paired completion ring.
//! * **plane** — the dispatch plane: producers ≫ drainers. Every
//!   producer attaches its session to a shared `DispatchPlane` and then
//!   interacts with the kernel *only through memory* (ring submissions
//!   and readiness bits); the plane's dedicated drainer threads sweep
//!   all ready sessions per `sys_smod_sweep`, resolving each session
//!   once per sweep.
//! * **async** — the futures frontend: `logical_clients` tasks (far more
//!   than `threads` executor workers) each `await` their calls on an
//!   [`secmod_async::AsyncPlane`]; a reactor thread routes completions
//!   back to parked wakers, so suspension replaces blocking and a
//!   handful of OS threads multiplex the whole client population.
//! * **stall** — fault injection on the plane: the same workload as
//!   **plane**, plus an antagonist thread that repeatedly claims the
//!   ring set's readiness bits and drain-exclusivity flags and sleeps on
//!   them without draining, so queued entries age while the real
//!   drainers bounce. Decisions are untouched; the scenario exists to
//!   stretch the *tail* of the latency distribution and prove the
//!   per-flavor histograms catch it.
//! * **multitenant** — the QoS plane (see `qos_scenario`): a one-slot
//!   victim tenant shares a weighted-fair plane with an adversary tenant
//!   that floods four slots per producer thread; the run asserts the
//!   victim still receives at least half its fair share of drain service
//!   at the moment it finishes, and that the allow/deny split matches
//!   the plain **plane** run bit for bit.
//! * **churnstorm** — plane attachment churn: producers submit in
//!   bursts, detaching their plane slot after every burst and tearing
//!   the whole kernel session down (epoch bump + re-handshake) every few
//!   bursts, while the allow/deny split stays identical to **plane**.
//! * **herd** — thundering-herd session establishment: every client
//!   detaches, then all producer threads re-handshake `threads x 4`
//!   sessions simultaneously from a barrier and drive them round-robin
//!   through the plane.
//! * **crash** — drainer death on the QoS plane: a `CrashSpec` drainer
//!   claims ready slots exactly like a real sweep and dies holding
//!   them; the health monitor's supervisor must reclaim the claims and
//!   respawn the seat, with every entry completing exactly once
//!   (per-producer seen-bitmaps catch loss and duplication).
//!
//! All randomness comes from per-thread `SmallRng` streams seeded from
//! `ScenarioConfig::seed`, so the request sequence — and therefore the
//! allow/deny totals — is exactly reproducible no matter how threads
//! interleave (the cache is coherent, so caching cannot change answers;
//! only the hit counters are timing-dependent).

use crate::cache::{mix64, CacheConfig, CacheStats};
use crate::gateway::{AccessRequest, Gateway};
use crossbeam::channel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use secmod_kernel::smod::SmodCallArgs;
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{Credential, Errno, Kernel, Pid};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_obs::{Flavor, LatencySummary};
use secmod_policy::{Assertion, LicenseeExpr, PolicyEngine, Principal};
use secmod_ring::{
    CompletionRing, RingPairConfig, SmodCallReq, SubmissionRing, SMOD_BATCH_DEFAULT_BUDGET,
};
use std::time::{Duration, Instant};

/// The fifteen traffic shapes the engine can generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Uniform tenant/module/operation draws.
    Uniform,
    /// Zipf-skewed tenant popularity (hot keys).
    ZipfianHotKey,
    /// Every request is a brand-new cache key.
    AdversarialThrash,
    /// Uniform traffic plus kernel sessions detaching mid-stream.
    Churn,
    /// Concurrent `sys_smod_call` dispatch through one shared kernel.
    KernelDispatch,
    /// Kernel dispatch with sessions ≫ threads, round-robined per worker
    /// (session-table shard pressure).
    SessionPool,
    /// Batched dispatch: producer threads fill per-session submission
    /// rings, drainer threads run `sys_smod_call_batch`.
    RingDispatch,
    /// Dispatch-plane: producers attach to a shared `DispatchPlane` and
    /// never trap; dedicated drainer threads sweep all ready sessions
    /// per `sys_smod_sweep` (producers ≫ drainers).
    PlaneDispatch,
    /// Async frontend: `logical_clients` tasks (≫ threads) awaiting
    /// `session.call(..).await` futures, multiplexed over `threads`
    /// executor workers plus the plane's drainers and reactor.
    AsyncDispatch,
    /// Plane dispatch under a *stall antagonist*: a fault-injection
    /// thread repeatedly claims the ring set's readiness bits (and the
    /// per-slot drain exclusivity flags) and sits on them without
    /// draining anything, so the real drainers bounce and producers'
    /// entries sit queued until the antagonist re-marks the slots ready.
    /// Decisions are untouched — only the *tail* of the latency
    /// distribution moves, which is exactly what the per-flavor
    /// histograms exist to expose.
    DrainerStall,
    /// Plane dispatch with mixed payload sizes: every fourth submission
    /// carries a 64 KiB argument block (riding the plane's shared
    /// [`secmod_ring::ArgArena`] by descriptor), the rest stay inline.
    /// Exercises the zero-copy path under producer concurrency; the run
    /// asserts arena bytes-in-flight settle to zero at shutdown.
    ArenaMix,
    /// Weighted-fair QoS plane: a one-slot victim tenant versus an
    /// adversary tenant flooding four slots per producer thread. The run
    /// asserts the victim's fairness floor (at least half its fair share
    /// of drain service when it finishes) and that the allow/deny split
    /// matches [`ScenarioKind::PlaneDispatch`] bit for bit.
    MultiTenant,
    /// Plane-attachment churn storm: producers submit in bursts,
    /// dropping their plane slot after every burst and cycling the whole
    /// kernel session (detach + re-handshake, bumping the invalidation
    /// epoch) every few bursts.
    ChurnStorm,
    /// Thundering-herd establishment: all sessions detach, then every
    /// producer thread re-handshakes `4` sessions simultaneously from a
    /// barrier and drives them round-robin through the plane.
    HerdEstablish,
    /// Drainer death on the QoS plane: the targeted drainer claims ready
    /// slots like a real sweep and dies holding them; the supervisor
    /// must reclaim and respawn, with every entry completing exactly
    /// once.
    DrainerCrash,
}

impl ScenarioKind {
    /// Every scenario, in report order.
    pub const ALL: [ScenarioKind; 15] = [
        ScenarioKind::Uniform,
        ScenarioKind::ZipfianHotKey,
        ScenarioKind::AdversarialThrash,
        ScenarioKind::Churn,
        ScenarioKind::KernelDispatch,
        ScenarioKind::SessionPool,
        ScenarioKind::RingDispatch,
        ScenarioKind::PlaneDispatch,
        ScenarioKind::AsyncDispatch,
        ScenarioKind::DrainerStall,
        ScenarioKind::ArenaMix,
        ScenarioKind::MultiTenant,
        ScenarioKind::ChurnStorm,
        ScenarioKind::HerdEstablish,
        ScenarioKind::DrainerCrash,
    ];

    /// Short name used in reports and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Uniform => "uniform",
            ScenarioKind::ZipfianHotKey => "zipfian",
            ScenarioKind::AdversarialThrash => "thrash",
            ScenarioKind::Churn => "churn",
            ScenarioKind::KernelDispatch => "kernel",
            ScenarioKind::SessionPool => "pool",
            ScenarioKind::RingDispatch => "ring",
            ScenarioKind::PlaneDispatch => "plane",
            ScenarioKind::AsyncDispatch => "async",
            ScenarioKind::DrainerStall => "stall",
            ScenarioKind::ArenaMix => "arena",
            ScenarioKind::MultiTenant => "multitenant",
            ScenarioKind::ChurnStorm => "churnstorm",
            ScenarioKind::HerdEstablish => "herd",
            ScenarioKind::DrainerCrash => "crash",
        }
    }
}

/// Sizing and shape of one scenario run.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Which traffic shape to generate.
    pub kind: ScenarioKind,
    /// Number of simulated tenant principals.
    pub tenants: usize,
    /// Number of protected modules.
    pub modules: usize,
    /// Operations (exported functions) per module.
    pub operations: usize,
    /// Worker threads driving the gateway.
    pub threads: usize,
    /// Requests issued per worker thread.
    pub ops_per_thread: u64,
    /// Master seed; every worker derives its own stream from it.
    pub seed: u64,
    /// Zipf exponent for the hot-key scenario (≈1.1 is web-like).
    pub zipf_exponent: f64,
    /// Sets the churn actor's detach budget: it runs `total ops /
    /// churn_interval` attach/detach cycles concurrently with the workers
    /// (a cycle *count*, not pacing — the actor is not synchronised with
    /// worker progress).
    pub churn_interval: u64,
    /// Dedicated drainer threads for [`ScenarioKind::PlaneDispatch`] /
    /// [`ScenarioKind::AsyncDispatch`] (0 = auto: `max(1, threads / 4)`,
    /// keeping producers ≫ drainers).
    pub drainers: usize,
    /// Logical clients (awaiting tasks) for
    /// [`ScenarioKind::AsyncDispatch`] (0 = auto: `threads × 32`). The
    /// point of the scenario is `logical_clients ≫ threads`.
    pub logical_clients: usize,
    /// Producer-side doorbell coalescing for the plane scenarios: each
    /// producer pushes up to this many entries per burst through a
    /// [`secmod_kernel::plane::SubmitBatch`] before ringing the doorbell
    /// once. `0`/`1` keep the classic one-doorbell-per-entry submit.
    pub submit_batch: usize,
    /// Decision cache sizing.
    pub cache: CacheConfig,
}

impl ScenarioConfig {
    /// Start building a config for `kind`, from the full-size defaults
    /// (64 tenants, 8×8 key space, 4 threads, 50k ops/thread).
    pub fn builder(kind: ScenarioKind) -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            cfg: ScenarioConfig {
                kind,
                tenants: 64,
                modules: 8,
                operations: 8,
                threads: 4,
                ops_per_thread: 50_000,
                seed: 0,
                zipf_exponent: 1.1,
                churn_interval: 1024,
                drainers: 0,
                logical_clients: 0,
                submit_batch: 1,
                cache: CacheConfig::default(),
            },
        }
    }

    /// The drainer-thread count the plane and async scenarios will use.
    pub fn effective_drainers(&self) -> usize {
        if self.drainers > 0 {
            self.drainers
        } else {
            (self.threads / 4).max(1)
        }
    }

    /// The logical-client count the async scenario will use.
    pub fn effective_logical_clients(&self) -> usize {
        if self.logical_clients > 0 {
            self.logical_clients
        } else {
            self.threads.max(1) * 32
        }
    }

    /// Total operations the run issues (`threads * ops_per_thread`);
    /// the async kind splits this total across its logical clients.
    pub fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread
    }
}

/// Builder for [`ScenarioConfig`] — `ScenarioConfig::builder(kind)`
/// starts from the full-size shape; [`ScenarioConfigBuilder::quick`]
/// switches to the CI smoke shape; individual setters override fields.
#[derive(Clone, Debug)]
pub struct ScenarioConfigBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioConfigBuilder {
    /// Apply the small test/CI shape (16 tenants, 4×4 key space, 2
    /// threads, 2k ops/thread, an 8×512 cache).
    pub fn quick(mut self) -> Self {
        self.cfg.tenants = 16;
        self.cfg.modules = 4;
        self.cfg.operations = 4;
        self.cfg.threads = 2;
        self.cfg.ops_per_thread = 2_000;
        self.cfg.churn_interval = 256;
        self.cfg.cache = CacheConfig {
            shards: 8,
            capacity: 512,
        };
        self
    }

    /// Master seed; every worker derives its own stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Number of simulated tenant principals.
    pub fn tenants(mut self, tenants: usize) -> Self {
        self.cfg.tenants = tenants;
        self
    }

    /// Number of protected modules.
    pub fn modules(mut self, modules: usize) -> Self {
        self.cfg.modules = modules;
        self
    }

    /// Operations (exported functions) per module.
    pub fn operations(mut self, operations: usize) -> Self {
        self.cfg.operations = operations;
        self
    }

    /// Worker threads driving the gateway.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Requests issued per worker thread.
    pub fn ops_per_thread(mut self, ops: u64) -> Self {
        self.cfg.ops_per_thread = ops;
        self
    }

    /// Zipf exponent for the hot-key scenario.
    pub fn zipf_exponent(mut self, exponent: f64) -> Self {
        self.cfg.zipf_exponent = exponent;
        self
    }

    /// The churn actor's detach-cycle interval.
    pub fn churn_interval(mut self, interval: u64) -> Self {
        self.cfg.churn_interval = interval;
        self
    }

    /// Dedicated drainer threads (0 = auto).
    pub fn drainers(mut self, drainers: usize) -> Self {
        self.cfg.drainers = drainers;
        self
    }

    /// Logical clients for the async scenario (0 = auto: threads × 32).
    pub fn logical_clients(mut self, clients: usize) -> Self {
        self.cfg.logical_clients = clients;
        self
    }

    /// Producer burst size for coalesced plane submission (0/1 = one
    /// doorbell per entry).
    pub fn submit_batch(mut self, burst: usize) -> Self {
        self.cfg.submit_batch = burst;
        self
    }

    /// Decision cache sizing.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = cache;
        self
    }

    /// Finish building.
    pub fn build(self) -> ScenarioConfig {
        self.cfg
    }
}

/// The shared cast of a scenario: tenant principals and the module /
/// operation namespace they fight over.
pub struct Universe {
    /// One principal per simulated tenant.
    pub tenants: Vec<Principal>,
    /// Module names (`mod0`..).
    pub modules: Vec<String>,
    /// Operation names; index 0 is `"restricted"`, which vendors never
    /// delegate, so a deterministic slice of traffic is denied.
    pub operations: Vec<String>,
}

impl Universe {
    fn home_module(&self, tenant: usize) -> usize {
        tenant % self.modules.len()
    }
}

/// Build the universe and a gateway fronting its policy: per module, the
/// policy root trusts a vendor, and the vendor delegates to the tenants
/// homed on that module for everything except the `"restricted"`
/// operation. Every decision therefore exercises a two-hop delegation
/// chain — exactly the kind of repeated fixpoint work a decision cache is
/// for.
pub fn build_universe(cfg: &ScenarioConfig) -> (Gateway, Universe) {
    let tenants: Vec<Principal> = (0..cfg.tenants)
        .map(|t| {
            Principal::from_key(
                &format!("tenant{t}"),
                format!("tenant-key-{t}-{}", cfg.seed).as_bytes(),
            )
        })
        .collect();
    let modules: Vec<String> = (0..cfg.modules).map(|m| format!("mod{m}")).collect();
    let operations: Vec<String> = std::iter::once("restricted".to_string())
        .chain((1..cfg.operations.max(2)).map(|o| format!("op{o}")))
        .collect();

    let universe = Universe {
        tenants,
        modules,
        operations,
    };
    let gateway = Gateway::new(PolicyEngine::new(), cfg.cache);
    for (m, module) in universe.modules.iter().enumerate() {
        let vendor_key = format!("vendor-key-{m}");
        let vendor = Principal::from_key(&format!("vendor{m}"), vendor_key.as_bytes());
        gateway.register_key(&vendor, vendor_key.as_bytes());
        gateway
            .add_assertion(
                Assertion::policy(
                    LicenseeExpr::Single(vendor.clone()),
                    &format!("module == \"{module}\""),
                )
                .unwrap(),
            )
            .unwrap();
        for (t, tenant) in universe.tenants.iter().enumerate() {
            if universe.home_module(t) == m {
                gateway
                    .add_assertion(
                        Assertion::delegation(
                            vendor.clone(),
                            LicenseeExpr::Single(tenant.clone()),
                            "function != \"restricted\"",
                        )
                        .unwrap()
                        .sign(vendor_key.as_bytes()),
                    )
                    .unwrap();
            }
        }
    }
    (gateway, universe)
}

/// Zipf sampler over ranks `0..n` via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        use rand::RngCore;
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WorkerStats {
    pub(crate) allows: u64,
    pub(crate) denies: u64,
    pub(crate) epoch_bumps: u64,
}

fn run_worker(
    gateway: &Gateway,
    universe: &Universe,
    cfg: &ScenarioConfig,
    thread_idx: u64,
) -> WorkerStats {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx + 1));
    let zipf = Zipf::new(universe.tenants.len(), cfg.zipf_exponent);
    let mut stats = WorkerStats::default();
    for op_idx in 0..cfg.ops_per_thread {
        let (tenant, module, operation, uid) = match cfg.kind {
            // The kernel-backed kinds never reach run_worker (they have
            // their own runners); the arms exist only for exhaustiveness.
            ScenarioKind::Uniform
            | ScenarioKind::Churn
            | ScenarioKind::KernelDispatch
            | ScenarioKind::SessionPool
            | ScenarioKind::RingDispatch
            | ScenarioKind::PlaneDispatch
            | ScenarioKind::AsyncDispatch
            | ScenarioKind::DrainerStall
            | ScenarioKind::ArenaMix
            | ScenarioKind::MultiTenant
            | ScenarioKind::ChurnStorm
            | ScenarioKind::HerdEstablish
            | ScenarioKind::DrainerCrash => {
                let tenant = rng.gen_range(0..universe.tenants.len() as u64) as usize;
                (
                    tenant,
                    rng.gen_range(0..universe.modules.len() as u64) as usize,
                    rng.gen_range(0..universe.operations.len() as u64) as usize,
                    1000 + tenant as i64,
                )
            }
            ScenarioKind::ZipfianHotKey => {
                let tenant = zipf.sample(&mut rng);
                (
                    tenant,
                    universe.home_module(tenant),
                    rng.gen_range(0..universe.operations.len() as u64) as usize,
                    1000 + tenant as i64,
                )
            }
            ScenarioKind::AdversarialThrash => {
                // A fresh uid per request: no key is ever seen twice, so
                // every lookup misses and every insert is wasted work.
                let tenant = rng.gen_range(0..universe.tenants.len() as u64) as usize;
                let unique = 1_000_000 + thread_idx * cfg.ops_per_thread + op_idx;
                (
                    tenant,
                    universe.home_module(tenant),
                    rng.gen_range(0..universe.operations.len() as u64) as usize,
                    unique as i64,
                )
            }
        };
        let request = AccessRequest {
            requesters: std::slice::from_ref(&universe.tenants[tenant]),
            app_domain: "scenario",
            module: &universe.modules[module],
            version: 1,
            operation: &universe.operations[operation],
            uid,
        };
        if gateway.is_allowed(&request) {
            stats.allows += 1;
        } else {
            stats.denies += 1;
        }
    }
    stats
}

/// Build the kernel the churn actor cycles sessions against: one
/// registered module with an always-allow policy for the actor's client.
fn churn_kernel() -> (Kernel, ModuleId, Pid) {
    let kernel = Kernel::default();
    let registrar = kernel
        .spawn_process(
            "churn-registrar",
            Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .expect("spawn registrar");

    let image = ModuleBuilder::libc_like();
    let key = b"0123456789abcdef".to_vec();
    let nonce = [3u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).expect("encryptor");
    let package = SmodPackage::seal(&image, &enc, b"churn-mac-key").expect("seal");

    let mut policy = PolicyEngine::new();
    let actor = Principal::from_key("churn-actor", b"churn-actor-key");
    policy
        .add_assertion(Assertion::policy(LicenseeExpr::Single(actor), "").unwrap())
        .unwrap();

    let m_id = kernel
        .sys_smod_add(
            registrar,
            package,
            secmod_kernel::smod::ModuleKeyDelivery::Raw { key, nonce },
            b"churn-mac-key",
            policy,
            FunctionTable::new(),
        )
        .expect("register churn module");

    let client = kernel
        .spawn_process(
            "churn-client",
            Credential::user(4000, 400).with_smod_credential("libc", b"churn-actor-key"),
            vec![0x90; 4096],
            4,
            4,
        )
        .expect("spawn churn client");
    (kernel, m_id, client)
}

/// The churn actor: attach and detach `cycles` real SecModule sessions,
/// folding the kernel's invalidation epoch into the gateway after every
/// detach.
fn run_churn_actor(gateway: &Gateway, cycles: u64) -> WorkerStats {
    let (kernel, m_id, client) = churn_kernel();
    for _ in 0..cycles {
        let (_session, handle) = kernel
            .sys_smod_start_session(client, m_id)
            .expect("start churn session");
        kernel.sys_smod_session_info(handle).expect("handle ready");
        kernel.sys_smod_handle_info(client).expect("handshake");
        kernel.smod_detach(client, "churn").expect("detach");
        gateway.observe_kernel_epoch(kernel.smod_epoch());
    }
    WorkerStats {
        epoch_bumps: kernel.smod_epoch(),
        ..WorkerStats::default()
    }
}

/// A live kernel-dispatch universe: one shared kernel, one registered
/// module (whose embedded gateway serves every per-call check), and a
/// pool of established sessions. Built by [`build_dispatch_kernel`] (one
/// client per worker thread) or [`build_dispatch_kernel_with_clients`]
/// (an explicit session-pool size); also reused by the `fig8_concurrent`
/// and `ring_throughput` benches.
pub struct DispatchKernel {
    /// The shared kernel; every syscall takes `&self`.
    pub kernel: Kernel,
    /// The registered benchmark module.
    pub module: ModuleId,
    /// The connected clients. For [`ScenarioKind::KernelDispatch`] thread
    /// i drives client i; for [`ScenarioKind::SessionPool`] the workers
    /// round-robin over the whole pool.
    pub clients: Vec<Pid>,
    /// Function ids of the module's operations; index 0 is the
    /// `"restricted"` operation that the policy denies.
    pub func_ids: Vec<u32>,
}

/// Build a kernel for the kernel-dispatch scenario: one module protected
/// by a vendor → per-tenant delegation policy (each decision is a two-hop
/// fixpoint when uncached, exactly what the embedded decision cache
/// amortises), `threads` clients with per-tenant credentials, and an
/// established session per client. The module's gateway is sized by
/// `cfg.cache` — pass [`CacheConfig::disabled`] to measure the uncached
/// baseline through the identical code path.
pub fn build_dispatch_kernel(cfg: &ScenarioConfig) -> DispatchKernel {
    build_dispatch_kernel_with_clients(cfg, cfg.threads)
}

/// [`build_dispatch_kernel`] with an explicit connected-client count: the
/// session-pool and ring scenarios establish more sessions than worker
/// threads. `n_clients` is clamped to the tenant key space
/// (`cfg.tenants.max(cfg.threads)`) so every client has a delegation.
pub fn build_dispatch_kernel_with_clients(
    cfg: &ScenarioConfig,
    n_clients: usize,
) -> DispatchKernel {
    const MODULE_NAME: &str = "libdispatch";
    let kernel = Kernel::with_gate_config(secmod_kernel::CostModel::default(), cfg.cache);
    // Tracing every dispatch from N threads would serialise the workers on
    // the tracer mutex and grow an unbounded log; the scenario measures
    // dispatch, not tracing.
    kernel.tracer.set_enabled(false);
    let registrar = kernel
        .spawn_process(
            "dispatch-registrar",
            Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .expect("spawn registrar");

    // The module image: operation 0 is "restricted", the rest are opN.
    let operations: Vec<String> = std::iter::once("restricted".to_string())
        .chain((1..cfg.operations.max(2)).map(|o| format!("op{o}")))
        .collect();
    let mut builder = ModuleBuilder::new(MODULE_NAME, 1);
    for op in &operations {
        builder.add_function(FunctionSpec::new(op, 64));
    }
    let image = builder.build(false).expect("build dispatch image");
    let stub_table = StubTable::generate(&image);
    let func_ids: Vec<u32> = operations
        .iter()
        .map(|op| stub_table.by_name(op).expect("stub exists").func_id)
        .collect();
    let mut functions = FunctionTable::new();
    for &func_id in &func_ids {
        functions.register(func_id, |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
    }

    // Policy: root trusts the vendor for this module; the vendor delegates
    // to each tenant for everything but "restricted".
    let vendor_key = format!("dispatch-vendor-key-{}", cfg.seed);
    let vendor = Principal::from_key("vendor", vendor_key.as_bytes());
    let mut policy = PolicyEngine::new();
    policy.register_key(&vendor, vendor_key.as_bytes());
    policy
        .add_assertion(
            Assertion::policy(
                LicenseeExpr::Single(vendor.clone()),
                &format!("module == \"{MODULE_NAME}\""),
            )
            .unwrap(),
        )
        .unwrap();
    // One delegation per tenant (not per worker): the policy's size — and
    // therefore the uncached fixpoint cost — is set by `cfg.tenants`, so an
    // uncached 1-thread baseline evaluates the same policy a cached
    // 8-thread run does. Workers use the first `cfg.threads` tenants.
    let tenant_keys: Vec<Vec<u8>> = (0..cfg.tenants.max(cfg.threads))
        .map(|t| format!("tenant-key-{t}-{}", cfg.seed).into_bytes())
        .collect();
    for key in &tenant_keys {
        let tenant = Principal::from_key("tenant", key);
        policy
            .add_assertion(
                Assertion::delegation(
                    vendor.clone(),
                    LicenseeExpr::Single(tenant),
                    "function != \"restricted\"",
                )
                .unwrap()
                .sign(vendor_key.as_bytes()),
            )
            .unwrap();
    }

    let module_key = b"0123456789abcdef".to_vec();
    let nonce = [9u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&module_key, nonce).expect("encryptor");
    let package = SmodPackage::seal(&image, &enc, b"dispatch-mac-key").expect("seal");
    let module = kernel
        .sys_smod_add(
            registrar,
            package,
            secmod_kernel::smod::ModuleKeyDelivery::Raw {
                key: module_key,
                nonce,
            },
            b"dispatch-mac-key",
            policy,
            functions,
        )
        .expect("register dispatch module");

    let clients: Vec<Pid> = tenant_keys
        .iter()
        .take(n_clients.clamp(1, tenant_keys.len()))
        .enumerate()
        .map(|(t, key)| {
            let client = kernel
                .spawn_process(
                    &format!("dispatch-client{t}"),
                    Credential::user(1000 + t as u32, 100).with_smod_credential(MODULE_NAME, key),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .expect("spawn dispatch client");
            let (_session, handle) = kernel
                .sys_smod_start_session(client, module)
                .expect("start session");
            kernel.sys_smod_session_info(handle).expect("handle ready");
            kernel.sys_smod_handle_info(client).expect("handshake");
            client
        })
        .collect();

    DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    }
}

/// One kernel-dispatch worker: issue `ops_per_thread` `sys_smod_call`s,
/// drawing the operation uniformly (so the deterministic slice aimed at
/// `"restricted"` is denied by policy). [`ScenarioKind::KernelDispatch`]
/// pins the worker to its own session; [`ScenarioKind::SessionPool`]
/// round-robins every worker across the whole session pool, so
/// consecutive dispatches from one thread hit different session-table
/// shards (and different per-process locks) every time.
fn run_kernel_worker(
    dispatch: &DispatchKernel,
    cfg: &ScenarioConfig,
    thread_idx: u64,
) -> WorkerStats {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx + 1));
    let mut stats = WorkerStats::default();
    for op_idx in 0..cfg.ops_per_thread {
        let client = match cfg.kind {
            ScenarioKind::SessionPool => {
                dispatch.clients[(thread_idx as usize + op_idx as usize) % dispatch.clients.len()]
            }
            _ => dispatch.clients[thread_idx as usize],
        };
        let func_id = dispatch.func_ids[rng.gen_range(0..dispatch.func_ids.len() as u64) as usize];
        let outcome = dispatch.kernel.sys_smod_call(
            client,
            SmodCallArgs {
                m_id: dispatch.module,
                func_id,
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1000,
                args: op_idx.to_le_bytes().to_vec(),
            },
        );
        match outcome {
            Ok(_) => stats.allows += 1,
            Err(Errno::EACCES) => stats.denies += 1,
            Err(e) => panic!("unexpected dispatch error: {e:?}"),
        }
    }
    stats
}

/// One ring producer: fill this session's submission ring with
/// `ops_per_thread` requests (same uniform operation draw as the
/// single-call workers, so the allow/deny split is seed-identical to
/// [`ScenarioKind::KernelDispatch`]), reaping completions as they appear
/// to keep the rings flowing, then drain the tail.
fn run_ring_producer(
    dispatch: &DispatchKernel,
    rings: &(SubmissionRing, CompletionRing),
    cfg: &ScenarioConfig,
    thread_idx: u64,
) -> WorkerStats {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx + 1));
    let (sq, cq) = rings;
    let session = dispatch
        .kernel
        .session_of(dispatch.clients[thread_idx as usize])
        .expect("producer session established")
        .id
        .0;
    let mut stats = WorkerStats::default();
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut pending: Option<SmodCallReq> = None;
    while received < cfg.ops_per_thread {
        let mut progressed = false;
        if sent < cfg.ops_per_thread {
            let req = pending.take().unwrap_or_else(|| {
                let func_id =
                    dispatch.func_ids[rng.gen_range(0..dispatch.func_ids.len() as u64) as usize];
                SmodCallReq {
                    session,
                    proc_id: func_id,
                    user_data: sent,
                    args: sent.to_le_bytes().into(),
                }
            });
            // This thread is the ring's only producer: SPSC fast path.
            match sq.push_spsc(req) {
                Ok(()) => {
                    sent += 1;
                    progressed = true;
                }
                Err(back) => pending = Some(back),
            }
        }
        // And the only consumer of its completion ring.
        while let Some(resp) = cq.pop_spsc() {
            received += 1;
            progressed = true;
            if resp.is_ok() {
                stats.allows += 1;
            } else if resp.errno == Errno::EACCES.code() {
                stats.denies += 1;
            } else {
                panic!("unexpected ring completion errno {}", resp.errno);
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    stats
}

/// The [`ScenarioKind::RingDispatch`] runner: `cfg.threads` producers fill
/// per-session ring pairs while `max(1, threads/2)` drainer threads sweep
/// the rings with `sys_smod_call_batch` (session/credential/gateway
/// resolved once per batch) until every producer is done and every
/// submission ring is dry.
fn run_ring_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let dispatch = build_dispatch_kernel(cfg);
    let pairs: Vec<(SubmissionRing, CompletionRing)> = (0..cfg.threads)
        .map(|_| RingPairConfig::default().build())
        .collect();
    let drainers = (cfg.threads / 2).max(1);
    let producers_done = AtomicUsize::new(0);
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread_idx in 0..cfg.threads {
            let tx = tx.clone();
            let dispatch = &dispatch;
            let pairs = &pairs;
            let producers_done = &producers_done;
            scope.spawn(move || {
                let stats = run_ring_producer(dispatch, &pairs[thread_idx], cfg, thread_idx as u64);
                producers_done.fetch_add(1, Ordering::Release);
                tx.send(stats).expect("report ring producer stats");
            });
        }
        for drainer_idx in 0..drainers {
            let dispatch = &dispatch;
            let pairs = &pairs;
            let producers_done = &producers_done;
            scope.spawn(move || loop {
                let mut drained_any = false;
                // Stagger the sweep start so two drainers do not convoy
                // on the same ring.
                for i in 0..pairs.len() {
                    let ring = (i + drainer_idx) % pairs.len();
                    let (sq, cq) = &pairs[ring];
                    let report = dispatch
                        .kernel
                        .sys_smod_call_batch(
                            dispatch.clients[ring],
                            sq,
                            cq,
                            SMOD_BATCH_DEFAULT_BUDGET,
                        )
                        .expect("batch dispatch");
                    drained_any |= report.drained > 0;
                }
                if !drained_any {
                    if producers_done.load(Ordering::Acquire) == cfg.threads
                        && pairs.iter().all(|(sq, _)| sq.is_empty())
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect ring producer stats");
        allows += stats.allows;
        denies += stats.denies;
    }

    let cache = layered_cache_stats(&dispatch.kernel, dispatch.module);
    let total_ops = cfg.total_ops();
    ScenarioReport {
        kind: cfg.kind,
        threads: cfg.threads,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        allows,
        denies,
        epoch_bumps: dispatch.kernel.smod_epoch(),
        cache,
        latency: latency_of(&dispatch.kernel, Flavor::Batch),
    }
}

/// The [`ScenarioKind::PlaneDispatch`] runner: `cfg.threads` producers
/// attach their sessions to one shared `DispatchPlane` and then dispatch
/// **without ever trapping** — each submission is a ring push plus a
/// readiness bit; the plane's dedicated drainer threads
/// (`cfg.effective_drainers()`, producers ≫ drainers) sweep every ready
/// session per `sys_smod_sweep`. The operation draw is seed-identical to
/// [`ScenarioKind::KernelDispatch`], so the allow/deny split matches the
/// single-call scenario exactly.
///
/// [`ScenarioKind::DrainerStall`] runs the identical workload with one
/// extra thread: a stall antagonist that loops a ledger claim over the
/// plane's ring set (`claim_ready`, then `drain_claimed` per slot),
/// holding readiness bits and per-slot drain exclusivity, sleeping while
/// it holds them, draining nothing, and re-marking every slot ready on
/// release. The real drainers bounce off the held slots, queued entries
/// age, and the tail of the latency distribution stretches — while the
/// allow/deny split stays bit-for-bit identical to the unstalled run.
fn run_plane_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    use secmod_kernel::{DispatchPlane, PlaneConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let stall = cfg.kind == ScenarioKind::DrainerStall;
    let arena_mix = cfg.kind == ScenarioKind::ArenaMix;
    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel(cfg);
    let kernel = std::sync::Arc::new(kernel);
    let plane = DispatchPlane::start(
        std::sync::Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers())
            .slots(cfg.threads.max(1))
            .build(),
    )
    .expect("start dispatch plane");
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);
    let producers_done = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        if stall {
            let set = plane.ring_set();
            let producers_done = &producers_done;
            scope.spawn(move || {
                let ledger = set.claim_ledger();
                let mut claimed = Vec::new();
                while producers_done.load(Ordering::Acquire) < cfg.threads {
                    // Claim whatever is ready and sit on it: while this
                    // closure holds a slot, its drain-exclusivity flag
                    // blocks the real drainers, and the readiness bits
                    // claimed alongside it hide the remaining slots from
                    // their sweeps. Nothing is popped; returning `true`
                    // re-flags the slot so the work is *delayed*, never
                    // lost.
                    claimed.clear();
                    set.claim_ready(&ledger, &mut claimed);
                    for &(slot, _tenant) in &claimed {
                        set.drain_claimed(slot, &ledger, |_slot, _rings| {
                            std::thread::sleep(Duration::from_micros(200));
                            true
                        });
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
        }
        for (thread_idx, &client) in clients.iter().enumerate().take(cfg.threads) {
            let tx = tx.clone();
            let handle = plane.attach(client).expect("attach producer");
            let func_ids = &func_ids;
            let producers_done = &producers_done;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(thread_idx as u64 + 1));
                let mut stats = WorkerStats::default();
                let mut sent = 0u64;
                let mut received = 0u64;
                let mut pending: Option<(u32, u64)> = None;
                let burst = cfg.submit_batch.max(1) as u64;
                while received < cfg.ops_per_thread {
                    let mut progressed = false;
                    if sent < cfg.ops_per_thread {
                        // Push up to `burst` entries, then ring the
                        // doorbell once (burst = 1 is the classic
                        // one-doorbell-per-entry submit).
                        let mut batch = handle.batch();
                        let quota = burst.min(cfg.ops_per_thread - sent);
                        for _ in 0..quota {
                            let (func_id, user_data) = pending.take().unwrap_or_else(|| {
                                (
                                    func_ids[rng.gen_range(0..func_ids.len() as u64) as usize],
                                    sent,
                                )
                            });
                            // ArenaMix: every fourth payload is a 64 KiB
                            // block (value in the first 8 bytes) that must
                            // travel by arena descriptor; the rest stay
                            // inline.
                            let args = if arena_mix && user_data % 4 == 0 {
                                let mut big = vec![0u8; 64 * 1024];
                                big[..8].copy_from_slice(&user_data.to_le_bytes());
                                big
                            } else {
                                user_data.to_le_bytes().to_vec()
                            };
                            match batch.push(func_id, user_data, args) {
                                Ok(()) => {
                                    sent += 1;
                                    progressed = true;
                                }
                                Err(back) => {
                                    // Backpressure: hold the request and
                                    // retry after reaping — the bounce
                                    // already flushed the prefix.
                                    // (Detached cannot happen here — the
                                    // plane outlives the scope.)
                                    let back = back.into_req();
                                    pending = Some((back.proc_id, back.user_data));
                                    break;
                                }
                            }
                        }
                        batch.flush();
                    }
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
                    }
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
                producers_done.fetch_add(1, Ordering::Release);
                tx.send(stats).expect("report plane producer stats");
            });
        }
    });
    plane.shutdown();
    let elapsed = start.elapsed();
    // Every drained request and read result has freed its arena slot by
    // now: in-flight bytes must be exactly zero or the arena is leaking.
    assert_eq!(
        kernel.metrics.arena.bytes_in_flight.get(),
        0,
        "arena bytes still in flight after {:?} shutdown",
        cfg.kind
    );

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect plane producer stats");
        allows += stats.allows;
        denies += stats.denies;
    }

    let cache = layered_cache_stats(&kernel, module);
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
        latency: latency_of(&kernel, Flavor::Plane),
    }
}

/// The scenario's latency summary from the kernel's dispatch metrics,
/// `None` when the flavor recorded nothing (e.g. a gateway-only run).
pub(crate) fn latency_of(kernel: &Kernel, flavor: Flavor) -> Option<LatencySummary> {
    let hist = kernel.metrics.latency(flavor);
    (hist.count() > 0).then(|| hist.summary())
}

/// The report-level cache view for kernel-backed scenarios. Hit/miss come
/// from the kernel's gate counters: with the thread-local L0 tier fronting
/// the sharded cache, the shard's own counters only ever see L0 misses,
/// so they no longer measure "decisions served from a cache" — the gate
/// counters do (L0 and sharded hits both count as hits, exactly as they
/// are billed). Occupancy, insertions and evictions still come from the
/// sharded tier, which is the only tier with resident state to report.
pub(crate) fn layered_cache_stats(kernel: &Kernel, module: ModuleId) -> CacheStats {
    let mut stats = kernel
        .registry
        .get(module)
        .expect("module registered")
        .gateway
        .cache_stats();
    stats.hits = kernel.metrics.gate_hits.get();
    stats.misses = kernel.metrics.gate_misses.get();
    stats
}

/// The [`ScenarioKind::AsyncDispatch`] runner: `logical_clients` tasks
/// (≫ `threads`) each drive a random stream of awaited calls through a
/// shared [`secmod_async::AsyncPlane`]; `threads` executor workers poll
/// them, the plane's drainers sweep, and the reactor routes completions
/// back. Same universe, same embedded-gateway checks, same deterministic
/// allow/deny totals as every other dispatch scenario — only the
/// concurrency model changes.
fn run_async_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    use secmod_async::{AsyncPlane, Executor};
    use secmod_kernel::dispatch::DispatchError;
    use secmod_kernel::PlaneConfig;

    let DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    } = build_dispatch_kernel(cfg);
    let kernel = std::sync::Arc::new(kernel);
    let plane = AsyncPlane::start(
        std::sync::Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(cfg.effective_drainers())
            .slots(cfg.threads.max(1))
            .build(),
    )
    .expect("start async plane");
    let exec = Executor::new(cfg.threads.max(1));

    let logical = cfg.effective_logical_clients().max(1);
    let total_ops = cfg.total_ops();

    let start = Instant::now();
    let handles: Vec<_> = (0..logical)
        .map(|lc| {
            // Many logical clients share each OS client's session — the
            // whole point of the frontend.
            let session = plane
                .session(clients[lc % clients.len()])
                .expect("attach async session");
            let func_ids = func_ids.clone();
            let seed = cfg.seed ^ mix64(lc as u64 + 1);
            let ops =
                total_ops / logical as u64 + u64::from((lc as u64) < total_ops % logical as u64);
            exec.spawn(async move {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut stats = WorkerStats::default();
                for i in 0..ops {
                    let func_id = func_ids[rng.gen_range(0..func_ids.len() as u64) as usize];
                    match session.call(func_id, i.to_le_bytes()).await {
                        Ok(_) => stats.allows += 1,
                        Err(DispatchError::Errno(Errno::EACCES)) => stats.denies += 1,
                        Err(e) => panic!("unexpected async outcome: {e}"),
                    }
                }
                stats
            })
        })
        .collect();

    let mut allows = 0;
    let mut denies = 0;
    for handle in handles {
        let stats = handle.join();
        allows += stats.allows;
        denies += stats.denies;
    }
    drop(exec);
    plane.shutdown();
    let elapsed = start.elapsed();

    let cache = layered_cache_stats(&kernel, module);
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
        latency: latency_of(&kernel, Flavor::Async),
    }
}

/// Drive all five dispatch flavors against **one** kernel and render its
/// [`DispatchMetrics`][secmod_obs::DispatchMetrics] text report — the
/// `gate_report --metrics` walkthrough and the CI observability smoke.
///
/// The syscall and batch flavors are exercised directly; the plane and
/// async frontends bring their own drainer threads, whose
/// `sys_smod_sweep`s populate the sweep flavor — so one small demo
/// lights up every row of the report.
pub fn run_metrics_demo(seed: u64) -> String {
    use secmod_async::{block_on, AsyncPlane};
    use secmod_kernel::dispatch::Dispatcher;
    use secmod_kernel::{DispatchPlane, PlaneConfig};

    const OPS: u64 = 64;
    let cfg = ScenarioConfig::builder(ScenarioKind::KernelDispatch)
        .quick()
        .seed(seed)
        .build();
    let DispatchKernel {
        kernel,
        clients,
        func_ids,
        ..
    } = build_dispatch_kernel_with_clients(&cfg, 4);
    let kernel = std::sync::Arc::new(kernel);
    let func = |i: u64| func_ids[(i % func_ids.len() as u64) as usize];

    // Syscall: plain `sys_smod_call` through the `Dispatcher` trait.
    // The draw includes `restricted`, so denied calls are recorded too —
    // a deny still costs its policy check.
    for i in 0..OPS {
        let _ = kernel.dispatch_one(clients[0], func(i), &i.to_le_bytes());
    }

    // Batch: fill one submission ring, drain it with
    // `sys_smod_call_batch` traps (ring-sized batches).
    let session = kernel
        .session_of(clients[1])
        .expect("client 1 session")
        .id
        .0;
    let (sq, cq) = RingPairConfig::default().build();
    let mut submitted = 0u64;
    loop {
        while submitted < OPS {
            let req = SmodCallReq {
                session,
                proc_id: func(submitted),
                user_data: submitted,
                args: submitted.to_le_bytes().into(),
            };
            if sq.push_spsc(req).is_err() {
                break;
            }
            submitted += 1;
        }
        if sq.is_empty() {
            break;
        }
        kernel
            .sys_smod_call_batch(clients[1], &sq, &cq, SMOD_BATCH_DEFAULT_BUDGET)
            .expect("batch dispatch");
        while cq.pop_spsc().is_some() {}
    }

    // Plane: submissions never trap; the plane's drainer sweeps (the
    // sweep flavor) and `reap` observes completions (the plane flavor).
    let plane = DispatchPlane::start(
        std::sync::Arc::clone(&kernel),
        PlaneConfig::builder().drainers(1).slots(1).build(),
    )
    .expect("start dispatch plane");
    let handle = plane.attach(clients[2]).expect("attach plane client");
    let mut sent = 0u64;
    let mut received = 0u64;
    while received < OPS {
        if sent < OPS
            && handle
                .submit(func(sent), sent, sent.to_le_bytes().to_vec())
                .is_ok()
        {
            sent += 1;
        }
        while handle.reap().is_some() {
            received += 1;
        }
        if received < OPS {
            std::thread::yield_now();
        }
    }
    plane.shutdown();

    // Async: awaited `call_costed` futures through the futures frontend;
    // its reactor routes completions (the async flavor) off the same
    // sweeps.
    let aplane = AsyncPlane::start(
        std::sync::Arc::clone(&kernel),
        PlaneConfig::builder().drainers(1).slots(1).build(),
    )
    .expect("start async plane");
    let async_session = aplane.session(clients[3]).expect("attach async session");
    for i in 0..OPS {
        let _ = block_on(async_session.call_costed(func(i), i.to_le_bytes()));
    }
    drop(async_session);
    aplane.shutdown();

    kernel.metrics_report()
}

/// The outcome of one scenario run.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioReport {
    /// Which scenario ran.
    pub kind: ScenarioKind,
    /// Worker threads used.
    pub threads: usize,
    /// Total requests issued.
    pub total_ops: u64,
    /// Wall-clock duration of the traffic phase.
    pub elapsed: Duration,
    /// Requests per second across all threads.
    pub ops_per_sec: f64,
    /// Requests allowed (deterministic for a given config + seed).
    pub allows: u64,
    /// Requests denied (deterministic for a given config + seed).
    pub denies: u64,
    /// Epoch bumps folded in by the churn actor (0 for other scenarios).
    pub epoch_bumps: u64,
    /// Decision-cache counters for the run. For kernel-backed kinds the
    /// hits/misses are the kernel's tier-blind gate counters (L0 and
    /// sharded hits alike); occupancy and evictions are the sharded tier's.
    pub cache: CacheStats,
    /// Simulated per-call latency quantiles for the dispatch flavor the
    /// scenario drives (`None` for gateway-only scenarios, which never
    /// enter a kernel dispatch path).
    pub latency: Option<LatencySummary>,
}

impl ScenarioReport {
    /// Cache hit rate over the run.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<8} {:>2} thr {:>9} ops {:>12.0} ops/sec  hit-rate {:>5.1}%  allow {:>8} deny {:>8} evict {:>6} bumps {:>4}",
            self.kind.name(),
            self.threads,
            self.total_ops,
            self.ops_per_sec,
            self.hit_rate() * 100.0,
            self.allows,
            self.denies,
            self.cache.evictions,
            self.epoch_bumps,
        )?;
        if let Some(latency) = &self.latency {
            write!(f, "  {latency}")?;
        }
        Ok(())
    }
}

/// Run one scenario: build the universe, drive the gateway from
/// `cfg.threads` worker threads (plus the churn actor for
/// [`ScenarioKind::Churn`]), and aggregate the per-thread counters over a
/// crossbeam channel. [`ScenarioKind::KernelDispatch`] instead drives the
/// real kernel dispatch path and reports the *embedded* module gateway's
/// cache counters.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    match cfg.kind {
        ScenarioKind::KernelDispatch | ScenarioKind::SessionPool => {
            return run_kernel_scenario(cfg)
        }
        ScenarioKind::RingDispatch => return run_ring_scenario(cfg),
        ScenarioKind::PlaneDispatch | ScenarioKind::DrainerStall | ScenarioKind::ArenaMix => {
            return run_plane_scenario(cfg)
        }
        ScenarioKind::AsyncDispatch => return run_async_scenario(cfg),
        ScenarioKind::MultiTenant => return crate::qos_scenario::run_multi_tenant_scenario(cfg),
        ScenarioKind::ChurnStorm => return crate::qos_scenario::run_churn_storm_scenario(cfg),
        ScenarioKind::HerdEstablish => return crate::qos_scenario::run_herd_scenario(cfg),
        ScenarioKind::DrainerCrash => return crate::qos_scenario::run_drainer_crash_scenario(cfg),
        _ => {}
    }
    let (gateway, universe) = build_universe(cfg);
    let actors = cfg.threads + usize::from(cfg.kind == ScenarioKind::Churn);
    let (tx, rx) = channel::bounded::<WorkerStats>(actors);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread_idx in 0..cfg.threads {
            let tx = tx.clone();
            let gateway = &gateway;
            let universe = &universe;
            scope.spawn(move || {
                let stats = run_worker(gateway, universe, cfg, thread_idx as u64);
                tx.send(stats).expect("report worker stats");
            });
        }
        if cfg.kind == ScenarioKind::Churn {
            let tx = tx.clone();
            let gateway = &gateway;
            let cycles = (cfg.total_ops() / cfg.churn_interval).max(1);
            scope.spawn(move || {
                let stats = run_churn_actor(gateway, cycles);
                tx.send(stats).expect("report churn stats");
            });
        }
    });
    let elapsed = start.elapsed();

    let mut allows = 0;
    let mut denies = 0;
    let mut epoch_bumps = 0;
    for _ in 0..actors {
        let stats = rx.recv().expect("collect actor stats");
        allows += stats.allows;
        denies += stats.denies;
        epoch_bumps += stats.epoch_bumps;
    }

    let total_ops = cfg.total_ops();
    ScenarioReport {
        kind: cfg.kind,
        threads: cfg.threads,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        allows,
        denies,
        epoch_bumps,
        cache: gateway.cache_stats(),
        latency: None,
    }
}

/// The [`ScenarioKind::KernelDispatch`] / [`ScenarioKind::SessionPool`]
/// runner: N threads hammer `sys_smod_call` on one shared kernel — one
/// pinned session each, or a `cfg.tenants`-sized session pool round-robined
/// across the workers — with all checks served by the module's embedded
/// gateway.
fn run_kernel_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let n_clients = match cfg.kind {
        ScenarioKind::SessionPool => cfg.tenants.max(cfg.threads),
        _ => cfg.threads,
    };
    let dispatch = build_dispatch_kernel_with_clients(cfg, n_clients);
    let (tx, rx) = channel::bounded::<WorkerStats>(cfg.threads);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread_idx in 0..cfg.threads {
            let tx = tx.clone();
            let dispatch = &dispatch;
            scope.spawn(move || {
                let stats = run_kernel_worker(dispatch, cfg, thread_idx as u64);
                tx.send(stats).expect("report kernel worker stats");
            });
        }
    });
    let elapsed = start.elapsed();

    let mut allows = 0;
    let mut denies = 0;
    for _ in 0..cfg.threads {
        let stats = rx.recv().expect("collect kernel worker stats");
        allows += stats.allows;
        denies += stats.denies;
    }

    let cache = layered_cache_stats(&dispatch.kernel, dispatch.module);
    let total_ops = cfg.total_ops();
    ScenarioReport {
        kind: cfg.kind,
        threads: cfg.threads,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        allows,
        denies,
        epoch_bumps: dispatch.kernel.smod_epoch(),
        cache,
        latency: latency_of(&dispatch.kernel, Flavor::Syscall),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_accounts_for_every_request() {
        for kind in ScenarioKind::ALL {
            let report = run_scenario(&ScenarioConfig::builder(kind).quick().seed(7).build());
            assert_eq!(
                report.allows + report.denies,
                report.total_ops,
                "{} lost requests",
                kind.name()
            );
            assert!(report.allows > 0, "{} never allowed", kind.name());
            assert!(report.denies > 0, "{} never denied", kind.name());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_despite_threads() {
        for kind in ScenarioKind::ALL {
            let a = run_scenario(&ScenarioConfig::builder(kind).quick().seed(42).build());
            let b = run_scenario(&ScenarioConfig::builder(kind).quick().seed(42).build());
            assert_eq!(
                (a.allows, a.denies),
                (b.allows, b.denies),
                "{} not deterministic",
                kind.name()
            );
        }
        // And the seed genuinely shapes the traffic (checked on uniform,
        // where the allow count has enough entropy to not collide).
        let a = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::Uniform)
                .quick()
                .seed(42)
                .build(),
        );
        let c = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::Uniform)
                .quick()
                .seed(43)
                .build(),
        );
        assert_ne!((a.allows, a.denies), (c.allows, c.denies));
    }

    #[test]
    fn thrash_never_hits_and_zipf_mostly_hits() {
        let thrash = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::AdversarialThrash)
                .quick()
                .seed(1)
                .build(),
        );
        assert_eq!(thrash.cache.hits, 0, "thrash keys must be unique");
        assert!(thrash.cache.evictions > 0, "thrash must overflow the cache");

        let zipf = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::ZipfianHotKey)
                .quick()
                .seed(1)
                .build(),
        );
        assert!(
            zipf.hit_rate() > 0.9,
            "zipf hit rate {:.3} suspiciously low",
            zipf.hit_rate()
        );
    }

    #[test]
    fn kernel_dispatch_serves_checks_from_the_embedded_cache() {
        let report = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::KernelDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(report.allows + report.denies, report.total_ops);
        assert!(report.allows > 0, "allowed operations must dominate");
        assert!(report.denies > 0, "the restricted operation must be denied");
        assert!(
            report.hit_rate() > 0.9,
            "kernel-path hit rate {:.3} suspiciously low",
            report.hit_rate()
        );
    }

    #[test]
    fn kernel_dispatch_uncached_baseline_never_hits() {
        let mut cfg = ScenarioConfig::builder(ScenarioKind::KernelDispatch)
            .quick()
            .seed(11)
            .build();
        cfg.cache = CacheConfig::disabled();
        let report = run_scenario(&cfg);
        assert_eq!(report.cache.hits, 0, "disabled cache must never hit");
        // Identical traffic, identical decisions: the cache only changes
        // the cost of computing an answer, never the answer.
        let cached = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::KernelDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(
            (report.allows, report.denies),
            (cached.allows, cached.denies)
        );
    }

    #[test]
    fn session_pool_spreads_load_over_many_sessions() {
        let cfg = ScenarioConfig::builder(ScenarioKind::SessionPool)
            .quick()
            .seed(11)
            .build();
        let dispatch = build_dispatch_kernel_with_clients(&cfg, cfg.tenants.max(cfg.threads));
        assert_eq!(
            dispatch.clients.len(),
            cfg.tenants,
            "pool must establish one session per tenant"
        );
        let report = run_scenario(&cfg);
        assert_eq!(report.allows + report.denies, report.total_ops);
        // Same seed, same operation streams: the pool answers exactly what
        // the pinned-session scenario answers — shard pressure must not
        // change a single decision.
        let pinned = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::KernelDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(
            (report.allows, report.denies),
            (pinned.allows, pinned.denies)
        );
    }

    #[test]
    fn ring_dispatch_matches_single_call_decisions() {
        let ring = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::RingDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(ring.allows + ring.denies, ring.total_ops);
        assert!(ring.denies > 0, "restricted slice must be denied");
        // The batch path consults the same embedded gateway: the
        // allow/deny split is identical to the single-call scenario and
        // the cache serves the steady state.
        let single = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::KernelDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!((ring.allows, ring.denies), (single.allows, single.denies));
        assert!(
            ring.hit_rate() > 0.9,
            "ring-path hit rate {:.3} suspiciously low",
            ring.hit_rate()
        );
    }

    #[test]
    fn plane_dispatch_matches_single_call_decisions() {
        let plane = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(plane.allows + plane.denies, plane.total_ops);
        assert!(plane.denies > 0, "restricted slice must be denied");
        // Producers never trap, drainers resolve each session once per
        // sweep — and none of that may change a single decision: the
        // allow/deny split is identical to the single-call scenario.
        let single = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::KernelDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!((plane.allows, plane.denies), (single.allows, single.denies));
        assert!(
            plane.hit_rate() > 0.9,
            "plane-path hit rate {:.3} suspiciously low",
            plane.hit_rate()
        );
    }

    #[test]
    fn plane_dispatch_honours_the_drainer_knob() {
        // producers >> drainers by default; an explicit drainer count is
        // respected (observable through determinism of the outcome, and
        // through the auto rule).
        let cfg = ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
            .quick()
            .seed(3)
            .build();
        assert_eq!(cfg.effective_drainers(), 1, "auto: max(1, threads/4)");
        let auto = run_scenario(&cfg);
        let two = run_scenario(&ScenarioConfig { drainers: 2, ..cfg });
        assert_eq!(
            ScenarioConfig { drainers: 2, ..cfg }.effective_drainers(),
            2
        );
        // Drainer count is a throughput knob, never a correctness knob.
        assert_eq!((auto.allows, auto.denies), (two.allows, two.denies));
    }

    #[test]
    fn drainer_stall_delays_but_never_changes_decisions() {
        let stall = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::DrainerStall)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(stall.allows + stall.denies, stall.total_ops);
        // The antagonist claims readiness bits and drain flags and sits
        // on them — work is *delayed*, never lost or altered: the split
        // matches the unstalled plane run bit for bit.
        let plane = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!((stall.allows, stall.denies), (plane.allows, plane.denies));
        // The stalled run still records its latency distribution.
        let latency = stall.latency.expect("plane flavor recorded");
        assert!(latency.count > 0 && latency.p50 > 0 && latency.p999 >= latency.p50);
    }

    #[test]
    fn arena_mix_changes_payload_sizes_but_never_decisions() {
        let arena = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::ArenaMix)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!(arena.allows + arena.denies, arena.total_ops);
        // Every 4th submission rides the arena as a 64 KiB block instead
        // of an 8-byte inline copy. Payload placement is invisible to
        // policy: the allow/deny split matches the all-inline plane run
        // bit for bit. (run_plane_scenario itself asserts the arena
        // drains back to zero bytes in flight after shutdown.)
        let plane = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .quick()
                .seed(11)
                .build(),
        );
        assert_eq!((arena.allows, arena.denies), (plane.allows, plane.denies));
        let latency = arena.latency.expect("plane flavor recorded");
        assert!(latency.count > 0);
    }

    #[test]
    fn dispatch_scenarios_report_latency_quantiles() {
        for kind in [
            ScenarioKind::KernelDispatch,
            ScenarioKind::RingDispatch,
            ScenarioKind::PlaneDispatch,
            ScenarioKind::AsyncDispatch,
        ] {
            let report = run_scenario(&ScenarioConfig::builder(kind).quick().seed(3).build());
            let latency = report
                .latency
                .unwrap_or_else(|| panic!("{} must report latency", kind.name()));
            assert!(latency.count > 0, "{} recorded nothing", kind.name());
            assert!(
                latency.p50 > 0 && latency.p99 >= latency.p50 && latency.p999 >= latency.p99,
                "{} quantiles not monotone: {latency}",
                kind.name()
            );
        }
        // Gateway-only scenarios never enter a kernel dispatch path.
        let uniform = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::Uniform)
                .quick()
                .seed(3)
                .build(),
        );
        assert!(uniform.latency.is_none());
    }

    #[test]
    fn metrics_demo_lights_up_every_flavor() {
        let report = run_metrics_demo(7);
        // One kernel, one report: every dispatch flavor must have
        // recorded samples — a "(no samples)" row means a path lost its
        // instrumentation.
        assert!(
            !report.contains("(no samples)"),
            "a flavor recorded nothing:\n{report}"
        );
        for flavor in Flavor::ALL {
            assert!(
                report.contains(flavor.name()),
                "missing {} row:\n{report}",
                flavor.name()
            );
        }
        assert!(report.contains("gate "), "missing counter line:\n{report}");
    }

    #[test]
    fn churn_bumps_epochs_but_never_changes_decisions() {
        let uniform = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::Uniform)
                .quick()
                .seed(5)
                .build(),
        );
        let churn = run_scenario(
            &ScenarioConfig::builder(ScenarioKind::Churn)
                .quick()
                .seed(5)
                .build(),
        );
        assert!(churn.epoch_bumps > 0, "churn actor never detached");
        // The hit *counters* are timing-dependent (the unpaced actor races
        // the workers), so they are not asserted against uniform's here;
        // what coherence guarantees — and what must hold — is that the
        // identical traffic produces the identical allow/deny split no
        // matter how invalidation interleaves.
        assert_eq!(
            (churn.allows, churn.denies),
            (uniform.allows, uniform.denies)
        );
    }

    #[test]
    fn async_dispatch_multiplexes_logical_clients_over_few_threads() {
        // Far more logical clients than executor threads: the futures
        // frontend must still account for every request, and the allow /
        // deny split must be a pure function of the seed.
        let cfg = ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
            .quick()
            .seed(9)
            .threads(2)
            .logical_clients(48)
            .build();
        assert_eq!(cfg.effective_logical_clients(), 48);
        let a = run_scenario(&cfg);
        assert_eq!(a.allows + a.denies, a.total_ops, "async lost requests");
        assert!(a.allows > 0 && a.denies > 0);
        let b = run_scenario(&cfg);
        assert_eq!((a.allows, a.denies), (b.allows, b.denies));
        // Auto sizing kicks in when the knob is unset: threads x 32 tasks.
        let auto = ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
            .quick()
            .threads(2)
            .build();
        assert_eq!(auto.effective_logical_clients(), 64);
    }
}
