//! The SecModule syscall family (paper Figure 4) and session management.
//!
//! The dispatch path (`sys_smod_call`) takes `&self` and is driven from
//! many threads at once. Its per-call credential/policy check goes through
//! the module's embedded [`secmod_policy::Gateway`]: on the hot path the
//! decision is one sharded-cache lookup (the kernel folds its `smod_epoch`
//! into the gateway first, so a detach/remove that completed before the
//! call began makes every older cached decision unreachable); only a miss
//! falls back to the full `PolicyEngine` fixpoint, and the cost model
//! charges the cached vs uncached cost accordingly.

use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::msgqueue::MsgQueueId;
use crate::proc::{Pid, ProcState, Process, SmodLink};
use crate::smodreg::{FunctionTable, HandleCtx, RegisteredModule};
use crate::table::ProcRef;
use crate::trace::Event;
use crate::SysResult;
use parking_lot::RwLock;
use secmod_module::{ModuleId, SmodPackage};
use secmod_obs::Flavor;
use secmod_policy::{PolicyEngine, Principal};
use secmod_vm::VmSpace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

/// A SecModule session identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// The handshake state of a session (Figure 1 steps 2–4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// `sys_smod_start_session` completed: the handle exists but has not
    /// yet reported in.
    Created,
    /// `sys_smod_session_info` completed: the address spaces are shared and
    /// the handle is waiting for work.
    HandleReady,
    /// `sys_smod_handle_info` completed: calls may be dispatched.
    Established,
}

impl SessionState {
    fn from_u8(v: u8) -> SessionState {
        match v {
            0 => SessionState::Created,
            1 => SessionState::HandleReady,
            _ => SessionState::Established,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SessionState::Created => 0,
            SessionState::HandleReady => 1,
            SessionState::Established => 2,
        }
    }
}

/// The memoised per-session [`secmod_policy::AccessRequest`] prototype:
/// the owned pieces
/// of the per-call credential question, pinned at session establishment so
/// `sys_smod_call` (and the batched path) builds its request by borrowing
/// instead of cloning the client name and principal on every dispatch.
///
/// Memoisation does **not** weaken the paper's "credentials are
/// re-verified on every call": each dispatch still consults the live
/// credential, but only to compare `(uid, principal fingerprint)` against
/// this prototype — an allocation-free u64 comparison. Only when the live
/// credential no longer matches (revocation, key swap) does the dispatch
/// fall back to re-deriving the request from the process, which then
/// denies or re-evaluates exactly as the un-memoised path did. The name
/// component can only change through `sys_execve`, which detaches the
/// session first.
#[derive(Debug)]
pub(crate) struct CallProto {
    /// The client process name (the request's `app_domain`).
    pub(crate) client_name: String,
    /// The principal the client's credential identifies for this module
    /// (`None` when the credential carries no material for it — every
    /// check then denies, as the uncached path always has).
    pub(crate) principal: Option<Principal>,
    /// `principal`'s 64-bit fingerprint, compared against the live
    /// credential on every dispatch.
    pub(crate) principal_fp: Option<u64>,
    /// The client uid.
    pub(crate) uid: u32,
    /// The decision-cache context key of this identity's calls to the
    /// session's module (`None` exactly when `principal` is): hashed once
    /// here so a dispatch builds its cache key without hashing strings.
    pub(crate) context: Option<secmod_policy::ContextKey>,
}

impl CallProto {
    /// Does the live credential still present the identity this prototype
    /// was memoised from?
    pub(crate) fn matches(&self, cred: &crate::cred::Credential, module: &str) -> bool {
        cred.uid == self.uid && cred.principal_fp64(module) == self.principal_fp
    }
}

/// An active client/handle session. Shared (`Arc`) between the session
/// table and in-flight dispatches; the handshake state and call counter
/// are atomics so the dispatch path never takes a session lock. The
/// session also pins the registered module and both processes' lock
/// handles. A dispatch resolves it once (the caller's link, then one
/// session lookup) and then needs no map at all: the live-credential
/// compare and the body's pair lock go through the pinned handles, and
/// the gateway and bodies through the pinned module — no process-table
/// or registry traffic after the lookup.
#[derive(Debug)]
pub struct Session {
    /// The session id.
    pub id: SessionId,
    /// The client process.
    pub client: Pid,
    /// The handle co-process.
    pub handle: Pid,
    /// The module this session grants access to.
    pub module: ModuleId,
    /// Message queue used for client → handle call delivery.
    pub call_queue: MsgQueueId,
    /// Message queue used for handle → client replies.
    pub reply_queue: MsgQueueId,
    state: AtomicU8,
    calls: AtomicU64,
    /// The registered module (shared with the registry): dispatch goes
    /// straight to its gateway and function table.
    module_ref: Arc<RegisteredModule>,
    /// Memoised per-call access-request prototype (no per-dispatch clones).
    pub(crate) proto: CallProto,
    /// The client process's lock handle.
    client_ref: ProcRef,
    /// The handle process's lock handle.
    handle_ref: ProcRef,
}

impl Session {
    /// Handshake state.
    pub fn state(&self) -> SessionState {
        SessionState::from_u8(self.state.load(SeqCst))
    }

    /// Number of calls dispatched over this session.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// The registered module this session dispatches into.
    pub fn module_ref(&self) -> &Arc<RegisteredModule> {
        &self.module_ref
    }

    /// Advance the handshake if it is exactly at `from`; returns whether
    /// the transition happened (false ⇒ out-of-order handshake step).
    fn transition(&self, from: SessionState, to: SessionState) -> bool {
        self.state
            .compare_exchange(from.as_u8(), to.as_u8(), SeqCst, SeqCst)
            .is_ok()
    }

    pub(crate) fn note_call(&self) {
        self.calls.fetch_add(1, Relaxed);
    }

    /// Record `n` dispatched calls at once (the batched path counts per
    /// chunk instead of per entry).
    pub(crate) fn note_calls(&self, n: u64) {
        self.calls.fetch_add(n, Relaxed);
    }

    /// Lock the client/handle pair (pid-ordered) and run `f(handle,
    /// client)`.
    pub(crate) fn with_pair<R>(
        &self,
        f: impl FnOnce(&mut Process, &mut Process) -> R,
    ) -> SysResult<R> {
        crate::table::lock_pair_ordered(
            self.handle,
            &self.handle_ref,
            self.client,
            &self.client_ref,
            f,
        )
    }
}

const SESSION_SHARDS: usize = 16;

/// The kernel's table of active sessions: sharded `RwLock`s around shared
/// [`Session`]s. Dispatch reads clone the `Arc` and drop the shard lock;
/// only session establishment and teardown take a write lock, and
/// concurrent dispatches on different sessions touch different shard lock
/// words.
#[derive(Debug)]
pub struct SessionTable {
    shards: [RwLock<BTreeMap<SessionId, Arc<Session>>>; SESSION_SHARDS],
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }
}

impl SessionTable {
    /// Create an empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    fn shard(&self, id: SessionId) -> &RwLock<BTreeMap<SessionId, Arc<Session>>> {
        &self.shards[crate::clock::stripe_index(id.0 as u64, SESSION_SHARDS)]
    }

    /// Look up a session.
    pub fn get(&self, id: SessionId) -> Option<Arc<Session>> {
        self.shard(id).read().get(&id).cloned()
    }

    /// Number of active sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Are there no active sessions?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Is any active session bound to `module`?
    pub fn any_for_module(&self, module: ModuleId) -> bool {
        self.shards
            .iter()
            .any(|s| s.read().values().any(|session| session.module == module))
    }

    /// Snapshot of the active sessions (ascending session id).
    pub fn snapshot(&self) -> Vec<Arc<Session>> {
        let mut all: Vec<Arc<Session>> = self
            .shards
            .iter()
            .flat_map(|s| s.read().values().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_unstable_by_key(|s| s.id);
        all
    }

    fn insert(&self, session: Arc<Session>) {
        self.shard(session.id).write().insert(session.id, session);
    }

    fn remove(&self, id: SessionId) -> Option<Arc<Session>> {
        self.shard(id).write().remove(&id)
    }
}

/// Arguments to `sys_smod_call` (paper: `sys_smod_call(framep, rtnaddr,
/// m_id, funcID)`; the argument words themselves live on the shared stack
/// and are passed here as marshalled bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmodCallArgs {
    /// The module being called.
    pub m_id: ModuleId,
    /// The function id within the module's stub table.
    pub func_id: u32,
    /// The client's frame pointer at the call site (bookkeeping only).
    pub frame_pointer: u64,
    /// The client's return address (bookkeeping only).
    pub return_address: u64,
    /// Marshalled argument bytes (what the client stub placed on the shared
    /// stack).
    pub args: Vec<u8>,
}

/// How the module key reaches the kernel at registration time (§4.4).
#[derive(Clone, Debug)]
pub enum ModuleKeyDelivery {
    /// Creator and host are the same principal: raw key material.
    Raw {
        /// The AES key bytes.
        key: Vec<u8>,
        /// The CTR nonce used when sealing.
        nonce: [u8; 8],
    },
    /// Multi-user case: the key is wrapped with the host system's RSA
    /// public key.
    Wrapped {
        /// RSA-wrapped key blob.
        blob: Vec<u8>,
        /// The CTR nonce used when sealing.
        nonce: [u8; 8],
    },
    /// The package is not encrypted (unmap-based protection only).
    None,
}

impl Kernel {
    // ----------------------------------------------------------------
    // Registration (305 sys_smod_add, 306 sys_smod_remove, 301 sys_smod_find)
    // ----------------------------------------------------------------

    /// `sys_smod_add`: register a sealed module with the kernel.
    ///
    /// The kernel imports the module key into its key store (it never again
    /// leaves kernel space), verifies the package MAC, unseals the text and
    /// checks the plaintext fingerprint, and stores the module together with
    /// its access policy — fronted by a shared, decision-caching
    /// [`secmod_policy::Gateway`] sized by [`Kernel::gate_config`] — and
    /// function bodies.
    pub fn sys_smod_add(
        &self,
        registered_by: Pid,
        package: SmodPackage,
        key_delivery: ModuleKeyDelivery,
        mac_key: &[u8],
        policy: PolicyEngine,
        functions: FunctionTable,
    ) -> SysResult<ModuleId> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(registered_by, trap);
        let uid = self.procs.with(registered_by, |p| p.cred.uid)?;

        package.verify_mac(mac_key).map_err(|_| Errno::EACCES)?;

        let label = format!("{}-{}", package.image.name, package.image.version);
        let key = match key_delivery {
            ModuleKeyDelivery::Raw { key, nonce } => self
                .keystore
                .import_raw(&label, &key, nonce)
                .map_err(|_| Errno::EINVAL)?,
            ModuleKeyDelivery::Wrapped { blob, nonce } => self
                .keystore
                .import_wrapped(&label, &blob, nonce)
                .map_err(|_| Errno::EACCES)?,
            ModuleKeyDelivery::None => {
                if package.encrypted {
                    return Err(Errno::EINVAL);
                }
                // A key is still generated for MAC-style bookkeeping.
                self.keystore
                    .generate(&label, 16)
                    .map_err(|_| Errno::EINVAL)?
            }
        };

        let encryptor = self.keystore.encryptor(key).map_err(|_| Errno::EINVAL)?;
        let plaintext = package.unseal(&encryptor).map_err(|_| Errno::EACCES)?;

        let id = self.registry.allocate_id();
        let name = package.image.name.clone();
        self.registry.insert(RegisteredModule::new(
            id,
            package,
            plaintext,
            key,
            secmod_policy::Gateway::new(policy, self.gate_config),
            functions,
            uid,
        ));
        self.tracer
            .record(Event::ModuleRegistered { module: id, name });
        Ok(id)
    }

    /// `sys_smod_remove`: deregister a module.  Only the registering uid (or
    /// root) may remove it, and not while sessions are active.
    pub fn sys_smod_remove(&self, caller: Pid, m_id: ModuleId) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(caller, trap);
        let uid = self.procs.with(caller, |p| p.cred.uid)?;
        {
            let module = self.registry.get(m_id)?;
            if uid != 0 && uid != module.registered_by_uid {
                return Err(Errno::EPERM);
            }
        }
        // The session check runs under the registry write lock so it
        // cannot race an in-flight sys_smod_start_session, which publishes
        // its session under the registry *read* lock (see
        // `SmodRegistry::remove_if`).
        let removed = self
            .registry
            .remove_if(m_id, || !self.sessions.any_for_module(m_id))?;
        let _ = self.keystore.revoke(removed.key);
        self.smod_epoch.fetch_add(1, SeqCst);
        self.tracer.record(Event::ModuleRemoved { module: m_id });
        Ok(())
    }

    /// `sys_smod_find(name, version)`: look up a registered module.
    /// A version of 0 means "latest".
    pub fn sys_smod_find(&self, caller: Pid, name: &str, version: u32) -> SysResult<ModuleId> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(caller, trap);
        if !self.procs.exists(caller) {
            return Err(Errno::ESRCH);
        }
        let id = self.registry.find(name, version)?;
        self.tracer.record(Event::ModuleFound {
            client: caller,
            module: id,
        });
        Ok(id)
    }

    // ----------------------------------------------------------------
    // Session establishment (320, 303, 304)
    // ----------------------------------------------------------------

    /// `sys_smod_start_session`: the kernel verifies the client's
    /// credentials against the module policy (through the module's shared
    /// gateway, so repeated session churn against the same module hits the
    /// decision cache), "forcibly forks" the handle co-process (which alone
    /// receives the module text and a small secret heap/stack segment), and
    /// links the pair.
    pub fn sys_smod_start_session(
        &self,
        client: Pid,
        m_id: ModuleId,
    ) -> SysResult<(SessionId, Pid)> {
        let cost = self.cost.syscall_trap_ns + self.cost.fork_ns;
        self.charge(client, cost);

        if self.procs.with(client, |p| p.smod.is_some())? {
            // One session per client in this prototype (the paper's model:
            // the handle is started per client request).
            return Err(Errno::EBUSY);
        }

        let module = self.registry.get(m_id)?;
        let module_name = module.package.image.name.clone();

        // Credential / policy check for session establishment. A session
        // may be established if the credential authorises the session
        // itself or *any* exported function — individual calls are still
        // checked one by one in sys_smod_call. Each candidate question
        // goes through the gateway, so a cycling client re-establishing a
        // session answers from cache.
        let (client_name, client_cred) = self
            .procs
            .with(client, |p| (p.name.clone(), p.cred.clone()))?;
        module.gateway.observe_kernel_epoch(self.smod_epoch());
        let mut all_cached = true;
        let principal = client_cred.principal_for(&module_name);
        // No credential for this module denies outright, without touching
        // the gateway (and therefore at the cached-decision price).
        let allowed = principal.is_some()
            && std::iter::once("__start_session__")
                .chain(
                    module
                        .package
                        .stub_table
                        .stubs
                        .iter()
                        .map(|s| s.symbol.as_str()),
                )
                .any(|function| {
                    let (allowed, tier) = module.check_operation(
                        &client_name,
                        principal.as_ref(),
                        client_cred.uid,
                        function,
                    );
                    all_cached &= tier.is_cached();
                    allowed
                });
        let policy_cost = if all_cached {
            self.cost.cached_decision_ns + self.cost.credential_check_ns
        } else {
            self.cost.policy_per_node_ns * module.policy_complexity as u64
                + self.cost.credential_check_ns
        };
        self.charge(client, policy_cost);
        if !allowed {
            return Err(Errno::EACCES);
        }

        // Build the handle's address space: module text only in the handle.
        let handle_name = format!("smod-handle[{}:{}]", module_name, client);
        let handle_vm = VmSpace::new_user(
            &handle_name,
            self.layout,
            Arc::new(module.plaintext.text.data.clone()),
            1,
            1,
        )
        .map_err(Errno::from)?;
        let handle = self.procs.allocate_pid();
        let mut handle_proc =
            crate::proc::Process::new(handle, client, &handle_name, client_cred.clone(), handle_vm);
        handle_proc.flags.no_coredump = true;
        handle_proc.flags.no_ptrace = true;
        handle_proc.flags.smod_handle = true;
        self.procs.insert(handle_proc);

        // Create the synchronisation queues (SYSV MSG, §4.1 "second goal").
        let call_queue = self.msgs.msgget();
        let reply_queue = self.msgs.msgget();

        let session = SessionId(self.next_session.fetch_add(1, Relaxed));
        let session_entry = Arc::new(Session {
            id: session,
            client,
            handle,
            module: m_id,
            call_queue,
            reply_queue,
            state: AtomicU8::new(SessionState::Created.as_u8()),
            calls: AtomicU64::new(0),
            module_ref: Arc::clone(&module),
            proto: CallProto {
                principal_fp: principal.as_ref().map(Principal::fingerprint),
                context: principal
                    .as_ref()
                    .map(|p| module.context_key(&client_name, p, client_cred.uid)),
                principal,
                client_name,
                uid: client_cred.uid,
            },
            client_ref: self.procs.get(client)?,
            handle_ref: self.procs.get(handle)?,
        });
        // Publish the session under the registry read lock, re-checking
        // that the module is still registered: a concurrent
        // sys_smod_remove holds the registry *write* lock across its
        // no-active-sessions check, so it either sees this session (and
        // returns EBUSY) or has already removed the module (and this
        // re-check fails) — a session can never be established against a
        // removed module.
        let published = self
            .registry
            .if_present(m_id, || self.sessions.insert(session_entry));
        if published.is_err() {
            self.procs.remove(handle);
            let _ = self.msgs.remove(call_queue);
            let _ = self.msgs.remove(reply_queue);
            return Err(Errno::ENOENT);
        }

        // Link the pair and apply the client-side restrictions. The link is
        // a check-and-set under the client's lock so two racing
        // start_sessions for one client cannot both succeed.
        let linked = self.procs.with_mut(client, |p| {
            if p.smod.is_some() {
                return false;
            }
            p.flags.smod_client = true;
            p.flags.no_coredump = true;
            p.flags.no_ptrace = true;
            p.smod = Some(SmodLink {
                session,
                peer: handle,
                module: m_id,
            });
            true
        })?;
        if !linked {
            // Lost the race: tear the half-built session down again.
            self.sessions.remove(session);
            self.procs.remove(handle);
            let _ = self.msgs.remove(call_queue);
            let _ = self.msgs.remove(reply_queue);
            return Err(Errno::EBUSY);
        }
        self.procs.with_mut(handle, |h| {
            h.smod = Some(SmodLink {
                session,
                peer: client,
                module: m_id,
            });
        })?;
        module.note_session_started(client.0 as u64);
        self.tracer.record(Event::SessionStarted {
            session,
            client,
            handle,
            module: m_id,
        });
        Ok((session, handle))
    }

    /// `sys_smod_session_info`: called *by the handle* (Figure 1 step 3).
    /// The kernel forcibly unmaps the handle's data/heap/stack and shares
    /// the client's pages into the same address range
    /// (`uvmspace_force_share`), then maps the handle's secret stack/heap.
    pub fn sys_smod_session_info(&self, handle: Pid) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(handle, trap);
        let link = self.procs.with(handle, |p| p.smod)?.ok_or(Errno::EINVAL)?;
        let session = self.sessions.get(link.session).ok_or(Errno::EINVAL)?;
        if session.handle != handle {
            return Err(Errno::EPERM);
        }
        if !session.transition(SessionState::Created, SessionState::HandleReady) {
            return Err(Errno::EINVAL);
        }

        let share_range = self.layout.share_region();
        let shared_entries =
            self.procs
                .with_pair_mut(handle, session.client, |handle_proc, client_proc| {
                    let shared = handle_proc
                        .vm
                        .force_share_from(&mut client_proc.vm, share_range)
                        .map_err(Errno::from)?;
                    handle_proc.vm.map_secret_region().map_err(Errno::from)?;
                    Ok::<usize, Errno>(shared)
                })??;
        let share_cost = self.cost.force_share_per_entry_ns * shared_entries as u64;
        self.charge(handle, share_cost);

        self.tracer.record(Event::HandleReady {
            session: session.id,
            shared_entries,
        });
        Ok(())
    }

    /// `sys_smod_handle_info`: called *by the client* to conclude the
    /// handshake (Figure 1 step 4).
    pub fn sys_smod_handle_info(&self, client: Pid) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(client, trap);
        let link = self.procs.with(client, |p| p.smod)?.ok_or(Errno::EINVAL)?;
        let session = self.sessions.get(link.session).ok_or(Errno::EINVAL)?;
        if session.client != client {
            return Err(Errno::EPERM);
        }
        if !session.transition(SessionState::HandleReady, SessionState::Established) {
            return Err(Errno::EINVAL);
        }
        self.tracer.record(Event::HandshakeComplete {
            session: session.id,
        });
        Ok(())
    }

    // ----------------------------------------------------------------
    // Dispatch (307 sys_smod_call)
    // ----------------------------------------------------------------

    /// `sys_smod_call`: the kernel-mediated indirect dispatch of Figure 3.
    ///
    /// The kernel verifies that the caller really is the client of an
    /// established session for `m_id`, re-checks the credentials against
    /// the module policy for the named function — through the module's
    /// shared gateway, so the hot path is one decision-cache lookup and
    /// only a miss runs the full policy fixpoint — relays the call to the
    /// handle (message send, context switch), runs the function body with
    /// access to the shared address space, and relays the result back.
    ///
    /// Takes `&self`: any number of threads may dispatch concurrently;
    /// calls on different sessions only share read locks and the module's
    /// sharded decision cache.
    pub fn sys_smod_call(&self, caller: Pid, call: SmodCallArgs) -> SysResult<Vec<u8>> {
        let link = self.procs.with(caller, |p| p.smod)?.ok_or(Errno::EPERM)?;
        let session = self.sessions.get(link.session).ok_or(Errno::EPERM)?;
        self.smod_call_on(caller, &session, call.m_id, call.func_id, &call.args)
    }

    /// Everything `sys_smod_call` does after resolving the caller's
    /// session: validation, the per-call credential/policy check, the
    /// body in the handle, and the bookkeeping. [`Kernel::dispatch_one`]
    /// (the `Dispatcher` impl) enters here with the session it already
    /// resolved and the caller's borrowed argument bytes, so one trap
    /// costs one caller → session lookup and no argument copy.
    ///
    /// [`Kernel::dispatch_one`]: crate::dispatch::Dispatcher::dispatch_one
    pub(crate) fn smod_call_on(
        &self,
        caller: Pid,
        session: &Session,
        m_id: ModuleId,
        func_id: u32,
        args: &[u8],
    ) -> SysResult<Vec<u8>> {
        // --- validation -------------------------------------------------
        // Only the client process bound to the session may call through it —
        // this is the "handle must be valid only for a specific process"
        // requirement (question 2 in §1).
        if caller != session.client {
            return Err(Errno::EPERM);
        }
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        if m_id != session.module {
            return Err(Errno::EACCES);
        }

        // --- per-call credential / policy check -------------------------
        // The decision comes from the module's shared gateway: the kernel
        // epoch is folded in first (cheap monotone atomic max), so any
        // detach/remove that completed before this call started has already
        // invalidated every older cached decision. The module comes from
        // the session itself — zero registry traffic per call.
        let module = session.module_ref();
        let stub = module
            .package
            .stub_table
            .by_id(func_id)
            .ok_or(Errno::ENOENT)?;
        // The live credential is consulted on every call, through the
        // session's pinned client handle (the same lock the process table
        // holds; pids are never reused), but only to compare `(uid,
        // principal fingerprint)` against the session's memoised
        // prototype — the request itself is assembled by *borrowing* from
        // the prototype, so the hot path does no client-name/principal
        // clones. A mismatch (credential revoked or swapped mid-session)
        // takes the slow path: re-derive the request from the live
        // credential, exactly as the un-memoised path did.
        module.gateway.observe_kernel_epoch(self.smod_epoch());
        let proto = &session.proto;
        let module_name = &module.package.image.name;
        let live = {
            let client = session.client_ref.lock();
            if proto.matches(&client.cred, module_name) {
                None
            } else {
                Some((
                    client.name.clone(),
                    client.cred.principal_for(module_name),
                    client.cred.uid,
                ))
            }
        };
        let (allowed, tier) = match live {
            None => module.check_session_call(proto, func_id, &stub.symbol),
            Some((client_name, principal, uid)) => {
                module.check_operation(&client_name, principal.as_ref(), uid, &stub.symbol)
            }
        };

        // The single-call path traps per call anyway, so per-call counter
        // increments are the natural flush point (the batched drains tally
        // locally and flush once per drain instead).
        let cached = tier.is_cached();
        if cached {
            self.metrics.gate_hits.incr();
        } else {
            self.metrics.gate_misses.incr();
        }

        let policy_cost = if cached {
            self.cost.cached_decision_ns
        } else {
            self.cost.policy_per_node_ns * module.policy_complexity as u64
        };
        let overhead = self.cost.smod_call_overhead(args.len()) + policy_cost;
        self.context_switch_n(caller, 2);

        if self.tracer.enabled() {
            self.tracer.record(Event::SmodCall {
                session: session.id,
                func_id,
                symbol: stub.symbol.clone(),
                allowed,
            });
        }
        if !allowed {
            // What `charge` does, through the pinned client handle.
            self.clock.advance_striped(caller.0 as u64, overhead);
            session.client_ref.lock().cpu_time_ns += overhead;
            self.metrics.record_latency(Flavor::Syscall, overhead);
            return Err(Errno::EACCES);
        }

        // --- execute the function body in the handle ---------------------
        // The session pins both processes' lock handles, so the pair is
        // locked (pid-ordered) without touching the process map; the
        // caller's overhead and the handle's extra time are charged under
        // the locks already held.
        let body = module.stub_body(func_id).ok_or(Errno::ENOSYS)?;
        let (result, extra_ns) = session.with_pair(|handle_proc, client_proc| {
            client_proc.cpu_time_ns += overhead;
            let mut ctx = HandleCtx {
                handle_vm: &mut handle_proc.vm,
                client_vm: &client_proc.vm,
                client_pid: session.client,
                extra_ns: 0,
            };
            let result = body(&mut ctx, args);
            handle_proc.cpu_time_ns += ctx.extra_ns;
            (result, ctx.extra_ns)
        })?;
        self.clock
            .advance_striped(caller.0 as u64, overhead + extra_ns);
        self.metrics
            .record_latency(Flavor::Syscall, overhead + extra_ns);

        // --- bookkeeping --------------------------------------------------
        session.note_call();
        module.note_call_dispatched(caller.0 as u64);
        result
    }

    // ----------------------------------------------------------------
    // Session teardown and the special functions of §4.3
    // ----------------------------------------------------------------

    /// Detach the SecModule session of a process (either member of the
    /// pair): kill and reap the handle, remove the queues and the session,
    /// clear the client's flags.
    pub fn smod_detach(&self, client: Pid, reason: &str) -> SysResult<()> {
        let link = self.procs.with(client, |p| p.smod)?.ok_or(Errno::EINVAL)?;
        let session = self.sessions.remove(link.session).ok_or(Errno::EINVAL)?;

        // Kill the handle, then reap it: `sys_wait` never sees handles
        // (§4.3), so nothing else would remove the dead process. A
        // dispatch still holding the session keeps its pinned lock handle.
        let _ = self.procs.with_mut(session.handle, |h| {
            h.state = ProcState::Zombie(0);
            h.smod = None;
        });
        self.procs.remove(session.handle);
        // Clear the client.
        let _ = self.procs.with_mut(session.client, |c| {
            c.smod = None;
            c.flags.smod_client = false;
        });
        let _ = self.msgs.remove(session.call_queue);
        let _ = self.msgs.remove(session.reply_queue);
        self.smod_epoch.fetch_add(1, SeqCst);
        self.tracer.record(Event::SessionDetached {
            session: session.id,
            reason: reason.to_string(),
        });
        Ok(())
    }

    /// The paper's `fork()` special handling (§4.3): "the ideal action is to
    /// duplicate the child process twice, and force the first child to be
    /// the handle for the second."  Here: fork the client, then establish a
    /// brand-new session (and handle) for the child against the same module.
    /// "Multiple clients should not share the handle."
    pub fn sys_smod_fork(&self, client: Pid) -> SysResult<(Pid, SessionId, Pid)> {
        let link = self.procs.with(client, |p| p.smod)?.ok_or(Errno::EINVAL)?;
        let module = link.module;
        let child = self.sys_fork(client)?;
        // The child gets its own handle and session.
        let (session, handle) = self.sys_smod_start_session(child, module)?;
        self.sys_smod_session_info(handle)?;
        self.sys_smod_handle_info(child)?;
        Ok((child, session, handle))
    }

    /// The session a client currently holds, if any.
    pub fn session_of(&self, pid: Pid) -> Option<Arc<Session>> {
        let link = self.procs.with(pid, |p| p.smod).ok()??;
        self.sessions.get(link.session)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::cred::Credential;
    use secmod_module::builder::ModuleBuilder;
    use secmod_module::StubTable;
    use secmod_policy::assertion::{Assertion, LicenseeExpr};
    use secmod_policy::Principal;
    use secmod_vm::Vaddr;

    const ALICE_KEY: &[u8] = b"alice-credential-key";

    /// Build and register the paper's libc-like module with an
    /// "alice is always allowed" policy, returning (kernel, module id).
    fn kernel_with_module() -> (Kernel, ModuleId) {
        kernel_with_policy("")
    }

    /// [`kernel_with_module`] with alice allowed only under `conditions`.
    /// Bodies exist for `testincr`, `getpid` and `strlen` only.
    pub(crate) fn kernel_with_policy(conditions: &str) -> (Kernel, ModuleId) {
        let k = Kernel::new(CostModel::default());
        let registrar = k
            .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();

        let image = ModuleBuilder::libc_like();
        let key = b"0123456789abcdef".to_vec();
        let nonce = [7u8; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
        let package = SmodPackage::seal(&image, &enc, b"toolchain-mac-key").unwrap();

        let mut policy = PolicyEngine::new();
        let alice = Principal::from_key("uid1000", ALICE_KEY);
        policy
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice), conditions).unwrap())
            .unwrap();

        let stub_table = StubTable::generate(&image);
        let mut functions = FunctionTable::new();
        // testincr: read a u64 argument, return it + 1.
        let incr_id = stub_table.by_name("testincr").unwrap().func_id;
        functions.register(incr_id, |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
        // getpid over SecModule: returns the client pid, charges a trivial
        // syscall's worth of work.
        let getpid_id = stub_table.by_name("getpid").unwrap().func_id;
        functions.register(getpid_id, |ctx, _args| {
            ctx.charge_ns(108);
            Ok((ctx.client_pid.0 as u64).to_le_bytes().to_vec())
        });
        // strlen: read a NUL-terminated string from shared memory.
        let strlen_id = stub_table.by_name("strlen").unwrap().func_id;
        functions.register(strlen_id, |ctx, args| {
            let addr = Vaddr(u64::from_le_bytes(
                args[..8].try_into().map_err(|_| Errno::EINVAL)?,
            ));
            let mut len = 0u64;
            loop {
                let byte = ctx.read(Vaddr(addr.0 + len), 1)?;
                if byte[0] == 0 {
                    break;
                }
                len += 1;
            }
            Ok(len.to_le_bytes().to_vec())
        });

        let m_id = k
            .sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::Raw { key, nonce },
                b"toolchain-mac-key",
                policy,
                functions,
            )
            .unwrap();
        (k, m_id)
    }

    pub(crate) fn spawn_alice(k: &Kernel) -> Pid {
        k.spawn_process(
            "client",
            Credential::user(1000, 100).with_smod_credential("libc", ALICE_KEY),
            vec![0x90; 4096],
            4,
            4,
        )
        .unwrap()
    }

    pub(crate) fn establish(k: &Kernel, client: Pid, m_id: ModuleId) -> (SessionId, Pid) {
        let (session, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        (session, handle)
    }

    fn testincr_id(k: &Kernel, m_id: ModuleId) -> u32 {
        func_id(k, m_id, "testincr")
    }

    pub(crate) fn call(
        k: &Kernel,
        client: Pid,
        m_id: ModuleId,
        func_id: u32,
        args: Vec<u8>,
    ) -> SysResult<Vec<u8>> {
        k.sys_smod_call(
            client,
            SmodCallArgs {
                m_id,
                func_id,
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1234,
                args,
            },
        )
    }

    pub(crate) fn func_id(k: &Kernel, m_id: ModuleId, name: &str) -> u32 {
        k.registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name(name)
            .unwrap()
            .func_id
    }

    #[test]
    fn session_cycles_do_not_grow_the_process_table() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let before = k.procs.len();
        for _ in 0..16 {
            let (_, handle) = establish(&k, client, m_id);
            assert_eq!(k.procs.len(), before + 1);
            k.smod_detach(client, "cycle").unwrap();
            assert!(!k.procs.exists(handle), "detach must reap the handle");
        }
        assert_eq!(k.procs.len(), before);
        // A crashed or exiting handle is reaped with its session, and the
        // client is unlinked so it can start over.
        let (_, handle) = establish(&k, client, m_id);
        assert!(!k.crash_process(handle).unwrap());
        let (_, handle) = establish(&k, client, m_id);
        k.sys_exit(handle, 0).unwrap();
        assert!(k.session_of(client).is_none());
        assert_eq!(k.procs.len(), before);
    }

    #[test]
    fn registration_and_find() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        assert_eq!(k.sys_smod_find(client, "libc", 36).unwrap(), m_id);
        assert_eq!(k.sys_smod_find(client, "libc", 0).unwrap(), m_id);
        assert_eq!(
            k.sys_smod_find(client, "libc", 9).unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(
            k.sys_smod_find(client, "libz", 0).unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn add_rejects_bad_mac_and_bad_key() {
        let k = Kernel::new(CostModel::default());
        let registrar = k
            .spawn_process("r", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let image = ModuleBuilder::libc_like();
        let key = b"0123456789abcdef".to_vec();
        let nonce = [7u8; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
        let package = SmodPackage::seal(&image, &enc, b"mac-key").unwrap();

        // Wrong MAC key.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package.clone(),
                ModuleKeyDelivery::Raw {
                    key: key.clone(),
                    nonce
                },
                b"wrong-mac",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EACCES
        );
        // Wrong module key: unsealing produces the wrong fingerprint.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package.clone(),
                ModuleKeyDelivery::Raw {
                    key: b"ffffffffffffffff".to_vec(),
                    nonce
                },
                b"mac-key",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EACCES
        );
        // Declaring an encrypted package as unencrypted is invalid.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::None,
                b"mac-key",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn full_handshake_and_call() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (session, handle) = establish(&k, client, m_id);

        // The pair is linked both ways.
        assert_eq!(
            k.procs.with(client, |p| p.smod.unwrap().peer).unwrap(),
            handle
        );
        assert_eq!(
            k.procs.with(handle, |p| p.smod.unwrap().peer).unwrap(),
            client
        );
        assert_eq!(k.session_of(client).unwrap().id, session);

        // testincr(41) == 42.
        let func = testincr_id(&k, m_id);
        let reply = call(&k, client, m_id, func, 41u64.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 42);
        assert_eq!(k.session_of(client).unwrap().calls(), 1);
        assert_eq!(k.registry.get(m_id).unwrap().calls_dispatched(), 1);
    }

    #[test]
    fn handshake_order_is_enforced() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        // Client cannot conclude before the handle reported ready.
        assert_eq!(k.sys_smod_handle_info(client).unwrap_err(), Errno::EINVAL);
        // Client cannot impersonate the handle.
        assert_eq!(k.sys_smod_session_info(client).unwrap_err(), Errno::EPERM);
        // Calls are rejected before the handshake completes.
        let func = testincr_id(&k, m_id);
        assert_eq!(
            call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap_err(),
            Errno::EINVAL
        );
        // Correct order works.
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        // Repeating a handshake step fails.
        assert_eq!(k.sys_smod_session_info(handle).unwrap_err(), Errno::EINVAL);
        assert_eq!(k.sys_smod_handle_info(client).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn credential_failure_denies_session_and_calls() {
        let (k, m_id) = kernel_with_module();
        // mallory has no credential for libc.
        let mallory = k
            .spawn_process(
                "mallory",
                Credential::user(666, 666),
                vec![0x90; 4096],
                4,
                4,
            )
            .unwrap();
        assert_eq!(
            k.sys_smod_start_session(mallory, m_id).unwrap_err(),
            Errno::EACCES
        );
        // carol presents the wrong key material.
        let carol = k
            .spawn_process(
                "carol",
                Credential::user(1000, 100).with_smod_credential("libc", b"not-alices-key"),
                vec![0x90; 4096],
                4,
                4,
            )
            .unwrap();
        assert_eq!(
            k.sys_smod_start_session(carol, m_id).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn stolen_session_cannot_be_used_by_another_process() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        // A different process — even with the same credentials — cannot call
        // through the client's session.
        let thief = spawn_alice(&k);
        let func = testincr_id(&k, m_id);
        assert_eq!(
            call(&k, thief, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn module_text_is_only_mapped_in_the_handle() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);

        let text_base = k.layout.text_base;
        // The handle's text at text_base is the module's plaintext text.
        let module_text = k.registry.get(m_id).unwrap().plaintext.text.data.clone();
        let handle_text = k
            .read_user_memory(handle, Vaddr(text_base), 32.min(module_text.len()))
            .unwrap();
        assert_eq!(&handle_text[..], &module_text[..handle_text.len()]);
        // The client's own text is its program image, not the module.
        let client_text = k.read_user_memory(client, Vaddr(text_base), 32).unwrap();
        assert_eq!(client_text, vec![0x90u8; 32]);
        assert_ne!(handle_text, client_text);
    }

    #[test]
    fn shared_memory_lets_the_handle_work_on_client_data() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);

        // Client writes a C string into its heap; SMOD strlen sees it
        // through the shared pages.
        let addr = Vaddr(k.layout.data_base + 64);
        k.write_user_memory(client, addr, b"hello, secmodule\0")
            .unwrap();
        let strlen_id = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("strlen")
            .unwrap()
            .func_id;
        let reply = call(&k, client, m_id, strlen_id, addr.0.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 16);
    }

    #[test]
    fn smod_getpid_reports_the_client_pid() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        let getpid_id = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("getpid")
            .unwrap()
            .func_id;
        let reply = call(&k, client, m_id, getpid_id, vec![]).unwrap();
        assert_eq!(
            u64::from_le_bytes(reply.try_into().unwrap()),
            client.0 as u64
        );
        // And the native getpid syscall from the handle also reports the client.
        assert_eq!(k.sys_getpid(handle).unwrap(), client);
    }

    #[test]
    fn ptrace_and_coredumps_are_restricted_for_the_pair() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        let debugger = k
            .spawn_process("gdb", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        assert_eq!(
            k.sys_ptrace_attach(debugger, handle).unwrap_err(),
            Errno::EPERM
        );
        assert_eq!(
            k.sys_ptrace_attach(debugger, client).unwrap_err(),
            Errno::EPERM
        );
        // Crashing the handle never produces a core image.
        assert!(!k.crash_process(handle).unwrap());
        assert!(k
            .tracer
            .events()
            .iter()
            .any(|e| matches!(e, Event::CoreDumpSuppressed { .. })));
    }

    #[test]
    fn exit_kills_the_handle_and_removes_the_session() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        k.sys_exit(client, 0).unwrap();
        // The dead handle is reaped, not left behind as a zombie.
        assert!(!k.procs.exists(handle));
        assert!(k.sessions.is_empty());
        assert!(k
            .tracer
            .events()
            .iter()
            .any(|e| matches!(e, Event::SessionDetached { .. })));
    }

    #[test]
    fn execve_detaches_and_allows_a_fresh_session() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        k.sys_execve(client, "newprog", vec![0xCC; 4096]).unwrap();
        // The dead handle is reaped, not left behind as a zombie.
        assert!(!k.procs.exists(handle));
        assert!(k.sessions.is_empty());
        // The new image can set up a new session (its crt0 would do this).
        let (session2, handle2) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle2).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        assert_eq!(k.session_of(client).unwrap().id, session2);
    }

    #[test]
    fn smod_fork_gives_the_child_its_own_handle() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (session, handle) = establish(&k, client, m_id);
        let (child, child_session, child_handle) = k.sys_smod_fork(client).unwrap();
        assert_ne!(child_session, session);
        assert_ne!(child_handle, handle);
        // Both clients can call independently.
        let func = testincr_id(&k, m_id);
        let r1 = call(&k, client, m_id, func, 10u64.to_le_bytes().to_vec()).unwrap();
        let r2 = call(&k, child, m_id, func, 20u64.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(r1.try_into().unwrap()), 11);
        assert_eq!(u64::from_le_bytes(r2.try_into().unwrap()), 21);
    }

    #[test]
    fn remove_requires_owner_and_no_sessions() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        // Non-owner cannot remove.
        assert_eq!(k.sys_smod_remove(client, m_id).unwrap_err(), Errno::EPERM);
        // Owner cannot remove while a session is active.
        let registrar = Pid(1);
        establish(&k, client, m_id);
        assert_eq!(
            k.sys_smod_remove(registrar, m_id).unwrap_err(),
            Errno::EBUSY
        );
        // After the client exits, removal succeeds.
        k.sys_exit(client, 0).unwrap();
        k.sys_smod_remove(registrar, m_id).unwrap();
        assert_eq!(
            k.sys_smod_find(client, "libc", 0).unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn smod_epoch_bumps_on_detach_and_remove() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        assert_eq!(k.smod_epoch(), 0);
        establish(&k, client, m_id);
        // Establishing alone does not invalidate anything.
        assert_eq!(k.smod_epoch(), 0);
        k.smod_detach(client, "test").unwrap();
        assert_eq!(k.smod_epoch(), 1);
        k.sys_smod_remove(Pid(1), m_id).unwrap();
        assert_eq!(k.smod_epoch(), 2);
        // A failed removal must not bump.
        assert_eq!(k.sys_smod_remove(Pid(1), m_id).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.smod_epoch(), 2);
    }

    #[test]
    fn double_session_per_client_is_rejected() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        assert_eq!(
            k.sys_smod_start_session(client, m_id).unwrap_err(),
            Errno::EBUSY
        );
    }

    #[test]
    fn wrong_module_or_function_is_rejected() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);
        // Unknown function id.
        assert_eq!(
            call(&k, client, m_id, 9999, vec![]).unwrap_err(),
            Errno::ENOENT
        );
        // Module id not matching the session.
        assert_eq!(
            call(&k, client, ModuleId(999), func, vec![]).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn per_call_check_hits_the_module_gateway_cache() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);

        // First call misses (plus the session-establishment lookups);
        // repeated calls of the same function are pure cache hits — served
        // from the thread-local L0 tier, so the *sharded* cache sees only
        // the one insert while the kernel's gate counters see every hit.
        let before = k.registry.get(m_id).unwrap().gateway.cache_stats();
        let (hits0, misses0) = (k.metrics.gate_hits.get(), k.metrics.gate_misses.get());
        for i in 0..50u64 {
            call(&k, client, m_id, func, i.to_le_bytes().to_vec()).unwrap();
        }
        let after = k.registry.get(m_id).unwrap().gateway.cache_stats();
        assert!(
            k.metrics.gate_hits.get() >= hits0 + 49,
            "cached dispatch must hit: {before:?} -> {after:?}"
        );
        assert_eq!(
            k.metrics.gate_misses.get(),
            misses0 + 1,
            "only the first call may miss"
        );
        assert_eq!(
            after.misses,
            before.misses + 1,
            "only the first call may reach the sharded tier's engine path"
        );

        // And the cached calls are cheaper on the simulated clock than the
        // uncached first one.
        let t0 = k.clock.now_ns();
        call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap();
        let cached_ns = k.clock.now_ns() - t0;
        let uncached_equiv = k.cost.smod_call_overhead(8)
            + k.cost.policy_per_node_ns
                * k.registry.get(m_id).unwrap().policy_complexity.max(1) as u64;
        assert!(
            cached_ns < uncached_equiv + 2 * k.cost.context_switch_ns,
            "cached call {cached_ns} ns not cheaper than uncached model"
        );
    }

    #[test]
    fn concurrent_dispatch_from_many_threads() {
        let (k, m_id) = kernel_with_module();
        let func = testincr_id(&k, m_id);
        let clients: Vec<Pid> = (0..4)
            .map(|_| {
                let c = spawn_alice(&k);
                establish(&k, c, m_id);
                c
            })
            .collect();
        let k = &k;
        std::thread::scope(|s| {
            for &c in &clients {
                s.spawn(move || {
                    for i in 0..500u64 {
                        let r = call(k, c, m_id, func, i.to_le_bytes().to_vec()).unwrap();
                        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), i + 1);
                    }
                });
            }
        });
        assert_eq!(k.registry.get(m_id).unwrap().calls_dispatched(), 4 * 500);
        for &c in &clients {
            assert_eq!(k.session_of(c).unwrap().calls(), 500);
        }
    }

    #[test]
    fn simulated_cost_reproduces_figure8_magnitudes() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);

        // Native getpid cost.
        let t0 = k.clock.now_ns();
        k.sys_getpid(client).unwrap();
        let getpid_ns = k.clock.now_ns() - t0;

        // SMOD(testincr) cost.
        let t1 = k.clock.now_ns();
        call(&k, client, m_id, func, 5u64.to_le_bytes().to_vec()).unwrap();
        let smod_ns = k.clock.now_ns() - t1;

        let ratio = smod_ns as f64 / getpid_ns as f64;
        assert!(
            (0.4..1.2).contains(&(getpid_ns as f64 / 1000.0)),
            "getpid {getpid_ns} ns"
        );
        assert!(
            (4.0..12.0).contains(&(smod_ns as f64 / 1000.0)),
            "smod {smod_ns} ns"
        );
        assert!(ratio > 5.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn figure1_event_sequence_is_recorded() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        k.sys_smod_find(client, "libc", 0).unwrap();
        let (_, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        let func = testincr_id(&k, m_id);
        call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap();

        let kinds: Vec<&'static str> = k
            .tracer
            .events()
            .iter()
            .map(|e| match e {
                Event::ModuleRegistered { .. } => "registered",
                Event::ModuleFound { .. } => "found",
                Event::SessionStarted { .. } => "start_session",
                Event::HandleReady { .. } => "session_info",
                Event::HandshakeComplete { .. } => "handle_info",
                Event::SmodCall { .. } => "smod_call",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "registered",
                "found",
                "start_session",
                "session_info",
                "handle_info",
                "smod_call"
            ]
        );
    }
}
