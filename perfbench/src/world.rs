//! The fixture every workload runs against: a booted kernel with one
//! sealed and installed module, one client process and session per
//! tenant, the oracle that knows which (tenant, operation) pairs the
//! policy allows, and the policy writes `policy_churn` interleaves.

use secmod_crypto::SelectiveEncryptor;
use secmod_kernel::smod::ModuleKeyDelivery;
use secmod_kernel::smodreg::{FunctionTable, RegisteredModule};
use secmod_kernel::{CostModel, Credential, DispatchError, Errno, Kernel, Pid};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage};
use secmod_policy::{AccessRequest, Assertion, LicenseeExpr, PolicyEngine, Principal};
use std::sync::Arc;
use std::time::Instant;

pub const MODULE: &str = "libbench";
/// Operations in the module; operation 0 is denied to every tenant.
pub const OPS: usize = 8;
const MAC_KEY: &[u8] = b"perfbench-mac-key";
const VENDOR_KEY: &[u8] = b"perfbench-vendor-key";

/// Symbol of operation `op`.
pub fn symbol(op: usize) -> String {
    if op == 0 {
        "restricted".to_string()
    } else {
        format!("op{op}")
    }
}

pub struct Client {
    pub pid: Pid,
    pub name: String,
    pub principal: Principal,
    pub uid: u32,
}

/// Wall-clock cost of the set-up stages of one `World::build`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub build_ms: f64,
    pub seal_ms: f64,
    pub smod_add_ms: f64,
}

pub struct World {
    pub kernel: Arc<Kernel>,
    pub module_id: ModuleId,
    pub module: Arc<RegisteredModule>,
    pub func_ids: [u32; OPS],
    pub symbols: Vec<String>,
    pub clients: Vec<Client>,
    /// `allowed[t][op]`: the oracle's verdict for tenant `t`.
    pub allowed: Vec<[bool; OPS]>,
    vendor: Principal,
    pub setup: SetupTimes,
    /// Wall-clock ns of every session handshake so far.
    pub session_start_ns: Vec<u64>,
    pub detach_ns: Vec<u64>,
    pub grant_ns: Vec<u64>,
}

impl World {
    /// Boot a kernel and install the module for `tenants` clients.
    /// `withheld[t]`, when set, is one more operation tenant `t` is
    /// denied until a grant flips it.
    pub fn build(tenants: usize, withheld: &[Option<usize>]) -> World {
        let kernel = Kernel::new(CostModel::default());
        // The kernel's event log serialises dispatchers on one mutex; the
        // benchmark measures dispatch, as the paper does, not tracing.
        kernel.tracer.set_enabled(false);
        let registrar = kernel
            .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
            .expect("spawn registrar");

        let t0 = Instant::now();
        let symbols: Vec<String> = (0..OPS).map(symbol).collect();
        let mut builder = ModuleBuilder::new(MODULE, 1);
        for s in &symbols {
            builder.add_function(FunctionSpec::new(s, 64));
        }
        let image = builder.build(false).expect("build module image");
        let t1 = Instant::now();
        let module_key = b"0123456789abcdef".to_vec();
        let nonce = [7u8; 8];
        let enc = SelectiveEncryptor::new(&module_key, nonce).expect("encryptor");
        let package = SmodPackage::seal(&image, &enc, MAC_KEY).expect("seal module");
        let t2 = Instant::now();

        let func_ids: [u32; OPS] = std::array::from_fn(|op| {
            package
                .stub_table
                .by_name(&symbols[op])
                .expect("stub for every operation")
                .func_id
        });
        let mut functions = FunctionTable::new();
        for &func_id in &func_ids {
            functions.register(func_id, |_ctx, args| {
                let head: [u8; 8] = args
                    .get(..8)
                    .and_then(|a| a.try_into().ok())
                    .ok_or(Errno::EINVAL)?;
                Ok(u64::from_le_bytes(head)
                    .wrapping_add(1)
                    .to_le_bytes()
                    .to_vec())
            });
        }

        let vendor = Principal::from_key("vendor", VENDOR_KEY);
        let mut policy = PolicyEngine::new();
        policy.register_key(&vendor, VENDOR_KEY);
        policy
            .add_assertion(
                Assertion::policy(
                    LicenseeExpr::Single(vendor.clone()),
                    &format!("module == \"{MODULE}\""),
                )
                .expect("root policy parses"),
            )
            .expect("root policy");
        let mut allowed = Vec::with_capacity(tenants);
        let keys: Vec<Vec<u8>> = (0..tenants)
            .map(|t| format!("tenant-key-{t}").into_bytes())
            .collect();
        for (t, key) in keys.iter().enumerate() {
            let withheld = withheld.get(t).copied().flatten();
            let mut cond = "function != \"restricted\"".to_string();
            if let Some(op) = withheld {
                cond.push_str(&format!(" && function != \"{}\"", symbols[op]));
            }
            policy
                .add_assertion(
                    Assertion::delegation(
                        vendor.clone(),
                        LicenseeExpr::Single(Principal::from_key("tenant", key)),
                        &cond,
                    )
                    .expect("delegation parses")
                    .sign(VENDOR_KEY),
                )
                .expect("delegation");
            allowed.push(std::array::from_fn(|op| op != 0 && Some(op) != withheld));
        }

        let t3 = Instant::now();
        let module_id = kernel
            .sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::Raw {
                    key: module_key,
                    nonce,
                },
                MAC_KEY,
                policy,
                functions,
            )
            .expect("install module");
        let t4 = Instant::now();
        let module = kernel.registry.get(module_id).expect("installed module");

        let mut world = World {
            kernel: Arc::new(kernel),
            module_id,
            module,
            func_ids,
            symbols,
            clients: Vec::with_capacity(tenants),
            allowed,
            vendor,
            setup: SetupTimes {
                build_ms: (t1 - t0).as_secs_f64() * 1e3,
                seal_ms: (t2 - t1).as_secs_f64() * 1e3,
                smod_add_ms: (t4 - t3).as_secs_f64() * 1e3,
            },
            session_start_ns: Vec::new(),
            detach_ns: Vec::new(),
            grant_ns: Vec::new(),
        };
        for (t, key) in keys.iter().enumerate() {
            let name = format!("client{t}");
            let uid = 1000 + t as u32;
            let pid = world
                .kernel
                .spawn_process(
                    &name,
                    Credential::user(uid, 100).with_smod_credential(MODULE, key),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .expect("spawn client");
            world.clients.push(Client {
                pid,
                name,
                principal: Principal::from_key("tenant", key),
                uid,
            });
            world.start_session(t);
        }
        world
    }

    /// Session handshake for tenant `t`'s client; returns its wall time.
    pub fn start_session(&mut self, t: usize) -> u64 {
        let pid = self.clients[t].pid;
        let t0 = Instant::now();
        let (_session, handle) = self
            .kernel
            .sys_smod_start_session(pid, self.module_id)
            .expect("start session");
        self.kernel
            .sys_smod_session_info(handle)
            .expect("handle ready");
        self.kernel.sys_smod_handle_info(pid).expect("handshake");
        let ns = t0.elapsed().as_nanos() as u64;
        self.session_start_ns.push(ns);
        ns
    }

    /// Detach tenant `t`'s session and run the handshake again.
    pub fn cycle_session(&mut self, t: usize) {
        let t0 = Instant::now();
        self.kernel
            .smod_detach(self.clients[t].pid, "perfbench session cycle")
            .expect("detach");
        self.detach_ns.push(t0.elapsed().as_nanos() as u64);
        self.start_session(t);
    }

    /// Grant tenant `t` operation `op` with a new policy assertion; the
    /// oracle flips the pair to allowed.
    pub fn grant(&mut self, t: usize, op: usize) {
        let t0 = Instant::now();
        let assertion = Assertion::policy(
            LicenseeExpr::Single(self.clients[t].principal.clone()),
            &format!(
                "module == \"{MODULE}\" && function == \"{}\"",
                self.symbols[op]
            ),
        )
        .expect("grant parses");
        self.module
            .gateway
            .add_assertion(assertion)
            .expect("policy-root grant");
        self.grant_ns.push(t0.elapsed().as_nanos() as u64);
        self.allowed[t][op] = true;
    }

    /// Register the vendor's key again: a decision-affecting write in
    /// the gateway's contract, so it invalidates every cached decision.
    pub fn register_key(&self) {
        self.module.gateway.register_key(&self.vendor, VENDOR_KEY);
    }

    /// Check one synchronous outcome against the oracle.
    pub fn check(
        &self,
        t: usize,
        op: usize,
        arg: u64,
        outcome: &Result<Vec<u8>, DispatchError>,
    ) -> bool {
        check_reply(self.allowed[t][op], arg, outcome)
    }

    /// The access request the kernel builds for tenant `t` calling `op`.
    pub fn request<'a>(&'a self, t: usize, op: usize) -> AccessRequest<'a> {
        let c = &self.clients[t];
        AccessRequest {
            requesters: std::slice::from_ref(&c.principal),
            app_domain: &c.name,
            module: MODULE,
            version: 1,
            operation: &self.symbols[op],
            uid: i64::from(c.uid),
        }
    }
}

/// The oracle: an allowed call returns `arg + 1`, a denied one `EACCES`.
pub fn check_reply(allowed: bool, arg: u64, outcome: &Result<Vec<u8>, DispatchError>) -> bool {
    match outcome {
        Ok(ret) => allowed && ret.as_slice() == arg.wrapping_add(1).to_le_bytes(),
        Err(DispatchError::Errno(Errno::EACCES)) => !allowed,
        Err(_) => false,
    }
}

/// The same oracle over a ring completion (`errno` code and bytes).
pub fn check_completion(allowed: bool, arg: u64, errno: i32, ret: &[u8]) -> bool {
    if errno == 0 {
        allowed && ret == arg.wrapping_add(1).to_le_bytes()
    } else {
        !allowed && errno == Errno::EACCES.code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_wrong_reply_and_a_flipped_verdict() {
        let arg = 41u64;
        let right: Result<Vec<u8>, DispatchError> = Ok(42u64.to_le_bytes().to_vec());
        let wrong: Result<Vec<u8>, DispatchError> = Ok(43u64.to_le_bytes().to_vec());
        let denied: Result<Vec<u8>, DispatchError> = Err(DispatchError::Errno(Errno::EACCES));
        assert!(check_reply(true, arg, &right));
        assert!(!check_reply(true, arg, &wrong), "wrong reply accepted");
        assert!(
            !check_reply(false, arg, &right),
            "allowed where oracle denies"
        );
        assert!(
            !check_reply(true, arg, &denied),
            "denied where oracle allows"
        );
        assert!(check_reply(false, arg, &denied));
        assert!(!check_completion(true, arg, 0, &43u64.to_le_bytes()));
        assert!(!check_completion(true, arg, Errno::EACCES.code(), &[]));
        assert!(check_completion(false, arg, Errno::EACCES.code(), &[]));
    }

    #[test]
    fn a_grant_flips_the_kernel_verdict_and_the_oracle() {
        use secmod_kernel::Dispatcher;
        let mut w = World::build(2, &[Some(3), None]);
        let call = |w: &World, t: usize, op: usize| {
            w.kernel
                .dispatch_one(w.clients[t].pid, w.func_ids[op], &9u64.to_le_bytes())
        };
        let before = call(&w, 0, 3);
        assert!(w.check(0, 3, 9, &before) && before.is_err());
        assert!(w.check(1, 3, 9, &call(&w, 1, 3)));
        w.grant(0, 3);
        let after = call(&w, 0, 3);
        assert!(w.check(0, 3, 9, &after) && after.is_ok());
        w.cycle_session(1);
        assert!(w.check(1, 0, 9, &call(&w, 1, 0)));
    }
}
