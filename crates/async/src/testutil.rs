//! Shared test universe: a real kernel with one sealed module and N
//! established client sessions — the same rig the kernel crate's batch
//! and plane tests use, rebuilt here over the public API.

use secmod_kernel::smod::ModuleKeyDelivery;
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{CostModel, Credential, Errno, Kernel, Pid};
use secmod_module::builder::ModuleBuilder;
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_policy::assertion::{Assertion, LicenseeExpr};
use secmod_policy::{PolicyEngine, Principal};

pub(crate) const ALICE_KEY: &[u8] = b"async-alice-key";
const MAC_KEY: &[u8] = b"async-mac-key";

/// A libc-like module whose every function body returns its u64 argument
/// plus one, a policy granting alice everything but `strlen`, and
/// `n_clients` clients each holding an established session. Returns the
/// kernel, the module id, the clients, and `testincr`'s func id.
pub(crate) fn kernel_with_clients(n_clients: usize) -> (Kernel, ModuleId, Vec<Pid>, u32) {
    let k = Kernel::new(CostModel::default());
    let registrar = k
        .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
        .unwrap();
    let image = ModuleBuilder::libc_like();
    let key = b"0123456789abcdef".to_vec();
    let nonce = [4u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
    let package = SmodPackage::seal(&image, &enc, MAC_KEY).unwrap();

    let mut policy = PolicyEngine::new();
    let alice = Principal::from_key("uid1000", ALICE_KEY);
    policy
        .add_assertion(
            Assertion::policy(LicenseeExpr::Single(alice), "function != \"strlen\"").unwrap(),
        )
        .unwrap();

    let stub_table = StubTable::generate(&image);
    let mut functions = FunctionTable::new();
    for stub in &stub_table.stubs {
        functions.register(stub.func_id, |_ctx, args| {
            let head = args.get(..8).ok_or(Errno::EINVAL)?;
            let v = u64::from_le_bytes(head.try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
    }
    let incr_id = stub_table.by_name("testincr").unwrap().func_id;

    let m_id = k
        .sys_smod_add(
            registrar,
            package,
            ModuleKeyDelivery::Raw { key, nonce },
            MAC_KEY,
            policy,
            functions,
        )
        .unwrap();
    let clients: Vec<Pid> = (0..n_clients)
        .map(|i| {
            let client = k
                .spawn_process(
                    &format!("async-client{i}"),
                    Credential::user(1000, 100).with_smod_credential("libc", ALICE_KEY),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .unwrap();
            let (_session, handle) = k.sys_smod_start_session(client, m_id).unwrap();
            k.sys_smod_session_info(handle).unwrap();
            k.sys_smod_handle_info(client).unwrap();
            client
        })
        .collect();
    (k, m_id, clients, incr_id)
}
