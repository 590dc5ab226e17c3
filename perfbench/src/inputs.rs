//! Seeded input streams. Every input of a run is a function of
//! `--seed`; the program sees only what these generators produce.

use crate::stats::Rng;
use crate::world::OPS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    pub tenant: usize,
    pub op: usize,
    pub arg: u64,
}

/// `n` calls over `tenants` clients: round-robin over the clients when
/// `round_robin`, else all from client 0. Operations are uniform over
/// the module, so one call in `OPS` asks for the denied operation.
pub fn calls(seed: u64, tenants: usize, round_robin: bool, n: usize) -> Vec<Call> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| Call {
            tenant: if round_robin { i % tenants } else { 0 },
            op: rng.below(OPS as u64) as usize,
            arg: rng.next_u64() >> 1,
        })
        .collect()
}

/// One policy write of `policy_churn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Write {
    /// Grant the next tenant in the grant order its withheld operation.
    Grant,
    /// Register a key with the gateway.
    Key,
    /// Detach tenant `t`'s session and run the handshake again.
    Cycle(usize),
}

/// `n` writes: each block of three is a seeded permutation of one
/// grant, one key registration and one session cycle.
pub fn writes(seed: u64, tenants: usize, n: usize) -> Vec<Write> {
    let mut rng = Rng::new(seed ^ 0x77);
    let mut out = Vec::with_capacity(n + 2);
    while out.len() < n {
        let mut block = [
            Write::Grant,
            Write::Key,
            Write::Cycle(rng.below(tenants as u64) as usize),
        ];
        for i in (1..3).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// For each tenant, the one operation (besides the denied one) it is
/// refused until granted; and the seeded order grants arrive in.
pub fn withheld(seed: u64, tenants: usize) -> (Vec<Option<usize>>, Vec<usize>) {
    let mut rng = Rng::new(seed ^ 0x99);
    let ops = (0..tenants)
        .map(|_| Some(1 + rng.below(OPS as u64 - 1) as usize))
        .collect();
    let mut order: Vec<usize> = (0..tenants).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (ops, order)
}

/// Payload sizes of the plane workload: 8 B inline, 4 KiB and 64 KiB
/// arena blocks.
pub const PAYLOADS: [usize; 3] = [8, 4096, 65536];

/// The call carried by plane entry `user_data`: a pure function of the
/// seed and the cookie, so the oracle recomputes it at reap time.
/// Returns `(op, arg, payload size)`; the mix is 90% inline, 8% 4 KiB,
/// 2% 64 KiB.
pub fn plane_call(seed: u64, user_data: u64) -> (usize, u64, usize) {
    let mut rng = Rng::new(seed ^ user_data.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let h = rng.next_u64();
    let op = (h % OPS as u64) as usize;
    let size = match (h >> 8) % 100 {
        0..=89 => PAYLOADS[0],
        90..=97 => PAYLOADS[1],
        _ => PAYLOADS[2],
    };
    (op, h >> 16, size)
}

/// The argument bytes of a plane call: `arg` little-endian, zero-padded
/// to the payload size.
pub fn payload(arg: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size];
    v[..8].copy_from_slice(&arg.to_le_bytes());
    v
}

/// A burst of the open loop: `len` calls to `handle`, due `due_ns` after
/// the start of its phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Burst {
    pub due_ns: u64,
    pub handle: usize,
    pub len: usize,
}

/// Mean burst length of [`Arrivals`] (uniform on 1..=7).
pub const MEAN_BURST: f64 = 4.0;

/// Poisson arrivals of bursts at an offered call rate.
pub struct Arrivals {
    rng: Rng,
    handles: usize,
    mean_gap_ns: f64,
    t_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64, handles: usize, calls_per_s: f64) -> Arrivals {
        Arrivals {
            rng: Rng::new(seed ^ 0xa11),
            handles,
            mean_gap_ns: 1e9 * MEAN_BURST / calls_per_s,
            t_ns: 0.0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = Burst;
    fn next(&mut self) -> Option<Burst> {
        self.t_ns += self.rng.exp(self.mean_gap_ns);
        Some(Burst {
            due_ns: self.t_ns as u64,
            handle: self.rng.below(self.handles as u64) as usize,
            len: 1 + self.rng.below(7) as usize,
        })
    }
}

/// The call sequence of async logical client `client`.
pub fn async_client(seed: u64, client: usize) -> Rng {
    Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The first `n` inputs of `workload` as bytes, for the determinism
/// self-test.
#[cfg(test)]
pub fn stream_bytes(workload: &str, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    match workload {
        "syscall_hot" | "policy_churn" => {
            let churn = workload == "policy_churn";
            for c in calls(seed, 64, churn, n) {
                put(c.tenant as u64);
                put(c.op as u64);
                put(c.arg);
            }
            if churn {
                for w in writes(seed, 64, n) {
                    put(match w {
                        Write::Grant => u64::MAX,
                        Write::Key => u64::MAX - 1,
                        Write::Cycle(t) => t as u64,
                    });
                }
                let (ops, order) = withheld(seed, 64);
                ops.iter().for_each(|o| put(o.unwrap_or(0) as u64));
                order.iter().for_each(|&t| put(t as u64));
            }
        }
        "plane_open" => {
            for (ud, b) in Arrivals::new(seed, 64, 1e5).take(n).enumerate() {
                put(b.due_ns);
                put(b.handle as u64);
                put(b.len as u64);
                let (op, arg, size) = plane_call(seed, ud as u64);
                put(op as u64);
                put(arg);
                put(size as u64);
            }
        }
        "async_closed" => {
            for client in 0..4 {
                let mut rng = async_client(seed, client);
                for _ in 0..n {
                    put(rng.below(OPS as u64));
                    put(rng.next_u64() >> 1);
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        for w in ["syscall_hot", "policy_churn", "plane_open", "async_closed"] {
            let a = stream_bytes(w, 17, 4096);
            assert_eq!(a, stream_bytes(w, 17, 4096), "{w}");
            assert_ne!(a, stream_bytes(w, 18, 4096), "{w}: seed ignored");
        }
    }

    #[test]
    fn writes_rotate_one_of_each_kind_per_block() {
        let w = writes(3, 64, 300);
        for block in w.chunks(3) {
            assert_eq!(block.iter().filter(|w| **w == Write::Grant).count(), 1);
            assert_eq!(block.iter().filter(|w| **w == Write::Key).count(), 1);
        }
    }

    #[test]
    fn plane_payload_mix_is_mostly_inline() {
        let n = 20_000;
        let big = (0..n)
            .filter(|&ud| plane_call(5, ud).2 > PAYLOADS[0])
            .count();
        assert!((1_600..2_400).contains(&big), "{big} of {n}");
    }
}
