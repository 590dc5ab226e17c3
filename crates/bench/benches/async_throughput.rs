//! `async_throughput`: the futures frontend as the logical-client
//! population scales past the OS thread count.
//!
//! The fixture holds the OS footprint constant — 2 executor workers and
//! 1 drainer, which also routes completions — and pushes the same total number of awaited
//! calls through 1x, 10x and 100x as many logical clients as executor
//! threads, all multiplexed over 8 real kernel sessions. Suspension is
//! the whole product: a parked waker costs no thread, so completions/sec
//! must hold (acceptance bar: the 100x population stays within 20% of
//! the 1x population; in practice larger populations batch *better*,
//! because every sweep finds more ready work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use secmod_async::{AsyncPlane, AsyncSession, Executor};
use secmod_gate::{build_dispatch_kernel_with_clients, ScenarioConfig, ScenarioKind};
use secmod_kernel::PlaneConfig;
use std::sync::Arc;
use std::time::Instant;

/// Executor worker threads (the fixed OS footprint).
const EXEC_THREADS: usize = 2;
/// Real kernel sessions shared by every population size.
const SESSIONS: usize = 8;
/// Awaited calls per measured cycle, split across the logical clients.
const TOTAL: u64 = 2_048;
/// Logical clients = EXEC_THREADS x factor.
const FACTORS: [usize; 3] = [1, 10, 100];

struct Fixture {
    plane: AsyncPlane,
    exec: Executor,
    sessions: Vec<AsyncSession>,
    incr: u32,
}

fn fixture() -> Fixture {
    let cfg = ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
        .seed(42)
        .threads(EXEC_THREADS)
        .build();
    let dispatch = build_dispatch_kernel_with_clients(&cfg, SESSIONS);
    let incr = dispatch.func_ids[1];
    let clients = dispatch.clients.clone();
    let plane = AsyncPlane::start(
        Arc::new(dispatch.kernel),
        PlaneConfig::builder().drainers(1).slots(SESSIONS).build(),
    )
    .expect("start async plane");
    let sessions = clients
        .iter()
        .map(|&c| plane.session(c).expect("attach session"))
        .collect();
    Fixture {
        plane,
        exec: Executor::new(EXEC_THREADS),
        sessions,
        incr,
    }
}

/// One cycle: `logical` clients split `TOTAL` awaited calls between
/// them, all in flight together on the shared executor.
fn cycle(f: &Fixture, logical: usize) {
    let handles: Vec<_> = (0..logical)
        .map(|lc| {
            let session = f.sessions[lc % f.sessions.len()].clone();
            let incr = f.incr;
            let ops = TOTAL / logical as u64 + u64::from((lc as u64) < TOTAL % logical as u64);
            f.exec.spawn(async move {
                for i in 0..ops {
                    let ret = session.call(incr, i.to_le_bytes()).await.expect("incr");
                    std::hint::black_box(ret);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join();
    }
}

fn wall_clock_ops_per_sec(f: &Fixture, logical: usize, cycles: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..cycles {
        cycle(f, logical);
    }
    (cycles as u64 * TOTAL) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn async_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_throughput");
    let f = fixture();

    group.throughput(Throughput::Elements(TOTAL));
    for factor in FACTORS {
        let logical = EXEC_THREADS * factor;
        group.bench_function(
            BenchmarkId::new("logical", format!("{logical}x{EXEC_THREADS}thr")),
            |b| b.iter(|| cycle(&f, logical)),
        );
    }
    group.finish();

    // Explicit acceptance summary: completions/sec with 100x the logical
    // clients must stay within 20% of the 1x row — the OS footprint
    // (executor + drainer threads) never changes, only how
    // many suspended callers share it.
    cycle(&f, EXEC_THREADS); // warmup: hot decision cache, hot rings
    let baseline = wall_clock_ops_per_sec(&f, EXEC_THREADS, 8);
    println!("\nasync_throughput summary ({TOTAL} awaited calls/cycle, {EXEC_THREADS} executor threads, 1 drainer):");
    println!(
        "  {:>5} logical clients (1x)  : {baseline:>12.0} completions/sec",
        EXEC_THREADS
    );
    let mut worst = f64::INFINITY;
    for factor in FACTORS.into_iter().skip(1) {
        let logical = EXEC_THREADS * factor;
        let rate = wall_clock_ops_per_sec(&f, logical, 8);
        let ratio = rate / baseline.max(1e-9);
        worst = worst.min(ratio);
        println!(
            "  {logical:>5} logical clients ({factor}x): {rate:>12.0} completions/sec ({ratio:.2}x of 1x)"
        );
    }
    println!(
        "  scaling ratio {worst:.2}x {}",
        if worst >= 0.8 {
            "(>= 0.8x acceptance bar: population scaled 100x, throughput held)"
        } else {
            "(BELOW the 0.8x acceptance bar!)"
        }
    );

    let Fixture {
        plane,
        exec,
        sessions,
        ..
    } = f;
    drop(sessions);
    drop(exec);
    std::hint::black_box(plane.shutdown());
}

criterion_group!(benches, async_throughput);
criterion_main!(benches);
