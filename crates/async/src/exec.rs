//! A minimal multi-threaded executor — the same vendored-shim discipline
//! as `vendor/`: just enough of the tokio/async-std surface
//! ([`Executor::spawn`], [`JoinHandle`], [`block_on`]) for the async
//! dispatch frontend, built purely on `std::task` and thread parking.
//!
//! The design is the classic one (futures-rs `ArcWake`, smol's
//! single-queue core): a task is an `Arc` holding the boxed future and a
//! re-enqueue flag; its [`Waker`] (via `std::task::Wake`, so no unsafe
//! vtables) pushes the task back onto one shared injector queue; worker
//! threads pop and poll. One global queue is deliberate — the workload
//! this executor exists for (100k+ logical clients awaiting ring
//! completions) is wake-dominated and the tasks are tiny, so per-worker
//! deques and work stealing would be complexity without a measurable win
//! at the bench's scale.
//!
//! Wake-dominated also means hand-offs dominate, at both ends of the
//! queue. A completion router wakes a whole sweep's worth of tasks; a
//! worker's polls submit as many calls. Inside [`coalesce`] both are held
//! on the calling thread and released together when the scope ends:
//! woken tasks are queued with one lock per executor, and each touched
//! session's doorbell rings once ([`ring_soon`]). Workers poll the tasks
//! they take from the queue (up to [`RUN`] at a time) inside one scope,
//! so the drainer finds a run's submissions together instead of chasing
//! the worker call by call, and the router's wakes no longer contend
//! with the worker task by task. A worker is only notified when one is
//! actually waiting.

use parking_lot::Mutex;
use secmod_kernel::plane::{Doorbell, PlaneHandle};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Most tasks a worker takes from the queue at once. Their polls share
/// one [`coalesce`] scope, so this also bounds how long a submission
/// waits for its doorbell: at most `RUN - 1` other polls.
const RUN: usize = 64;

/// The shared run queue: an injector deque plus a condvar so idle
/// workers sleep instead of spinning. Uses `std::sync` directly (the
/// vendored parking_lot shim carries no `Condvar`); poison is shrugged
/// off the same way the shim does it.
struct Queue {
    injector: StdMutex<Injector>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Worker threads, so each takes a fair share of a short queue.
    workers: usize,
}

/// What the queue's lock guards.
#[derive(Default)]
struct Injector {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on `available`. Counted under the lock, so a
    /// pusher that reads 0 knows every worker will see its task before
    /// it next waits, and can skip the notification (a futex syscall
    /// even when nobody waits).
    sleepers: usize,
}

impl Queue {
    fn injector(&self) -> std::sync::MutexGuard<'_, Injector> {
        self.injector.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `tasks` under one lock and wake at most one sleeping worker
    /// per task.
    fn push(&self, tasks: impl IntoIterator<Item = Arc<Task>>) {
        let wake = {
            let mut injector = self.injector();
            let before = injector.tasks.len();
            injector.tasks.extend(tasks);
            injector.sleepers.min(injector.tasks.len() - before)
        };
        for _ in 0..wake {
            self.available.notify_one();
        }
    }
}

/// The calling thread's [`coalesce`] scope: while `active`, woken tasks
/// and doorbells to ring collect here.
#[derive(Default)]
struct Held {
    active: bool,
    tasks: Vec<Arc<Task>>,
    /// Distinct doorbells, in first-submission order.
    doorbells: Vec<Doorbell>,
}

thread_local! {
    static HELD: RefCell<Held> = RefCell::new(Held::default());
}

/// Run `f` with the executor wakes and plane doorbells it causes on this
/// thread held back until it returns (or unwinds), then [`release`] them.
/// Wakers of anything other than an [`Executor`] task still fire at
/// once. Nested scopes fold into the outermost one.
pub(crate) fn coalesce<R>(f: impl FnOnce() -> R) -> R {
    /// Ends the scope and releases what it held, even on unwind: a held
    /// task would never be polled again, a held doorbell would leave its
    /// submissions unseen.
    struct End;
    impl Drop for End {
        fn drop(&mut self) {
            HELD.with(|h| h.borrow_mut().active = false);
            release();
        }
    }
    let outer = HELD.with(|h| !std::mem::replace(&mut h.borrow_mut().active, true));
    let _end = outer.then_some(End);
    f()
}

/// Ring every held doorbell, then queue every held task in wake order,
/// one lock per executor. The scope (if any) stays open.
fn release() {
    // Nothing can be held once the thread-local is torn down.
    let Ok((mut doorbells, mut tasks)) = HELD.try_with(|h| {
        let mut h = h.borrow_mut();
        (
            std::mem::take(&mut h.doorbells),
            std::mem::take(&mut h.tasks),
        )
    }) else {
        return;
    };
    for doorbell in doorbells.drain(..) {
        doorbell.ring();
    }
    let mut rest = tasks.drain(..).peekable();
    while let Some(first) = rest.next() {
        let queue = Arc::clone(&first.queue);
        let same = std::iter::from_fn(|| rest.next_if(|t| Arc::ptr_eq(&t.queue, &queue)));
        queue.push(std::iter::once(first).chain(same));
    }
    drop(rest);
    // Hand the emptied buffers back, so the next scope on this thread
    // does not allocate.
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        h.doorbells = doorbells;
        h.tasks = tasks;
    });
}

/// Ring `handle`'s doorbell: now, or, inside a [`coalesce`] scope, once
/// when the scope ends however many submissions it covers.
pub(crate) fn ring_soon(handle: &PlaneHandle) {
    let held = HELD
        .try_with(|h| {
            let mut h = h.borrow_mut();
            if h.active && !h.doorbells.iter().any(|d| d.is_for(handle)) {
                h.doorbells.push(handle.doorbell());
            }
            h.active
        })
        .unwrap_or(false);
    if !held {
        handle.doorbell().ring();
    }
}

/// One spawned future plus its scheduling state.
struct Task {
    /// `None` once the future has completed (or is momentarily taken out
    /// for polling).
    future: Mutex<Option<BoxFuture>>,
    /// True while the task sits in the injector — a waker firing N times
    /// between polls enqueues once, not N times.
    queued: AtomicBool,
    queue: Arc<Queue>,
}

impl Task {
    fn schedule(self: &Arc<Task>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        // A thread-local that is already torn down (a wake from a
        // thread-exit destructor) just queues directly.
        let held = HELD
            .try_with(|h| {
                let mut h = h.borrow_mut();
                if h.active {
                    h.tasks.push(Arc::clone(self));
                }
                h.active
            })
            .unwrap_or(false);
        if !held {
            self.queue.push([Arc::clone(self)]);
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// Shared completion state behind a [`JoinHandle`].
struct JoinState<T> {
    result: Mutex<(Option<T>, Option<Waker>)>,
    done: AtomicBool,
}

/// Await (or block on) a spawned task's result.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Block the current thread until the task completes.
    pub fn join(self) -> T {
        block_on(self)
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut guard = self.state.result.lock();
        if self.state.done.load(Ordering::Acquire) {
            if let Some(value) = guard.0.take() {
                return Poll::Ready(value);
            }
            panic!("JoinHandle polled after completion");
        }
        guard.1 = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A fixed pool of worker threads polling spawned futures.
pub struct Executor {
    queue: Arc<Queue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl Executor {
    /// Spawn `threads` workers (min 1).
    pub fn new(threads: usize) -> Executor {
        let queue = Arc::new(Queue {
            injector: StdMutex::new(Injector::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: threads.max(1),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("smod-async{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { queue, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Spawn a future onto the pool.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        let state = Arc::new(JoinState {
            result: Mutex::new((None, None)),
            done: AtomicBool::new(false),
        });
        let task_state = Arc::clone(&state);
        let wrapped = async move {
            let value = future.await;
            let waker = {
                let mut guard = task_state.result.lock();
                guard.0 = Some(value);
                task_state.done.store(true, Ordering::Release);
                guard.1.take()
            };
            if let Some(waker) = waker {
                waker.wake();
            }
        };
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(false),
            queue: Arc::clone(&self.queue),
        });
        task.schedule();
        JoinHandle { state }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            // Under the lock: a worker between its shutdown check and
            // its wait would otherwise miss both the flag and the
            // notification, and sleep forever.
            let _injector = self.queue.injector();
            self.queue.shutdown.store(true, Ordering::Release);
        }
        self.queue.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor worker panicked");
        }
    }
}

fn worker_loop(queue: &Arc<Queue>) {
    let mut run: Vec<Arc<Task>> = Vec::with_capacity(RUN);
    loop {
        {
            let mut injector = queue.injector();
            while injector.tasks.is_empty() {
                if queue.shutdown.load(Ordering::Acquire) {
                    return;
                }
                injector.sleepers += 1;
                injector = queue
                    .available
                    .wait(injector)
                    .unwrap_or_else(|e| e.into_inner());
                injector.sleepers -= 1;
            }
            let take = (injector.tasks.len() / queue.workers).clamp(1, RUN);
            run.extend(injector.tasks.drain(..take));
        }
        coalesce(|| {
            for task in run.drain(..) {
                // Clear `queued` *before* polling: a wake that lands
                // mid-poll re-enqueues the task, guaranteeing at least
                // one more poll sees whatever the waker announced.
                task.queued.store(false, Ordering::Release);
                let waker = Waker::from(Arc::clone(&task));
                let mut cx = Context::from_waker(&waker);
                let mut slot = task.future.lock();
                if let Some(future) = slot.as_mut() {
                    if future.as_mut().poll(&mut cx).is_ready() {
                        *slot = None; // completed: drop the future, ignore re-wakes
                    }
                }
            }
        });
    }
}

/// The thread-parker waker behind [`block_on`].
struct ThreadNotify {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadNotify {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Poll `future` to completion on the calling thread, parking between
/// polls (the thread-parker waker every executor textbook opens with).
pub fn block_on<T, F: Future<Output = T>>(future: F) -> T {
    let notify = Arc::new(ThreadNotify {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&notify));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
            return value;
        }
        // Called from inside a task (a [`coalesce`] scope), the future
        // may be waiting on a held doorbell or wake: release them before
        // sleeping.
        release();
        while !notify.notified.swap(false, Ordering::AcqRel) {
            std::thread::park();
        }
    }
}

/// Await every future in the batch, yielding outputs in input order —
/// the tiny corner of `futures::future::join_all` the dispatch frontends
/// need. O(pending) re-polls per wake, which is fine at dispatch batch
/// sizes; the 100k-client bench runs one spawned task per client instead.
pub struct JoinAll<F: Future + Unpin> {
    futures: Vec<Option<F>>,
    outputs: Vec<Option<F::Output>>,
}

/// Combine a batch of futures into one that resolves when all do.
pub fn join_all<F: Future + Unpin>(futures: impl IntoIterator<Item = F>) -> JoinAll<F> {
    let futures: Vec<Option<F>> = futures.into_iter().map(Some).collect();
    let outputs = futures.iter().map(|_| None).collect();
    JoinAll { futures, outputs }
}

// No self-references regardless of what Output is: Vec storage is heap
// storage, and the only pinning requirement we pass through is F's own.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = self.get_mut();
        let mut all_done = true;
        for i in 0..this.futures.len() {
            if let Some(future) = this.futures[i].as_mut() {
                match Pin::new(future).poll(cx) {
                    Poll::Ready(value) => {
                        this.outputs[i] = Some(value);
                        this.futures[i] = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|slot| slot.take().expect("every output filled"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A future that is Pending until an external flag flips, re-waking
    /// itself through the stored waker.
    struct FlagFuture {
        flag: Arc<AtomicBool>,
        waker_out: Arc<Mutex<Option<Waker>>>,
    }

    impl Future for FlagFuture {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.flag.load(Ordering::Acquire) {
                Poll::Ready(())
            } else {
                *self.waker_out.lock() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn block_on_runs_a_future_to_completion() {
        assert_eq!(block_on(async { 21 * 2 }), 42);
    }

    #[test]
    fn spawned_tasks_complete_and_join() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..64u64)
            .map(|i| {
                let counter = Arc::clone(&counter);
                exec.spawn(async move {
                    counter.fetch_add(1, Ordering::AcqRel);
                    i * 2
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (0..64u64).map(|i| i * 2).sum());
        assert_eq!(counter.load(Ordering::Acquire), 64);
    }

    #[test]
    fn a_woken_task_is_polled_again() {
        let exec = Executor::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let waker_out = Arc::new(Mutex::new(None));
        let handle = exec.spawn(FlagFuture {
            flag: Arc::clone(&flag),
            waker_out: Arc::clone(&waker_out),
        });
        // Wait for the first poll to park the waker.
        while waker_out.lock().is_none() {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        waker_out.lock().take().unwrap().wake();
        handle.join();
    }

    #[test]
    fn wakes_inside_a_coalesce_scope_queue_when_it_ends() {
        let exec = Executor::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let waker_out = Arc::new(Mutex::new(None));
        let handle = exec.spawn(FlagFuture {
            flag: Arc::clone(&flag),
            waker_out: Arc::clone(&waker_out),
        });
        while waker_out.lock().is_none() {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        let waker = waker_out.lock().take().unwrap();
        coalesce(|| {
            waker.wake_by_ref();
            assert!(
                exec.queue.injector().tasks.is_empty(),
                "a wake inside the scope is held, not queued"
            );
        });
        handle.join();
    }

    #[test]
    fn many_more_tasks_than_threads() {
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..10_000u64)
            .map(|i| exec.spawn(async move { i }))
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, 10_000 * 9_999 / 2);
    }
}
