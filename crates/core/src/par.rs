//! The in-order parallel fold shared by the exhaustive model checker and
//! the scenario matrix sweep, and the worker ceiling every parallel path
//! shares.
//!
//! [`fold_in_order`] runs independent work items on scoped worker
//! threads but hands their results to one fold strictly in index order.
//! Whatever the fold accumulates, and the first result it stops at, is
//! therefore the same at every thread count: only which thread computed
//! a result depends on scheduling. A worker takes the shared queue's
//! lock once per item, to submit one result and claim the next index,
//! and workers that the fold's window holds back sleep until the fold
//! advances: only they are woken, and only then.
//!
//! [`worker_count`] turns a requested `--threads` value into the workers
//! a path spawns: the fold's, and `lr serve`'s probe workers. (The run
//! loop has no parallel path: `lr run` steps on one thread.) Every
//! parallel path is bit-identical at every count, so capping a request
//! at [`MAX_WORKERS`] changes only wall-clock.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// How far ahead of the fold each worker may run: a worker starts
/// index `i` only while `i ≤ folded + WINDOW_PER_THREAD × workers`.
/// The slack must outlast a worker losing its CPU for a time slice:
/// with `4` in its place, the n = 5 model check (items of about 40 µs)
/// lost a third of its throughput on 2 CPUs shared with one busy
/// process, because the running worker soon reached the window's edge
/// and waited for the descheduled one.
const WINDOW_PER_THREAD: usize = 64;

const POISONED: &str = "a fold worker panicked while holding the queue";

/// The most worker threads one parallel path spawns, whatever count is
/// requested.
pub const MAX_WORKERS: usize = 64;

/// The workers to spawn for `items` units of work at `threads`
/// requested: at least one, at most one per item, and at most
/// [`MAX_WORKERS`].
pub fn worker_count(threads: usize, items: usize) -> usize {
    threads.min(MAX_WORKERS).clamp(1, items.max(1))
}

/// Runs `work(i)` for each `i` in `0..n` on [`worker_count`]`(threads,
/// n)` scoped workers and hands every result to `fold` in index order.
///
/// - Once `fold` returns [`ControlFlow::Break`], no further `work`
///   starts and nothing more is folded; the break value is returned.
///   Results computed meanwhile are dropped unfolded.
/// - A worker starts `work(i)` only while `i` is at most `64 × workers`
///   past the number of results folded, so one slow item cannot let
///   the others park an unbounded number of finished results.
/// - At one thread (or zero) everything runs inline on the caller, like
///   a plain loop that stops at the first break.
///
/// A worker takes the queue's lock once per item: under it, it submits
/// the result it finished, folds every result whose turn has come, and
/// claims its next index. A worker that finds the window full sleeps on
/// a condition variable until the fold advances or stops; the queue
/// counts such sleepers, and a submission that advanced or stopped the
/// fold wakes them all only when there is one, so the common case makes
/// no wake-up call.
///
/// The sequence of `fold` calls, and so the return value, is identical
/// at every thread count. A panic in `work` or `fold` stops the other
/// workers and is propagated by the scope.
pub fn fold_in_order<T, B, W, F>(n: usize, threads: usize, work: W, mut fold: F) -> ControlFlow<B>
where
    T: Send,
    B: Send,
    W: Fn(usize) -> T + Sync,
    F: FnMut(T) -> ControlFlow<B> + Send,
{
    let workers = worker_count(threads, n);
    if workers == 1 {
        return (0..n).try_for_each(|i| fold(work(i)));
    }
    let window = WINDOW_PER_THREAD * workers;
    let queue = Mutex::new(Queue::new(fold));
    let turn = Condvar::new();
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                // Declared before the guard, so an unwinding worker
                // releases the lock before this wakes the others.
                let _wake = WakeOnPanic {
                    queue: &queue,
                    turn: &turn,
                };
                let mut q = queue.lock().expect(POISONED);
                let mut finished = None;
                loop {
                    if let Some((i, result)) = finished.take() {
                        if q.submit(i, result) && q.sleeping > 0 {
                            turn.notify_all();
                        }
                    }
                    while !q.stopped && q.started < n && q.started > q.folded + window {
                        q.sleeping += 1;
                        q = turn.wait(q).expect(POISONED);
                        q.sleeping -= 1;
                    }
                    if q.stopped || q.started == n {
                        break;
                    }
                    let i = q.started;
                    q.started += 1;
                    drop(q);
                    finished = Some((i, work(i)));
                    q = queue.lock().expect(POISONED);
                }
            });
        }
    });
    match queue.into_inner().expect(POISONED).broke {
        Some(b) => ControlFlow::Break(b),
        None => ControlFlow::Continue(()),
    }
}

/// The state the workers share: the next index to hand out, the
/// reorder buffer, and the fold itself.
struct Queue<T, B, F> {
    /// Indices handed out so far: `0..started`.
    started: usize,
    /// Results folded so far: `0..folded`.
    folded: usize,
    /// Finished results waiting for their turn, by index.
    parked: BTreeMap<usize, T>,
    fold: F,
    /// Set when the fold breaks or a worker panics: nothing starts or
    /// folds after it.
    stopped: bool,
    /// The fold's break value.
    broke: Option<B>,
    /// Workers asleep at the window's edge, waiting for the fold to
    /// advance.
    sleeping: usize,
}

impl<T, B, F: FnMut(T) -> ControlFlow<B>> Queue<T, B, F> {
    fn new(fold: F) -> Self {
        Queue {
            started: 0,
            folded: 0,
            parked: BTreeMap::new(),
            fold,
            stopped: false,
            broke: None,
            sleeping: 0,
        }
    }

    /// Parks the result of index `i`, then folds every parked result
    /// whose turn has come. Returns whether the fold advanced or
    /// stopped, which is when a sleeping worker may proceed.
    fn submit(&mut self, i: usize, result: T) -> bool {
        if self.stopped {
            return false;
        }
        self.parked.insert(i, result);
        let before = self.folded;
        while let Some(result) = self.parked.remove(&self.folded) {
            if let ControlFlow::Break(b) = (self.fold)(result) {
                self.broke = Some(b);
                self.stopped = true;
                self.parked.clear();
                return true;
            }
            self.folded += 1;
        }
        self.folded > before
    }
}

/// Stops the queue and wakes every sleeping worker when its worker
/// unwinds, so that a panic reaches the scope instead of leaving the
/// other workers waiting for a result that never comes. The wake-up is
/// unconditional, so that it relies on nothing the panic interrupted.
struct WakeOnPanic<'a, T, B, F> {
    queue: &'a Mutex<Queue<T, B, F>>,
    turn: &'a Condvar,
}

impl<T, B, F> Drop for WakeOnPanic<'_, T, B, F> {
    fn drop(&mut self) {
        if thread::panicking() {
            // Only the flag is written, so a poisoned queue is safe to
            // reuse here.
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stopped = true;
            self.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Every index's result, folded into a vector; breaks at `stop`.
    fn collect(n: usize, threads: usize, stop: usize) -> (Vec<usize>, ControlFlow<usize>) {
        let mut seen = Vec::new();
        let flow = fold_in_order(
            n,
            threads,
            |i| i,
            |i| {
                seen.push(i);
                if i == stop {
                    ControlFlow::Break(i)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        (seen, flow)
    }

    #[test]
    fn every_result_folds_in_index_order_at_every_thread_count() {
        for threads in [0, 1, 2, 3, 8] {
            let (seen, flow) = collect(100, threads, usize::MAX);
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(flow, ControlFlow::Continue(()));
        }
    }

    #[test]
    fn a_break_at_k_folds_exactly_0_to_k() {
        for threads in [1, 2, 8] {
            for k in [0, 1, 7, 33, 99] {
                let (seen, flow) = collect(100, threads, k);
                assert_eq!(seen, (0..=k).collect::<Vec<_>>(), "threads={threads}");
                assert_eq!(flow, ControlFlow::Break(k));
            }
        }
    }

    #[test]
    fn nothing_starts_past_the_window_after_a_break() {
        for threads in [2, 8] {
            let k = 20;
            let window = WINDOW_PER_THREAD * threads;
            let last = AtomicUsize::new(0);
            let flow = fold_in_order(
                1000,
                threads,
                |i| {
                    last.fetch_max(i, Ordering::SeqCst);
                },
                {
                    let mut folded = 0;
                    move |()| {
                        folded += 1;
                        if folded > k {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    }
                },
            );
            assert_eq!(flow, ControlFlow::Break(()));
            assert!(last.into_inner() <= k + window, "threads={threads}");
        }
    }

    #[test]
    fn no_work_starts_more_than_the_window_ahead_of_the_fold() {
        for threads in [2, 3, 8] {
            let window = WINDOW_PER_THREAD * threads;
            let folded = AtomicUsize::new(0);
            let started = AtomicUsize::new(0);
            let lead = AtomicUsize::new(0);
            let flow = fold_in_order(
                4 * window,
                threads,
                |i| {
                    lead.fetch_max(i - folded.load(Ordering::SeqCst), Ordering::SeqCst);
                    started.fetch_add(1, Ordering::SeqCst);
                    // Item 0 holds the fold until every index the window
                    // allows past it has started, so the other workers
                    // must run to the window's edge. The deadline only
                    // keeps a too-narrow window from hanging the test.
                    if i == 0 {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while started.load(Ordering::SeqCst) <= window && Instant::now() < deadline
                        {
                            thread::yield_now();
                        }
                    }
                },
                |()| {
                    folded.fetch_add(1, Ordering::SeqCst);
                    ControlFlow::<()>::Continue(())
                },
            );
            assert_eq!(flow, ControlFlow::Continue(()));
            assert_eq!(lead.into_inner(), window, "threads={threads}");
        }
    }

    /// Runs `f` on its own thread and fails if it does not return
    /// within `limit`, so a hang fails the test instead of stalling it.
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let run = thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("still running after {limit:?}: a worker was never woken")
            }
            // Finished or panicked: joining returns or re-raises.
            _ => {
                if let Err(panic) = run.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    #[test]
    fn workers_parked_at_the_window_edge_are_always_woken() {
        // Item 0 holds the fold until every other index the window allows
        // has started, so the other workers run to the window's edge and
        // go to sleep there; the rest of the items are instant. Most
        // rounds end item 0 with a worker asleep, and a lost wake-up
        // leaves it in the scope forever.
        within(Duration::from_secs(60), || {
            for threads in [2, 3, 8] {
                let window = WINDOW_PER_THREAD * threads;
                for round in 0..100 {
                    let started = AtomicUsize::new(0);
                    let mut folded = 0;
                    let flow = fold_in_order(
                        3 * window,
                        threads,
                        |i| {
                            started.fetch_add(1, Ordering::SeqCst);
                            if i == 0 {
                                while started.load(Ordering::SeqCst) <= window {
                                    thread::yield_now();
                                }
                            }
                            i
                        },
                        |i| {
                            assert_eq!(i, folded, "threads={threads} round={round}");
                            folded += 1;
                            ControlFlow::<()>::Continue(())
                        },
                    );
                    assert_eq!(flow, ControlFlow::Continue(()));
                    assert_eq!(folded, 3 * window, "threads={threads} round={round}");
                }
            }
        });
    }

    #[test]
    fn the_worker_count_is_capped_by_the_work_and_the_ceiling() {
        for (threads, items, workers) in [
            (0, 10, 1),
            (1, 10, 1),
            (3, 10, 3),
            (3, 0, 1),
            (3, 2, 2),
            (64, 1000, 64),
            (65, 1000, 64),
            (100_000, 32_389, MAX_WORKERS),
            (usize::MAX, usize::MAX, MAX_WORKERS),
            (usize::MAX, 5, 5),
        ] {
            assert_eq!(
                worker_count(threads, items),
                workers,
                "threads={threads} items={items}"
            );
        }
    }

    #[test]
    fn zero_items_run_nothing() {
        for threads in [1, 2, 8] {
            let flow = fold_in_order(
                0,
                threads,
                |_| panic!("no work to run"),
                |()| ControlFlow::<()>::Break(()),
            );
            assert_eq!(flow, ControlFlow::Continue(()));
        }
    }

    #[test]
    fn more_threads_than_items_fold_the_same() {
        for n in 1..=4 {
            assert_eq!(collect(n, 64, usize::MAX), collect(n, 1, usize::MAX));
            assert_eq!(collect(n, 64, n - 1), collect(n, 1, n - 1));
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_instead_of_hanging() {
        // Index 0 never folds, so without the wake-up the other worker
        // would wait at the window's edge forever.
        let run = std::panic::catch_unwind(|| {
            fold_in_order(
                1000,
                2,
                |i| assert_ne!(i, 0, "item 0 fails"),
                |()| ControlFlow::<()>::Continue(()),
            )
        });
        assert!(run.is_err());
    }

    #[test]
    fn the_reorder_buffer_parks_early_arrivals_until_the_gap_fills() {
        let mut seen = Vec::new();
        let mut q = Queue::new(|i: usize| {
            seen.push(i);
            ControlFlow::<()>::Continue(())
        });
        assert!(!q.submit(2, 2));
        assert_eq!((q.parked.len(), q.folded), (1, 0));
        assert!(q.submit(0, 0));
        assert_eq!((q.parked.len(), q.folded), (1, 1));
        assert!(q.submit(1, 1));
        assert_eq!((q.parked.len(), q.folded), (0, 3));
        drop(q);
        assert_eq!(seen, [0, 1, 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any submission order folds in index order, stopping at the
        /// first break.
        #[test]
        fn the_reorder_buffer_linearizes_any_permutation(
            len in 0usize..64,
            stop in 0usize..80,
            seed in any::<u64>(),
        ) {
            // A seeded permutation of 0..len: sort the indices by a keyed
            // hash.
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by_key(|&i| {
                let mut h = DefaultHasher::new();
                (seed, i).hash(&mut h);
                h.finish()
            });
            let mut seen = Vec::new();
            let mut q = Queue::new(|i: usize| {
                seen.push(i);
                if i == stop {
                    ControlFlow::Break(i)
                } else {
                    ControlFlow::Continue(())
                }
            });
            for &i in &order {
                q.submit(i, i);
            }
            prop_assert_eq!(q.parked.len(), 0);
            prop_assert_eq!(q.stopped, stop < len);
            prop_assert_eq!(q.broke, (stop < len).then_some(stop));
            drop(q);
            prop_assert_eq!(seen, (0..len.min(stop + 1)).collect::<Vec<_>>());
        }
    }
}
