//! Synchronization facade for the speculation runtime.
//!
//! Every concurrency primitive `stats-core` uses — mutexes, condvars,
//! atomics, threads, and the work-stealing deque — is imported from this
//! module rather than from `std`/`parking_lot`/`crossbeam` directly. A
//! normal build re-exports the real primitives unchanged (zero cost); a
//! build with `RUSTFLAGS="--cfg loom"` swaps in the `loom` model checker's
//! equivalents, so the loom suites in `tests/loom.rs` exhaustively explore
//! thread interleavings of the *actual* runtime code paths.
//!
//! CI enforces the funnel: `ci.sh` greps that no file outside `sync.rs`
//! imports `std::sync::atomic`, and `ci.sh --loom` runs the model suite.
//! The memory-ordering audit in `docs/concurrency.md` documents every
//! atomic routed through here, the happens-before edge its orderings
//! establish, and the loom model that pins it.
//!
//! Differences under `cfg(loom)` (all documented in `vendor/loom`):
//!
//! - `thread::sleep` becomes a cooperative yield — the model has no clock,
//!   and sleeping for real would only serialize the already-serialized
//!   model threads.
//! - `Condvar` timed waits time out exactly when no other model thread can
//!   run; a timeout never races a notification.
//! - [`Condvar::wait_backstop`] never times out at all, so a schedule that
//!   only its timeout would rescue is reported as a deadlock.
//! - `thread::available_parallelism` reports a fixed small constant so
//!   models stay tractable.

#[cfg(not(loom))]
pub use self::std_impl::*;

#[cfg(loom)]
pub use self::loom_impl::*;

use std::time::Duration;

/// Condition variable with `parking_lot`'s `&mut guard` signatures whose
/// notifies cost nothing when nobody waits.
///
/// The vendored `parking_lot` stand-in forwards to `std::sync::Condvar`,
/// which enters the kernel on every `notify_*`; the real `parking_lot`
/// returns at once when its wait queue is empty. The runtime notifies far
/// more often than anyone waits (a pool job's completion, a producer's
/// push, the coordinator's intake), so the count of current waiters is
/// kept here and a notify that finds it zero does nothing.
///
/// **Contract**: whoever makes the waited-for condition true does so
/// while holding the mutex the waiters wait with, and notifies afterwards
/// (still holding it or not). A waiter registers while it holds that
/// mutex, so either it saw the new condition and never waits, or its
/// registration happens-before the notifier's critical section and the
/// notify sees a non-zero count. Every condvar in `stats-core` is used
/// this way; the loom suite runs this same code over the model atomics.
#[derive(Debug, Default)]
pub struct Condvar {
    raw: RawCondvar,
    /// Threads inside `wait*`. Ordering: `Relaxed` everywhere — the count
    /// publishes no data, and the mutex named in the contract orders a
    /// registration before any notify that has to see it
    /// (docs/concurrency.md).
    waiters: atomic::AtomicUsize,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake one waiter, if there is one.
    pub fn notify_one(&self) {
        if self.waiters.load(atomic::Ordering::Relaxed) > 0 {
            self.raw.notify_one();
        }
    }

    /// Wake every waiter, if there is one.
    pub fn notify_all(&self) {
        if self.waiters.load(atomic::Ordering::Relaxed) > 0 {
            self.raw.notify_all();
        }
    }

    /// Run a raw wait as a registered waiter.
    fn registered<R>(&self, raw_wait: impl FnOnce(&RawCondvar) -> R) -> R {
        self.waiters.fetch_add(1, atomic::Ordering::Relaxed);
        let result = raw_wait(&self.raw);
        self.waiters.fetch_sub(1, atomic::Ordering::Relaxed);
        result
    }

    /// Block until notified, releasing the lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.registered(|raw| raw.wait(guard));
    }

    /// Block until notified or `timeout` elapses (under the model: until
    /// no other thread can run).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.registered(|raw| raw.wait_for(guard, timeout))
    }

    /// [`wait_for`](Condvar::wait_for) whose timeout is a *backstop*: the
    /// caller's protocol must deliver a notification for everything it
    /// waits for, and the timeout only bounds the damage if a future edit
    /// breaks that. Under the model the timeout therefore never fires, so
    /// a schedule in which it would be what delivers progress fails as a
    /// deadlock instead of passing silently.
    pub fn wait_backstop<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        #[cfg(not(loom))]
        self.wait_for(guard, timeout);
        #[cfg(loom)]
        {
            let _ = timeout;
            self.wait(guard);
        }
    }
}

/// Production implementation: thin re-exports of the real primitives.
#[cfg(not(loom))]
mod std_impl {
    pub use crossbeam::utils::CachePadded;
    pub(super) use parking_lot::Condvar as RawCondvar;
    pub use parking_lot::{Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::sync::Arc;

    /// Atomic integer types and memory orderings.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning and control.
    pub mod thread {
        pub use std::thread::{panicking, sleep, spawn, yield_now, Builder, JoinHandle, Result};

        /// Available hardware parallelism, defaulting to 1 when unknown.
        pub fn available_parallelism() -> usize {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Work-stealing deques (crossbeam's `Injector`/`Worker`/`Stealer`).
    pub mod deque {
        pub use crossbeam::deque::{Injector, Steal, Stealer, Worker};
    }
}

/// Model-checked implementation: loom primitives wrapped back into the
/// `parking_lot`-style ergonomics the runtime is written against.
#[cfg(loom)]
mod loom_impl {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::time::Duration;

    pub use loom::sync::Arc;

    // Padding is a layout concern invisible to the model: reusing the
    // vendored type keeps the padded runtime structs identical under loom.
    pub use crossbeam::utils::CachePadded;

    /// Atomic integer types and memory orderings (model-checked: `Relaxed`
    /// loads explore stale values, `Acquire`/`Release` pairs establish
    /// happens-before edges the model tracks).
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    /// Thread spawning and control, scheduled by the model.
    pub mod thread {
        pub use loom::thread::{panicking, spawn, yield_now, Builder, JoinHandle, Result};

        /// The model has no clock: sleeping degrades to a cooperative
        /// yield so the threads being waited on can run.
        pub fn sleep(_dur: std::time::Duration) {
            yield_now();
        }

        /// Fixed small parallelism so models stay tractable.
        pub fn available_parallelism() -> usize {
            2
        }
    }

    /// A mutex with `parking_lot` ergonomics over the loom model mutex.
    #[derive(Default)]
    pub struct Mutex<T> {
        inner: loom::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Wrap `value` in a new mutex.
        pub fn new(value: T) -> Self {
            Self {
                inner: loom::sync::Mutex::new(value),
            }
        }

        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Acquire the lock (a model scheduling point).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: Some(
                    self.inner
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                ),
            }
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    /// RAII guard returned by [`Mutex::lock`].
    pub struct MutexGuard<'a, T> {
        // Kept in an Option so Condvar::wait can take the loom guard out
        // by value, mirroring the parking_lot facade.
        inner: Option<loom::sync::MutexGuard<'a, T>>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken during wait")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken during wait")
        }
    }

    /// Result of a timed wait; mirrors `parking_lot::WaitTimeoutResult`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult {
        timed_out: bool,
    }

    impl WaitTimeoutResult {
        /// Whether the wait ended because the timeout elapsed.
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// The loom model condvar under `parking_lot`'s `&mut guard`
    /// signatures; [`Condvar`](super::Condvar) adds the waiter count.
    #[derive(Debug, Default)]
    pub(super) struct RawCondvar {
        inner: loom::sync::Condvar,
    }

    impl RawCondvar {
        /// Wake one waiter (deterministic under the model).
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }

        /// Block until notified, releasing the lock while waiting.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.inner.take().expect("guard taken during wait");
            let inner = self
                .inner
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.inner = Some(inner);
        }

        /// Block until notified or "timed out" — under the model, a
        /// timeout fires only when no other thread is runnable.
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            _timeout: Duration,
        ) -> WaitTimeoutResult {
            let inner = guard.inner.take().expect("guard taken during wait");
            let (inner, result) = self
                .inner
                .wait_timeout(inner, _timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.inner = Some(inner);
            WaitTimeoutResult {
                timed_out: result.timed_out(),
            }
        }
    }

    /// Work-stealing deques re-implemented over the model mutex so every
    /// queue operation is a scheduling point the checker can interleave
    /// (routing the vendored crossbeam shim's internal `std::sync::Mutex`
    /// through the model would hide those points instead).
    pub mod deque {
        use super::{Arc, Mutex};
        use std::collections::VecDeque;

        /// Result of a steal attempt.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Steal<T> {
            /// The queue was empty.
            Empty,
            /// One task was stolen.
            Success(T),
            /// The operation lost a race and may be retried.
            Retry,
        }

        impl<T> Steal<T> {
            /// Whether the attempt found the queue empty.
            pub fn is_empty(&self) -> bool {
                matches!(self, Steal::Empty)
            }

            /// Whether a task was stolen.
            pub fn is_success(&self) -> bool {
                matches!(self, Steal::Success(_))
            }
        }

        /// Shared FIFO injector queue (model-checked).
        #[derive(Debug)]
        pub struct Injector<T> {
            q: Mutex<VecDeque<T>>,
        }

        impl<T> Default for Injector<T> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<T> Injector<T> {
            /// New empty injector.
            pub fn new() -> Self {
                Self {
                    q: Mutex::new(VecDeque::new()),
                }
            }

            /// Push a task onto the global queue.
            pub fn push(&self, task: T) {
                self.q.lock().push_back(task);
            }

            /// Whether the queue is currently empty (racy hint).
            pub fn is_empty(&self) -> bool {
                self.q.lock().is_empty()
            }

            /// Number of queued tasks (racy hint).
            pub fn len(&self) -> usize {
                self.q.lock().len()
            }

            /// Pop one task.
            pub fn steal(&self) -> Steal<T> {
                match self.q.lock().pop_front() {
                    Some(t) => Steal::Success(t),
                    None => Steal::Empty,
                }
            }

            /// Move a batch of tasks into `dest`'s local queue and pop one.
            pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
                let mut q = self.q.lock();
                let Some(first) = q.pop_front() else {
                    return Steal::Empty;
                };
                let batch = q.len() / 2;
                let mut local = dest.q.lock();
                for _ in 0..batch {
                    match q.pop_front() {
                        Some(t) => local.push_back(t),
                        None => break,
                    }
                }
                Steal::Success(first)
            }
        }

        /// A thread's local queue; the single producer-consumer end.
        #[derive(Debug)]
        pub struct Worker<T> {
            q: Arc<Mutex<VecDeque<T>>>,
        }

        impl<T> Worker<T> {
            /// New FIFO worker queue.
            pub fn new_fifo() -> Self {
                Self {
                    q: Arc::new(Mutex::new(VecDeque::new())),
                }
            }

            /// Push a task onto the local queue.
            pub fn push(&self, task: T) {
                self.q.lock().push_back(task);
            }

            /// Pop the next local task.
            pub fn pop(&self) -> Option<T> {
                self.q.lock().pop_front()
            }

            /// Whether the local queue is empty.
            pub fn is_empty(&self) -> bool {
                self.q.lock().is_empty()
            }

            /// A shared stealing handle onto this queue.
            pub fn stealer(&self) -> Stealer<T> {
                Stealer {
                    q: Arc::clone(&self.q),
                }
            }
        }

        /// Shared handle that steals from the far end of a [`Worker`].
        #[derive(Debug)]
        pub struct Stealer<T> {
            q: Arc<Mutex<VecDeque<T>>>,
        }

        impl<T> Clone for Stealer<T> {
            fn clone(&self) -> Self {
                Self {
                    q: Arc::clone(&self.q),
                }
            }
        }

        impl<T> Stealer<T> {
            /// Steal one task from the queue's far end.
            pub fn steal(&self) -> Steal<T> {
                match self.q.lock().pop_back() {
                    Some(t) => Steal::Success(t),
                    None => Steal::Empty,
                }
            }

            /// Whether the victim queue is empty (racy hint).
            pub fn is_empty(&self) -> bool {
                self.q.lock().is_empty()
            }
        }
    }
}
