//! Synchronization facade for the speculation runtime.
//!
//! Every concurrency primitive `stats-core` uses — mutexes, condvars,
//! atomics, threads — is imported from this module rather than from `std`
//! directly. The module is one implementation over a `base` that is
//! `std::sync` in a normal build and `loom::sync` (same API) in a build
//! with `RUSTFLAGS="--cfg loom"`, so the loom suites in `tests/loom.rs`
//! exhaustively explore thread interleavings of the *actual* runtime code
//! paths, wrappers included. This is also the single place where other
//! primitives could be swapped in.
//!
//! CI enforces the funnel: `ci.sh` greps that no file of `stats-core`
//! outside `sync.rs` imports a `std::sync` atomic or lock, and `ci.sh
//! --loom` runs the model suite. The memory-ordering audit in
//! `docs/concurrency.md` documents every atomic routed through here, the
//! happens-before edge its orderings establish, and the loom model that
//! pins it.
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

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

#[cfg(loom)]
use loom::sync as base;
#[cfg(not(loom))]
use std::sync as base;

pub use self::base::Arc;

/// A value made by its first reader: a lazily laid-out trace. It is
/// `std`'s in both builds, since no loom model reads a trace.
pub use std::sync::LazyLock;

/// The lock of a `static`: the spare-block store every run of the process
/// shares (`resolver.rs`). It is `std`'s in both builds, since a `static`
/// outlives every model execution, and it is held only to push or pop a
/// spare block, never across an operation the model schedules. Poisoning
/// is swallowed like [`Mutex`]'s.
pub struct StaticMutex<T>(std::sync::Mutex<T>);

impl<T> StaticMutex<T> {
    /// Wrap `value` in a new mutex.
    pub const fn new(value: T) -> Self {
        StaticMutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Atomic integer types and memory orderings (model-checked under loom:
/// `Relaxed` loads explore stale values, `Acquire`/`Release` pairs
/// establish happens-before edges the model tracks).
pub mod atomic {
    pub use super::base::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning and control (scheduled by the model under loom).
pub mod thread {
    #[cfg(loom)]
    pub use loom::thread::{panicking, spawn, yield_now, Builder, JoinHandle, Result};
    #[cfg(not(loom))]
    pub use std::thread::{panicking, sleep, spawn, yield_now, Builder, JoinHandle, Result};

    /// The model has no clock: sleeping degrades to a cooperative yield so
    /// the threads being waited on can run.
    #[cfg(loom)]
    pub fn sleep(_dur: std::time::Duration) {
        yield_now();
    }

    /// Available hardware parallelism, defaulting to 1 when unknown; a
    /// fixed 2 under the model so models stay tractable.
    pub fn available_parallelism() -> usize {
        #[cfg(loom)]
        return 2;
        #[cfg(not(loom))]
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A mutex whose `lock` returns the guard directly: poisoning is
/// swallowed, because every structure the runtime locks is valid at every
/// step and panics are routed to their owner by other means.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: base::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub fn new(value: T) -> Self {
        Self {
            inner: base::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning (a scheduling point under the
    /// model).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Kept in an Option so a condvar wait can take the base guard out by
    // value and put the reacquired one back.
    inner: Option<base::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

/// Result of a timed wait.
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

/// The base condvar under `&mut guard` wait signatures; [`Condvar`] adds
/// the waiter count.
#[derive(Debug, Default)]
struct RawCondvar {
    inner: base::Condvar,
}

impl RawCondvar {
    fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard taken during wait");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

/// Condition variable with `&mut guard` wait signatures whose notifies
/// cost nothing when nobody waits.
///
/// `std::sync::Condvar::notify_*` enters the kernel on every call, waiter
/// or not. The runtime notifies far more often than anyone waits (a pool
/// job's completion, a producer's push, the coordinator's intake), so the
/// count of current waiters is kept here and a notify that finds it zero
/// does nothing.
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
            self.raw.inner.notify_one();
        }
    }

    /// Wake every waiter, if there is one.
    pub fn notify_all(&self) {
        if self.waiters.load(atomic::Ordering::Relaxed) > 0 {
            self.raw.inner.notify_all();
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

/// Pads and aligns a value to 128 bytes so that neighbouring values land
/// on distinct cache lines.
///
/// Frequently-written shared counters that share a line with unrelated
/// data cause false sharing: every write invalidates the line in all other
/// cores' caches even though they touch different bytes. The alignment is
/// 128 rather than 64 because modern x86_64 prefetchers pull cache lines
/// in adjacent pairs. Padding is a layout concern invisible to the model,
/// so the type is the same under loom.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad and align `value`.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consume the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

// Wrapper behaviour on the real primitives; the loom suite covers the same
// code over the model's.
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(vec![0; 3]);
        m.lock()[1] = 7;
        assert_eq!(*m.lock(), vec![0, 7, 0]);
        assert_eq!(m.into_inner(), vec![0, 7, 0]);
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _held = m2.lock();
            panic!("poison the base mutex");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
        });
        let (lock, cvar) = &*pair;
        *lock.lock() = true;
        cvar.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(1));
        assert!(r.timed_out());
    }

    #[test]
    fn cache_padded_separates_neighbours() {
        let pair = [CachePadded::new(1u8), CachePadded::new(2u8)];
        assert_eq!(std::mem::align_of_val(&pair[0]), 128);
        assert_eq!(std::mem::size_of_val(&pair), 256);
        assert_eq!(*pair[1] + *pair[0], 3);
    }
}
