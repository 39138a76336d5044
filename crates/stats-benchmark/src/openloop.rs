//! The open-loop load generator: requests fire on an *absolute* schedule
//! (`start + Σ exponential gaps`) whatever the system under test does, so a
//! stall delays nothing but the requests it actually delays — and latency
//! is timed from the due time, so that delay is charged to the system, not
//! hidden by a generator that quietly slowed down with it.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only random source. Every generator is
/// seeded from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Time as the generator sees it; the unit test substitutes a fake.
pub trait Clock {
    /// Time since the clock's epoch.
    fn now(&self) -> Duration;
    /// Block until `now() >= deadline` (return at once if already past).
    fn sleep_until(&self, deadline: Duration);
}

/// The wall clock, with its epoch at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        // `sleep` may wake early on some platforms and always wakes a little
        // late; loop so the request never fires before it is due, and let
        // the lateness show up where it is measured.
        while let Some(left) = deadline.checked_sub(self.now()) {
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left);
        }
    }
}

/// Absolute due times of `n` Poisson arrivals at `rate_per_s`, as offsets
/// from the start of the pass.
pub fn exponential_schedule(rng: &mut SplitMix, rate_per_s: f64, n: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Fire `send(i, due)` for every entry of `schedule`, each no earlier than
/// `start + schedule[i]`, and return how late each one fired. A slow `send`
/// makes later requests late (reported), never later requests' *due times*:
/// those were fixed before the pass began.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &[Duration],
    mut send: impl FnMut(usize, Duration),
) -> Vec<Duration> {
    let start = clock.now();
    schedule
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let due = start + offset;
            clock.sleep_until(due);
            let late = clock.now().saturating_sub(due);
            send(i, due);
            late
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when someone sleeps or a send "takes" time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, deadline: Duration) {
            self.0.set(self.0.get().max(deadline));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn due_times_are_absolute_and_a_stall_does_not_shift_them() {
        let clock = FakeClock(Cell::new(100 * MS));
        let schedule = [10 * MS, 20 * MS, 30 * MS, 40 * MS, 100 * MS];
        let mut fired = Vec::new();
        let late = pace(&clock, &schedule, |i, due| {
            fired.push((i, due, clock.now()));
            // The second request stalls the generator for 25 ms.
            let cost = if i == 1 { 25 * MS } else { MS };
            clock.0.set(clock.now() + cost);
        });
        let dues: Vec<Duration> = fired.iter().map(|f| f.1).collect();
        assert_eq!(
            dues,
            [110 * MS, 120 * MS, 130 * MS, 140 * MS, 200 * MS],
            "due = start + offset, independent of how long sends took"
        );
        let at: Vec<Duration> = fired.iter().map(|f| f.2).collect();
        assert_eq!(at, [110 * MS, 120 * MS, 145 * MS, 146 * MS, 200 * MS]);
        // A sleep-relative generator would have fired #2 at 155 and #3 at
        // 166; here the backlog is worked off at once and reported as late.
        let on_time = Duration::ZERO;
        assert_eq!(late, [on_time, on_time, 15 * MS, 6 * MS, on_time]);
    }

    #[test]
    fn schedule_is_seeded_increasing_and_at_the_asked_rate() {
        let a = exponential_schedule(&mut SplitMix(7), 1000.0, 20_000);
        let b = exponential_schedule(&mut SplitMix(7), 1000.0, 20_000);
        let c = exponential_schedule(&mut SplitMix(8), 1000.0, 20_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let seconds = a.last().unwrap().as_secs_f64();
        assert!(
            (19.0..21.0).contains(&seconds),
            "20k arrivals at 1k/s took {seconds}s"
        );
    }
}
