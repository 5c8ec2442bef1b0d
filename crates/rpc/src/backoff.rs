//! Bounded exponential backoff with deterministic jitter for client retry
//! loops.
//!
//! The failover loops of the client stubs (`RemoteFs`, `RemoteBlockStore`),
//! the TCP connect path and `afs_core`'s update retry loop all sleep on it.
//! The stubs originally retried *immediately*: one tight pass over the
//! server list and give up.  Against a transient outage — a server
//! restarting, a partition healing — an immediate retry is both too eager
//! (it hammers a recovering server at the worst moment) and too impatient
//! (it gives up milliseconds before the server is back).  [`Backoff`]
//! packages the standard remedy:
//!
//! * **exponential** — the n-th delay doubles the previous one, so a short
//!   blip costs microseconds and a real outage backs the client off quickly;
//! * **bounded** — delays are capped, and the number of attempts is finite:
//!   these are interactive transactions, not a durable queue, and the caller
//!   gets its error after a bounded worst-case wait;
//! * **jittered** — each delay is drawn uniformly from `[d/2, d]`, so a fleet
//!   of clients whose retries were synchronised by the failure itself (the
//!   thundering herd) spreads back out.  The jitter source is a tiny
//!   deterministic xorshift generator seeded by the caller — reproducible in
//!   tests, decorrelated in production by seeding from the connection
//!   identity (or, for update retries, from the clock).
//!
//! The type is a plain iterator-style state machine with no clock of its own:
//! callers ask for [`Backoff::next_delay`] and sleep (or schedule) however
//! they like, which keeps it testable without sleeping.

use std::time::Duration;

/// An exhaustible schedule of capped, jittered, exponentially growing delays.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    max_attempts: u32,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, never exceeding
    /// `cap`, exhausted after `max_attempts` delays.  Uses a fixed jitter
    /// seed; prefer [`Backoff::with_seed`] when many clients may retry in
    /// lock-step.
    pub fn new(base: Duration, cap: Duration, max_attempts: u32) -> Self {
        Self::with_seed(base, cap, max_attempts, 0x9E37_79B9_7F4A_7C15)
    }

    /// [`Backoff::new`] with an explicit jitter seed (e.g. a hash of the
    /// connection's port, so concurrent clients spread out).
    pub fn with_seed(base: Duration, cap: Duration, max_attempts: u32, seed: u64) -> Self {
        // splitmix64: spreads adjacent seeds (port 5001 vs 5002) across the
        // whole state space, and never produces the all-zero state xorshift
        // would get stuck in.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Backoff {
            base,
            cap,
            max_attempts,
            attempt: 0,
            rng: (z ^ (z >> 31)) | 1,
        }
    }

    /// The standard retry policy of the client stubs: three delays of roughly
    /// 5 ms / 10 ms / 20 ms (jittered), `seed`-decorrelated.
    pub fn client_default(seed: u64) -> Self {
        Self::with_seed(Duration::from_millis(5), Duration::from_millis(50), 3, seed)
    }

    /// Number of delays handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay to wait before retrying, or `None` when the schedule is
    /// exhausted and the caller should surface its error.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        // base * 2^attempt, saturating, capped.
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt += 1;
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Some(Duration::ZERO);
        }
        // Uniform in [nanos/2, nanos]: full speed-of-recovery at half the
        // delay, full decorrelation across clients.
        let half = nanos / 2;
        let jittered = half + self.next_rand() % (nanos - half + 1);
        Some(Duration::from_nanos(jittered))
    }

    /// Sleeps for the next delay of the schedule.  Returns `false` (without
    /// sleeping) when the schedule is exhausted.
    pub fn sleep_next(&mut self) -> bool {
        match self.next_delay() {
            Some(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                true
            }
            None => false,
        }
    }

    /// xorshift64*: tiny, fast, plenty for jitter (not for cryptography).
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds_and_respect_the_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(40);
        let mut backoff = Backoff::with_seed(base, cap, 5, 7);
        let mut expected = base;
        for _ in 0..5 {
            let d = backoff.next_delay().expect("schedule not exhausted");
            assert!(
                d >= expected / 2 && d <= expected,
                "delay {d:?} outside [{:?}, {expected:?}]",
                expected / 2
            );
            expected = (expected * 2).min(cap);
        }
        assert_eq!(backoff.next_delay(), None, "schedule exhausts");
        assert_eq!(backoff.attempts(), 5);
    }

    #[test]
    fn same_seed_gives_the_same_schedule_and_different_seeds_decorrelate() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b =
                Backoff::with_seed(Duration::from_millis(8), Duration::from_secs(1), 6, seed);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        assert_eq!(schedule(42), schedule(42), "deterministic given a seed");
        assert_ne!(
            schedule(42),
            schedule(43),
            "different clients must not retry in lock-step"
        );
    }

    #[test]
    fn zero_base_never_panics() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 3);
        for _ in 0..3 {
            assert_eq!(b.next_delay(), Some(Duration::ZERO));
        }
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn sleep_next_reports_exhaustion() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 1);
        assert!(b.sleep_next());
        assert!(!b.sleep_next());
    }
}
