//! Per-client token bucket.
//!
//! Each connection handler owns one bucket; a client that exceeds its
//! budget is *delayed* (the handler sleeps until a token accrues), never
//! errored — backpressure, not rejection. The bucket only computes the
//! wait: the handler counts the throttle event, flushes the replies it
//! is holding, and then sleeps, so no reply waits out a throttle.

use std::time::{Duration, Instant};

/// A token bucket refilling at `rate` tokens/second up to `burst`.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        let burst = burst.max(1) as f64;
        TokenBucket {
            rate: rate_per_sec.max(1) as f64,
            burst,
            tokens: burst,
            last_refill: Instant::now(),
        }
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
    }

    /// Take one token and return how long the caller must sleep before
    /// acting on it (`Duration::ZERO` when one was available). An empty
    /// bucket goes into debt by the token taken, which the sleep pays
    /// off; a caller that always sleeps owes at most one token.
    pub fn take(&mut self) -> Duration {
        self.refill();
        self.tokens -= 1.0;
        if self.tokens >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-self.tokens / self.rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_passes_without_waiting() {
        let mut b = TokenBucket::new(10, 5);
        for _ in 0..5 {
            assert_eq!(b.take(), Duration::ZERO);
        }
    }

    #[test]
    fn exhausted_bucket_reports_a_wait_instead_of_sleeping_or_failing() {
        let mut b = TokenBucket::new(10, 1);
        assert_eq!(b.take(), Duration::ZERO);
        // The second token is one refill period (100 ms at 10 ops/s)
        // away; `take` must say so without serving the wait itself.
        let started = Instant::now();
        let wait = b.take();
        assert!(started.elapsed() < Duration::from_millis(50), "take slept");
        assert!(wait > Duration::from_millis(50), "wait {wait:?}");
        assert!(wait <= Duration::from_millis(100), "wait {wait:?}");
        // Once the wait is served the debt is paid: the next token
        // costs one more period, not two.
        std::thread::sleep(wait);
        assert!(b.take() <= Duration::from_millis(100));
    }
}
