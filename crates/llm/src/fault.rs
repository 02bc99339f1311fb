//! Seeded, deterministic fault injection for simulated LLM backends.
//!
//! Multi-backend routing (see `zeroed-runtime`'s router) must be tested
//! against unhealthy backends: hard errors, timeouts and latency slow-tails.
//! A [`FaultSchedule`] decides, *purely as a function of its own seed and the
//! request's hidden-state salt* ([`crate::LlmClient::request_salt`]), whether a
//! given backend fails a given request. Keying off the salt rather than a call
//! counter makes runs reproducible regardless of scheduling: the same request
//! faults (or not) on the same backend no matter which worker thread issues it
//! or in what order, which is what lets the router conformance suite assert
//! bit-identical masks and exactly reconciled token ledgers under every fault
//! schedule.
//!
//! The simulator itself stays infallible: [`crate::SimLlm`] surfaces
//! error/timeout decisions through [`crate::LlmClient::injected_fault`] for
//! orchestration layers to act on, and applies slow-tail penalties to its own
//! simulated serving latency. A served (real) client never faults through this
//! path — its failures are real and reach the router as such.

use std::time::Duration;

/// One kind of injected backend fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The backend answers the request with a hard error (connection reset,
    /// HTTP 5xx, malformed completion). No response is produced.
    Error,
    /// The backend never answers within the caller's deadline. No response is
    /// produced; the caller pays the deadline before failing over.
    Timeout,
    /// The backend answers correctly but lands in its latency slow-tail
    /// (queueing, preemption, long prefill). The response is valid; only its
    /// serving latency suffers — the case hedged requests exist for.
    SlowTail,
}

/// A seeded per-backend fault schedule.
///
/// Rates are independent probabilities partitioning a single uniform draw:
/// `error_rate` first, then `timeout_rate`, then `slow_tail_rate`; whatever
/// remains is a healthy call. The draw is a deterministic hash of
/// `(seed, salt)`, so two schedules with different seeds fault on
/// (statistically) disjoint request sets — exactly the backbone-diversity
/// setup the router's failover and hedging exploit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    /// Seed separating this backend's fault pattern from its replicas'.
    pub seed: u64,
    /// Probability of a hard error.
    pub error_rate: f64,
    /// Probability of a timeout.
    pub timeout_rate: f64,
    /// Probability of a slow-tail (valid but slow) response.
    pub slow_tail_rate: f64,
    /// Extra serving latency, in milliseconds, a slow-tail call suffers on
    /// top of the profile's normal cost.
    pub slow_tail_ms: f64,
}

impl FaultSchedule {
    /// A schedule that never faults (the default for healthy backends).
    pub fn healthy(seed: u64) -> Self {
        Self {
            seed,
            error_rate: 0.0,
            timeout_rate: 0.0,
            slow_tail_rate: 0.0,
            slow_tail_ms: 0.0,
        }
    }

    /// A schedule whose only pathology is a latency slow-tail.
    pub fn slow_tail(seed: u64, rate: f64, slow_tail_ms: f64) -> Self {
        Self {
            seed,
            slow_tail_rate: rate,
            slow_tail_ms,
            ..Self::healthy(seed)
        }
    }

    /// Whether this schedule can ever fault.
    pub fn is_healthy(&self) -> bool {
        self.error_rate <= 0.0 && self.timeout_rate <= 0.0 && self.slow_tail_rate <= 0.0
    }

    /// The extra latency a slow-tail call suffers.
    pub fn slow_tail_penalty(&self) -> Duration {
        Duration::from_nanos((self.slow_tail_ms.max(0.0) * 1e6) as u64)
    }

    /// Deterministically decides the fate of the request identified by
    /// `salt`: `None` is a healthy call.
    pub fn decide(&self, salt: u64) -> Option<FaultKind> {
        if self.is_healthy() {
            return None;
        }
        // splitmix64 over (seed, salt) — one high-quality uniform draw.
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.error_rate {
            Some(FaultKind::Error)
        } else if u < self.error_rate + self.timeout_rate {
            Some(FaultKind::Timeout)
        } else if u < self.error_rate + self.timeout_rate + self.slow_tail_rate {
            Some(FaultKind::SlowTail)
        } else {
            None
        }
    }
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self::healthy(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_schedule_never_faults() {
        let s = FaultSchedule::healthy(7);
        assert!(s.is_healthy());
        for salt in 0..1_000u64 {
            assert_eq!(s.decide(salt), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_salt() {
        let s = FaultSchedule {
            seed: 3,
            error_rate: 0.2,
            timeout_rate: 0.2,
            slow_tail_rate: 0.2,
            slow_tail_ms: 10.0,
        };
        for salt in 0..200u64 {
            assert_eq!(s.decide(salt), s.decide(salt));
        }
        // A different seed produces a different fault pattern.
        let other = FaultSchedule { seed: 4, ..s };
        let differs = (0..200u64).any(|salt| s.decide(salt) != other.decide(salt));
        assert!(differs, "seeds must separate fault patterns");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let s = FaultSchedule {
            seed: 11,
            error_rate: 0.25,
            timeout_rate: 0.25,
            slow_tail_rate: 0.25,
            slow_tail_ms: 5.0,
        };
        let n = 4_000u64;
        let mut counts = [0usize; 4];
        for salt in 0..n {
            match s.decide(salt.wrapping_mul(0x1234_5678_9abc_def1)) {
                Some(FaultKind::Error) => counts[0] += 1,
                Some(FaultKind::Timeout) => counts[1] += 1,
                Some(FaultKind::SlowTail) => counts[2] += 1,
                None => counts[3] += 1,
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.05, "bucket {i} off: {frac} vs 0.25");
        }
    }

    #[test]
    fn slow_tail_penalty_converts_millis() {
        let s = FaultSchedule::slow_tail(1, 0.1, 2.5);
        assert_eq!(s.slow_tail_penalty(), Duration::from_micros(2_500));
        assert_eq!(
            FaultSchedule::healthy(0).slow_tail_penalty(),
            Duration::ZERO
        );
    }
}
