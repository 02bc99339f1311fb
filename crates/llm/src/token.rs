//! Token counting and accounting.
//!
//! The paper's efficiency claims (Fig. 8) are phrased in input/output token
//! counts. The exact tokenizer is model-specific; this module uses the common
//! engineering approximation of one token per ~4 characters, with a floor of
//! one token per whitespace-separated word, which is accurate to within a few
//! percent for English prose and structured table serialisations.

use parking_lot::Mutex;
use std::sync::Arc;

/// Approximate number of tokens in a text.
pub fn count_tokens(text: &str) -> usize {
    if text.is_empty() {
        return 0;
    }
    let chars = text.chars().count();
    let words = text.split_whitespace().count();
    (chars / 4).max(words)
}

/// A snapshot of accumulated token usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenUsage {
    /// Prompt (input) tokens sent to the model.
    pub input_tokens: usize,
    /// Completion (output) tokens produced by the model.
    pub output_tokens: usize,
    /// Number of individual requests.
    pub requests: usize,
}

impl TokenUsage {
    /// Total tokens (input + output).
    pub fn total(&self) -> usize {
        self.input_tokens + self.output_tokens
    }
}

/// How concurrently a backend served its calls: the most requests it held
/// at once, and how many calls waited for a free slot first. Recorded at
/// the simulator's serving gate (see [`TokenLedger::record_admission`]);
/// unlike [`TokenUsage`] it depends on scheduling, so runs that must agree
/// on usage may still differ here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingConcurrency {
    /// Peak number of requests being served at the same time.
    pub peak_in_flight: usize,
    /// Calls that found every serving slot taken and waited for one.
    pub waits: usize,
}

/// Thread-safe accumulator of token usage shared by all calls of one client.
#[derive(Debug, Default, Clone)]
pub struct TokenLedger {
    inner: Arc<Mutex<TokenUsage>>,
    /// The share of [`TokenLedger::usage`] spent on repair-layer re-asks
    /// (second issues of a request whose first response came back mangled).
    /// Kept as a distinct line so degradation cost is auditable: re-ask
    /// tokens are *included* in the main usage and mirrored here.
    reask: Arc<Mutex<TokenUsage>>,
    /// Total simulated model latency across all recorded calls. Tracked
    /// separately from [`TokenUsage`] because it is a *cost model* output
    /// (sum of per-call latencies, independent of scheduling), not something
    /// a served deployment would report.
    sim_cost: Arc<Mutex<std::time::Duration>>,
    /// Serving concurrency (see [`ServingConcurrency`]).
    concurrency: Arc<Mutex<ServingConcurrency>>,
}

impl TokenLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request given the rendered prompt and response texts.
    pub fn record(&self, prompt: &str, response: &str) {
        let mut usage = self.inner.lock();
        usage.input_tokens += count_tokens(prompt);
        usage.output_tokens += count_tokens(response);
        usage.requests += 1;
    }

    /// Records one request given pre-computed token counts.
    pub fn record_counts(&self, input_tokens: usize, output_tokens: usize) {
        let mut usage = self.inner.lock();
        usage.input_tokens += input_tokens;
        usage.output_tokens += output_tokens;
        usage.requests += 1;
    }

    /// Records one *re-ask* request given pre-computed token counts: the
    /// counts land in the main usage (a re-ask is a real request) and are
    /// mirrored into the distinct re-ask line.
    pub fn record_reask_counts(&self, input_tokens: usize, output_tokens: usize) {
        {
            let mut usage = self.inner.lock();
            usage.input_tokens += input_tokens;
            usage.output_tokens += output_tokens;
            usage.requests += 1;
        }
        let mut reask = self.reask.lock();
        reask.input_tokens += input_tokens;
        reask.output_tokens += output_tokens;
        reask.requests += 1;
    }

    /// The re-ask share of the ledger (already included in
    /// [`TokenLedger::usage`]).
    pub fn reask_usage(&self) -> TokenUsage {
        *self.reask.lock()
    }

    /// Adds one call's simulated model latency (see [`TokenLedger::sim_cost`]).
    pub fn record_sim_cost(&self, cost: std::time::Duration) {
        *self.sim_cost.lock() += cost;
    }

    /// Total simulated model latency recorded so far. This is the *serial*
    /// cost of all calls; a concurrent scheduler's wall-clock should come in
    /// well below it.
    pub fn sim_cost(&self) -> std::time::Duration {
        *self.sim_cost.lock()
    }

    /// Records one call admitted to serving with `in_flight` requests
    /// (itself included) then being served; `waited` marks a call that
    /// queued for a free slot first.
    pub fn record_admission(&self, in_flight: usize, waited: bool) {
        let mut c = self.concurrency.lock();
        c.peak_in_flight = c.peak_in_flight.max(in_flight);
        c.waits += usize::from(waited);
    }

    /// Serving concurrency recorded so far.
    pub fn concurrency(&self) -> ServingConcurrency {
        *self.concurrency.lock()
    }

    /// Returns the current snapshot.
    pub fn usage(&self) -> TokenUsage {
        *self.inner.lock()
    }

    /// Resets the ledger to zero.
    pub fn reset(&self) {
        *self.inner.lock() = TokenUsage::default();
        *self.reask.lock() = TokenUsage::default();
        *self.sim_cost.lock() = std::time::Duration::ZERO;
        *self.concurrency.lock() = ServingConcurrency::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_counting_is_reasonable() {
        assert_eq!(count_tokens(""), 0);
        let text = "Please label each of the following values as clean or erroneous.";
        let n = count_tokens(text);
        assert!(n >= 11 && n <= 20, "got {n}");
        // Long single word still counts by characters.
        assert!(count_tokens(&"a".repeat(400)) >= 100);
    }

    #[test]
    fn ledger_accumulates_and_resets() {
        let ledger = TokenLedger::new();
        ledger.record("one two three four", "ok");
        ledger.record_counts(10, 20);
        let usage = ledger.usage();
        assert_eq!(usage.requests, 2);
        assert!(usage.input_tokens >= 14);
        assert!(usage.output_tokens >= 21);
        assert_eq!(usage.total(), usage.input_tokens + usage.output_tokens);
        ledger.reset();
        assert_eq!(ledger.usage(), TokenUsage::default());
    }

    #[test]
    fn ledger_clones_share_state() {
        let ledger = TokenLedger::new();
        let clone = ledger.clone();
        clone.record_counts(5, 5);
        assert_eq!(ledger.usage().requests, 1);
    }

    #[test]
    fn reask_line_is_included_in_usage_and_mirrored() {
        let ledger = TokenLedger::new();
        ledger.record_counts(10, 20);
        ledger.record_reask_counts(3, 4);
        let usage = ledger.usage();
        assert_eq!(usage.requests, 2);
        assert_eq!(usage.input_tokens, 13);
        assert_eq!(usage.output_tokens, 24);
        let reask = ledger.reask_usage();
        assert_eq!(reask.requests, 1);
        assert_eq!(reask.input_tokens, 3);
        assert_eq!(reask.output_tokens, 4);
        ledger.reset();
        assert_eq!(ledger.reask_usage(), TokenUsage::default());
    }

    #[test]
    fn concurrency_keeps_the_peak_and_counts_waits() {
        let ledger = TokenLedger::new();
        ledger.record_admission(1, false);
        ledger.clone().record_admission(3, true);
        ledger.record_admission(2, true);
        assert_eq!(
            ledger.concurrency(),
            ServingConcurrency {
                peak_in_flight: 3,
                waits: 2
            }
        );
        ledger.reset();
        assert_eq!(ledger.concurrency(), ServingConcurrency::default());
    }

    #[test]
    fn sim_cost_accumulates_and_resets() {
        use std::time::Duration;
        let ledger = TokenLedger::new();
        assert_eq!(ledger.sim_cost(), Duration::ZERO);
        ledger.record_sim_cost(Duration::from_millis(3));
        ledger.clone().record_sim_cost(Duration::from_millis(4));
        assert_eq!(ledger.sim_cost(), Duration::from_millis(7));
        ledger.reset();
        assert_eq!(ledger.sim_cost(), Duration::ZERO);
    }
}
