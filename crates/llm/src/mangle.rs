//! Seeded, deterministic *content*-fault injection for simulated LLM backends.
//!
//! Real LLM serving has a failure that no transport error reports: the
//! request *succeeds* but the body is wrong — truncated lists, malformed or
//! partially-emitted JSON, hallucinated column names, wrong-arity answers,
//! schema drift, or an empty body. A
//! [`MangleSchedule`] decides, purely as a function of its own seed, the
//! request's hidden-state salt ([`crate::LlmClient::request_salt`]) and the
//! attempt number, whether a given response is corrupted and how.
//!
//! Keying off the salt (rather than a call counter) keeps runs reproducible
//! regardless of scheduling: the same request is mangled the same way no
//! matter which worker thread issues it or in which execution mode. Folding
//! the attempt number gives re-asks an independent draw: a repair layer that
//! re-asks a mangled request gets a fresh (usually healthy, occasionally
//! re-mangled) response, which is exactly how retry against a flaky serving
//! stack behaves.
//!
//! The simulator stays infallible at the transport level: a mangled call
//! still "succeeds" and is charged to the token ledger at the corrupted
//! body's size. Detecting and repairing the corruption is the caller's
//! burden — the repair/re-ask layer in `zeroed-core` — mirroring the
//! permissive-environment discipline: the simulation is plausible, the
//! pipeline carries the correctness load.

/// One kind of injected response corruption.
///
/// Every kind maps, per stage, onto a typed transform that always leaves a
/// detectable scar (a value that cannot pass that stage's validator), so the
/// repair layer's `mangled == repaired + reasked + defaulted` accounting
/// reconciles exactly — no corruption is silently indistinguishable from a
/// healthy answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MangleKind {
    /// The response cut off mid-list: trailing items are missing and the last
    /// emitted item is broken (an unnamed criterion, a short label vector, a
    /// guideline covering only the first error types).
    TruncatedList,
    /// The body failed to parse at all (broken JSON, interleaved prose).
    /// Nothing is salvageable; the typed representation is a sentinel value
    /// that carries no usable content.
    MalformedJson,
    /// The model answered about an attribute that does not exist: column
    /// names/indices in the response point outside the schema.
    HallucinatedColumn,
    /// The response has the wrong arity: more items than asked for
    /// (duplicated entries, extra labels) on list-shaped stages, inconsistent
    /// counts on scalar-shaped ones.
    WrongArity,
    /// The response is well-formed under the *wrong* schema: keys renamed,
    /// entries reordered, identifiers drifted out of the expected namespace.
    SchemaDrift,
    /// The model returned an empty body (stop-token on the first position,
    /// content filter, zero-length completion).
    EmptyBody,
}

impl MangleKind {
    /// All kinds, in a fixed order (the order `decide` draws from).
    pub const ALL: [MangleKind; 6] = [
        MangleKind::TruncatedList,
        MangleKind::MalformedJson,
        MangleKind::HallucinatedColumn,
        MangleKind::WrongArity,
        MangleKind::SchemaDrift,
        MangleKind::EmptyBody,
    ];
}

/// A seeded per-client response-corruption schedule.
///
/// `rate` is the probability that a given `(salt, attempt)` pair is mangled;
/// the kind is a second independent uniform draw over [`MangleKind::ALL`].
/// The draw is a deterministic hash of `(seed, salt, attempt)`; its seed
/// multiplier (`0xa076_1d64_78bd_642f`) decides which requests are mangled,
/// so changing it changes every mangled run's masks and ledgers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MangleSchedule {
    /// Seed separating this client's corruption pattern from others'.
    pub seed: u64,
    /// Probability that a response is corrupted.
    pub rate: f64,
}

impl MangleSchedule {
    /// A schedule that never corrupts anything.
    pub fn healthy(seed: u64) -> Self {
        Self { seed, rate: 0.0 }
    }

    /// A schedule corrupting `rate` of responses, kinds drawn uniformly.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self { seed, rate }
    }

    /// Whether this schedule can ever corrupt a response.
    pub fn is_healthy(&self) -> bool {
        self.rate <= 0.0
    }

    /// Deterministically decides whether the response to the request
    /// identified by `salt`, on its `attempt`-th issue (0 = first ask,
    /// 1 = the repair layer's re-ask), is corrupted — and how. `None` is a
    /// healthy response.
    pub fn decide(&self, salt: u64, attempt: u32) -> Option<MangleKind> {
        if self.is_healthy() {
            return None;
        }
        // splitmix64 over (seed, salt, attempt), seeded through an odd
        // constant.
        let mut x = self
            .seed
            .wrapping_mul(0xa076_1d64_78bd_642f)
            .wrapping_add(salt)
            .wrapping_add((attempt as u64).wrapping_mul(0xe703_7ed1_a0b4_28db));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        // Second independent draw for the kind: one more mixing round over
        // the already-whitened state.
        let mut k = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        k ^= k >> 29;
        Some(MangleKind::ALL[(k % MangleKind::ALL.len() as u64) as usize])
    }
}

impl Default for MangleSchedule {
    fn default() -> Self {
        Self::healthy(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_schedule_never_mangles() {
        let s = MangleSchedule::healthy(9);
        assert!(s.is_healthy());
        for salt in 0..1_000u64 {
            assert_eq!(s.decide(salt, 0), None);
            assert_eq!(s.decide(salt, 1), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_in_seed_salt_and_attempt() {
        let s = MangleSchedule::uniform(3, 0.5);
        for salt in 0..200u64 {
            assert_eq!(s.decide(salt, 0), s.decide(salt, 0));
            assert_eq!(s.decide(salt, 1), s.decide(salt, 1));
        }
        let other = MangleSchedule { seed: 4, ..s };
        let differs = (0..200u64).any(|salt| s.decide(salt, 0) != other.decide(salt, 0));
        assert!(differs, "seeds must separate corruption patterns");
    }

    #[test]
    fn reask_attempt_redraws_independently() {
        let s = MangleSchedule::uniform(7, 0.5);
        let differs = (0..200u64).any(|salt| s.decide(salt, 0) != s.decide(salt, 1));
        assert!(differs, "attempt must be folded into the draw");
        // At rate 0.5, most first-attempt mangles must clear on re-ask.
        let mangled: Vec<u64> = (0..2_000u64)
            .filter(|&salt| s.decide(salt, 0).is_some())
            .collect();
        let recovered = mangled
            .iter()
            .filter(|&&salt| s.decide(salt, 1).is_none())
            .count();
        assert!(
            recovered * 3 > mangled.len(),
            "re-asks must usually draw healthy: {recovered}/{}",
            mangled.len()
        );
    }

    #[test]
    fn rate_and_kind_distribution_are_approximately_uniform() {
        let s = MangleSchedule::uniform(11, 0.5);
        let n = 12_000u64;
        let mut kind_counts = std::collections::HashMap::new();
        let mut mangled = 0usize;
        for salt in 0..n {
            if let Some(kind) = s.decide(salt.wrapping_mul(0x1234_5678_9abc_def1), 0) {
                mangled += 1;
                *kind_counts.entry(kind).or_insert(0usize) += 1;
            }
        }
        let frac = mangled as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "overall rate off: {frac}");
        for kind in MangleKind::ALL {
            let share = kind_counts[&kind] as f64 / mangled as f64;
            assert!(
                (share - 1.0 / 6.0).abs() < 0.05,
                "kind {kind:?} share off: {share}"
            );
        }
    }
}
