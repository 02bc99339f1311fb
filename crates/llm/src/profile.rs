//! Per-model quality profiles for the simulated LLM.
//!
//! The paper evaluates ZeroED with five different backbones (Table V). The
//! simulated LLM reproduces the *relative* behaviour of those models through a
//! quality profile: how reliably the model recognises each error type when
//! labelling, how often it wrongly flags clean values, how good its generated
//! criteria are, and how much the two-step guideline helps it.

use std::time::Duration;
use zeroed_table::ErrorType;

/// Simulated serving latency of one LLM backbone.
///
/// Real deployments spend most of ZeroED's wall-clock inside LLM calls, so
/// the offline reproduction needs a latency model to make scheduling
/// improvements measurable: a fixed per-request overhead (network + prefill
/// setup) plus linear per-token costs for prompt ingestion and decoding.
/// The absolute numbers are loosely calibrated to self-hosted vLLM serving of
/// the respective model sizes, scaled down ~10x so benchmark sweeps finish in
/// seconds. Each call is costed alone, but it is served in one of the
/// simulator's [`crate::SimLlm::SERVING_CAPACITY`] slots, so the *absolute*
/// concurrency matters too: up to that many calls overlap, and the rest
/// queue for a slot before their latency starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmLatency {
    /// Fixed per-request overhead in milliseconds.
    pub base_ms: f64,
    /// Prompt-ingestion cost in microseconds per input token.
    pub input_us_per_token: f64,
    /// Decoding cost in microseconds per output token.
    pub output_us_per_token: f64,
}

impl LlmLatency {
    /// Latency of one call with the given token counts.
    pub fn call_cost(&self, input_tokens: usize, output_tokens: usize) -> Duration {
        let us = self.base_ms * 1e3
            + self.input_us_per_token * input_tokens as f64
            + self.output_us_per_token * output_tokens as f64;
        Duration::from_nanos((us.max(0.0) * 1e3) as u64)
    }
}

/// Labelling/reasoning fidelity of one LLM backbone.
#[derive(Debug, Clone)]
pub struct LlmProfile {
    /// Model name as used in the paper's tables.
    pub name: String,
    /// Probability of correctly labelling a clean cell as clean.
    pub clean_accuracy: f64,
    /// Probability of recognising an erroneous cell, per error type.
    pub recall_missing: f64,
    /// Recall for typos.
    pub recall_typo: f64,
    /// Recall for pattern violations.
    pub recall_pattern: f64,
    /// Recall for outliers.
    pub recall_outlier: f64,
    /// Recall for rule violations.
    pub recall_rule: f64,
    /// Quality of generated error-checking criteria in `[0, 1]`; scales how
    /// many criterion families the model produces and how well calibrated
    /// their thresholds are.
    pub criteria_quality: f64,
    /// Additive accuracy boost when a detection guideline is supplied
    /// (removed by the "w/o Guid." ablation).
    pub guideline_boost: f64,
    /// Simulated serving latency of this backbone.
    pub latency: LlmLatency,
}

impl LlmProfile {
    /// Recall for a specific error type.
    pub fn recall(&self, ty: ErrorType) -> f64 {
        match ty {
            ErrorType::MissingValue => self.recall_missing,
            ErrorType::Typo => self.recall_typo,
            ErrorType::PatternViolation => self.recall_pattern,
            ErrorType::Outlier => self.recall_outlier,
            ErrorType::RuleViolation => self.recall_rule,
        }
    }

    /// The paper's default backbone: Qwen2.5-72B.
    pub fn qwen_72b() -> Self {
        Self {
            name: "Qwen2.5-72b".into(),
            clean_accuracy: 0.975,
            recall_missing: 0.98,
            recall_typo: 0.92,
            recall_pattern: 0.90,
            recall_outlier: 0.82,
            recall_rule: 0.80,
            criteria_quality: 0.95,
            guideline_boost: 0.06,
            latency: LlmLatency { base_ms: 12.0, input_us_per_token: 3.0, output_us_per_token: 36.0 },
        }
    }

    /// Llama3.1-70B.
    pub fn llama_70b() -> Self {
        Self {
            name: "Llama3.1-70b".into(),
            clean_accuracy: 0.955,
            recall_missing: 0.96,
            recall_typo: 0.88,
            recall_pattern: 0.85,
            recall_outlier: 0.76,
            recall_rule: 0.72,
            criteria_quality: 0.85,
            guideline_boost: 0.06,
            latency: LlmLatency { base_ms: 12.0, input_us_per_token: 3.0, output_us_per_token: 34.0 },
        }
    }

    /// Llama3.1-8B.
    pub fn llama_8b() -> Self {
        Self {
            name: "Llama3.1-8b".into(),
            clean_accuracy: 0.93,
            recall_missing: 0.95,
            recall_typo: 0.85,
            recall_pattern: 0.80,
            recall_outlier: 0.70,
            recall_rule: 0.62,
            criteria_quality: 0.75,
            guideline_boost: 0.08,
            latency: LlmLatency { base_ms: 8.0, input_us_per_token: 0.8, output_us_per_token: 9.0 },
        }
    }

    /// Qwen2.5-7B.
    pub fn qwen_7b() -> Self {
        Self {
            name: "Qwen2.5-7b".into(),
            clean_accuracy: 0.88,
            recall_missing: 0.93,
            recall_typo: 0.78,
            recall_pattern: 0.72,
            recall_outlier: 0.62,
            recall_rule: 0.55,
            criteria_quality: 0.65,
            guideline_boost: 0.08,
            latency: LlmLatency { base_ms: 8.0, input_us_per_token: 0.8, output_us_per_token: 9.0 },
        }
    }

    /// GPT-4o-mini, which the paper found to over-flag clean values (high
    /// recall, poor precision).
    pub fn gpt_4o_mini() -> Self {
        Self {
            name: "GPT-4o-mini".into(),
            clean_accuracy: 0.72,
            recall_missing: 0.95,
            recall_typo: 0.80,
            recall_pattern: 0.78,
            recall_outlier: 0.68,
            recall_rule: 0.60,
            criteria_quality: 0.70,
            guideline_boost: 0.05,
            latency: LlmLatency { base_ms: 20.0, input_us_per_token: 0.6, output_us_per_token: 12.0 },
        }
    }

    /// All five profiles in the order of the paper's Table V.
    pub fn all() -> Vec<LlmProfile> {
        vec![
            Self::gpt_4o_mini(),
            Self::llama_8b(),
            Self::llama_70b(),
            Self::qwen_7b(),
            Self::qwen_72b(),
        ]
    }

    /// Looks a profile up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<LlmProfile> {
        Self::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qwen72b_dominates_smaller_models() {
        let big = LlmProfile::qwen_72b();
        let small = LlmProfile::qwen_7b();
        assert!(big.clean_accuracy > small.clean_accuracy);
        for ty in ErrorType::ALL {
            assert!(big.recall(ty) >= small.recall(ty), "{ty}");
        }
        assert!(big.criteria_quality > small.criteria_quality);
    }

    #[test]
    fn gpt4o_mini_has_low_clean_accuracy() {
        // The paper reports GPT-4o-mini with strong recall but weak precision;
        // the profile encodes that as a low clean accuracy.
        let p = LlmProfile::gpt_4o_mini();
        assert!(p.clean_accuracy < LlmProfile::llama_8b().clean_accuracy);
        assert!(p.recall_missing > 0.9);
    }

    #[test]
    fn latency_scales_with_tokens_and_model_size() {
        let big = LlmProfile::qwen_72b().latency;
        let small = LlmProfile::qwen_7b().latency;
        assert!(big.call_cost(1_000, 200) > small.call_cost(1_000, 200));
        assert!(big.call_cost(1_000, 200) > big.call_cost(100, 20));
        assert_eq!(
            LlmLatency {
                base_ms: 1.0,
                input_us_per_token: 0.0,
                output_us_per_token: 0.0
            }
            .call_cost(0, 0),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(LlmProfile::all().len(), 5);
        assert!(LlmProfile::by_name("qwen2.5-72B").is_some());
        assert!(LlmProfile::by_name("gpt-5").is_none());
    }
}
