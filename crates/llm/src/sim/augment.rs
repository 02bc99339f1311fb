//! Semantic error augmentation for the simulated LLM (Algorithm 1 line 25).
//!
//! Given verified clean example values of an attribute, the model fabricates
//! additional *erroneous* values that stay semantically close to the clean
//! ones while exhibiting realistic error mechanisms: character-level typos,
//! missing-value placeholders, format corruption, numeric distortion, and
//! in-domain value swaps (rule-violation-like inconsistencies).

use super::profiling::ColumnProfile;
use crate::mangle::MangleKind;

/// Deterministic hash-based choice in `[0, n)`.
fn pick(seed: u64, salt: u64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut h = seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    (h % n as u64) as usize
}

/// Generates `count` erroneous variants of the clean examples.
pub fn augment_errors(
    profile: &ColumnProfile,
    clean_examples: &[String],
    count: usize,
    seed: u64,
) -> Vec<String> {
    if clean_examples.is_empty() || count == 0 {
        return Vec::new();
    }
    let placeholders = ["", "NULL", "N/A", "-"];
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let salt = i as u64;
        let base = &clean_examples[pick(seed, salt, clean_examples.len())];
        let mechanism = pick(seed, salt.wrapping_add(101), 5);
        let corrupted = match mechanism {
            // Missing-value placeholder.
            0 => placeholders[pick(seed, salt.wrapping_add(7), placeholders.len())].to_string(),
            // Typo: substitute or drop one character.
            1 => typo(base, seed, salt),
            // Format corruption: strip separators / append garbage.
            2 => {
                if base.contains([' ', ':', '-', '/']) {
                    base.replace([' ', ':', '-', '/'], "")
                } else {
                    format!("{base}##")
                }
            }
            // Numeric distortion (or case scramble for text).
            3 => {
                if let Some(x) = zeroed_table::value::parse_numeric(base) {
                    format!("{}", x * 100.0)
                } else {
                    base.to_uppercase()
                }
            }
            // In-domain swap: use a *different* clean example, which is
            // erroneous in context (rule-violation-like).
            _ => {
                let other =
                    &clean_examples[pick(seed, salt.wrapping_add(13), clean_examples.len())];
                if other != base {
                    other.clone()
                } else {
                    typo(base, seed, salt.wrapping_add(29))
                }
            }
        };
        // Guarantee the generated value differs from the base clean example.
        if corrupted == *base {
            out.push(format!("{base}x"));
        } else {
            out.push(corrupted);
        }
    }
    // Categorical attributes should not be augmented with free-form garbage
    // only; ensure at least one placeholder is present for balance.
    if profile.is_categorical() && !out.iter().any(|v| v.is_empty()) && out.len() > 2 {
        let last = out.len() - 1;
        out[last] = String::new();
    }
    out
}

/// Applies one seeded content corruption to an augmentation response (see
/// [`crate::mangle`]). The response contract is arity (`values.len()` must
/// equal the requested count), so every kind maps onto an arity scar:
/// truncation, extra hallucinated values, or an empty body. Callers only
/// mangle non-empty responses — an empty healthy answer (no clean examples)
/// has no items to corrupt.
pub fn mangle_values(mut values: Vec<String>, kind: MangleKind) -> Vec<String> {
    match kind {
        MangleKind::TruncatedList | MangleKind::SchemaDrift => {
            let keep = values.len() / 2;
            values.truncate(keep);
            values
        }
        MangleKind::WrongArity | MangleKind::HallucinatedColumn => {
            values.push("value copied from an unrelated attribute".to_string());
            values.push("another fabricated value beyond the requested count".to_string());
            values
        }
        MangleKind::MalformedJson | MangleKind::EmptyBody => Vec::new(),
    }
}

fn typo(base: &str, seed: u64, salt: u64) -> String {
    let chars: Vec<char> = base.chars().collect();
    if chars.is_empty() {
        return "x".to_string();
    }
    let pos = pick(seed, salt.wrapping_add(3), chars.len());
    let mut out = chars.clone();
    if pick(seed, salt.wrapping_add(5), 2) == 0 && out.len() > 1 {
        out.remove(pos);
    } else {
        let replacement = char::from(b'a' + (pick(seed, salt.wrapping_add(9), 26)) as u8);
        out[pos] = replacement;
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::Table;

    fn profile() -> ColumnProfile {
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| vec![["Boston", "Denver", "Phoenix"][i % 3].to_string()])
            .collect();
        let t = Table::new("t", vec!["city".into()], rows).unwrap();
        ColumnProfile::analyze(&t, 0, &[])
    }

    #[test]
    fn produces_requested_count_of_distinct_errors() {
        let p = profile();
        let clean = vec![
            "Boston".to_string(),
            "Denver".to_string(),
            "Phoenix".to_string(),
        ];
        let errors = augment_errors(&p, &clean, 20, 5);
        assert_eq!(errors.len(), 20);
        // Every generated value differs from the clean example it was based on
        // is hard to check directly, but none should equal *all* clean values.
        assert!(errors.iter().any(|e| !clean.contains(e)));
    }

    #[test]
    fn deterministic_given_seed() {
        let p = profile();
        let clean = vec!["Boston".to_string(), "Denver".to_string()];
        assert_eq!(
            augment_errors(&p, &clean, 10, 3),
            augment_errors(&p, &clean, 10, 3)
        );
        assert_ne!(
            augment_errors(&p, &clean, 10, 3),
            augment_errors(&p, &clean, 10, 4)
        );
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let p = profile();
        assert!(augment_errors(&p, &[], 5, 1).is_empty());
        assert!(augment_errors(&p, &["x".into()], 0, 1).is_empty());
    }

    #[test]
    fn every_mangle_kind_breaks_the_arity_contract() {
        let p = profile();
        let clean = vec!["Boston".to_string(), "Denver".to_string()];
        let count = 8;
        let healthy = augment_errors(&p, &clean, count, 5);
        assert_eq!(healthy.len(), count);
        for kind in MangleKind::ALL {
            let mangled = mangle_values(healthy.clone(), kind);
            assert_ne!(mangled.len(), count, "{kind:?} kept the arity intact");
        }
        // A single-value response truncates to an (invalid) empty one.
        assert!(mangle_values(vec!["x".into()], MangleKind::TruncatedList).is_empty());
    }
}
