//! Normalised mutual information between attributes (paper §III-B).
//!
//! ZeroED identifies the attributes most correlated with a target attribute by
//! computing NMI over the empirical joint distribution of their values and
//! keeping the top-`k`. NMI captures both linear and non-linear dependencies
//! and is normalised to `[0, 1]`.

use std::collections::HashMap;
use zeroed_table::{Table, TableDict};

/// Computes the normalised mutual information between two value sequences of
/// equal length.
///
/// `NMI(X, Y) = I(X; Y) / sqrt(H(X) * H(Y))`, with probabilities estimated by
/// relative frequencies. Returns 0 when either entropy is 0 (constant column).
pub fn normalized_mutual_information(xs: &[&str], ys: &[&str]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "NMI requires equal-length columns");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mut px: HashMap<&str, f64> = HashMap::new();
    let mut py: HashMap<&str, f64> = HashMap::new();
    let mut pxy: HashMap<(&str, &str), f64> = HashMap::new();
    let inc = 1.0 / n as f64;
    for (x, y) in xs.iter().zip(ys.iter()) {
        *px.entry(x).or_insert(0.0) += inc;
        *py.entry(y).or_insert(0.0) += inc;
        *pxy.entry((x, y)).or_insert(0.0) += inc;
    }
    let hx: f64 = -px.values().map(|p| p * p.ln()).sum::<f64>();
    let hy: f64 = -py.values().map(|p| p * p.ln()).sum::<f64>();
    if hx <= 1e-12 || hy <= 1e-12 {
        return 0.0;
    }
    let mut mi = 0.0;
    for ((x, y), p) in &pxy {
        let denom = px[x] * py[y];
        if *p > 0.0 && denom > 0.0 {
            mi += p * (p / denom).ln();
        }
    }
    (mi / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// Computes NMI between two columns of a table.
pub fn column_nmi(table: &Table, col_a: usize, col_b: usize) -> f64 {
    let xs = table.column_refs(col_a);
    let ys = table.column_refs(col_b);
    normalized_mutual_information(&xs, &ys)
}

/// NMI over two equal-length interned code sequences.
///
/// Identical in definition to [`normalized_mutual_information`] but keyed by
/// `u32` codes, so no string hashing or `&str` comparisons happen on the hot
/// path. Codes are remapped to dense local indices first, keeping the cost
/// `O(len)` even when the sequences are a small sample of a high-cardinality
/// column (sampled codes can be numerically huge while few are present).
/// (Floating-point summation order differs from the string-keyed variant, so
/// results may differ in the last ulp.)
pub fn nmi_from_codes(xs: &[u32], ys: &[u32]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "NMI requires equal-length columns");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    // Dense local remap: index = first-occurrence rank within the sample.
    let mut remap_x: HashMap<u32, u32, crate::fx::FxBuild> = HashMap::default();
    let mut remap_y: HashMap<u32, u32, crate::fx::FxBuild> = HashMap::default();
    let mut px: Vec<f64> = Vec::new();
    let mut py: Vec<f64> = Vec::new();
    let mut pxy: HashMap<(u32, u32), f64, crate::fx::FxBuild> = HashMap::default();
    let inc = 1.0 / n as f64;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let xi = *remap_x.entry(x).or_insert_with(|| {
            px.push(0.0);
            px.len() as u32 - 1
        });
        let yi = *remap_y.entry(y).or_insert_with(|| {
            py.push(0.0);
            py.len() as u32 - 1
        });
        px[xi as usize] += inc;
        py[yi as usize] += inc;
        *pxy.entry((xi, yi)).or_insert(0.0) += inc;
    }
    let hx: f64 = -px.iter().map(|p| p * p.ln()).sum::<f64>();
    let hy: f64 = -py.iter().map(|p| p * p.ln()).sum::<f64>();
    if hx <= 1e-12 || hy <= 1e-12 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (&(x, y), p) in &pxy {
        let denom = px[x as usize] * py[y as usize];
        if *p > 0.0 && denom > 0.0 {
            mi += p * (p / denom).ln();
        }
    }
    (mi / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// Returns the indices of the `k` attributes most correlated with `target`
/// (by NMI, descending), excluding `target` itself.
///
/// For large tables the NMI estimate is computed on a row sample (`max_rows`,
/// default 5,000) — the ranking is extremely stable under sampling and this
/// keeps the cost linear for the 200k-row Tax dataset.
pub fn top_k_correlated(table: &Table, target: usize, k: usize) -> Vec<usize> {
    top_k_correlated_sampled(table, target, k, 5_000)
}

/// [`top_k_correlated`] with an explicit row-sample cap.
pub fn top_k_correlated_sampled(
    table: &Table,
    target: usize,
    k: usize,
    max_rows: usize,
) -> Vec<usize> {
    let n_cols = table.n_cols();
    if n_cols <= 1 || k == 0 {
        return Vec::new();
    }
    let n_rows = table.n_rows();
    let stride = (n_rows / max_rows.max(1)).max(1);
    let sample_rows: Vec<usize> = (0..n_rows).step_by(stride).collect();
    let target_vals: Vec<&str> = sample_rows.iter().map(|&i| table.cell(i, target)).collect();
    let mut scored: Vec<(usize, f64)> = (0..n_cols)
        .filter(|&j| j != target)
        .map(|j| {
            let vals: Vec<&str> = sample_rows.iter().map(|&i| table.cell(i, j)).collect();
            (j, normalized_mutual_information(&vals, &target_vals))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(j, _)| j).collect()
}

/// [`top_k_correlated_sampled`] over an interned table: NMI is estimated on
/// `u32` code vectors instead of string columns, so the sweep over candidate
/// attributes does no string hashing at all.
pub fn top_k_correlated_dict(
    dict: &TableDict,
    target: usize,
    k: usize,
    max_rows: usize,
) -> Vec<usize> {
    let n_cols = dict.n_cols();
    if n_cols <= 1 || k == 0 {
        return Vec::new();
    }
    let n_rows = dict.n_rows();
    let stride = (n_rows / max_rows.max(1)).max(1);
    let sample_rows: Vec<usize> = (0..n_rows).step_by(stride).collect();
    let target_codes: Vec<u32> = {
        let col = dict.column(target);
        sample_rows.iter().map(|&i| col.code(i)).collect()
    };
    let mut scored: Vec<(usize, f64)> = (0..n_cols)
        .filter(|&j| j != target)
        .map(|j| {
            let col = dict.column(j);
            let codes: Vec<u32> = sample_rows.iter().map(|&i| col.code(i)).collect();
            (j, nmi_from_codes(&codes, &target_codes))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(j, _)| j).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_columns_have_nmi_one() {
        let xs = vec!["a", "b", "c", "a", "b", "c", "a", "b"];
        let nmi = normalized_mutual_information(&xs, &xs);
        assert!((nmi - 1.0).abs() < 1e-9, "got {nmi}");
    }

    #[test]
    fn independent_columns_have_low_nmi() {
        // x alternates with period 2, y with period 3 over 600 rows → close to
        // independent.
        let xs: Vec<String> = (0..600).map(|i| format!("x{}", i % 2)).collect();
        let ys: Vec<String> = (0..600).map(|i| format!("y{}", i % 3)).collect();
        let xr: Vec<&str> = xs.iter().map(|s| s.as_str()).collect();
        let yr: Vec<&str> = ys.iter().map(|s| s.as_str()).collect();
        let nmi = normalized_mutual_information(&xr, &yr);
        assert!(nmi < 0.05, "got {nmi}");
    }

    #[test]
    fn nmi_is_symmetric_and_bounded() {
        let xs = vec!["a", "a", "b", "b", "c", "a"];
        let ys = vec!["1", "1", "2", "2", "2", "1"];
        let ab = normalized_mutual_information(&xs, &ys);
        let ba = normalized_mutual_information(&ys, &xs);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn constant_column_yields_zero() {
        let xs = vec!["k", "k", "k", "k"];
        let ys = vec!["1", "2", "1", "2"];
        assert_eq!(normalized_mutual_information(&xs, &ys), 0.0);
        assert_eq!(normalized_mutual_information(&[], &[]), 0.0);
    }

    #[test]
    fn code_nmi_agrees_with_string_nmi() {
        let rows: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let a = format!("a{}", i % 7);
                let b = format!("b{}", (i % 7) / 2);
                let c = format!("c{}", (i * 13) % 5);
                vec![a, b, c]
            })
            .collect();
        let t = Table::new("t", vec!["a".into(), "b".into(), "c".into()], rows).unwrap();
        let dict = t.intern();
        for (x, y) in [(0, 1), (0, 2), (1, 2)] {
            let string_nmi = column_nmi(&t, x, y);
            let code_nmi = nmi_from_codes(dict.column(x).codes(), dict.column(y).codes());
            assert!(
                (string_nmi - code_nmi).abs() < 1e-9,
                "columns ({x}, {y}): {string_nmi} vs {code_nmi}"
            );
        }
        // The dict-based top-k ranking matches the string-based one.
        for target in 0..3 {
            assert_eq!(
                top_k_correlated_sampled(&t, target, 2, 5_000),
                top_k_correlated_dict(&dict, target, 2, 5_000),
                "target {target}"
            );
        }
    }

    #[test]
    fn top_k_prefers_dependent_columns() {
        // name determines gender; salary is random-ish.
        let rows: Vec<Vec<String>> = (0..200)
            .map(|i| {
                let name = format!("p{}", i % 10);
                let gender = if (i % 10) < 5 { "M" } else { "F" };
                let salary = format!("{}", 1000 + (i * 37) % 977);
                vec![name, gender.to_string(), salary]
            })
            .collect();
        let t = Table::new(
            "t",
            vec!["name".into(), "gender".into(), "salary".into()],
            rows,
        )
        .unwrap();
        let top = top_k_correlated(&t, 1, 1);
        assert_eq!(top, vec![0], "gender should correlate most with name");
        let top2 = top_k_correlated(&t, 1, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top_k_correlated(&t, 1, 0), Vec::<usize>::new());
    }
}
