//! Three-level pattern generalisation of cell values (paper §III-B).
//!
//! A value is generalised by replacing characters with class symbols and
//! run-length encoding the result:
//!
//! * **L1** keeps only the distinction between alphanumeric characters (`A`)
//!   and everything else (kept literally);
//! * **L2** distinguishes letters (`L`), digits (`D`) and symbols (`S`);
//! * **L3** additionally splits letters into uppercase (`U`) and lowercase
//!   (`u`).
//!
//! For example `"DOe123."` generalises to `A[6].` (L1), `L[3]D[3]S[1]` (L2)
//! and `U[2]u[1]D[3]S[1]` (L3), exactly as in the paper's example.

/// Pattern generalisation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Alphanumeric runs collapsed to `A[n]`, other characters literal.
    L1,
    /// Letters/digits/symbols (`L`/`D`/`S`).
    L2,
    /// Uppercase/lowercase/digits/symbols (`U`/`u`/`D`/`S`).
    L3,
}

impl Level {
    /// All three levels, coarsest first.
    pub const ALL: [Level; 3] = [Level::L1, Level::L2, Level::L3];
}

fn classify(c: char, level: Level) -> char {
    match level {
        Level::L1 => {
            if c.is_alphanumeric() {
                'A'
            } else {
                c
            }
        }
        Level::L2 => {
            if c.is_alphabetic() {
                'L'
            } else if c.is_ascii_digit() {
                'D'
            } else {
                'S'
            }
        }
        Level::L3 => {
            if c.is_uppercase() {
                'U'
            } else if c.is_alphabetic() {
                'u'
            } else if c.is_ascii_digit() {
                'D'
            } else {
                'S'
            }
        }
    }
}

/// Generalises `value` at the requested [`Level`].
///
/// Runs of identical class symbols are collapsed to `C[len]`; literal
/// characters (only possible at L1) are emitted as-is.
pub fn generalize(value: &str, level: Level) -> String {
    let mut out = String::new();
    let mut run_char: Option<char> = None;
    let mut run_len = 0usize;
    let flush = |out: &mut String, c: char, len: usize| {
        if len == 0 {
            return;
        }
        if matches!(c, 'A' | 'L' | 'D' | 'S' | 'U' | 'u') {
            out.push(c);
            out.push('[');
            out.push_str(&len.to_string());
            out.push(']');
        } else {
            // Literal characters at L1: repeat them.
            for _ in 0..len {
                out.push(c);
            }
        }
    };
    for c in value.chars() {
        let sym = classify(c, level);
        // At L1, non-alphanumerics stay literal and must not merge with 'A'.
        match run_char {
            Some(prev) if prev == sym => run_len += 1,
            Some(prev) => {
                flush(&mut out, prev, run_len);
                run_char = Some(sym);
                run_len = 1;
            }
            None => {
                run_char = Some(sym);
                run_len = 1;
            }
        }
    }
    if let Some(prev) = run_char {
        flush(&mut out, prev, run_len);
    }
    out
}

/// Generalises a value at every level, returning `[L1, L2, L3]`.
pub fn generalize_all(value: &str) -> [String; 3] {
    [
        generalize(value, Level::L1),
        generalize(value, Level::L2),
        generalize(value, Level::L3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_example() {
        assert_eq!(generalize("DOe123.", Level::L1), "A[6].");
        assert_eq!(generalize("DOe123.", Level::L2), "L[3]D[3]S[1]");
        assert_eq!(generalize("DOe123.", Level::L3), "U[2]u[1]D[3]S[1]");
    }

    #[test]
    fn empty_and_symbol_only() {
        assert_eq!(generalize("", Level::L1), "");
        assert_eq!(generalize("---", Level::L1), "---");
        assert_eq!(generalize("---", Level::L2), "S[3]");
    }

    #[test]
    fn mixed_value() {
        assert_eq!(generalize("ab 12", Level::L2), "L[2]S[1]D[2]");
        assert_eq!(generalize("AB cd", Level::L3), "U[2]S[1]u[2]");
        assert_eq!(generalize("7:45 am", Level::L2), "D[1]S[1]D[2]S[1]L[2]");
    }

    #[test]
    fn same_format_same_pattern() {
        // Two distinct values with the same format produce identical patterns.
        assert_eq!(
            generalize("(205) 325-8100", Level::L3),
            generalize("(714) 999-1234", Level::L3)
        );
        assert_ne!(
            generalize("(205) 325-8100", Level::L3),
            generalize("205-325-8100", Level::L3)
        );
    }

    #[test]
    fn generalize_all_produces_three() {
        let [l1, l2, l3] = generalize_all("Abc9");
        assert_eq!(l1, "A[4]");
        assert_eq!(l2, "L[3]D[1]");
        assert_eq!(l3, "U[1]u[2]D[1]");
    }
}
