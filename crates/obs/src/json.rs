//! Tiny JSON-emission helpers shared by the profile and histogram
//! serializers. The workspace has no serialization framework, so all ledger
//! JSON is hand-rolled; these helpers keep the style uniform.

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a nanosecond count as fractional milliseconds with microsecond
/// precision (`12.345`), the unit every ledger section reports in.
pub fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1_000_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn formats_ms() {
        assert_eq!(fmt_ms(0), "0.000");
        assert_eq!(fmt_ms(1_500_000), "1.500");
        assert_eq!(fmt_ms(12_345_678), "12.346");
    }
}
