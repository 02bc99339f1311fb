//! Minimal RFC-4180-style CSV reading and writing.
//!
//! The workspace deliberately avoids an external CSV dependency; the benchmark
//! datasets are generated in-process and only occasionally round-tripped
//! through files, so a small, well-tested parser is sufficient. Quoted fields,
//! embedded commas, embedded quotes (`""`) and embedded newlines are supported.

use crate::table::Table;
use crate::{Result, TableError};
use std::fs;
use std::path::Path;

/// Parses CSV text into a [`Table`]. The first record is the header.
pub fn parse_csv(name: &str, text: &str) -> Result<Table> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(TableError::EmptyInput)?;
    let ncols = header.len();
    let mut rows = Vec::with_capacity(iter.len());
    for (i, rec) in iter.enumerate() {
        // A completely empty trailing record (e.g. trailing newline) is skipped.
        if rec.len() == 1 && rec[0].is_empty() {
            continue;
        }
        if rec.len() != ncols {
            return Err(TableError::RowArity {
                row: i,
                found: rec.len(),
                expected: ncols,
            });
        }
        rows.push(rec);
    }
    Table::new(name, header, rows)
}

/// Reads a CSV file into a [`Table`], deriving the table name from the file
/// stem.
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "table".to_string());
    let text = fs::read_to_string(path).map_err(|e| TableError::ShapeMismatch(e.to_string()))?;
    parse_csv(&name, &text)
}

/// Serialises a [`Table`] to CSV text (header + rows). Fields containing
/// commas, quotes or newlines are quoted.
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    write_record(&mut out, table.columns().iter().map(|s| s.as_str()));
    for row in table.rows() {
        write_record(&mut out, row.iter().map(|s| s.as_str()));
    }
    out
}

/// Writes a [`Table`] to a CSV file.
pub fn write_csv_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, to_csv(table)).map_err(|e| TableError::ShapeMismatch(e.to_string()))
}

fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for field in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
        {
            out.push('"');
            for ch in field.chars() {
                if ch == '"' {
                    out.push('"');
                }
                out.push(ch);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// Whether byte `b` ends a run of ordinary field content: inside quotes only
/// a quote does, outside quotes any of the four structural characters.
#[inline]
fn ends_run(b: u8, in_quotes: bool) -> bool {
    if in_quotes {
        b == b'"'
    } else {
        matches!(b, b'"' | b',' | b'\r' | b'\n')
    }
}

/// Moves the finished field out of the reused buffer as a string of exactly
/// its length (one allocation, none when empty).
fn finish_field(field: &mut String) -> String {
    let done = String::from(field.as_str());
    field.clear();
    done
}

/// Low-level record parser: splits CSV text into records of fields.
///
/// It scans bytes. The four structural characters (`"`, `,`, `\r`, `\n`)
/// are ASCII, so every cut falls on a UTF-8 character boundary, and each run
/// of ordinary characters is copied as one slice into a reused buffer.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut record_idx = 0usize;
    let mut i = 0usize;

    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && !ends_run(bytes[i], in_quotes) {
            i += 1;
        }
        field.push_str(&text[start..i]);
        let Some(&b) = bytes.get(i) else { break };
        i += 1;
        let next = bytes.get(i).copied();
        if in_quotes {
            // `b` is a quote: a doubled quote is a literal one, a single one
            // closes the quoted section.
            if next == Some(b'"') {
                i += 1;
                field.push('"');
            } else {
                in_quotes = false;
            }
            continue;
        }
        match b {
            b'"' => in_quotes = true,
            b',' => record.push(finish_field(&mut field)),
            // Swallow \r in \r\n; a lone \r also terminates the record.
            b'\r' if next == Some(b'\n') => {}
            _ => {
                record.push(finish_field(&mut field));
                let width = record.len();
                records.push(std::mem::replace(&mut record, Vec::with_capacity(width)));
                record_idx += 1;
            }
        }
    }
    if in_quotes {
        return Err(TableError::UnterminatedQuote { row: record_idx });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if records.is_empty() {
        return Err(TableError::EmptyInput);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The former char-at-a-time parser, kept as the oracle for
    /// [`parse_records`].
    fn parse_records_reference(text: &str) -> Result<Vec<Vec<String>>> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = text.chars().peekable();
        let mut record_idx = 0usize;

        while let Some(ch) = chars.next() {
            if in_quotes {
                match ch {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => field.push(ch),
                }
            } else {
                match ch {
                    '"' => in_quotes = true,
                    ',' => {
                        record.push(std::mem::take(&mut field));
                    }
                    '\r' => {
                        if chars.peek() == Some(&'\n') {
                            continue;
                        }
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                        record_idx += 1;
                    }
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                        record_idx += 1;
                    }
                    _ => field.push(ch),
                }
            }
        }
        if in_quotes {
            return Err(TableError::UnterminatedQuote { row: record_idx });
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        if records.is_empty() {
            return Err(TableError::EmptyInput);
        }
        Ok(records)
    }

    /// The byte parser and the char oracle agree on every input of a corpus
    /// that covers quotes mid-field, doubled and trailing quotes, lone and
    /// paired `\r`, separators inside quotes, blank lines, empty fields,
    /// multi-byte characters next to every structural character, and
    /// unterminated quotes.
    #[test]
    fn byte_parser_matches_the_char_oracle() {
        let pieces = [
            "", "a", "é", "日本", ",", "\"", "\"\"", "\n", "\r", "\r\n", "x\"y", " ", "€,",
            "\"q,\nq\"",
        ];
        let mut corpus = vec![
            String::new(),
            "a,b\n1,2\n".to_string(),
            "h\n\n\nx\n".to_string(),
            "a,b\r1,2\r\r".to_string(),
            "\"unterminated\nline".to_string(),
        ];
        for (i, a) in pieces.iter().enumerate() {
            for (j, b) in pieces.iter().enumerate() {
                for c in &pieces[(i * 7 + j) % pieces.len()..] {
                    corpus.push(format!("{a}{b}{c}"));
                    corpus.push(format!("h1,h2\n{a},{b}{c}\n{c}{a}"));
                }
            }
        }
        for text in &corpus {
            assert_eq!(parse_records(text), parse_records_reference(text), "{text:?}");
        }
    }

    #[test]
    fn parses_simple_csv() {
        let t = parse_csv("t", "a,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.cell(1, 2), "6");
    }

    #[test]
    fn parses_quoted_fields() {
        let t = parse_csv("t", "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.cell(0, 0), "hello, world");
        assert_eq!(t.cell(0, 1), "say \"hi\"");
    }

    #[test]
    fn parses_embedded_newline() {
        let t = parse_csv("t", "a,b\n\"line1\nline2\",x\n").unwrap();
        assert_eq!(t.cell(0, 0), "line1\nline2");
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let t = parse_csv("t", "a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.cell(1, 1), "4");
    }

    #[test]
    fn rejects_bad_arity_and_empty() {
        assert!(matches!(
            parse_csv("t", "a,b\n1\n"),
            Err(TableError::RowArity { .. })
        ));
        assert!(matches!(parse_csv("t", ""), Err(TableError::EmptyInput)));
        assert!(matches!(
            parse_csv("t", "a,b\n\"unterminated\n"),
            Err(TableError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn round_trip() {
        let t = Table::new(
            "rt",
            vec!["name".into(), "note".into()],
            vec![
                vec!["alice".into(), "likes, commas".into()],
                vec!["bob \"the builder\"".into(), "multi\nline".into()],
                vec!["".into(), "".into()],
            ],
        )
        .unwrap();
        let text = to_csv(&t);
        let back = parse_csv("rt", &text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn file_round_trip() {
        let t = parse_csv("t", "a,b\n1,2\n").unwrap();
        let dir = std::env::temp_dir().join("zeroed_table_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv_file(&t, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back.n_rows(), 1);
        assert_eq!(back.name(), "t");
    }
}
