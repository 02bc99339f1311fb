//! Byte-pinned golden encodings of the criteria-VM bytecode.
//!
//! Same discipline as `crates/store/tests/format_golden.rs`: a program
//! serialised by one build must decode in every later build, so the exact
//! bytes of one exemplar program per [`Check`] variant are frozen here. If a
//! test fails because the encoding changed *intentionally*, bump
//! [`zeroed_criteria::BYTECODE_VERSION`] and update the golden bytes.

use std::collections::{HashMap, HashSet};
use zeroed_criteria::compile::{DecodeError, Op};
use zeroed_criteria::dsl::Check;
use zeroed_criteria::{compile_check, Program, BYTECODE_VERSION};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    clean
        .as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// One exemplar check per variant, with fixed contents so the compiled bytes
/// are deterministic (unordered collections are sorted by the compiler).
fn exemplars() -> Vec<(&'static str, usize, Check)> {
    vec![
        ("not_missing", 0, Check::NotMissing),
        (
            "pattern_template",
            1,
            Check::PatternTemplate {
                allowed: HashSet::from(["U[2]u[1]D[3]S[1]".to_string(), "D[5]".into()]),
            },
        ),
        ("length_range", 2, Check::LengthRange { min: 1, max: 10 }),
        (
            "numeric_range",
            3,
            Check::NumericRange {
                min: -2.5,
                max: 100.0,
            },
        ),
        (
            "domain",
            4,
            Check::Domain {
                allowed: HashSet::from(["ma".to_string(), "al".into()]),
            },
        ),
        (
            "charset",
            5,
            Check::Charset {
                letters: true,
                digits: true,
                whitespace: false,
                symbols: vec!['.', '-'],
            },
        ),
        (
            "token_count_range",
            6,
            Check::TokenCountRange { min: 1, max: 3 },
        ),
        (
            "fd_lookup",
            7,
            Check::FdLookup {
                determinant_col: 2,
                mapping: HashMap::from([("35233".to_string(), "birmingham".to_string())]),
            },
        ),
        (
            "cross_keyword",
            8,
            Check::CrossKeyword {
                other_col: 1,
                pairs: vec![("ami".to_string(), "heart".to_string())],
            },
        ),
    ]
}

#[test]
fn bytecode_version_and_opcodes_are_pinned() {
    assert_eq!(BYTECODE_VERSION, 1);
    // The opcode numbering is part of the byte format; renumbering requires a
    // version bump and new golden bytes.
    assert_eq!(Op::NotMissing as u8, 0x01);
    assert_eq!(Op::PatternIn as u8, 0x02);
    assert_eq!(Op::LenInRange as u8, 0x03);
    assert_eq!(Op::NumInRange as u8, 0x04);
    assert_eq!(Op::DomainIn as u8, 0x05);
    assert_eq!(Op::CharsetOk as u8, 0x06);
    assert_eq!(Op::TokensInRange as u8, 0x07);
    assert_eq!(Op::FdConsistent as u8, 0x08);
    assert_eq!(Op::OtherContains as u8, 0x09);
    assert_eq!(Op::ThisContains as u8, 0x0a);
    assert_eq!(Op::PushTrue as u8, 0x0b);
    assert_eq!(Op::And as u8, 0x0c);
    assert_eq!(Op::Or as u8, 0x0d);
    assert_eq!(Op::Not as u8, 0x0e);
    // Every defined opcode round-trips through the decoder; neighbours of the
    // range are rejected.
    for byte in 0x01..=0x0e_u8 {
        assert_eq!(Op::from_byte(byte).map(|op| op as u8), Some(byte));
    }
    assert_eq!(Op::from_byte(0x00), None);
    assert_eq!(Op::from_byte(0x0f), None);
}

#[test]
fn golden_program_bytes() {
    let golden: HashMap<&str, &str> = HashMap::from(GOLDEN);
    for (name, col, check) in exemplars() {
        let program = compile_check(&check, col);
        let bytes = program.to_bytes();
        assert_eq!(
            hex(&bytes),
            golden[name],
            "compiled bytes for `{name}` changed — if intentional, bump \
             BYTECODE_VERSION and refresh the golden constant",
        );
        // And the frozen bytes must keep decoding to the same program.
        assert_eq!(Program::from_bytes(&unhex(golden[name])).unwrap(), program);
    }
    assert_eq!(GOLDEN.len(), exemplars().len());
}

#[test]
fn compiler_is_total_over_every_variant() {
    // "Rejects nothing the oracle accepts": each exemplar both compiles and
    // evaluates wherever the oracle does, including on degenerate inputs.
    let table = zeroed_table::Table::new(
        "g",
        (0..9).map(|j| format!("c{j}")).collect(),
        vec![vec![String::new(); 9], vec!["x".into(); 9]],
    )
    .unwrap();
    for (name, col, check) in exemplars() {
        let program = compile_check(&check, col);
        for row in 0..table.n_rows() {
            let other = program
                .other_col
                .map(|c| table.cell(row, c as usize))
                .unwrap_or("");
            assert_eq!(
                program.eval(table.cell(row, col), other),
                check.evaluate(&table, row, col),
                "{name} row {row}"
            );
        }
    }
}

#[test]
fn foreign_versions_are_rejected() {
    let bytes = compile_check(&Check::NotMissing, 0).to_bytes();
    for version in [0u16, 2, 0xffff] {
        let mut doctored = bytes.clone();
        doctored[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            Program::from_bytes(&doctored),
            Err(DecodeError::WrongVersion(version))
        );
    }
    let mut magicless = bytes;
    magicless[0] = b'X';
    assert_eq!(Program::from_bytes(&magicless), Err(DecodeError::BadMagic));
}

/// `(exemplar name, hex of Program::to_bytes)` — regenerate by running the
/// ignored `dump_golden_bytes` test with `--ignored --nocapture`.
const GOLDEN: [(&str, &str); 9] = [
    (
        "not_missing",
        // magic "ZCVM" · v1 · col 0 · no other_col · empty pools · [NotMissing]
        "5a43564d0100000000000000000000000000000000000000000000000000000100000001",
    ),
    (
        "pattern_template",
        // str_set {"D[5]", "U[2]u[1]D[3]S[1]"} (sorted) · [PatternIn 0]
        "5a43564d0100010000000000000000010000000200000004000000445b355d10000000555b325d755b315d445b335d535b315d000000000000000000000000050000000200000000",
    ),
    (
        "length_range",
        // [LenInRange 1 10] — bounds as u64 immediates, no pool entries
        "5a43564d010002000000000000000000000000000000000000000000000000110000000301000000000000000a00000000000000",
    ),
    (
        "numeric_range",
        // f64 pool [-2.5, 100.0] bit-preserved · [NumInRange 0 1]
        "5a43564d0100030000000000000000000000000200000000000000000004c00000000000005940000000000000000009000000040000000001000000",
    ),
    (
        "domain",
        // str_set {"al", "ma"} (sorted) · [DomainIn 0]
        "5a43564d0100040000000000000000010000000200000002000000616c020000006d61000000000000000000000000050000000500000000",
    ),
    (
        "charset",
        // charset flags letters|digits=0b011 · symbols ['-','.'] sorted · [CharsetOk 0]
        "5a43564d01000500000000000000000000000000000000000000000100000003020000002d0000002e000000050000000600000000",
    ),
    (
        "token_count_range",
        // [TokensInRange 1 3]
        "5a43564d010006000000000000000000000000000000000000000000000000110000000701000000000000000300000000000000",
    ),
    (
        "fd_lookup",
        // other_col 2 · fd_map [("35233","birmingham")] · [FdConsistent 0]
        "5a43564d010007000000010200000000000000000000000000000001000000010000000500000033353233330a0000006269726d696e6768616d00000000050000000800000000",
    ),
    (
        "cross_keyword",
        // other_col 1 · strings ["ami","heart"] ·
        // [PushTrue, OtherContains 0, Not, ThisContains 1, Or, And]
        "5a43564d01000800000001010000000200000003000000616d69050000006865617274000000000000000000000000000000000e0000000b09000000000e0a010000000d0c",
    ),
];

/// Regeneration helper, not part of the suite.
#[test]
#[ignore]
fn dump_golden_bytes() {
    for (name, col, check) in exemplars() {
        println!(
            "    (\"{name}\", \"{}\"),",
            hex(&compile_check(&check, col).to_bytes())
        );
    }
}
