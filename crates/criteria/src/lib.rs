//! # zeroed-criteria
//!
//! Executable error-checking criteria (paper §III-B "error reason-aware
//! features" and §III-D "mutual verification").
//!
//! In the paper the LLM emits Python functions such as
//! `is_clean_consistent_with_measure_code(row, attr)` that encode concrete
//! error reasons; executing them over every cell yields binary
//! "satisfies-this-criterion" features. In this reproduction the criteria are
//! expressed in a small declarative DSL ([`Check`]) that covers the same
//! operation families the paper's examples use — null checks, format/pattern
//! templates, numeric and length ranges, domain membership, and
//! cross-attribute consistency (functional-dependency lookups and keyword
//! co-occurrence). A [`Criterion`] couples a check with the human-readable
//! rationale the LLM produced.
//!
//! ## Why a DSL instead of generated code
//!
//! Executing LLM-written Python inside a production detector is an
//! operational non-starter (sandboxing, determinism, latency); a closed
//! check algebra keeps criteria *data* — serialisable, diffable, and safe to
//! replay from the response store. That last point is a real contract: the
//! on-disk store (`zeroed-store`) persists whole [`CriteriaSet`]s, and
//! `refine_criteria` request keys fold their canonical byte encoding
//! (`zeroed_store::canonical_criteria`), so [`Check`]'s unordered fields
//! (`HashSet` domains, `HashMap` FD mappings) are always serialised sorted —
//! identical logical criteria must produce identical bytes on every process.
//!
//! ## The two halves
//!
//! * [`dsl`] — the check algebra itself plus evaluation: a [`Criterion`]
//!   couples a [`Check`] with the rationale the (simulated) LLM produced.
//! * [`verify`] — turns a [`CriteriaSet`] into binary per-cell feature
//!   columns ("error reason-aware features", §III-B) that are appended to
//!   the unified representation ([`criteria_features_dict`]), and runs the
//!   mutual-verification half of Algorithm 1: criteria are scored against
//!   propagated clean labels and dropped below an accuracy threshold
//!   ([`filter_criteria_dict`]), then the surviving criteria discard
//!   unreliable propagated labels ([`filter_rows_dict`]) — each side cleans
//!   the other, which is what lets a zero-shot system train a detector on
//!   its own labels.
//!
//! Checks are pure and total: evaluation never panics on malformed cell
//! values (a value that fails to parse simply fails the check), which the
//! pipeline relies on when running criteria over dirty data by design.
//!
//! ## The criteria VM
//!
//! Evaluation itself has two interchangeable engines:
//!
//! * the **AST oracle** — [`Check::evaluate`] walks the check tree per cell;
//!   byte-for-byte the original implementation, preserved as the
//!   specification (and selectable in the pipeline via
//!   `ZeroEdConfig::criteria_engine`);
//! * the **compiled path** (default) — [`compile`] lowers each check into a
//!   flat, versioned bytecode [`Program`] and [`vm`]
//!   evaluates it once per *distinct* interned value (or distinct value
//!   pair for cross-column checks), scattering results to rows by
//!   `TableDict` code.
//!
//! The differential suite (`tests/vm_differential.rs`) holds the two
//! bit-identical on randomly generated check trees and tables; the byte
//! format is pinned by `tests/bytecode_golden.rs`.

pub mod compile;
pub mod dsl;
pub mod verify;
pub mod vm;

pub use compile::{compile_check, compile_set, CompiledSet, Program, BYTECODE_VERSION};
pub use dsl::{l3_pattern, Check, CriteriaSet, Criterion};
pub use verify::{criteria_features_dict, filter_criteria_dict, filter_rows_dict};
