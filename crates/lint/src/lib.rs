#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rectpart-lint — workspace invariant linter
//!
//! An offline, dependency-free static-analysis pass over the rectpart
//! workspace. It proves, at every call site, the guarantees the
//! compiler cannot check and the differential tests only sample:
//!
//! * **L1 panic-freedom** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` in library code of the algorithmic crates
//!   (`core`, `onedim`, `parallel`, `obs`, `json`);
//! * **L2 thread confinement** — `std::thread` / `.spawn(` only inside
//!   `crates/parallel`, so `--no-default-features` really is serial;
//! * **L3 determinism** — no wall clocks outside the timing crates, no
//!   unseeded RNG, no iteration over hash-ordered maps;
//! * **L4 feature hygiene** — every `cfg(feature = "...")` name is
//!   declared in that crate's `Cargo.toml`;
//! * **L5 unsafe audit** — `unsafe` only in the audited
//!   `simexec/src/stencil.rs` block (which must keep its `# Safety`
//!   contract); every other crate root carries
//!   `#![forbid(unsafe_code)]`.
//!
//! Violations are waived per line with a justified escape hatch:
//! `// lint:allow(<rule>) -- <reason>` (see [`rules`]).
//!
//! Run it as a binary (`cargo run -p rectpart-lint`, exits nonzero on
//! violations) or rely on the `#[test]` in `tests/self_test.rs`, which
//! `cargo test` executes on every run. See DESIGN.md §11 for the full
//! catalog and rationale.

pub mod analyze;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use rules::{lint_file, Diagnostic, FileContext, Rule};
pub use workspace::{default_root, lint_workspace_v2, report_v2};
