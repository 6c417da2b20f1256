//! # gmg-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (Section 4),
//! each printing the same rows/series the paper reports and returning
//! structured results. The `reproduce` binary drives them; `polymg-cli`
//! compiles, inspects and serves single configurations.
//!
//! Scaled problem classes are used by default (this container has one core
//! and a fraction of the paper's memory — see DESIGN.md's substitution
//! table); the original sizes remain selectable.

pub mod experiments;
pub mod runners;
pub mod timing;

pub use runners::{make_runner, ImplKind};
pub use timing::{min_time, TimingResult};

/// Write an output file the user named (`-o`, `--profile`). A path that
/// cannot be written is the user's input, not a bug: say which path and
/// why, and exit non-zero.
pub fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}
