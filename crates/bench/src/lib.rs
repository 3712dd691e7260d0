//! Shared helpers for the criterion benches.
//!
//! The paper's tables and figures are printed by `repro <fig> --quick`;
//! the benches time the engine and its harnesses. `ablation_extensions`
//! additionally prints the engine-policies table, which no `repro`
//! subcommand reproduces.

use std::sync::Once;

use lasmq_experiments::table::TextTable;

static HEADER: Once = Once::new();

/// Prints a figure's tables exactly once per bench process, prefixed with
/// a reproduction banner.
pub fn print_series(figure: &str, tables: &[TextTable]) {
    HEADER.call_once(|| {
        println!("\n--- LAS_MQ paper series (reduced bench scale; run `repro` for full scale) ---");
    });
    println!("\n### {figure}");
    for t in tables {
        println!("{t}");
    }
}
