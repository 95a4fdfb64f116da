//! # txmm-bench
//!
//! The Table 1 configuration the benchmark package (`perfbench/`)
//! builds against. The benchmark itself is `python3 perfbench/run.py`;
//! the paper's runs are `txmm` subcommands
//! (`txmm table1|fig7|table2|catalog|walk`, in `txmm::paper`).

pub use txmm_synth::table1_config;
