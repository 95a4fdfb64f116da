//! # txmm-bench
//!
//! The criterion benches (`cargo bench -p txmm-bench`) measuring the
//! engines under the paper's runs: models, synthesis, metatheory, the
//! hardware machine, the `.cat` VM, pruning, outcomes, the daemon and
//! observability. The runs themselves are `txmm` subcommands
//! (`txmm table1|fig7|table2|catalog|walk`, in `txmm::paper`).

pub use txmm_synth::table1_config;
