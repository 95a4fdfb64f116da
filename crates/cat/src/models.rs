//! The paper's models as `.cat` sources, compiled on demand.
//!
//! These mirror the companion material the paper ships: one `.cat` file
//! per model (baseline and transactional). Differential tests check the
//! DSL evaluations against the native Rust models on both the paper
//! catalog and enumerated executions.

use crate::eval::CatModel;
use crate::parser::parse;

/// `(name, source)` for every shipped model.
pub const SOURCES: [(&str, &str); 10] = [
    ("SC", include_str!("../models/sc.cat")),
    ("TSC", include_str!("../models/tsc.cat")),
    ("x86", include_str!("../models/x86.cat")),
    ("x86-tm", include_str!("../models/x86-tm.cat")),
    ("power", include_str!("../models/power.cat")),
    ("power-tm", include_str!("../models/power-tm.cat")),
    ("armv8", include_str!("../models/armv8.cat")),
    ("armv8-tm", include_str!("../models/armv8-tm.cat")),
    ("cpp", include_str!("../models/cpp.cat")),
    ("cpp-tm", include_str!("../models/cpp-tm.cat")),
];

/// Compile one shipped model by name.
pub fn cat_model(name: &str) -> Option<CatModel> {
    SOURCES.iter().find(|(n, _)| *n == name).map(|(n, src)| {
        let file = parse(src).unwrap_or_else(|e| panic!("shipped model {n} fails to parse: {e}"));
        CatModel::new(n, file)
    })
}

/// Compile every shipped model.
pub fn all_cat_models() -> Vec<CatModel> {
    SOURCES
        .iter()
        .map(|(n, _)| cat_model(n).expect("shipped model"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_models::catalog::{self, Expect};
    use txmm_models::registry::by_name;
    use txmm_synth::{EnumConfig, Walk};

    #[test]
    fn all_sources_parse() {
        assert_eq!(all_cat_models().len(), SOURCES.len());
    }

    #[test]
    fn catalog_expectations_hold_in_cat() {
        // The .cat models assign every catalog execution the same
        // verdict the paper (and the native models) do.
        for entry in catalog::all() {
            for (model_name, expect) in &entry.expect {
                let Some(m) = cat_model(model_name) else {
                    continue;
                };
                let got = m
                    .consistent(&entry.exec)
                    .unwrap_or_else(|e| panic!("{model_name} on {}: {e}", entry.name));
                assert_eq!(
                    got,
                    matches!(expect, Expect::Consistent),
                    "{} under cat {model_name}",
                    entry.name
                );
            }
        }
    }

    fn differential(arch: txmm_models::Arch, names: &[&str], events: usize) {
        let mut cfg = EnumConfig::hw(arch, events);
        cfg.max_threads = 2;
        for name in names {
            let cat = cat_model(name).expect("model exists");
            let native = by_name(name).expect("native model exists");
            // Debug builds sample the space (full coverage in release).
            let stride = if cfg!(debug_assertions) { 7 } else { 1 };
            let mut seen = 0usize;
            let mut checked = 0usize;
            Walk::new(&cfg).for_each(|x| {
                seen += 1;
                if !seen.is_multiple_of(stride) {
                    return;
                }
                let c = cat.consistent(x).expect("cat evaluates");
                let n = native.consistent(x);
                assert_eq!(
                    c,
                    n,
                    "cat vs native {name} disagree on:\n{}",
                    txmm_core::display::render(x)
                );
                checked += 1;
            });
            assert!(checked > 0);
        }
    }

    #[test]
    fn differential_x86() {
        differential(txmm_models::Arch::X86, &["x86", "x86-tm"], 3);
    }

    #[test]
    fn differential_power() {
        differential(txmm_models::Arch::Power, &["power", "power-tm"], 3);
    }

    #[test]
    fn differential_armv8() {
        differential(txmm_models::Arch::Armv8, &["armv8", "armv8-tm"], 3);
    }

    #[test]
    fn differential_sc_tsc() {
        differential(txmm_models::Arch::Sc, &["SC", "TSC"], 3);
    }

    #[test]
    fn differential_cpp() {
        let mut cfg = EnumConfig::hw(txmm_models::Arch::Cpp, 3);
        cfg.max_threads = 2;
        cfg.attrs = true;
        cfg.atomic_txns = true;
        cfg.fences = true;
        for name in ["cpp", "cpp-tm"] {
            let cat = cat_model(name).expect("model exists");
            let native = by_name(name).expect("native model");
            let stride = if cfg!(debug_assertions) { 7 } else { 1 };
            let mut seen = 0usize;
            let mut checked = 0usize;
            Walk::new(&cfg).for_each(|x| {
                seen += 1;
                if !seen.is_multiple_of(stride) {
                    return;
                }
                let c = cat.consistent(x).expect("cat evaluates");
                let n = native.consistent(x);
                assert_eq!(c, n, "cat vs native {name} disagree");
                checked += 1;
            });
            assert!(checked > 0);
        }
    }
}
