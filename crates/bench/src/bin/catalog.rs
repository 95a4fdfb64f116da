//! Prints every named execution from the paper — Figs. 1, 2, 3, 10, the
//! §5.2 Power executions, Remark 5.1, §8.1, §9, Example 1.1 and
//! Appendix B — with model verdicts (native and `.cat`), litmus
//! renderings, and simulator observability.
//!
//! All checking goes through one [`Session`]: native and `.cat` models
//! resolve from its unified registry, verdicts and observability are
//! served from its per-execution caches.

use txmm::session::Session;
use txmm_bench::verdict_str;
use txmm_core::display;
use txmm_litmus::{litmus_from_execution, render};
use txmm_models::catalog;

fn main() {
    let show_litmus = std::env::var("TXMM_LITMUS").is_ok();
    let mut session = Session::with_shipped_cat();
    for entry in catalog::all() {
        println!("==== {} ({}) ====", entry.name, entry.paper_ref);
        println!("{}", entry.description);
        println!("{}", display::render(&entry.exec));
        // Warm the verdict cache for every model this entry mentions
        // (native and .cat twin) with one shared analysis; the loop
        // below then prints pure cache hits.
        let mentioned: Vec<_> = entry
            .expect
            .iter()
            .flat_map(|(name, _)| {
                [
                    session.resolve(name),
                    session.resolve(&format!("{name}.cat")),
                ]
            })
            .flatten()
            .collect();
        session.verdicts_for(&entry.exec, &mentioned);
        for (model_name, expect) in &entry.expect {
            let model = session.resolve(model_name).expect("registered model");
            let line = verdict_str(&mut session, &entry.exec, model);
            let ok =
                line.starts_with("consistent") == matches!(expect, catalog::Expect::Consistent);
            let cat_note = match session.resolve(&format!("{model_name}.cat")) {
                Some(cat) => {
                    let cv = session.verdict(&entry.exec, cat);
                    if cv
                        .violations()
                        .iter()
                        .any(|v| v.starts_with("cat-eval-error"))
                    {
                        format!(" [cat error: {}]", cv.violations().join(", "))
                    } else if cv.is_consistent() == line.starts_with("consistent") {
                        " [cat agrees]".to_string()
                    } else {
                        " [cat DISAGREES]".to_string()
                    }
                }
                None => String::new(),
            };
            println!(
                "  {:<10} {}{}{}",
                model_name,
                line,
                if ok { "" } else { "  <-- MISMATCH" },
                cat_note
            );
        }
        // Observability on the hardware machine where one applies (the
        // session returns None for SC/C++ and for abstract lock-call
        // executions).
        let arch = txmm::corpus::entry_arch(&entry.expect);
        if let Some(seen) = session.observable(&entry.exec, arch) {
            println!(
                "  hardware simulator ({}): {}",
                arch.name(),
                if seen { "SEEN" } else { "not seen" }
            );
            if show_litmus {
                let t = litmus_from_execution(entry.name, &entry.exec, arch);
                println!("\n{}", render::assembly(&t));
            }
        }
        println!();
    }
    let stats = session.stats();
    println!(
        "session: {} executions interned, {} verdict misses, {} hits",
        stats.interned, stats.verdict_misses, stats.verdict_hits
    );
    println!("Set TXMM_LITMUS=1 to print the per-architecture litmus listings.");
}
