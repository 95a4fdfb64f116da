//! Integration tests for the `Session` pipeline and batch litmus
//! serving: warm (cached) answers must be byte-identical to cold-start
//! answers, across the whole generated corpus.

mod common;

use common::corpus;
use txmm::serve::serve_source;
use txmm::session::Session;

/// Serve the corpus once, returning a timing-free fingerprint per test:
/// every verdict (model name, consistency, violated axioms) and the
/// observability answer, in model-registry order.
fn fingerprints(session: &mut Session, corpus: &[(String, String)]) -> Vec<String> {
    corpus
        .iter()
        .map(|(file, src)| match serve_source(session, file, src, None) {
            Ok(r) => format!(
                "{}|{}|{:?}|{:?}",
                r.name, r.events, r.verdicts, r.observable
            ),
            Err(f) => panic!("{}: {}", f.file, f.error),
        })
        .collect()
}

#[test]
fn corpus_is_large_enough() {
    assert!(corpus().len() >= 20, "acceptance floor: 20 litmus files");
}

#[test]
fn warm_verdicts_byte_identical_to_cold() {
    let corpus = corpus();
    let mut session = Session::new();
    let cold = fingerprints(&mut session, &corpus);
    let cold_stats = session.stats();
    assert!(cold_stats.verdict_hits + cold_stats.verdict_misses > 0);

    // Warm pass on the same session: everything served from caches,
    // byte-identical to the cold answers.
    let warm = fingerprints(&mut session, &corpus);
    assert_eq!(cold, warm, "cached verdicts must be byte-identical");
    let warm_stats = session.stats();
    assert_eq!(
        warm_stats.verdict_misses, cold_stats.verdict_misses,
        "warm pass computes nothing new"
    );
    assert!(warm_stats.verdict_hits > cold_stats.verdict_hits);

    // And a completely fresh session agrees too (cache transparency).
    let mut fresh = Session::new();
    assert_eq!(fingerprints(&mut fresh, &corpus), cold);
}

#[test]
fn shipped_cat_twins_agree_across_the_corpus() {
    // Serving with the .cat twins registered: for every test, the .cat
    // verdict of each model matches its native twin.
    let corpus = corpus();
    let mut session = Session::with_shipped_cat();
    for (file, src) in &corpus {
        let Ok(r) = serve_source(&mut session, file, src, None) else {
            panic!("{file} must serve");
        };
        for (name, v) in &r.verdicts {
            if let Some(stripped) = name.strip_suffix(".cat") {
                let native = r
                    .verdicts
                    .iter()
                    .find(|(n, _)| n == stripped)
                    .unwrap_or_else(|| panic!("native twin of {name}"));
                assert_eq!(
                    v.is_consistent(),
                    native.1.is_consistent(),
                    "{file}: {name} disagrees with {stripped}"
                );
            }
        }
    }
}

#[test]
fn interning_dedups_repeated_and_symmetric_tests() {
    let corpus = corpus();
    let mut session = Session::new();
    let _ = fingerprints(&mut session, &corpus);
    let interned = session.stats().interned;
    assert!(interned <= corpus.len());
    // Serving the corpus again interns nothing new.
    let _ = fingerprints(&mut session, &corpus);
    assert_eq!(session.stats().interned, interned);
}
