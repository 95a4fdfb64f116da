//! Seeded request streams. Generation runs before any timed window and
//! outside `setup_s`; the daemon only ever receives the rendered litmus
//! sources. Equal seeds give byte-identical streams (see [`digest`]).

use std::collections::HashMap;

use txmm::core::rng::SplitMix64;
use txmm::litmus::{litmus_from_execution, parse_litmus, program_key, render, LitmusTest};
use txmm::models::Arch;
use txmm::protocol::Request;
use txmm::synth::{enumerate, EnumConfig};

use crate::stats::{fnv, Fnv};

/// The two request kinds of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Check,
    Outcomes,
}

/// One request: its kind, where it came from, and the exact line sent.
pub struct Req {
    pub kind: Kind,
    /// Index of the program in its source (the warm corpus position, or
    /// the cold stream position).
    pub program: usize,
    pub file: String,
    pub src: String,
    /// The wire line, newline included.
    pub line: String,
}

impl Req {
    fn new(kind: Kind, program: usize, file: String, src: String) -> Req {
        let request = match kind {
            Kind::Check => Request::Check {
                file: file.clone(),
                src: src.clone(),
                models: None,
                trace: None,
            },
            Kind::Outcomes => Request::Outcomes {
                file: file.clone(),
                src: src.clone(),
                models: None,
                max_candidates: None,
                trace: None,
            },
        };
        let line = format!("{}\n", request.to_line());
        Req {
            kind,
            program,
            file,
            src,
            line,
        }
    }
}

/// Three `check` to one `outcomes`, drawn per request.
fn kind(rng: &mut SplitMix64) -> Kind {
    if rng.below(4) == 0 {
        Kind::Outcomes
    } else {
        Kind::Check
    }
}

/// The canonical execution spaces the cold stream draws programs from:
/// x86 and C++ at |E| <= 4, Power and ARMv8 at |E| = 3.
fn spaces() -> Vec<EnumConfig> {
    let mut out = Vec::new();
    for events in 1..=4 {
        out.push(EnumConfig::hw(Arch::X86, events));
        out.push(EnumConfig::hw(Arch::Cpp, events));
    }
    out.push(EnumConfig::hw(Arch::Power, 3));
    out.push(EnumConfig::hw(Arch::Armv8, 3));
    out
}

/// Every distinct litmus program (by `program_key`) of the spaces, each
/// represented by the seed's choice among the executions that render to
/// it, in seeded order.
fn distinct_programs(seed: u64) -> Vec<LitmusTest> {
    let mut best: HashMap<Vec<u8>, (u64, LitmusTest)> = HashMap::new();
    let mut index = 0u64;
    for cfg in spaces() {
        enumerate(&cfg, &mut |x| {
            index += 1;
            let t = litmus_from_execution("p", x, cfg.arch);
            let h = fnv(&[seed.to_le_bytes(), index.to_le_bytes()].concat());
            best.entry(program_key(&t))
                .and_modify(|e| {
                    if h < e.0 {
                        *e = (h, t.clone());
                    }
                })
                .or_insert((h, t));
        });
    }
    let mut programs: Vec<(u64, Vec<u8>, LitmusTest)> = best
        .into_iter()
        .map(|(key, (_, t))| {
            let order = fnv(&[&seed.to_le_bytes()[..], &key].concat());
            (order, key, t)
        })
        .collect();
    // Ties in the order hash fall back to the key, so the order is a
    // function of the seed alone.
    programs.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    programs.into_iter().map(|(_, _, t)| t).collect()
}

/// The cold stream: `n` requests, each a distinct program. Executions
/// that pin no final state render with an empty `Test:` line, which the
/// litmus parser rejects; they are skipped, so every request is one the
/// daemon can answer.
pub fn cold(seed: u64, n: usize) -> Vec<Req> {
    let programs = distinct_programs(seed);
    let mut rng = SplitMix64::seed_from_u64(seed);
    programs
        .into_iter()
        .filter_map(|t| {
            let src = render::pseudocode(&t);
            parse_litmus(&src).is_ok().then_some(src)
        })
        .take(n)
        .enumerate()
        .map(|(i, src)| {
            // The header line starts with the test name, rendered as
            // "p"; name the test after its stream slot instead.
            let rest = src
                .strip_prefix('p')
                .expect("header starts with the test name");
            let src = format!("c{i}{rest}");
            Req::new(kind(&mut rng), i, format!("c{i}.litmus"), src)
        })
        .collect()
}

/// The standard 50-test corpus as `(file, source)` pairs.
pub fn corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

/// Both kinds of request for every corpus test: the priming pass.
pub fn priming(corpus: &[(String, String)]) -> Vec<Req> {
    let mut out = Vec::new();
    for (i, (file, src)) in corpus.iter().enumerate() {
        for k in [Kind::Check, Kind::Outcomes] {
            out.push(Req::new(k, i, file.clone(), src.clone()));
        }
    }
    out
}

/// The warm stream: `n` corpus requests in seeded order.
pub fn warm(seed: u64, n: usize, corpus: &[(String, String)]) -> Vec<Req> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let i = rng.below(corpus.len());
            let (file, src) = &corpus[i];
            Req::new(kind(&mut rng), i, file.clone(), src.clone())
        })
        .collect()
}

/// FNV-1a over every request line in stream order.
pub fn digest(reqs: &[Req]) -> u64 {
    let mut h = Fnv::default();
    for r in reqs {
        h.write(r.line.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_stream_is_deterministic_and_distinct() {
        let a = cold(7, 300);
        let b = cold(7, 300);
        assert_eq!(a.len(), 300);
        assert_eq!(digest(&a), digest(&b), "same seed, same bytes");
        assert_ne!(digest(&a), digest(&cold(8, 300)), "seeds differ");
        let mut keys = std::collections::HashSet::new();
        for r in &a {
            let t = txmm::litmus::parse_litmus(&r.src).expect("rendered source parses");
            assert!(keys.insert(program_key(&t)), "program repeated");
        }
        let outcomes = a.iter().filter(|r| r.kind == Kind::Outcomes).count();
        assert!(
            (40..110).contains(&outcomes),
            "about one in four: {outcomes}"
        );
    }

    #[test]
    fn warm_stream_is_deterministic() {
        let corpus = corpus();
        assert_eq!(corpus.len(), 50);
        let a = warm(3, 500, &corpus);
        assert_eq!(digest(&a), digest(&warm(3, 500, &corpus)));
        assert_ne!(digest(&a), digest(&warm(4, 500, &corpus)));
        assert_eq!(priming(&corpus).len(), 100);
    }
}
