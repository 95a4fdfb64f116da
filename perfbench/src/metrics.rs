//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names `BENCHMARK.json` declares
//! (a unit test keeps the two in step). Every run prints every metric
//! of its kind: a per-layer metric whose layer a workload never
//! exercises reads 0 there, which is what the layer did.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Walk layer (sweeps).
    ("synth.busy_us.table1", "us"),
    ("synth.idle_us.table1", "us"),
    ("synth.busy_us.walk_x86", "us"),
    ("synth.idle_us.walk_x86", "us"),
    ("synth.busy_us.walk_power", "us"),
    ("synth.idle_us.walk_power", "us"),
    ("models.leaf_check_us.walk_x86", "us"),
    ("models.leaf_check_us.walk_power", "us"),
    ("core.incr.oracle_us.walk_x86", "us"),
    ("core.incr.oracle_us.walk_power", "us"),
    ("synth.self_us.walk_x86", "us"),
    ("synth.self_us.walk_power", "us"),
    ("synth.leaves.walk_x86", "count"),
    ("synth.leaves.walk_power", "count"),
    ("synth.classes.walk_x86", "count"),
    ("synth.classes.walk_power", "count"),
    ("synth.useful_ratio.walk_x86", "ratio"),
    ("synth.useful_ratio.walk_power", "ratio"),
    ("core.incr.fallbacks.walk_x86", "count"),
    ("core.incr.fallbacks.walk_power", "count"),
    ("core.incr.delta_answers.walk_x86", "count"),
    ("core.incr.delta_answers.walk_power", "count"),
    ("core.incr.delta_share.walk_x86", "ratio"),
    ("core.incr.delta_share.walk_power", "ratio"),
    ("core.incr.subtrees_cut.walk_x86", "count"),
    ("core.incr.subtrees_cut.walk_power", "count"),
    ("core.incr.candidates_skipped.walk_x86", "count"),
    ("core.incr.candidates_skipped.walk_power", "count"),
    ("core.incr.batches.walk_x86", "count"),
    ("core.incr.batches.walk_power", "count"),
    ("synth.candidates.table1", "count"),
    ("synth.forbid.table1", "count"),
    ("synth.allow.table1", "count"),
    ("hwsim.observe_us.table1", "us"),
    // Per-call costs on a seeded sample of the walks' leaves.
    ("core.analysis_ns", "ns"),
    ("models.check_ns.x86-tm", "ns"),
    ("models.check_ns.power-tm", "ns"),
    ("cat.vm_check_ns.x86-tm", "ns"),
    ("cat.vm_check_ns.power-tm", "ns"),
    ("synth.canon_key_ns", "ns"),
    ("core.arena_intern_ns", "ns"),
    ("core.rel_bytes", "bytes"),
    ("core.execution_bytes", "bytes"),
    ("core.packed_execution_bytes", "bytes"),
    // Serving layers, means per request of one kind.
    ("litmus.parse_us", "us"),
    ("litmus.convert_us", "us"),
    ("synth.canon_key_us", "us"),
    ("litmus.program_key_us", "us"),
    ("session.verdict_native_us", "us"),
    ("session.verdict_cat_us", "us"),
    ("hwsim.observe_us", "us"),
    ("session.outcomes_native_us", "us"),
    ("session.outcomes_cat_us", "us"),
    ("session.outcome_candidates", "count"),
    ("session.outcome_classes", "count"),
    ("session.prune_fallbacks", "count"),
    ("session.prune_delta_answers", "count"),
    ("session.verdict_hit_ratio", "ratio"),
    ("session.outcome_hit_ratio", "ratio"),
    ("session.interned", "count"),
    ("session.outcome_entries", "count"),
    ("cat.compile_us", "us"),
    ("daemon.dispatch_us.check", "us"),
    ("daemon.dispatch_us.outcomes", "us"),
    ("daemon.queue_wait_p99_us", "us"),
    ("daemon.transport_us.check", "us"),
    ("daemon.transport_us.outcomes", "us"),
    ("daemon.shard_skew", "ratio"),
    // The benchmark's own accounting.
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// One run's measurements: the gated metrics for the result line plus
/// informational rows (workload-specific timings with sample counts)
/// printed above it.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    info: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    /// Record a declared metric. Panics on an undeclared name: the
    /// catalogue above is the single list of what the benchmark prints.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    /// An informational row: a value with its unit and sample count.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.info
            .push(format!("{name} = {value:.4} {unit} (n={samples})"));
    }

    /// An informational percentile row, printed only when the
    /// [`crate::stats::percentile`] rule allows it.
    pub fn info_percentile(&mut self, name: &str, samples: &[f64], q: f64, unit: &str) {
        match crate::stats::percentile(samples, q) {
            Some(v) => self.info(name, v, unit, samples.len()),
            None => self.info.push(format!(
                "{name} not reported: fewer than {} of {} samples beyond it",
                crate::stats::MIN_BEYOND,
                samples.len()
            )),
        }
    }

    /// A free-form informational line.
    pub fn note(&mut self, line: String) {
        self.info.push(line);
    }

    /// The informational rows, then the result line, on stdout.
    pub fn print(&self, traced: bool, correct: bool, attempted: u64, failed: u64) {
        for line in &self.info {
            println!("# {line}");
        }
        println!("{}", self.result_line(traced, correct, attempted, failed));
    }

    /// The final JSON object: every end-to-end metric (untraced) or
    /// every per-layer metric (traced). Per-layer metrics a workload
    /// does not exercise read 0; an end-to-end metric must be measured.
    pub fn result_line(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(*name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
             \"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm::protocol::{parse_json, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_are_exactly_the_declared_names() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layer_map.json");
        let text = std::fs::read_to_string(path).expect("layer_map.json");
        let doc = parse_json(&text).expect("layer_map.json parses");
        let Json::Obj(entries) = doc else {
            panic!("layer map is an object")
        };
        let mapped: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(mapped, names, "one entry per per-layer metric, in order");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let workloads = ["sweeps", "serve-cold", "serve-warm", "all"];
        for (name, entry) in &entries {
            let metric = entry.get("moves").and_then(Json::as_str).expect("moves");
            let workload = entry
                .get("workload")
                .and_then(Json::as_str)
                .expect("workload");
            assert!(e2e.contains(&metric), "{name} moves undeclared {metric}");
            assert!(workloads.contains(&workload), "{name}: unknown workload");
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        r.set("synth.leaves.walk_x86", 7.0);
        let line = r.result_line(false, true, 3, 0);
        let doc = parse_json(&line).expect("result line is JSON");
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(doc.get("attempted"), Some(&Json::Num(3.0)));
        let traced = parse_json(&r.result_line(true, true, 1, 0)).expect("JSON");
        let Some(Json::Obj(layers)) = traced.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        let leaves = traced
            .get("metrics")
            .and_then(|m| m.get("synth.leaves.walk_x86"))
            .and_then(|m| m.get("value"));
        assert_eq!(leaves, Some(&Json::Num(7.0)));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Report::default().set("no.such.metric", 1.0);
    }
}
