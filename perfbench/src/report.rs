//! Metric names, units and the result line the benchmark prints.

use std::fmt::Write as _;

/// Serving verbs the per-layer sweep replays, in report order.
pub const VERBS: [&str; 5] = ["emst", "subset", "knn", "insert", "delete"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("capacity_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics: `(name, unit)`, with the `{verb}` families expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 31] = [
        ("datasets.load_csv_s", "s"),
        ("bvh.build_s", "s"),
        ("core.boruvka_s", "s"),
        ("core.ns_per_visit", "ns"),
        ("core.mfeatures_per_s", "MFeatures/s"),
        ("core.iterations", "count"),
        ("core.node_visits", "count"),
        ("core.distance_computations", "count"),
        ("core.subtrees_skipped", "count"),
        ("core.phase.reduce_labels_s", "s"),
        ("core.phase.upper_bounds_s", "s"),
        ("core.phase.find_edges_s", "s"),
        ("core.phase.select_s", "s"),
        ("core.phase.merge_s", "s"),
        ("exec.serial_boruvka_s", "s"),
        ("exec.threads_speedup", "ratio"),
        ("shard.build_s", "s"),
        ("shard.merge_warm_s", "s"),
        ("shard.merge_cold_s", "s"),
        ("shard.subset_s", "s"),
        ("shard.knn_s", "s"),
        ("shard.update_s", "s"),
        ("shard.merge_rounds", "count"),
        ("shard.merge_queries", "count"),
        ("shard.update_dirty_shards", "count"),
        ("shard.merge_last_round_s", "s"),
        ("serve.stats.hits", "count"),
        ("serve.stats.misses", "count"),
        ("serve.stats.evictions", "count"),
        ("serve.stats.spill_failures", "count"),
        ("serve.stats.query_coalesced", "count"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for family in [
        "serve.execute_ms",
        "serve.self_ms",
        "net.respond_ms",
        "net.protocol_ms",
        "net.wire_ms",
        "trace.coverage",
        "trace.unattributed_ms",
    ] {
        let unit = if family == "trace.coverage" { "fraction" } else { "ms" };
        out.extend(VERBS.iter().map(|v| (format!("{family}.{v}"), unit)));
    }
    out.extend([
        ("loadgen.lag_p50_ms".to_string(), "ms"),
        ("loadgen.lag_max_ms".to_string(), "ms"),
        ("traced.p50_ms".to_string(), "ms"),
    ]);
    out
}

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, checked against the declared set on output.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records `name`; the name must be declared (checked in [`Self::finish`]).
    pub fn add(&mut self, name: &str, value: f64, samples: usize) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(self.metrics.iter().all(|m| m.name != name), "metric {name:?} reported twice");
        self.metrics.push(Metric { name: name.to_string(), value, unit: "", samples });
    }

    /// Orders the metrics as `declared` lists them and attaches units.
    /// Panics when a declared metric is missing or an undeclared one was
    /// added: both are bugs in the benchmark, not in the program.
    pub fn finish(mut self, declared: &[(String, &'static str)]) -> Vec<Metric> {
        let mut out = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let pos = self
                .metrics
                .iter()
                .position(|m| &m.name == name)
                .unwrap_or_else(|| panic!("declared metric {name:?} was not measured"));
            let mut m = self.metrics.swap_remove(pos);
            assert!(valid_unit(unit), "invalid unit {unit:?} of {name:?}");
            m.unit = unit;
            out.push(m);
        }
        let extra: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(extra.is_empty(), "undeclared metrics {extra:?}");
        out
    }
}

/// JSON number; `+∞` (a failed operation that reached the statistic) is
/// written as `1e999`, which JSON readers parse as infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        "1e999".to_string()
    } else {
        "-1e999".to_string()
    }
}

/// JSON string literal (the benchmark only quotes its own ASCII strings
/// and host strings such as the CPU model).
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        assert!(valid_name("p50_ms"));
        assert!(valid_name("serve.self_ms.knn"));
        assert!(valid_name("9lives-x.y_z"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("braces.{verb}"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MFeatures/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut all: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        all.extend(per_layer());
        assert!(all.len() <= 6 + 128);
        for (n, u) in &all {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
        }
        let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// The benchmark description at the repository root declares exactly
    /// the metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut declared: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        declared.extend(per_layer());
        for (name, unit) in &declared {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), declared.len());
    }

    /// Every prediction row names a declared per-layer metric, a declared
    /// end-to-end metric and a workload of the benchmark.
    #[test]
    fn predictions_name_declared_metrics() {
        let rows = include_str!("../predictions.json");
        let values = |key: &str| -> Vec<String> {
            let needle = format!("\"{key}\": \"");
            rows.match_indices(&needle)
                .map(|(i, _)| {
                    let rest = &rows[i + needle.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let ids = values("id");
        assert!(!ids.is_empty());
        for m in values("layer_metric") {
            assert!(layers.contains(&m), "unknown layer metric {m}");
        }
        for m in values("end_to_end") {
            assert!(END_TO_END.iter().any(|(n, _)| *n == m), "unknown end-to-end metric {m}");
        }
        for w in values("workload") {
            assert!(["batch-hacc", "serve-read", "serve-mutate"].contains(&w.as_str()), "{w}");
        }
        for e in values("expect") {
            assert!(e == "moves" || e == "no change", "{e}");
        }
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate prediction id");
    }

    #[test]
    fn report_orders_and_checks_declared_metrics() {
        let declared = vec![("b".to_string(), "s"), ("a".to_string(), "ms")];
        let mut r = Report::default();
        r.add("a", 1.5, 3);
        r.add("b", 2.0, 1);
        let m = r.finish(&declared);
        assert_eq!(m[0].name, "b");
        assert_eq!(m[1].unit, "ms");
        let line = result_line(4, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"b\": \
             {\"value\": 2, \"unit\": \"s\"}, \"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_number(f64::INFINITY), "1e999");
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_declared_metric_panics() {
        Report::default().finish(&[("x".to_string(), "s")]);
    }
}
