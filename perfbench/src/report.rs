//! The metrics the benchmark reports, and the result line the driver of a
//! run reads.
//!
//! Every workload reports every metric listed here, so each is defined
//! on every workload (see README.md for what each one measures where).
//! A layer timing that only one workload exercises is printed and
//! written to the result file, but not listed.

use std::collections::BTreeMap;

/// End-to-end metrics, with units: reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("op_p50_ms", "ms"),
    ("load_s", "s"),
    ("decision_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with units: reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nlp.split_s", "s"),
    ("nlp.tokenize_s", "s"),
    ("nlp.pos_tag_s", "s"),
    ("nlp.parse_s", "s"),
    ("nlp.entity_tag_s", "s"),
    ("nlp.sentences", "count"),
    ("nlp.tokens", "count"),
    ("nlp.mentions", "count"),
    ("nlp.parse_ok_ratio", "ratio"),
    ("extract.match_s", "s"),
    ("extract.evidence_insert_s", "s"),
    ("extract.statements", "count"),
    ("extract.yield_ratio", "ratio"),
    ("extract.worker_busy_s", "s"),
    ("extract.worker_wait_s", "s"),
    ("extract.intern_hit_ratio", "ratio"),
    ("extract.group_s", "s"),
    ("extract.pairs", "count"),
    ("model.em_fit_s", "s"),
    ("model.em_iterations", "count"),
    ("model.em_capped_groups", "count"),
    ("model.em_converged_ratio", "ratio"),
    ("model.groups_fitted", "count"),
    ("model.entities_fitted", "count"),
    ("core.update.groups_refit", "count"),
    ("core.update.groups_carried", "count"),
    ("core.update.carried_ratio", "ratio"),
    ("core.snapshot_build_s", "s"),
    ("core.output_from_snapshot_s", "s"),
    ("core.index_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.bytes", "bytes"),
    ("wire.decode.PROP_s", "s"),
    ("wire.decode.TYPE_s", "s"),
    ("wire.decode.ENTS_s", "s"),
    ("wire.decode.EVID_s", "s"),
    ("wire.decode.PROV_s", "s"),
    ("wire.decode.MODL_s", "s"),
    ("wire.decode.DECN_s", "s"),
    ("wire.bytes.PROP", "bytes"),
    ("wire.bytes.TYPE", "bytes"),
    ("wire.bytes.ENTS", "bytes"),
    ("wire.bytes.EVID", "bytes"),
    ("wire.bytes.PROV", "bytes"),
    ("wire.bytes.MODL", "bytes"),
    ("wire.bytes.DECN", "bytes"),
    ("wire.bytes.INCR", "bytes"),
    ("wire.bytes.GRPF", "bytes"),
    ("server.parse_s", "s"),
    ("server.route_s", "s"),
    ("server.render_s", "s"),
    ("server.requests_per_connection", "count"),
    ("server.shed", "count"),
    ("server.deadline_expired", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// A named correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The listed end-to-end metrics.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metrics: the listed ones plus workload-specific extras.
    pub per_layer: BTreeMap<String, f64>,
    /// The workload's metrics under the names of the lifecycle they
    /// measure (`mine_s`, `update_s`, `decide_p99_ms`, ...), with units.
    pub named: Vec<(String, f64, String)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload parameters: sizes, rates, thread and connection counts.
    pub params: serde_json::Value,
    /// Self time per layer over the traced run, in seconds.
    pub self_seconds: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn name(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// The result line: `correct`, `attempted`, `failed` and every listed
/// metric with its unit. Fails when a listed metric is missing or is not
/// a finite number.
pub fn result_line(
    listed: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = values
            .get(*name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(metrics)) = json.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        metrics
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_owned(),
                    m["unit"].as_str().expect("unit").to_owned(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics_and_units() {
        assert_eq!(listed_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(listed_in_benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_carries_every_listed_metric_with_its_unit() {
        let values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| ((*n).to_owned(), 0.5 + i as f64))
            .collect();
        let line = result_line(END_TO_END, &values, true, 10, 0).expect("complete");
        let json: Value = serde_json::from_str(&line).expect("line is JSON");
        for (name, unit) in END_TO_END {
            assert_eq!(json["metrics"][*name]["unit"].as_str(), Some(*unit));
            assert!(json["metrics"][*name]["value"].as_f64().is_some());
        }
        assert_eq!(json["correct"].as_bool(), Some(true));
        assert_eq!(json["attempted"].as_f64(), Some(10.0));
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|(n, _)| ((*n).to_owned(), 1.0))
            .collect();
        values.remove("load_s");
        assert!(result_line(END_TO_END, &values, true, 1, 0)
            .unwrap_err()
            .contains("load_s"));
        values.insert("load_s".to_owned(), f64::NAN);
        assert!(result_line(END_TO_END, &values, true, 1, 0).is_err());
    }
}
