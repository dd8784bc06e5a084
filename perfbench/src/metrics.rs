//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`)
//! and the one-line JSON result the benchmark prints last.

/// A named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed in the result.
    pub name: &'static str,
    /// Unit as printed in the result.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("train_samples_per_s", "1/s"),
    m("eval_samples_per_s", "1/s"),
    m("test_macro_auc", "ratio"),
    m("prep_cold_samples_per_s", "1/s"),
    m("prep_warm_samples_per_s", "1/s"),
    m("queries_per_s", "1/s"),
    m("query_ms_p50", "ms"),
    m("query_ms_p90", "ms"),
    m("roll_ms_p50", "ms"),
    m("answered_fraction", "fraction"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("data.generate_ms", "ms"),
    m("sample.khop_ms_per_link", "ms"),
    m("sample.drnl_ms_per_link", "ms"),
    m("sample.tensorize_ms_per_link", "ms"),
    m("sample.span_coverage", "ratio"),
    m("sample.subgraph_nodes_mean", "count"),
    m("sample.messages_per_sample", "count"),
    m("prefetch.wait_share", "ratio"),
    m("store.flush_ms", "ms"),
    m("store.open_ms", "ms"),
    m("store.file_mb", "MB"),
    m("store.hit_ratio", "ratio"),
    m("train.forward_ms_per_batch", "ms"),
    m("train.backward_ms_per_batch", "ms"),
    m("train.optimizer_ms_per_batch", "ms"),
    m("train.span_coverage", "ratio"),
    m("eval.ms_per_sample", "ms"),
    m("server.queue_wait_ms_mean", "ms"),
    m("server.batch_size_mean", "count"),
    m("engine.ms_per_batch", "ms"),
    m("server.stats_coverage", "ratio"),
    m("engine.hit_ratio", "ratio"),
    m("engine.dedup_hits", "count"),
    m("engine.hit_ms_p50", "ms"),
    m("engine.miss_ms_p50", "ms"),
    m("graph_store.apply_ms_p50", "ms"),
    m("fleet.roll_graph_ms_p50", "ms"),
    m("roll.region_nodes_mean", "count"),
    m("roll.kept_fraction", "ratio"),
    m("serve.stale_serves", "count"),
    m("fleet.failovers", "count"),
    m("fleet.hedges", "count"),
    m("obs.trace_overhead", "ratio"),
];

/// Measured values by name; the catalogue supplies the units.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` under `name` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalogue` as `{"value", "unit"}`. A metric that was
/// not measured is an error, so a phase that silently skipped work cannot
/// produce a result.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<&'static str> {
        END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names = all_names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = text.split_whitespace().collect();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", metric.name, metric.unit);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_requires_every_metric() {
        let mut values = Values::default();
        values.set("setup_s", 1.5);
        let err = result_json(true, 1, 0, &END_TO_END[..2], &values).expect_err("missing");
        assert!(err.contains("train_samples_per_s"));
        let line = result_json(true, 1, 0, &END_TO_END[..1], &values).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        values.set("setup_s", f64::NAN);
        assert!(result_json(true, 1, 0, &END_TO_END[..1], &values).is_err());
    }
}
