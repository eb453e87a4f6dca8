//! The metric table (names, units, direction) and the result line.
//!
//! `BENCHMARK.json` lists the same names; the self-tests check that the
//! two agree.

/// One metric's identity.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: which direction is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every run with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("cells_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("table6_err", "ln-ratio", "lower"),
];

/// Printed by every run with `--trace 1`. Times are self times of the
/// traced pass unless the README says otherwise.
pub const PER_LAYER: &[Metric] = &[
    m("kernels.init_ms", "ms", "lower"),
    m("kernels.ir_ms", "ms", "lower"),
    m("kernels.ir_calls", "count", "lower"),
    m("kernels.workload_ms", "ms", "lower"),
    m("kernels.workloads_generated", "count", "lower"),
    m("sched.unroll_probe_ms", "ms", "lower"),
    m("sched.schedule_ms", "ms", "lower"),
    m("sched.mimd_ms", "ms", "lower"),
    m("sched.lowerings", "count", "lower"),
    m("verify.legality_ms", "ms", "lower"),
    m("verify.analyze_ms", "ms", "lower"),
    m("verify.warnings", "count", "lower"),
    m("sim.scalar_ms", "ms", "lower"),
    m("sim.lockstep_ms", "ms", "lower"),
    m("sim.host_ns_per_cycle", "ns/cycle", "lower"),
    m("sim.cycles", "count", "lower"),
    m("sim.useful_ops", "count", "higher"),
    m("sim.useful_op_ratio", "ratio", "higher"),
    m("sim.net_hops", "count", "lower"),
    m("sim.loads", "count", "lower"),
    m("sim.smc_accesses", "count", "lower"),
    m("sim.mem_stall_node_cycles", "count", "lower"),
    m("sim.revitalizations", "count", "lower"),
    m("sim.mimd_fetches", "count", "lower"),
    m("sim.l1_miss_ratio", "ratio", "lower"),
    m("runner.verify_ms", "ms", "lower"),
    m("sweep.keys_ms", "ms", "lower"),
    m("sweep.worker_util", "ratio", "higher"),
    m("sweep.plan_reuse_ratio", "ratio", "higher"),
    m("sweep.workload_cache_hit_ratio", "ratio", "higher"),
    m("sweep.cells_batched", "count", "higher"),
    m("sweep.batch_occupancy", "ratio", "higher"),
    m("sweep.other_ms", "ms", "lower"),
    m("store.get_ms", "ms", "lower"),
    m("store.put_ms", "ms", "lower"),
    m("store.hit_ratio", "ratio", "higher"),
    m("store.bytes_written", "B", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
    m("fail_frac", "ratio", "lower"),
];

/// The final result line: one JSON object holding every metric of
/// `table`, each looked up in `values`.
///
/// # Panics
///
/// When a metric of `table` has no value, or a value is not finite —
/// both harness bugs.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    table: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|metric| {
            let value = values
                .iter()
                .find(|(name, _)| *name == metric.name)
                .unwrap_or_else(|| panic!("no value for metric {}", metric.name))
                .1;
            assert!(value.is_finite(), "{} = {value} is not finite", metric.name);
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_common::json::{self, JsonValue};

    /// Whether `name` is a valid metric name: starts with a letter or
    /// digit, at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = all().map(|m| m.name).collect();
        for m in all() {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names repeat");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string();
                (name, m.get("bound").and_then(JsonValue::as_f64).unwrap())
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
            assert!(
                *bound <= setup,
                "setup_s must carry the largest bound, not {name}"
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(true, 78, 2, END_TO_END, &values);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(78));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(2));
        for m in END_TO_END {
            let entry = v.get("metrics").and_then(|ms| ms.get(m.name)).unwrap();
            assert_eq!(entry.get("value").and_then(JsonValue::as_f64), Some(1.25));
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
        }
    }
}
