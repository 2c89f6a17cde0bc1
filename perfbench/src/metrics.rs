//! The benchmark's metric table — the single source of every metric name,
//! unit and direction the binary prints — and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees; printed by untraced runs. All of them
/// are non-zero on every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_per_s", "ops/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_tail_ms", "ms", Lower, 0.25),
    e2e("success_rate", "fraction", Higher, 0.01),
    e2e("jq_exact_mean", "JQ", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// One layer each; printed by traced runs. A metric a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("jq.push.count", "count", Lower),
    layer("jq.push.mean_us", "us", Lower),
    layer("jq.pop.count", "count", Lower),
    layer("jq.pop.mean_us", "us", Lower),
    layer("jq.value.count", "count", Lower),
    layer("jq.value.mean_us", "us", Lower),
    layer("jq.session_open.count", "count", Lower),
    layer("jq.session_open.mean_us", "us", Lower),
    layer("jq.evaluate.count", "count", Lower),
    layer("jq.evaluate.mean_us", "us", Lower),
    layer("jq.busy_share", "fraction", Lower),
    layer("selection.self_ms", "ms", Lower),
    layer("selection.evaluations", "count", Lower),
    layer("service.self_ms", "ms", Lower),
    layer("service.cache.hit_ratio.binary", "fraction", Higher),
    layer("service.cache.hit_ratio.multiclass", "fraction", Higher),
    layer("service.cache.evictions", "count", Lower),
    layer("service.cache.entries", "count", Lower),
    layer("service.batch.slot_ms_mean", "ms", Lower),
    layer("service.batch.parallel_efficiency", "fraction", Higher),
    layer("service.drift_scan.mean_ms", "ms", Lower),
    layer("service.repair.mean_ms", "ms", Lower),
    layer("service.repair.outcomes.unchanged", "count", Higher),
    layer("service.repair.outcomes.patched", "count", Higher),
    layer("service.repair.outcomes.resolved", "count", Lower),
    layer("service.repair.resolved_share", "fraction", Lower),
    layer("stream.observe.mean_ns", "ns", Lower),
    layer("stream.observe.events", "count", Higher),
    layer("stream.snapshot.mean_ms", "ms", Lower),
    layer("stream.drift.flagged", "count", Lower),
    layer("trace.overhead_ms", "ms", Lower),
];

/// Whether `name` is a valid metric or workload name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metric table as JSON, for `--list-metrics` (the self-test checks
/// `BENCHMARK.json` against it).
pub fn table_json() -> String {
    let entry = |spec: &MetricSpec| {
        let mut line = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name,
            spec.unit,
            spec.better.as_str()
        );
        if let Some(bound) = spec.bound {
            let _ = write!(line, ", \"bound\": {bound}");
        }
        line.push('}');
        line
    };
    let list = |specs: &[MetricSpec]| specs.iter().map(entry).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        list(END_TO_END),
        list(PER_LAYER)
    )
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The final JSON line, carrying exactly the metrics of `specs`. Every
    /// declared metric must have a valid name and unit and have been set to
    /// a finite value.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(specs.len());
        for spec in specs {
            if !valid_name(spec.name) || !valid_unit(spec.unit) {
                return Err(format!(
                    "metric {} ({}) breaks the name or unit charset",
                    spec.name, spec.unit
                ));
            }
            let value = *self
                .values
                .get(spec.name)
                .ok_or_else(|| format!("metric {} was never measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", spec.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(value),
                spec.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives it.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    // `{:?}` prints `1e-7` style exponents, which JSON accepts, and `-0.0`.
    if text == "-0.0" {
        "0.0".to_string()
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "bad metric name {}", spec.name);
            assert!(
                valid_unit(spec.unit),
                "bad unit {} of {}",
                spec.unit,
                spec.name
            );
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
        }
    }

    #[test]
    fn name_charset_is_enforced() {
        for good in ["setup_s", "jq.push.mean_us", "a-b.c_d", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/",
            "é",
            "brace{}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "ops/s", "%", "1/s", "fraction", "JQ"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn units_and_directions_match_what_each_metric_measures() {
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let time = matches!(spec.unit, "s" | "ms" | "us" | "ns");
            if time {
                assert_eq!(
                    spec.better,
                    Better::Lower,
                    "{}: a time improves downwards",
                    spec.name
                );
            }
            // The first matching suffix names the unit.
            let suffix_unit = [
                ("_ops_per_s", "ops/s"),
                ("_ms", "ms"),
                ("_us", "us"),
                ("_ns", "ns"),
                ("_mb", "MB"),
                ("_s", "s"),
            ];
            if let Some((_, unit)) = suffix_unit
                .iter()
                .find(|(suffix, _)| spec.name.ends_with(suffix))
            {
                assert_eq!(
                    spec.unit, *unit,
                    "{}: the name's suffix says {unit}",
                    spec.name
                );
            }
            if spec.name.ends_with(".count") || spec.name.ends_with("evaluations") {
                assert_eq!(spec.unit, "count", "{}", spec.name);
            }
            if spec.name.contains("ratio")
                || spec.name.contains("share")
                || spec.name.contains("rate")
            {
                assert_eq!(spec.unit, "fraction", "{}", spec.name);
            }
        }
        for spec in END_TO_END {
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
        }
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|s| s.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time carries the largest bound"
        );
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut result = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        for spec in END_TO_END {
            result.set(spec.name, 1.25);
        }
        result.set("jq.push.count", 7.0);
        let line = result.to_json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("jq.push.count"));
        result.values.remove("setup_s");
        assert!(result.to_json(END_TO_END).is_err());
        result.set("setup_s", f64::NAN);
        assert!(result.to_json(END_TO_END).is_err());
    }
}
