//! The metric registry: every reported name with its unit, direction and
//! clock, the result line, and the `BENCHMARK.json` manifest built from it.

use std::collections::BTreeMap;

use crate::probe::HOOKS;

/// Which clock or count a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time or a simulated outcome: exact for a given seed.
    Sim,
    /// Host wall-clock time or host memory: noisy.
    Host,
    /// An exact work counter: identical for a given seed.
    Count,
}

impl Clock {
    /// The label printed next to the metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name: letters, digits, `_`, `.` and `-`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed regression as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Which clock the value is read from.
    pub clock: Clock,
}

fn metric(name: &str, unit: &'static str, lower: bool, clock: Clock) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        lower_is_better: lower,
        bound: None,
        clock,
    }
}

fn gated(name: &str, unit: &'static str, lower: bool, bound: f64, clock: Clock) -> Metric {
    Metric {
        bound: Some(bound),
        ..metric(name, unit, lower, clock)
    }
}

/// The end-to-end metrics, reported with `--trace 0`.
pub fn end_to_end() -> Vec<Metric> {
    use Clock::{Host, Sim};
    vec![
        gated("sim_req_per_s", "1/s", false, 0.25, Host),
        gated("setup_s", "s", true, 0.25, Host),
        gated("peak_rss_mb", "MB", true, 0.1, Host),
        gated("ttft_p50_s", "s", true, 0.15, Sim),
        gated("ttft_p99_s", "s", true, 0.25, Sim),
        gated("tpot_p50_s", "s", true, 0.2, Sim),
        gated("tpot_p99_s", "s", true, 0.1, Sim),
        gated("slo_attain", "frac", false, 0.15, Sim),
        gated("max_rate_at_slo_rps", "1/s", false, 0.15, Sim),
    ]
}

/// The baseline systems of the lineup columns, as metric stems.
pub const BASELINES: [&str; 4] = ["vllm_dp", "vllm_pp", "infercept", "llumnix"];

/// The request phases of the per-phase accounting.
pub const PHASES: [&str; 3] = ["before", "during", "after"];

/// The per-layer metrics, reported with `--trace 1`.
pub fn per_layer() -> Vec<Metric> {
    use Clock::{Count, Host, Sim};
    let mut v = vec![
        metric("workload.build_ms", "ms", true, Host),
        metric("workload.requests", "count", false, Count),
    ];
    for hook in HOOKS {
        v.push(metric(&format!("{hook}.calls"), "count", true, Count));
        v.push(metric(&format!("{hook}.ms"), "ms", true, Host));
    }
    v.extend([
        metric("core.policy_share", "frac", true, Host),
        metric("cluster.run_ms", "ms", true, Host),
        metric("cluster.self_ms", "ms", true, Host),
        metric("cluster.events", "count", true, Count),
        metric("cluster.self_us_per_event", "us", true, Host),
        metric("cluster.iterations", "count", true, Count),
        metric("cluster.preemptions", "count", true, Count),
        metric("cluster.reconfigs", "count", true, Count),
        metric("cluster.bubble_mean", "frac", true, Sim),
        metric("cluster.ledger.donated_peak_bytes", "bytes", true, Sim),
        metric("kvcache.used_frac_mean", "frac", false, Sim),
        metric("kvcache.demand_peak_frac", "frac", true, Sim),
        metric("kvcache.prefix_hit_frac", "frac", false, Sim),
        metric("kvcache.prefix_recompute_amp", "ratio", true, Sim),
        metric("netsim.transfers", "count", true, Count),
        metric("gateway.submit.calls", "count", true, Count),
        metric("gateway.submit.us_p50", "us", true, Host),
        metric("gateway.submit.us_p99", "us", true, Host),
        metric("gateway.status.calls", "count", true, Count),
        metric("gateway.status.us_p50", "us", true, Host),
        metric("gateway.pump.calls", "count", true, Count),
        metric("gateway.pump.ms", "ms", true, Host),
        metric("gateway.model_op.ms", "ms", true, Host),
        metric("gateway.rejected_quota", "count", true, Count),
        metric("gateway.rejected_unavailable", "count", true, Count),
        metric("trace.overhead_frac", "frac", true, Host),
        metric("host.reference_ms", "ms", true, Host),
        metric("host.raw_req_per_s", "1/s", false, Host),
    ]);
    v.extend(lineup_metrics());
    for p in PHASES {
        v.push(metric(&format!("phase.{p}.sent"), "count", false, Count));
        v.push(metric(
            &format!("phase.{p}.succeeded"),
            "count",
            false,
            Count,
        ));
        v.push(metric(&format!("phase.{p}.failed"), "count", true, Count));
    }
    v.extend([
        metric("requests.failed_frac", "frac", true, Sim),
        metric("requests.ttft_samples", "count", false, Count),
        metric("requests.tpot_samples", "count", false, Count),
    ]);
    v
}

/// The executor and lineup columns, recorded on `burst` only.
pub fn lineup_metrics() -> Vec<Metric> {
    use Clock::{Count, Host, Sim};
    let mut v = vec![
        metric("cluster.shard1.run_ms", "ms", true, Host),
        metric("cluster.shard1.ttft_p99_s", "s", true, Sim),
        metric("cluster.shard1.preemptions", "count", true, Count),
        metric("cluster.shard2.run_ms", "ms", true, Host),
        metric("cluster.shard2.windows", "count", true, Count),
        metric("cluster.shard2.steals", "count", true, Host),
        metric("cluster.shard2.us_per_window", "us", true, Host),
    ];
    for b in BASELINES {
        v.push(metric(&format!("core.{b}.run_ms"), "ms", true, Host));
        v.push(metric(&format!("core.{b}.hook_ms"), "ms", true, Host));
        v.push(metric(&format!("core.{b}.ttft_p99_s"), "s", true, Sim));
        v.push(metric(
            &format!("core.{b}.preemptions"),
            "count",
            true,
            Count,
        ));
    }
    v.push(metric(
        "core.kunserve_vs_vllm_dp.ttft_p99_ratio",
        "ratio",
        true,
        Sim,
    ));
    v
}

/// Whether `name` is a valid metric or workload name: 1–64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Checks that every name is valid and used once.
pub fn validate(metrics: &[Metric]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!("invalid metric `{}` ({})", m.name, m.unit));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric `{}` listed twice", m.name));
        }
    }
    Ok(())
}

/// Formats a finite number with all its digits.
fn num(v: f64) -> String {
    format!("{v:?}")
}

/// The final result line: every metric of `defs`, each with its unit.
/// Fails if a metric is missing, unexpected or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Metric],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric `{extra}` is not registered"));
    }
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(&d.name)
            .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", d.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// The `BENCHMARK.json` manifest for `workloads` (`(name, why)` pairs).
pub fn manifest(workloads: &[(&str, &str)], run_seconds: u32) -> String {
    let metric_line = |m: &Metric| {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {}", num(b)));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    let list = |ms: Vec<Metric>| ms.iter().map(metric_line).collect::<Vec<_>>().join(",\n");
    let wl = workloads
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{wl}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(end_to_end()),
        list(per_layer())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule() {
        assert!(valid_name("ttft_p99_s"));
        assert!(valid_name("core.on_tick.ms"));
        assert!(valid_name("cluster.shard2.us_per_window"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("ünicode"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn units_follow_the_unit_rule() {
        for u in ["ms", "s", "1/s", "count", "%", "frac", "MB"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn registry_is_valid_and_gates_only_end_to_end_metrics() {
        let e2e = end_to_end();
        let layers = per_layer();
        validate(&e2e).unwrap();
        validate(&layers).unwrap();
        let all: Vec<Metric> = e2e.iter().chain(&layers).cloned().collect();
        validate(&all).unwrap();
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layers.iter().all(|m| m.bound.is_none()));
        assert!(layers.len() <= 128);
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn validate_rejects_duplicates() {
        let twice = vec![
            metric("a", "s", true, Clock::Host),
            metric("a", "s", true, Clock::Host),
        ];
        assert!(validate(&twice).is_err());
    }

    #[test]
    fn result_line_requires_every_metric() {
        let defs = vec![metric("x_ms", "ms", true, Clock::Host)];
        let mut vals = BTreeMap::new();
        assert!(result_line(true, 1, 0, &defs, &vals).is_err());
        vals.insert("x_ms".to_string(), 1.25);
        assert_eq!(
            result_line(true, 3, 0, &defs, &vals).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        vals.insert("y".to_string(), 1.0);
        assert!(result_line(true, 1, 0, &defs, &vals).is_err());
        vals.remove("y");
        vals.insert("x_ms".to_string(), f64::NAN);
        assert!(result_line(true, 1, 0, &defs, &vals).is_err());
    }
}
