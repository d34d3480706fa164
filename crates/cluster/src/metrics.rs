//! Serving metrics: per-request latency records, cluster timelines and the
//! aggregations the paper's figures report.

use sim_core::stats::{empirical_cdf, Percentiles, TimeSeries, WindowedRate};
use sim_core::{SimDuration, SimTime};
use workload::ModelId;

use crate::request::RequestId;

/// One metric update of a group iteration, produced by
/// [`crate::iteration::complete_iteration`]. The serial engine records
/// each at once; the sharded executor logs them per group and records
/// them at the barrier in a deterministic merge order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MetricEvent {
    FirstToken(RequestId, SimTime),
    /// A request finished; the flag says whether it met its deadline.
    Finished(RequestId, SimTime, bool),
    Tokens(SimTime, u64),
    Iteration(SimTime, f64),
    Bubble(SimTime, f64),
}

/// Latency record of one finished (or in-flight) request.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// The request.
    pub id: RequestId,
    /// The model the request targeted.
    pub model: ModelId,
    /// Client send time.
    pub arrival: SimTime,
    /// First output token time, if reached.
    pub first_token: Option<SimTime>,
    /// Completion time, if reached.
    pub finished: Option<SimTime>,
    /// Output length in tokens.
    pub output_tokens: u64,
    /// Times the request was preempted.
    pub preemptions: u32,
}

impl RequestRecord {
    /// Time-to-first-token in seconds, if the first token was produced.
    pub fn ttft_secs(&self) -> Option<f64> {
        self.first_token
            .map(|t| t.since(self.arrival).as_secs_f64())
    }

    /// Mean time-per-output-token in seconds over the decode phase.
    pub fn tpot_secs(&self) -> Option<f64> {
        let (first, fin) = (self.first_token?, self.finished?);
        if self.output_tokens <= 1 {
            return None;
        }
        Some(fin.since(first).as_secs_f64() / (self.output_tokens - 1) as f64)
    }
}

/// Live metrics collector fed by the engine.
#[derive(Debug, Default)]
pub struct Metrics {
    records: Vec<RequestRecord>,
    /// (time, demand bytes) sampled by the monitor.
    pub mem_demand: TimeSeries,
    /// (time, capacity bytes) sampled by the monitor.
    pub mem_capacity: TimeSeries,
    /// (time, used bytes) sampled by the monitor.
    pub mem_used: TimeSeries,
    /// Tokens emitted over time (throughput).
    pub tokens: WindowedRate,
    /// Exact emitted-token count. Kept as an integer alongside the f64
    /// `tokens` rate series: summing f64 samples loses exactness past
    /// 2^53 and would put a rounding step on the report path.
    total_tokens: u64,
    /// Pipeline bubble fraction per iteration (multi-stage groups only).
    pub bubbles: TimeSeries,
    /// Iteration durations: one `(completion_time, duration_secs)` sample
    /// per iteration across all groups (GPU duty-cycle analysis).
    pub iterations: TimeSeries,
    /// Mean TTFT timeline: a sample per first token.
    pub ttft_series: TimeSeries,
    /// Drop/restore events: (time, +stages merged / -split marker).
    pub reconfig_events: Vec<(SimTime, String)>,
    /// Peak bytes simultaneously lent across models (cross-model KV
    /// donation high-water mark).
    pub donated_bytes_peak: u64,
    /// Prefill tokens skipped thanks to resident shared prefixes.
    pub prefix_saved_tokens: u64,
    /// Shared-prefix tokens computed exactly once per (group, prefix) pair.
    pub prefix_unique_tokens: u64,
    /// Shared-prefix tokens recomputed after an eviction invalidated the
    /// resident copy (the amplification cost the fig21 gate bounds).
    pub prefix_recompute_tokens: u64,
    /// Finished requests that met their deadline (requests without a
    /// deadline count — goodput is "useful completed work").
    pub goodput_requests: u64,
    /// Deadline-miss events: aborted attempts plus finishes past the bound.
    pub deadline_misses: u64,
    /// Requests the admission controller refused (predicted SLO miss).
    pub shed_requests: u64,
    /// Requests abandoned after exhausting their retry budget.
    pub abandoned_requests: u64,
    /// Requests cancelled by the client (gateway `cancel`) before finishing.
    pub cancelled_requests: u64,
    /// Client retry re-arrivals that re-entered the system.
    pub retries: u64,
    /// When each retry re-arrived — the cascade-damping evidence the
    /// fig23 gate bins into before/after-recovery windows.
    pub retry_events: Vec<SimTime>,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers an arriving request.
    pub fn on_arrival(
        &mut self,
        id: RequestId,
        arrival: SimTime,
        output_tokens: u64,
        model: ModelId,
    ) {
        let idx = id.0;
        if idx >= self.records.len() {
            self.records.resize(
                idx + 1,
                RequestRecord {
                    id: RequestId(usize::MAX),
                    model: ModelId::PRIMARY,
                    arrival: SimTime::ZERO,
                    first_token: None,
                    finished: None,
                    output_tokens: 0,
                    preemptions: 0,
                },
            );
        }
        self.records[idx] = RequestRecord {
            id,
            model,
            arrival,
            first_token: None,
            finished: None,
            output_tokens,
            preemptions: 0,
        };
    }

    /// Records the first output token of a request.
    pub fn on_first_token(&mut self, id: RequestId, now: SimTime) {
        let rec = &mut self.records[id.0];
        if rec.first_token.is_none() {
            rec.first_token = Some(now);
            let ttft = now.since(rec.arrival).as_secs_f64();
            self.ttft_series.push(now, ttft);
        }
    }

    /// Records request completion.
    pub fn on_finished(&mut self, id: RequestId, now: SimTime) {
        self.records[id.0].finished = Some(now);
    }

    /// Records a preemption.
    pub fn on_preemption(&mut self, id: RequestId) {
        self.records[id.0].preemptions += 1;
    }

    /// Records emitted tokens (throughput accounting).
    pub fn on_tokens(&mut self, now: SimTime, n: u64) {
        self.total_tokens += n;
        self.tokens.record(now, n as f64);
    }

    /// Applies one iteration metric update.
    pub(crate) fn record(&mut self, ev: MetricEvent) {
        match ev {
            MetricEvent::FirstToken(r, t) => self.on_first_token(r, t),
            MetricEvent::Finished(r, t, met) => {
                self.on_finish_outcome(met);
                self.on_finished(r, t);
            }
            MetricEvent::Tokens(t, n) => self.on_tokens(t, n),
            MetricEvent::Iteration(t, d) => self.iterations.push(t, d),
            MetricEvent::Bubble(t, f) => self.bubbles.push(t, f),
        }
    }

    /// Records a reconfiguration (drop/restore) marker.
    pub fn on_reconfig(&mut self, now: SimTime, what: impl Into<String>) {
        self.reconfig_events.push((now, what.into()));
    }

    /// Records the current outstanding donated bytes (tracks the peak).
    pub fn on_donation_outstanding(&mut self, bytes: u64) {
        self.donated_bytes_peak = self.donated_bytes_peak.max(bytes);
    }

    /// Records the deadline outcome of a finished request.
    pub fn on_finish_outcome(&mut self, met: bool) {
        if met {
            self.goodput_requests += 1;
        } else {
            self.deadline_misses += 1;
        }
    }

    /// Records a deadline-missed attempt abort (the client gave up).
    pub fn on_deadline_miss(&mut self) {
        self.deadline_misses += 1;
    }

    /// Records a client retry re-arriving.
    pub fn on_retry(&mut self, now: SimTime) {
        self.retries += 1;
        self.retry_events.push(now);
    }

    /// Records an admission-controller shed.
    pub fn on_shed(&mut self) {
        self.shed_requests += 1;
    }

    /// Records a request abandoned after its last retry.
    pub fn on_abandoned(&mut self) {
        self.abandoned_requests += 1;
    }

    /// Records a client-initiated cancellation.
    pub fn on_cancelled(&mut self) {
        self.cancelled_requests += 1;
    }

    /// Retry re-arrivals in the half-open window `[from, to)`.
    pub fn retries_in(&self, from: SimTime, to: SimTime) -> u64 {
        let n = self
            .retry_events
            .iter()
            .filter(|&&t| t >= from && t < to)
            .count();
        // simlint: allow(D-CAST) — count of in-window events, lossless.
        n as u64
    }

    /// All request records.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Finalizes into a [`RunReport`].
    pub fn report(&self) -> RunReport {
        let ttft: Vec<f64> = self.records.iter().filter_map(|r| r.ttft_secs()).collect();
        let tpot: Vec<f64> = self.records.iter().filter_map(|r| r.tpot_secs()).collect();
        let finished = self.records.iter().filter(|r| r.finished.is_some()).count();

        // Per-model breakdown, ascending by model id.
        let mut model_ids: Vec<ModelId> = self.records.iter().map(|r| r.model).collect();
        model_ids.sort();
        model_ids.dedup();
        let per_model = model_ids
            .into_iter()
            .map(|m| {
                let recs: Vec<&RequestRecord> =
                    self.records.iter().filter(|r| r.model == m).collect();
                let ttft: Vec<f64> = recs.iter().filter_map(|r| r.ttft_secs()).collect();
                let tpot: Vec<f64> = recs.iter().filter_map(|r| r.tpot_secs()).collect();
                ModelReport {
                    model: m,
                    total_requests: recs.len(),
                    finished_requests: recs.iter().filter(|r| r.finished.is_some()).count(),
                    ttft: Percentiles::from_samples(&ttft),
                    tpot: Percentiles::from_samples(&tpot),
                    ttft_samples: ttft,
                }
            })
            .collect();

        RunReport {
            total_requests: self.records.len(),
            finished_requests: finished,
            ttft: Percentiles::from_samples(&ttft),
            tpot: Percentiles::from_samples(&tpot),
            ttft_samples: ttft,
            tpot_samples: tpot,
            total_tokens: self.total_tokens,
            // simlint: allow(D-CAST) — widening u32 -> u64, lossless.
            preemptions: self.records.iter().map(|r| r.preemptions as u64).sum(),
            donated_bytes_peak: self.donated_bytes_peak,
            prefix_saved_tokens: self.prefix_saved_tokens,
            prefix_unique_tokens: self.prefix_unique_tokens,
            prefix_recompute_tokens: self.prefix_recompute_tokens,
            goodput_requests: self.goodput_requests,
            deadline_misses: self.deadline_misses,
            shed_requests: self.shed_requests,
            abandoned_requests: self.abandoned_requests,
            cancelled_requests: self.cancelled_requests,
            retries: self.retries,
            per_model,
        }
    }
}

/// Latency summary of one co-served model within a run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The model.
    pub model: ModelId,
    /// Requests that arrived for this model.
    pub total_requests: usize,
    /// Requests that finished generation.
    pub finished_requests: usize,
    /// TTFT percentile summary (seconds).
    pub ttft: Percentiles,
    /// TPOT percentile summary (seconds per token).
    pub tpot: Percentiles,
    /// Raw TTFT samples for SLO/CDF analysis.
    pub ttft_samples: Vec<f64>,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Requests that arrived.
    pub total_requests: usize,
    /// Requests that finished generation.
    pub finished_requests: usize,
    /// TTFT percentile summary (seconds).
    pub ttft: Percentiles,
    /// TPOT percentile summary (seconds per token).
    pub tpot: Percentiles,
    /// Raw TTFT samples for SLO/CDF analysis.
    pub ttft_samples: Vec<f64>,
    /// Raw TPOT samples for SLO/CDF analysis.
    pub tpot_samples: Vec<f64>,
    /// Total output tokens produced.
    pub total_tokens: u64,
    /// Total preemption count.
    pub preemptions: u64,
    /// Peak bytes simultaneously lent across models (0 without donation).
    pub donated_bytes_peak: u64,
    /// Prefill tokens skipped thanks to resident shared prefixes.
    pub prefix_saved_tokens: u64,
    /// Shared-prefix tokens computed exactly once per (group, prefix) pair.
    pub prefix_unique_tokens: u64,
    /// Shared-prefix tokens recomputed after evictions.
    pub prefix_recompute_tokens: u64,
    /// Finished requests that met their deadline (deadline-free requests
    /// count: goodput is useful completed work).
    pub goodput_requests: u64,
    /// Deadline-miss events (aborted attempts + late finishes).
    pub deadline_misses: u64,
    /// Requests shed by the admission controller.
    pub shed_requests: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub abandoned_requests: u64,
    /// Requests cancelled by the client before finishing.
    pub cancelled_requests: u64,
    /// Retry re-arrivals that re-entered the system.
    pub retries: u64,
    /// Per-model latency breakdown (one entry per model seen in the trace,
    /// ascending by model id; a single entry for single-model runs).
    pub per_model: Vec<ModelReport>,
}

impl RunReport {
    /// The breakdown of one model, if any of its requests arrived.
    pub fn model_report(&self, model: ModelId) -> Option<&ModelReport> {
        self.per_model.iter().find(|r| r.model == model)
    }

    /// Shared-prefix recompute amplification: recomputed prefix tokens per
    /// uniquely computed prefix token (0 for prefix-free workloads).
    pub fn prefix_recompute_amplification(&self) -> f64 {
        if self.prefix_unique_tokens == 0 {
            return 0.0;
        }
        self.prefix_recompute_tokens as f64 / self.prefix_unique_tokens as f64
    }

    /// Fraction of arrived requests that completed within deadline — the
    /// resilience-layer headline number (1.0 for an idle deadline-free run).
    pub fn goodput_frac(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        self.goodput_requests as f64 / self.total_requests as f64
    }
    /// SLO-violation ratio for TTFT at `scale × baseline_p50` (the paper's
    /// SLO-scale methodology, Figure 13 last column).
    pub fn ttft_violation(&self, baseline_p50: f64, scale: f64) -> f64 {
        Percentiles::violation_ratio(&self.ttft_samples, baseline_p50 * scale)
    }

    /// SLO-violation ratio for TPOT at `scale × baseline_p50`.
    pub fn tpot_violation(&self, baseline_p50: f64, scale: f64) -> f64 {
        Percentiles::violation_ratio(&self.tpot_samples, baseline_p50 * scale)
    }

    /// TTFT CDF for Figure 5.
    pub fn ttft_cdf(&self, resolution: usize) -> Vec<(f64, f64)> {
        empirical_cdf(&self.ttft_samples, resolution)
    }

    /// Mean throughput in tokens/second over `span`.
    pub fn mean_throughput(&self, span: SimDuration) -> f64 {
        if span.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.total_tokens as f64 / span.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn record_latency_math() {
        let rec = RequestRecord {
            id: RequestId(0),
            model: ModelId::PRIMARY,
            arrival: t(1.0),
            first_token: Some(t(1.5)),
            finished: Some(t(3.5)),
            output_tokens: 101,
            preemptions: 0,
        };
        assert!((rec.ttft_secs().expect("first token") - 0.5).abs() < 1e-9);
        // 2 s of decode over 100 inter-token gaps = 20 ms.
        assert!((rec.tpot_secs().expect("finished") - 0.02).abs() < 1e-9);
    }

    #[test]
    fn tpot_undefined_for_single_token() {
        let rec = RequestRecord {
            id: RequestId(0),
            model: ModelId::PRIMARY,
            arrival: t(0.0),
            first_token: Some(t(1.0)),
            finished: Some(t(1.0)),
            output_tokens: 1,
            preemptions: 0,
        };
        assert!(rec.tpot_secs().is_none());
    }

    #[test]
    fn lifecycle_to_report() {
        let mut m = Metrics::new();
        m.on_arrival(RequestId(0), t(0.0), 10, ModelId::PRIMARY);
        m.on_arrival(RequestId(1), t(0.5), 10, ModelId(1));
        m.on_first_token(RequestId(0), t(1.0));
        m.on_first_token(RequestId(1), t(4.5));
        m.on_finished(RequestId(0), t(2.0));
        m.on_tokens(t(1.0), 5);
        m.on_tokens(t(2.0), 5);
        let rep = m.report();
        assert_eq!(rep.total_requests, 2);
        assert_eq!(rep.finished_requests, 1);
        assert_eq!(rep.ttft.count, 2);
        assert_eq!(rep.tpot.count, 1);
        assert_eq!(rep.total_tokens, 10);
        // TTFT samples: 1.0 and 4.0 s.
        assert!((rep.ttft.max - 4.0).abs() < 1e-9);
        // Per-model breakdown: request 0 on the primary, request 1 on m1.
        assert_eq!(rep.per_model.len(), 2);
        assert_eq!(rep.per_model[0].model, ModelId::PRIMARY);
        assert_eq!(rep.per_model[0].finished_requests, 1);
        assert_eq!(rep.per_model[1].model, ModelId(1));
        assert!((rep.per_model[1].ttft.p50 - 4.0).abs() < 1e-9);
        assert!(rep.model_report(ModelId(2)).is_none());
    }

    #[test]
    fn first_token_only_recorded_once() {
        let mut m = Metrics::new();
        m.on_arrival(RequestId(0), t(0.0), 5, ModelId::PRIMARY);
        m.on_first_token(RequestId(0), t(1.0));
        m.on_first_token(RequestId(0), t(9.0));
        let rep = m.report();
        assert!((rep.ttft.p50 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn violation_ratios_use_scaled_baseline() {
        let rep = RunReport {
            total_requests: 4,
            finished_requests: 4,
            ttft: Percentiles::EMPTY,
            tpot: Percentiles::EMPTY,
            ttft_samples: vec![0.1, 0.2, 1.0, 5.0],
            tpot_samples: vec![],
            total_tokens: 0,
            preemptions: 0,
            donated_bytes_peak: 0,
            prefix_saved_tokens: 0,
            prefix_unique_tokens: 0,
            prefix_recompute_tokens: 0,
            goodput_requests: 3,
            deadline_misses: 1,
            shed_requests: 0,
            abandoned_requests: 0,
            cancelled_requests: 0,
            retries: 0,
            per_model: Vec::new(),
        };
        // Baseline P50 = 0.1 s, scale 5 → threshold 0.5 s → 2 of 4 violate.
        assert_eq!(rep.ttft_violation(0.1, 5.0), 0.5);
        assert!((rep.goodput_frac() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn resilience_counters_accumulate() {
        let mut m = Metrics::new();
        m.on_arrival(RequestId(0), t(0.0), 10, ModelId::PRIMARY);
        m.on_arrival(RequestId(1), t(0.0), 10, ModelId::PRIMARY);
        m.on_deadline_miss();
        m.on_retry(t(2.0));
        m.on_retry(t(7.0));
        m.on_shed();
        m.on_abandoned();
        m.on_finish_outcome(true);
        m.on_finish_outcome(false);
        assert_eq!(m.retries_in(t(0.0), t(5.0)), 1);
        assert_eq!(m.retries_in(t(5.0), t(10.0)), 1);
        let rep = m.report();
        assert_eq!(rep.goodput_requests, 1);
        assert_eq!(rep.deadline_misses, 2, "abort miss + late finish");
        assert_eq!(rep.shed_requests, 1);
        assert_eq!(rep.abandoned_requests, 1);
        assert_eq!(rep.retries, 2);
    }

    #[test]
    fn reconfig_markers_accumulate() {
        let mut m = Metrics::new();
        m.on_reconfig(t(1.0), "drop");
        m.on_reconfig(t(2.0), "restore");
        assert_eq!(m.reconfig_events.len(), 2);
        assert_eq!(m.reconfig_events[0].1, "drop");
    }
}
