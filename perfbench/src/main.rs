//! The repository benchmark: runs one workload against the simulator and
//! prints every metric by name and unit, ending with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload burst --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced pass (spans go to `perfbench/out/`).
//! `--manifest` prints `BENCHMARK.json`; `--calibrate` prints the SLO
//! limits the unloaded rung implies. Any wrong output exits non-zero.
//! See `perfbench/README.md` for what each workload and metric means.

mod clock;
mod gw;
mod probe;
mod report;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use cluster::Policy;
use kunserve::serving::SystemKind;
use kunserve::{InferCeptPolicy, KunServeConfig, KunServePolicy, LlumnixPolicy, VllmPolicy};
use workload::Trace;

use clock::HostClock;
use gw::Population;
use probe::{TimedPolicy, HOOKS};
use report::{Metric, BASELINES, PHASES};
use sim::{Exec, MemStats, OpenLoop, ReqOutcome, RunResult, Slo, Work};
use spans::{Recorder, SharedRecorder, Span};

/// Seconds one run measures, as written to the manifest.
const RUN_SECONDS: u32 = 20;
/// Sub-seeds the traced pass runs; per-layer metrics are their totals.
const TRACED_SUB_SEEDS: usize = 16;
/// Sub-seeds whose peak memory is measured, each in its own process.
const RSS_PROBES: usize = 5;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// SLO limits are this multiple of the unloaded median (the paper's
/// SLO-scale method, Fig. 13; 5 for chat workloads).
const SLO_SCALE: f64 = 5.0;
/// The share of requests that must meet the SLO for a ladder rate to count.
const REQUIRED_SHARE: f64 = 0.9;
/// The ladder's lowest rung, which is also the unloaded calibration run.
const UNLOADED_MULT: f64 = 0.25;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Open(OpenLoop),
    Gateway,
}

/// Every workload with its name and why it was chosen.
const WORKLOADS: [(&str, Workload, &str); 3] = [
    (
        "burst",
        Workload::Open(OpenLoop::Burst),
        "Paper headline: open-loop BurstGPT x Qwen-2.5-14B on Cluster A with 3x and 2.5x bursts; \
         memory throttles, so KunServe's drop/restore path and its policy hooks run.",
    ),
    (
        "steady_prefix",
        Workload::Open(OpenLoop::SteadyPrefix),
        "Open loop, 20 rps, 24 shared-prefix groups, no burst: memory never throttles, so the \
         policy path is bypassed and the engine loop and prefix residency do the work.",
    ),
    (
        "gateway_hotswap",
        Workload::Gateway,
        "Closed loop through the gateway API on the 2-worker sharded executor: 30 clients, a \
         request quota and a mid-run chat-model unload/load through the memory ledger.",
    ),
];

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
    }

    /// Sub-seeds per run: each run simulates this many seeded inputs, so
    /// its statistics do not hang on one draw.
    fn sub_seeds(self) -> usize {
        match self {
            Workload::Open(OpenLoop::Burst) => 128,
            Workload::Open(OpenLoop::SteadyPrefix) => 64,
            Workload::Gateway => 64,
        }
    }

    /// Latency limits: `SLO_SCALE` × the unloaded medians that
    /// `--calibrate 1` prints (seed 1, the unloaded rung), fixed here.
    fn slo(self) -> Slo {
        match self {
            Workload::Open(OpenLoop::Burst) => Slo {
                ttft_s: 0.430,
                tpot_s: 0.0857,
            },
            Workload::Open(OpenLoop::SteadyPrefix) => Slo {
                ttft_s: 0.614,
                tpot_s: 0.0817,
            },
            Workload::Gateway => Slo {
                ttft_s: 0.0130,
                tpot_s: 0.00855,
            },
        }
    }

    /// Rate ladder as multiples of the nominal rate; it straddles the
    /// nominal rate of 1. The closed loop has none: its clients set the
    /// rate.
    fn ladder(self) -> &'static [f64] {
        match self {
            Workload::Open(OpenLoop::Burst) => &[UNLOADED_MULT, 0.5, 0.625, 0.75, 0.875, 1.0, 1.25],
            Workload::Open(OpenLoop::SteadyPrefix) => &[UNLOADED_MULT, 1.0, 1.5, 2.0, 2.5, 3.0],
            Workload::Gateway => &[],
        }
    }

    /// Sub-seeds pooled at each ladder rung.
    fn ladder_seeds(self) -> usize {
        8
    }
}

/// The `i`-th sub-seed of `seed` (SplitMix64 of the pair).
fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one run.
struct Prepared {
    w: Workload,
    seeds: Vec<u64>,
    /// One trace per sub-seed (open-loop workloads only).
    traces: Vec<Trace>,
}

impl Prepared {
    /// Generates the inputs for every sub-seed of `seed`; returns them with
    /// the host seconds generation took.
    fn new(w: Workload, seed: u64) -> (Prepared, f64) {
        let clock = HostClock::start();
        let p = Prepared::of(w, (0..w.sub_seeds()).map(|i| sub_seed(seed, i)).collect());
        (p, clock.secs())
    }

    /// Generates the inputs for `seeds`.
    fn of(w: Workload, seeds: Vec<u64>) -> Prepared {
        let traces = match w {
            Workload::Open(o) => seeds.iter().map(|&s| o.trace(s, 1.0)).collect(),
            Workload::Gateway => {
                // Client populations are consumed by their session, so runs
                // rebuild them; this pass times their generation.
                let built: Vec<Population> =
                    seeds.iter().map(|&s| Population::new(s, 1.0)).collect();
                drop(built);
                Vec::new()
            }
        };
        Prepared { w, seeds, traces }
    }
}

/// What one run of one sub-seed produced.
#[derive(Debug, Clone)]
struct Outcome {
    result: RunResult,
    calls: gw::Calls,
    /// Phase boundaries (simulated seconds) for the per-phase accounting.
    phase_bounds: [f64; 2],
}

impl Outcome {
    /// Whether `other` repeats this run exactly.
    fn same(&self, other: &Outcome) -> bool {
        self.result.same_run(&other.result) && self.calls == other.calls
    }

    fn open(o: OpenLoop, result: RunResult) -> Outcome {
        Outcome {
            result,
            calls: gw::Calls::default(),
            phase_bounds: o.phase_bounds(),
        }
    }

    fn session(s: gw::Session) -> Outcome {
        Outcome {
            result: s.result,
            calls: s.calls,
            phase_bounds: [gw::UNLOAD_AT.as_secs_f64(), s.reloaded_s],
        }
    }
}

/// Runs sub-seed `i` untraced; returns the outcome and its host seconds.
fn run_plain(p: &Prepared, i: usize) -> Result<(Outcome, f64), String> {
    match p.w {
        Workload::Open(o) => {
            let clock = HostClock::start();
            let (out, events) = sim::run_open(o, &p.traces[i], None, Exec::Serial);
            let wall = clock.secs();
            Ok((
                Outcome::open(o, sim::reduce_open(&p.traces[i], &out, events)?),
                wall,
            ))
        }
        Workload::Gateway => {
            let pop = Population::new(p.seeds[i], 1.0);
            let clock = HostClock::start();
            let s = gw::run_session(pop, None)?;
            let wall = clock.secs();
            Ok((Outcome::session(s), wall))
        }
    }
}

/// Runs sub-seed `i` with every layer call recorded as a span in `rec`.
fn run_traced(p: &Prepared, i: usize, rec: &SharedRecorder) -> Result<Outcome, String> {
    match p.w {
        Workload::Open(o) => {
            let policy = TimedPolicy::new(
                Box::new(KunServePolicy::new(KunServeConfig::default())),
                rec.clone(),
            );
            let root = rec.borrow_mut().begin("bench.run", Some(p.seeds[i]));
            let custom = (
                "KunServe".to_string(),
                Box::new(policy) as Box<dyn Policy>,
                o.config(),
            );
            let (out, events) = sim::run_open(o, &p.traces[i], Some(custom), Exec::Serial);
            rec.borrow_mut().end(root);
            Ok(Outcome::open(
                o,
                sim::reduce_open(&p.traces[i], &out, events)?,
            ))
        }
        Workload::Gateway => {
            let pop = Population::new(p.seeds[i], 1.0);
            Ok(Outcome::session(gw::run_session(pop, Some(rec))?))
        }
    }
}

/// Set-up, repeated: input generation plus one untimed warm-up run.
/// Returns the inputs, the median normalized set-up seconds, the median
/// generation seconds and the warm-up outcome.
fn setup(w: Workload, seed: u64, runs: &mut u64) -> Result<(Prepared, f64, f64, Outcome), String> {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut kept: Option<(Prepared, Outcome)> = None;
    for _ in 0..SETUP_REPS {
        // Free the previous inputs first, so set-up never holds two copies.
        let prev = kept.take().map(|(_, warm)| warm);
        let clock = HostClock::start();
        let (p, build_s) = Prepared::new(w, seed);
        let (warm, _) = run_plain(&p, 0)?;
        let secs = clock.secs();
        *runs += 1;
        totals.push(clock::normalized(secs, clock::reference_secs()));
        builds.push(build_s);
        if prev.is_some_and(|prev| !warm.same(&prev)) {
            return Err("set-up warm-up runs disagree".into());
        }
        kept = Some((p, warm));
    }
    let (p, warm) = kept.expect("SETUP_REPS > 0");
    let med = |v: &[f64]| stats::median(v).expect("non-empty");
    Ok((p, med(&totals), med(&builds), warm))
}

/// Set-up, then the untraced timing loop, whose first run of sub-seed 0
/// must repeat the warm-up run. Returns the inputs, the set-up and input
/// generation seconds (see [`setup`]) and the timings.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    runs: &mut u64,
) -> Result<(Prepared, f64, f64, Timing), String> {
    let (p, setup_s, build_s, warm) = setup(w, seed, runs)?;
    let t = timing_loop(&p, seconds, runs)?;
    if !warm.same(&t.first[0]) {
        return Err("the warm-up run and the timed run disagree".into());
    }
    Ok((p, setup_s, build_s, t))
}

/// The untraced timing loop's product.
struct Timing {
    /// The first outcome of every sub-seed.
    first: Vec<Outcome>,
    /// Normalized seconds of every repetition, per sub-seed.
    walls: Vec<Vec<f64>>,
    /// Unnormalized host seconds of every repetition, per sub-seed.
    raw_walls: Vec<Vec<f64>>,
    /// Reference-workload seconds measured after every repetition.
    reference_s: Vec<f64>,
}

impl Timing {
    /// Simulated requests completed per second over one pass of the
    /// sub-seeds, each timed by the median of its repetitions in `walls`.
    /// Every sub-seed weighs the same whatever its repetition count.
    fn req_per_s(&self, walls: &[Vec<f64>]) -> f64 {
        let done: usize = self.first.iter().map(|o| o.result.finished()).sum();
        let secs: f64 = walls
            .iter()
            .map(|w| stats::median(w).expect("each sub-seed ran"))
            .sum();
        done as f64 / secs
    }
}

/// Runs the sub-seeds round-robin for at least `seconds` and at least one
/// full pass; every repetition must reproduce its sub-seed's first run.
fn timing_loop(p: &Prepared, seconds: f64, runs: &mut u64) -> Result<Timing, String> {
    let k = p.seeds.len();
    let mut first: Vec<Option<Outcome>> = vec![None; k];
    let mut walls = vec![Vec::new(); k];
    let mut raw_walls = vec![Vec::new(); k];
    let mut reference_s = Vec::new();
    let clock = HostClock::start();
    let mut n = 0;
    while n < k || clock.secs() < seconds {
        let i = n % k;
        let (o, wall) = run_plain(p, i)?;
        let reference = clock::reference_secs();
        *runs += 1;
        reference_s.push(reference);
        walls[i].push(clock::normalized(wall, reference));
        raw_walls[i].push(wall);
        match &first[i] {
            None => first[i] = Some(o),
            Some(f) if f.same(&o) => {}
            Some(_) => {
                return Err(format!(
                    "sub-seed {i}: a repetition changed the simulated report"
                ))
            }
        }
        n += 1;
    }
    let first = first
        .into_iter()
        .map(|o| o.expect("every sub-seed ran"))
        .collect();
    Ok(Timing {
        first,
        walls,
        raw_walls,
        reference_s,
    })
}

/// Highest load meeting `share`, interpolated linearly between ladder
/// rungs `(rate, attainment)` sorted by rate. Zero load counts as fully
/// attained; a ladder that never fails reports its top rate.
fn max_rate_at(rungs: &[(f64, f64)], share: f64) -> f64 {
    let mut prev = (0.0, 1.0);
    for &(rate, attain) in rungs {
        if attain < share {
            let (r0, a0) = prev;
            return r0 + (rate - r0) * (a0 - share) / (a0 - attain);
        }
        prev = (rate, attain);
    }
    prev.0
}

/// SLO attainment over `reqs`: the share that finished within both limits.
fn attainment(reqs: &[ReqOutcome], slo: Slo) -> f64 {
    reqs.iter().filter(|r| r.meets(slo)).count() as f64 / reqs.len().max(1) as f64
}

/// Runs `mult` × nominal load for the first `n` sub-seeds, pooled.
fn run_at_load(
    w: Workload,
    seed: u64,
    mult: f64,
    n: usize,
) -> Result<(f64, Vec<ReqOutcome>), String> {
    let mut reqs = Vec::new();
    let mut rate = 0.0;
    for i in 0..n {
        let s = sub_seed(seed, i);
        match w {
            Workload::Open(o) => {
                let trace = o.trace(s, mult);
                let (out, events) = sim::run_open(o, &trace, None, Exec::Serial);
                reqs.extend(sim::reduce_open(&trace, &out, events)?.requests);
                rate = o.base_rps() * mult;
            }
            Workload::Gateway => {
                let pop = Population::new(s, mult);
                rate = pop.offered_rps();
                reqs.extend(gw::run_session(pop, None)?.result.requests);
            }
        }
    }
    Ok((rate, reqs))
}

/// The SLO attainment at every ladder rung, one thread per rung.
fn ladder(w: Workload, seed: u64, runs: &mut u64) -> Result<Vec<(f64, f64)>, String> {
    let slo = w.slo();
    let results: Vec<Result<(f64, f64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .ladder()
            .iter()
            .map(|&m| {
                s.spawn(move || {
                    let (rate, reqs) = run_at_load(w, seed, m, w.ladder_seeds())?;
                    Ok((rate, attainment(&reqs, slo)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    *runs += (w.ladder().len() * w.ladder_seeds()) as u64;
    results.into_iter().collect()
}

/// Peak resident memory of one run: the median over the first
/// `RSS_PROBES` sub-seeds, each run alone in a fresh process, so the
/// benchmark's own retained inputs and allocator history do not count.
fn peak_rss_mb(w: Workload, seed: u64, runs: &mut u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut mb = Vec::new();
    for i in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--rss-probe", name_of(w), &sub_seed(seed, i).to_string()])
            .output()
            .map_err(|e| format!("starting the memory probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match stdout.trim().parse::<f64>() {
            Ok(v) if out.status.success() => mb.push(v),
            _ => {
                return Err(format!(
                    "memory probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    *runs += RSS_PROBES as u64;
    Ok(stats::median(&mb).expect("RSS_PROBES > 0"))
}

/// The child side of [`peak_rss_mb`]: runs one sub-seed once and returns
/// this process's peak resident memory.
fn rss_probe(w: Workload, sub: u64) -> Result<f64, String> {
    run_plain(&Prepared::of(w, vec![sub]), 0)?;
    vm_hwm_mb()
}

/// Peak resident memory of this process, in MB.
fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn pooled(outcomes: &[Outcome]) -> Vec<ReqOutcome> {
    outcomes
        .iter()
        .flat_map(|o| o.result.requests.iter().copied())
        .collect()
}

/// Percentile `p` of `samples`, after checking the sample supports p99.
fn tail(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    match stats::highest_supported_percentile(samples.len()) {
        Some(top) if top >= 99.0 => Ok(stats::percentile(samples, p).expect("non-empty")),
        _ => Err(format!(
            "{} {what} samples cannot support a p99",
            samples.len()
        )),
    }
}

fn ttft_samples(reqs: &[ReqOutcome]) -> Vec<f64> {
    reqs.iter().filter_map(|r| r.ttft_s).collect()
}

fn tpot_samples(reqs: &[ReqOutcome]) -> Vec<f64> {
    reqs.iter().filter_map(|r| r.tpot_s).collect()
}

/// The end-to-end metrics of a `--trace 0` run.
fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    runs: &mut u64,
) -> Result<BTreeMap<String, f64>, String> {
    let (_, setup_s, _, t) = measure(w, seed, seconds, runs)?;
    let rungs = ladder(w, seed, runs)?;
    let reqs = pooled(&t.first);
    println!(
        "# {} requests over {} sub-seeds; {} TTFT and {} TPOT samples; \
         percentiles are per sub-seed, then the median over sub-seeds",
        reqs.len(),
        t.first.len(),
        ttft_samples(&reqs).len(),
        tpot_samples(&reqs).len()
    );
    println!(
        "# timing: {} runs; unnormalized {:.1} requests/s; reference workload median \
         {:.3} ms (IQR {:.3} of it)",
        t.reference_s.len(),
        t.req_per_s(&t.raw_walls),
        stats::median(&t.reference_s).expect("timed runs") * 1e3,
        stats::iqr_frac(&t.reference_s).unwrap_or(0.0)
    );
    for &(rate, a) in &rungs {
        println!("# ladder: {rate:.3} rps -> slo_attain {a:.4}");
    }
    let mut v = BTreeMap::new();
    let mut put = |k: &str, x: f64| v.insert(k.to_string(), x);
    put("sim_req_per_s", t.req_per_s(&t.walls));
    put("setup_s", setup_s);
    put("peak_rss_mb", peak_rss_mb(w, seed, runs)?);
    put(
        "ttft_p50_s",
        median_percentile(&t.first, 50.0, ttft_samples, "TTFT")?,
    );
    put(
        "ttft_p99_s",
        median_percentile(&t.first, 99.0, ttft_samples, "TTFT")?,
    );
    put(
        "tpot_p50_s",
        median_percentile(&t.first, 50.0, tpot_samples, "TPOT")?,
    );
    put(
        "tpot_p99_s",
        median_percentile(&t.first, 99.0, tpot_samples, "TPOT")?,
    );
    let slo = w.slo();
    put("slo_attain", attainment(&reqs, slo));
    let max_rate = match w {
        Workload::Open(_) => max_rate_at(&rungs, REQUIRED_SHARE),
        // A closed loop sets its own rate: report the rate of requests
        // meeting the SLO at the nominal client count instead.
        Workload::Gateway => {
            let met = reqs.iter().filter(|r| r.meets(slo)).count();
            met as f64 / (t.first.len() as f64 * gw::WINDOW.as_secs_f64())
        }
    };
    put("max_rate_at_slo_rps", max_rate);
    Ok(v)
}

/// The median over sub-seeds of each sub-seed's `p`-th percentile.
fn median_percentile(
    outcomes: &[Outcome],
    p: f64,
    samples: fn(&[ReqOutcome]) -> Vec<f64>,
    what: &str,
) -> Result<f64, String> {
    let per: Vec<f64> = outcomes
        .iter()
        .map(|o| tail(&samples(&o.result.requests), p, what))
        .collect::<Result<_, _>>()?;
    Ok(stats::median(&per).expect("at least one sub-seed"))
}

/// Spans `[start, end)` of one traced run.
type Range = (usize, usize);

/// Call counts per span name over `range`.
fn call_counts(spans: &[Span], (a, b): Range) -> BTreeMap<&'static str, u64> {
    spans::totals_by_name(&spans[a..b])
        .into_iter()
        .map(|(k, t)| (k, t.calls))
        .collect()
}

/// Sub-seed `i` traced, with the span range it recorded.
fn traced_range(p: &Prepared, i: usize, rec: &SharedRecorder) -> Result<(Outcome, Range), String> {
    let a = rec.borrow().spans().len();
    let o = run_traced(p, i, rec)?;
    Ok((o, (a, rec.borrow().spans().len())))
}

/// The per-layer metrics of a `--trace 1` run.
fn per_layer(
    w: Workload,
    seed: u64,
    seconds: f64,
    runs: &mut u64,
) -> Result<BTreeMap<String, f64>, String> {
    let (p, _, build_s, t) = measure(w, seed, seconds, runs)?;

    // The traced pass: the first sub-seeds once each, each matching its
    // untraced run. Per-layer numbers are totals over these runs.
    let traced = &t.first[..TRACED_SUB_SEEDS.min(t.first.len())];
    let rec = Recorder::shared();
    let mut ranges = Vec::new();
    let mut traced_s = 0.0;
    for (i, untraced) in traced.iter().enumerate() {
        let (o, r) = traced_range(&p, i, &rec)?;
        if !o.same(untraced) {
            return Err(format!(
                "sub-seed {i}: the traced run differs from the untraced one"
            ));
        }
        let run_s = rec.borrow().spans()[r.0].ns() as f64 / 1e9;
        traced_s += clock::normalized(run_s, clock::reference_secs());
        ranges.push(r);
    }
    *runs += ranges.len() as u64;
    let main_end = rec.borrow().spans().len();
    // The exact-counter check: sub-seed 0 traced again counts the same calls.
    let (again, r) = traced_range(&p, 0, &rec)?;
    *runs += 1;
    {
        let rec = rec.borrow();
        let spans = rec.spans();
        if !again.same(&traced[0]) || call_counts(spans, r) != call_counts(spans, ranges[0]) {
            return Err("a repeated traced run changed its exact counters".into());
        }
    }

    let mut v = BTreeMap::new();
    let reqs = pooled(traced);
    let mut work = Work::default();
    let mut mem = MemStats::default();
    let mut calls = gw::Calls::default();
    for o in traced {
        work += o.result.work;
        mem.absorb(&o.result.mem);
        calls += o.calls;
    }
    layer_metrics(&mut v, &rec.borrow().spans()[..main_end], work, &mem, calls);
    let untraced_s: f64 = t.walls[..traced.len()]
        .iter()
        .map(|w| stats::median(w).expect("each sub-seed ran"))
        .sum();
    v.insert("trace.overhead_frac".into(), traced_s / untraced_s - 1.0);
    v.insert(
        "host.reference_ms".into(),
        stats::median(&t.reference_s).expect("timed runs") * 1e3,
    );
    v.insert("host.raw_req_per_s".into(), t.req_per_s(&t.raw_walls));
    v.insert("workload.build_ms".into(), build_s * 1e3);
    v.insert("workload.requests".into(), reqs.len() as f64);
    phase_metrics(&mut v, traced);
    let failed = reqs.iter().filter(|r| !r.finished).count();
    v.insert(
        "requests.failed_frac".into(),
        failed as f64 / reqs.len() as f64,
    );
    v.insert(
        "requests.ttft_samples".into(),
        ttft_samples(&reqs).len() as f64,
    );
    v.insert(
        "requests.tpot_samples".into(),
        tpot_samples(&reqs).len() as f64,
    );

    if let Workload::Open(o @ OpenLoop::Burst) = w {
        let kun_p99 = tail(&ttft_samples(&traced[0].result.requests), 99.0, "TTFT")?;
        lineup(&mut v, o, &p.traces[0], kun_p99, &rec, runs)?;
    } else {
        // The executor and lineup columns are recorded on `burst` only.
        v.extend(report::lineup_metrics().into_iter().map(|m| (m.name, 0.0)));
    }

    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{}.spans.jsonl", name_of(w)));
    rec.borrow()
        .write_jsonl(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "# spans: {} written to {}",
        rec.borrow().spans().len(),
        out.display()
    );
    Ok(v)
}

fn name_of(w: Workload) -> &'static str {
    WORKLOADS.iter().find(|x| x.1 == w).expect("registered").0
}

/// Layer metrics from the traced pass's spans and the runs' counters.
fn layer_metrics(
    v: &mut BTreeMap<String, f64>,
    spans: &[Span],
    work: Work,
    mem: &MemStats,
    calls: gw::Calls,
) {
    let totals = spans::totals_by_name(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let mut hook_ns = 0;
    for hook in HOOKS {
        let t = total(hook);
        hook_ns += t.ns;
        put(&format!("{hook}.calls"), t.calls as f64);
        put(&format!("{hook}.ms"), ms(t.ns));
    }
    let run = total("bench.run");
    let self_ns: u64 = if totals.contains_key("gateway.pump_until") {
        // Through the gateway the cluster runs inside the pumps.
        total("gateway.pump_until").ns
    } else {
        spans::self_times(spans)
            .iter()
            .zip(spans)
            .filter(|(_, s)| s.name == "bench.run")
            .map(|(t, _)| *t)
            .sum()
    };
    put("core.policy_share", hook_ns as f64 / run.ns.max(1) as f64);
    put("cluster.run_ms", ms(run.ns));
    put("cluster.self_ms", ms(self_ns));
    put("cluster.events", work.events as f64);
    let per_event = if work.events > 0 {
        self_ns as f64 / 1e3 / work.events as f64
    } else {
        0.0
    };
    put("cluster.self_us_per_event", per_event);
    put("cluster.iterations", work.iterations as f64);
    put("cluster.preemptions", work.preemptions as f64);
    put("cluster.reconfigs", work.reconfigs as f64);
    let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
    put("cluster.bubble_mean", mean(mem.bubble_sum, mem.bubble_n));
    put(
        "cluster.ledger.donated_peak_bytes",
        mem.donated_peak_bytes as f64,
    );
    put(
        "kvcache.used_frac_mean",
        mean(mem.used_frac_sum, mem.used_frac_n),
    );
    put("kvcache.demand_peak_frac", mem.demand_peak_frac);
    let prefix = mem.prefix_saved + mem.prefix_unique + mem.prefix_recompute;
    put(
        "kvcache.prefix_hit_frac",
        mean(mem.prefix_saved as f64, prefix),
    );
    put(
        "kvcache.prefix_recompute_amp",
        mean(mem.prefix_recompute as f64, mem.prefix_unique),
    );
    put("netsim.transfers", total("core.transfer_done").calls as f64);

    let us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    };
    let (submit_us, status_us) = (us("gateway.submit"), us("gateway.status"));
    let pct = |s: &[f64], p: f64| stats::percentile(s, p).unwrap_or(0.0);
    put("gateway.submit.calls", calls.submit as f64);
    put("gateway.submit.us_p50", pct(&submit_us, 50.0));
    put("gateway.submit.us_p99", pct(&submit_us, 99.0));
    put("gateway.status.calls", calls.status as f64);
    put("gateway.status.us_p50", pct(&status_us, 50.0));
    put("gateway.pump.calls", calls.pump as f64);
    put("gateway.pump.ms", ms(total("gateway.pump_until").ns));
    put(
        "gateway.model_op.ms",
        ms(total("gateway.unload_model").ns + total("gateway.load_model").ns),
    );
    put("gateway.rejected_quota", calls.rejected_quota as f64);
    put(
        "gateway.rejected_unavailable",
        calls.rejected_unavailable as f64,
    );
}

/// Requests sent, succeeded and failed before, during and after the
/// disturbance (bursts, or the chat model's absence), by first due time.
fn phase_metrics(v: &mut BTreeMap<String, f64>, outcomes: &[Outcome]) {
    let mut counts = [[0u64; 3]; 3];
    for o in outcomes {
        let [b0, b1] = o.phase_bounds;
        for r in &o.result.requests {
            let phase = if r.due_s < b0 {
                0
            } else if r.due_s < b1 {
                1
            } else {
                2
            };
            counts[phase][0] += 1;
            counts[phase][if r.finished { 1 } else { 2 }] += 1;
        }
    }
    for (p, c) in PHASES.iter().zip(counts) {
        v.insert(format!("phase.{p}.sent"), c[0] as f64);
        v.insert(format!("phase.{p}.succeeded"), c[1] as f64);
        v.insert(format!("phase.{p}.failed"), c[2] as f64);
    }
}

/// The executor and lineup columns on the seed's first trace: KunServe
/// on the sharded executor at 1 and 2 workers, and the four baselines
/// through the same timing decorator.
fn lineup(
    v: &mut BTreeMap<String, f64>,
    o: OpenLoop,
    trace: &Trace,
    kun_p99: f64,
    rec: &SharedRecorder,
    runs: &mut u64,
) -> Result<(), String> {
    let mut shard = Vec::new();
    for workers in [1, 2] {
        let clock = HostClock::start();
        let (out, events) = sim::run_open(o, trace, None, Exec::Sharded(workers));
        let wall_ms = clock.secs() * 1e3;
        let r = sim::reduce_open(trace, &out, events)?;
        let stats = out
            .stats
            .ok_or("a sharded run reported no executor stats")?;
        shard.push((r, stats, wall_ms));
    }
    *runs += 2;
    let [(one, s1, ms1), (two, s2, ms2)] = <[_; 2]>::try_from(shard).expect("two arms");
    if !one.same_run(&two) || s1.windows != s2.windows {
        return Err("the sharded executor differs between 1 and 2 workers".into());
    }
    v.insert("cluster.shard1.run_ms".into(), ms1);
    v.insert(
        "cluster.shard1.ttft_p99_s".into(),
        tail(&ttft_samples(&one.requests), 99.0, "TTFT")?,
    );
    v.insert(
        "cluster.shard1.preemptions".into(),
        one.work.preemptions as f64,
    );
    v.insert("cluster.shard2.run_ms".into(), ms2);
    v.insert("cluster.shard2.windows".into(), s2.windows as f64);
    v.insert("cluster.shard2.steals".into(), s2.steals as f64);
    v.insert(
        "cluster.shard2.us_per_window".into(),
        ms2 * 1e3 / s2.windows.max(1) as f64,
    );

    let systems: [(SystemKind, Box<dyn Policy>); 4] = [
        (SystemKind::VllmDp, Box::new(VllmPolicy::dp())),
        (SystemKind::VllmPp, Box::new(VllmPolicy::pp())),
        (SystemKind::InferCept, Box::new(InferCeptPolicy::default())),
        (SystemKind::Llumnix, Box::new(LlumnixPolicy::default())),
    ];
    for (stem, (kind, policy)) in BASELINES.iter().zip(systems) {
        let a = rec.borrow().spans().len();
        let root = rec.borrow_mut().begin("bench.run", None);
        let custom = (
            kind.name().to_string(),
            Box::new(TimedPolicy::new(policy, rec.clone())) as Box<dyn Policy>,
            kind.adjust_config(o.config()),
        );
        let (out, events) = sim::run_open(o, trace, Some(custom), Exec::Serial);
        rec.borrow_mut().end(root);
        let r = sim::reduce_open(trace, &out, events)?;
        let spans = rec.borrow();
        let spans = &spans.spans()[a..];
        let hook_ns: u64 = spans
            .iter()
            .filter(|s| HOOKS.contains(&s.name))
            .map(Span::ns)
            .sum();
        let p99 = tail(&ttft_samples(&r.requests), 99.0, "TTFT")?;
        v.insert(format!("core.{stem}.run_ms"), spans[0].ns() as f64 / 1e6);
        v.insert(format!("core.{stem}.hook_ms"), hook_ns as f64 / 1e6);
        v.insert(format!("core.{stem}.ttft_p99_s"), p99);
        v.insert(
            format!("core.{stem}.preemptions"),
            r.work.preemptions as f64,
        );
        if *stem == "vllm_dp" {
            v.insert(
                "core.kunserve_vs_vllm_dp.ttft_p99_ratio".into(),
                kun_p99 / p99,
            );
        }
    }
    *runs += BASELINES.len() as u64;
    Ok(())
}

/// Prints the SLO limits implied by the unloaded rung of every workload.
fn calibrate(seed: u64) -> Result<(), String> {
    for (name, w, _) in WORKLOADS {
        let (_, reqs) = run_at_load(w, seed, UNLOADED_MULT, w.ladder_seeds())?;
        let p50 = |s: Vec<f64>| stats::median(&s).unwrap_or(f64::NAN);
        let (ttft, tpot) = (p50(ttft_samples(&reqs)), p50(tpot_samples(&reqs)));
        println!(
            "{name}: unloaded p50 TTFT {ttft:.5} s, TPOT {tpot:.5} s -> limits \
             TTFT {:.4} s, TPOT {:.5} s (scale {SLO_SCALE})",
            ttft * SLO_SCALE,
            tpot * SLO_SCALE
        );
    }
    Ok(())
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let ix = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(ix + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let parse = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: Workload::by_name(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: parse("--seed")?,
        seconds: parse("--seconds")? as f64,
        trace: match parse("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if let [flag, name, sub] = &args[..] {
        if flag == "--rss-probe" {
            let probe = Workload::by_name(name)
                .ok_or(format!("unknown workload `{name}`"))
                .and_then(|w| rss_probe(w, sub.parse().map_err(|e| format!("sub-seed: {e}"))?));
            return match probe {
                Ok(mb) => {
                    println!("{mb}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    if let Some(ix) = args.iter().position(|a| a == "--calibrate") {
        let seed = args.get(ix + 1).and_then(|s| s.parse().ok()).unwrap_or(1);
        return match calibrate(seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let defs = if a.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    // System runs made, reported as `attempted`.
    let mut runs = 0u64;
    let measured = report::validate(&defs).and_then(|()| {
        if a.trace {
            per_layer(a.workload, a.seed, a.seconds, &mut runs)
        } else {
            end_to_end(a.workload, a.seed, a.seconds, &mut runs)
        }
    });
    let line = measured.and_then(|values| {
        print_table(&defs, &values);
        report::result_line(true, runs, 0, &defs, &values)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: wrong output: {e}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                runs.max(1)
            );
            ExitCode::FAILURE
        }
    }
}

/// One human-readable line per metric: name, value, unit and clock.
fn print_table(defs: &[Metric], values: &BTreeMap<String, f64>) {
    for d in defs {
        if let Some(x) = values.get(&d.name) {
            println!(
                "{:<44} {:>18.6} {:<6} ({})",
                d.name,
                x,
                d.unit,
                d.clock.label()
            );
        }
    }
}

/// The `BENCHMARK.json` manifest.
fn manifest() -> String {
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.0, w.2)).collect();
    report::manifest(&workloads, RUN_SECONDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_registry() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn workload_whys_are_short_single_lines() {
        for (name, _, why) in WORKLOADS {
            assert!(report::valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    #[test]
    fn ladders_straddle_the_nominal_load() {
        for (name, w, _) in WORKLOADS {
            let l = w.ladder();
            if w == Workload::Gateway {
                assert!(l.is_empty());
                continue;
            }
            assert_eq!(l[0], UNLOADED_MULT, "{name}");
            assert!(l.windows(2).all(|p| p[0] < p[1]), "{name}");
            assert!(
                l.iter().any(|&m| m < 1.0) && l.iter().any(|&m| m > 1.0),
                "{name}"
            );
        }
    }

    #[test]
    fn max_rate_interpolates_the_first_crossing() {
        let rungs = [(10.0, 0.99), (20.0, 0.95), (30.0, 0.85), (40.0, 0.95)];
        assert!((max_rate_at(&rungs, 0.9) - 25.0).abs() < 1e-9);
        assert_eq!(max_rate_at(&rungs, 0.5), 40.0);
        // A failing lowest rung interpolates from full attainment at zero.
        assert!((max_rate_at(&[(10.0, 0.8)], 0.9) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| sub_seed(1, i)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[3], sub_seed(1, 3));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
