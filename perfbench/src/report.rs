//! Metric catalogue, summary statistics and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract: every name here
//! is also listed in `BENCHMARK.json`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Duration;

/// End-to-end metrics: measured with the benchmark's spans off, and
/// reported by every workload (each workload maps its own operation
/// onto the `op_*` names; see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("op_p50_ref", "ref"),
    ("ops_per_kref", "1/kref"),
];

/// Per-layer metrics: measured by the traced run. A layer a workload
/// does not exercise reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end figures, from the untraced half of
    // the traced run.
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("reference.ms", "ms"),
    ("flow_p50_ms", "ms"),
    ("flow_p90_ms", "ms"),
    ("flows_per_s", "1/s"),
    ("apps_bound", "count"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("light_p50_us", "us"),
    ("light_p99_us", "us"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("solves_per_s", "1/s"),
    // Layers, named after the modules they time.
    ("bind.ms_per_flow", "ms"),
    ("bind.attempts", "count"),
    ("list_sched.ms_per_flow", "ms"),
    ("list_sched.states", "count"),
    ("slice.ms_per_flow", "ms"),
    ("slice.checks_per_flow", "count"),
    ("constrained.states", "count"),
    ("constrained.states_per_s", "1/s"),
    ("constrained.ms", "ms"),
    ("interner.states", "count"),
    ("interner.bytes_per_state", "B"),
    ("thru_cache.hit_ratio", "ratio"),
    ("warm.transition_hit_ratio", "ratio"),
    ("warm.cold_admit_ratio", "ratio"),
    ("wire.parse_us", "us"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p99", "us"),
    ("server.queue_depth_p99", "count"),
    ("service.execute_us_p50", "us"),
    ("service.execute_us_p99", "us"),
    ("service.admit_execute_us_p50", "us"),
    ("service.light_execute_us_p50", "us"),
    ("service.commit_append_us", "us"),
    ("service.busy_ratio", "ratio"),
    ("service.capacity_per_s", "1/s"),
    ("exact.nodes", "count"),
    ("exact.lp_pivots", "count"),
    ("exact.leaves", "count"),
    ("exact.prune_ratio", "ratio"),
    ("exact.nodes_per_s", "1/s"),
    ("exact.proven_ratio", "ratio"),
    ("gen.late_p99_us", "us"),
    ("gen.offered_rate", "1/s"),
    ("serve.accepted_admit_share", "ratio"),
    // Attribution and the benchmark's own health.
    ("attrib.named_share", "ratio"),
    ("attrib.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("selftest.injected_ms", "ms"),
    ("selftest.row_delta_ms", "ms"),
    ("selftest.op_p50_ratio", "ratio"),
];

/// Metric values collected by one workload run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Sets the figures every workload reports from its counts, and the
    /// verdict.
    pub fn finish(mut self) -> Self {
        let fail = ratio(self.failed as f64, self.attempted as f64);
        self.metrics.set("fail_ratio", fail);
        self.metrics.set("ok_ratio", 1.0 - fail);
        self.metrics.set("peak_rss_mb", peak_rss_mb());
        self.correct = self.failed == 0;
        self
    }
}

/// Renders the final result line. End-to-end metrics must all be set
/// (a run that could not measure one has no result); a per-layer metric
/// the workload did not set is a layer it does not exercise and reads 0.
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A fixed piece of CPU work of the benchmark's own, calling no program
/// code: integer arithmetic, hashing and small allocations, about 0.2 ms.
/// Returns its time in ms.
///
/// The workloads time it between their operations and report the
/// end-to-end figures in units of its median time. Other tenants of the
/// shared host slow everything on it by up to 2× for seconds to minutes
/// at a time: the best pass medians of five exact-small runs read
/// 3.3–5.8 ms, while in six other runs the ratio of each pass's median to
/// this reference's median over the same pass held within ±5% in all
/// but one run. A change to the program
/// moves the operations and not the reference.
pub fn reference_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..1500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (mut a, mut b) = (x % 100_000 + 1, (x >> 24) % 100_000 + 1);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        acc = acc.wrapping_add(a);
        map.insert(x & 511, vec![a, acc, x]);
    }
    std::hint::black_box((acc, map));
    ms(start.elapsed())
}

/// One pass over a fixed population: each operation's latency, and the
/// reference times taken between the operations.
#[derive(Clone, Debug, Default)]
pub struct PassTimes {
    pub latencies_ms: Vec<f64>,
    pub reference_ms: Vec<f64>,
}

impl PassTimes {
    /// Times the reference after an operation, every `every`-th call.
    pub fn record(&mut self, latency_ms: f64, every: usize) {
        self.latencies_ms.push(latency_ms);
        if self.latencies_ms.len().is_multiple_of(every.max(1)) {
            self.reference_ms.push(reference_ms());
        }
    }

    /// (`op_p50_ref`, `ops_per_kref`): the median latency in units of
    /// the reference's median, and the operations completed per 1000
    /// reference times of summed latency.
    pub fn normalized(&self) -> (f64, f64) {
        let reference = median(&self.reference_ms);
        let busy: f64 = self.latencies_ms.iter().sum();
        (
            ratio(median(&self.latencies_ms), reference),
            ratio(1e3 * reference * self.latencies_ms.len() as f64, busy),
        )
    }
}

/// Every pass's latencies, pass after pass.
pub fn all_latencies(passes: &[PassTimes]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect()
}

/// The best pass: the lowest `op_p50_ref` and the highest `ops_per_kref`
/// over the passes. The reference removes most of the host's slowdowns,
/// and the best pass drops one that hit the operations and the reference
/// unequally, while a change to the program moves every pass alike.
pub fn best_pass(passes: &[PassTimes]) -> (f64, f64) {
    passes
        .iter()
        .map(PassTimes::normalized)
        .fold((f64::INFINITY, 0.0), |(p50, rate), (m, r)| {
            (p50.min(m), f64::max(rate, r))
        })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times repeated builds of a workload's inputs. The inputs are built
/// once before the timed phase and rebuilt (and dropped) between timed
/// chunks, so the median set-up time samples the same stretch of machine
/// time as the measurement rather than one moment before it. A sample
/// after a chunk times `batch` back-to-back builds and records their
/// mean, so that a build of a few milliseconds is not read off a single
/// scheduler quantum.
pub struct SetupTimer<'a, T> {
    build: Box<dyn FnMut() -> T + 'a>,
    batch: usize,
    times: Vec<f64>,
}

impl<'a, T> SetupTimer<'a, T> {
    pub fn new(batch: usize, build: impl FnMut() -> T + 'a) -> Self {
        SetupTimer {
            build: Box::new(build),
            batch: batch.max(1),
            times: Vec::new(),
        }
    }

    pub fn build(&mut self) -> T {
        let start = std::time::Instant::now();
        let built = (self.build)();
        self.times.push(start.elapsed().as_secs_f64());
        built
    }

    /// One more set-up sample; the rebuilt inputs are dropped after the
    /// clock stops.
    pub fn sample(&mut self) {
        let start = std::time::Instant::now();
        let built: Vec<T> = (0..self.batch).map(|_| (self.build)()).collect();
        self.times
            .push(start.elapsed().as_secs_f64() / self.batch as f64);
        drop(built);
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Seeded Fisher–Yates shuffle: the workload seed picks the order in
/// which a fixed population is processed.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = sdfrs_fastutil::rng::SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accumulated busy time and call count per layer, from spans the
/// benchmark records around calls into each layer's public functions.
/// Spans at one level never overlap, so each row is the layer's self
/// time within its parent (the timed operation).
#[derive(Debug, Default)]
pub struct Layers {
    rows: BTreeMap<&'static str, (Duration, u64)>,
}

impl Layers {
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        let row = self.rows.entry(layer).or_default();
        row.0 += d;
        row.1 += 1;
    }

    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    pub fn total(&self, layer: &str) -> Duration {
        self.rows.get(layer).map_or(Duration::ZERO, |r| r.0)
    }

    /// Prints the attribution table of `e2e` (the summed duration of the
    /// timed operations) to stderr, the unattributed remainder as its own
    /// row, and returns (named share, unattributed ms).
    pub fn attribution(&self, workload: &str, e2e: Duration) -> (f64, f64) {
        let named: Duration = self.rows.values().map(|r| r.0).sum();
        eprintln!("attribution [{workload}] end-to-end {:.3} ms", ms(e2e));
        eprintln!(
            "  {:<28} {:>12} {:>8} {:>10}",
            "layer", "self ms", "share", "calls"
        );
        for (name, (d, calls)) in &self.rows {
            eprintln!(
                "  {:<28} {:>12.3} {:>7.2}% {:>10}",
                name,
                ms(*d),
                100.0 * ratio(ms(*d), ms(e2e)),
                calls
            );
        }
        let rest = ms(e2e) - ms(named);
        eprintln!(
            "  {:<28} {:>12.3} {:>7.2}%",
            "(unattributed)",
            rest,
            100.0 * ratio(rest, ms(e2e))
        );
        (ratio(ms(named), ms(e2e)), rest)
    }
}
