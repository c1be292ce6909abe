//! `exact-small`: the exact branch-and-bound backend on a sweep of small
//! seeded scenarios (2–6 actors on 2–3 tiles), each solved by a fresh
//! allocator on an empty platform.

use std::time::{Duration, Instant};

use sdfrs_core::exact::enumerate_exhaustive;
use sdfrs_core::{Allocator, Exact, MapError, SolveOutcome};
use sdfrs_gen::{Scenario, ScenarioConfig};
use sdfrs_platform::PlatformState;

use crate::report::{
    all_latencies, best_pass, median, ms, percentile, ratio, Layers, Metrics, Outcome, PassTimes,
    SetupTimer,
};

/// Scenarios of the sweep (scenario seeds `0..SCENARIOS`).
const SCENARIOS: u64 = 128;
/// Sweep builds per set-up sample (one build takes about 7 ms).
const SETUP_BATCH: usize = 16;

/// The fixed sweep, in an order drawn from the workload seed.
fn scenarios(seed: u64) -> Vec<Scenario> {
    let config = ScenarioConfig {
        actors: 2..=6,
        tiles: 2..=3,
        ..ScenarioConfig::default()
    };
    let mut sweep: Vec<Scenario> = (0..SCENARIOS)
        .map(|s| Scenario::sample_with(&config, s))
        .collect();
    crate::report::shuffle(&mut sweep, seed);
    sweep
}

fn solve(scenario: &Scenario) -> Result<SolveOutcome, MapError> {
    let state = PlatformState::new(&scenario.arch);
    Allocator::new().solve_with(&Exact::default(), &scenario.app, &scenario.arch, &state)
}

/// Infeasibility is the solver's typed verdict; anything else fails.
fn is_verdict(error: &MapError) -> bool {
    matches!(
        error,
        MapError::ConstraintUnsatisfiable | MapError::NoFeasibleTile { .. }
    )
}

struct Pass {
    times: PassTimes,
    elapsed: Duration,
    outcomes: Vec<Result<SolveOutcome, MapError>>,
    layers: Layers,
}

fn pass(scenarios: &[Scenario], traced: bool) -> Pass {
    let mut out = Pass {
        times: PassTimes::default(),
        elapsed: Duration::ZERO,
        outcomes: Vec::with_capacity(scenarios.len()),
        layers: Layers::default(),
    };
    for scenario in scenarios {
        let t = Instant::now();
        let outcome = if traced {
            out.layers.time("exact", || solve(scenario))
        } else {
            solve(scenario)
        };
        out.times.record(ms(t.elapsed()), 1);
        out.outcomes.push(outcome);
    }
    out.elapsed = Duration::from_secs_f64(out.times.latencies_ms.iter().sum::<f64>() / 1e3);
    out
}

/// Full passes until `seconds` of solving is spent (at least one), with a
/// set-up sample after each. Returns the first pass, every pass's times
/// and the summed solve time.
fn timed(
    scenarios: &[Scenario],
    seconds: f64,
    traced: bool,
    setup: &mut SetupTimer<Vec<Scenario>>,
) -> (Pass, Vec<PassTimes>, Duration) {
    let first = pass(scenarios, traced);
    setup.sample();
    let mut times = vec![first.times.clone()];
    let mut elapsed = first.elapsed;
    while elapsed.as_secs_f64() < seconds {
        let p = pass(scenarios, traced);
        setup.sample();
        elapsed += p.elapsed;
        times.push(p.times);
    }
    (first, times, elapsed)
}

/// Threads of the output check: it runs outside the timed region and
/// takes about as long as 20 s of timed solving on one thread.
const CHECK_THREADS: usize = 2;

/// Output checks (outside the timed region): lower ≤ upper everywhere,
/// no untyped error, and every proven-optimal answer agrees with the
/// exhaustive enumeration bit for bit. Returns the failures.
fn check(scenarios: &[Scenario], outcomes: &[Result<SolveOutcome, MapError>]) -> u64 {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                s.spawn(move || {
                    scenarios
                        .iter()
                        .zip(outcomes)
                        .skip(t)
                        .step_by(CHECK_THREADS)
                        .filter(|(scenario, outcome)| !check_one(scenario, outcome))
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("check thread panicked"))
            .sum()
    })
}

fn check_one(scenario: &Scenario, outcome: &Result<SolveOutcome, MapError>) -> bool {
    let ok = match outcome {
        Err(e) => is_verdict(e),
        Ok(x) if x.report.lower > x.report.upper => false,
        Ok(x) if x.report.proven_optimal => {
            let state = PlatformState::new(&scenario.arch);
            enumerate_exhaustive(&mut Allocator::new(), &scenario.app, &scenario.arch, &state)
                .is_ok_and(|e| {
                    e.allocation.binding == x.allocation.binding
                        && e.allocation.schedules == x.allocation.schedules
                        && e.allocation.slices == x.allocation.slices
                        && e.report.lower == x.report.lower
                })
        }
        Ok(_) => true,
    };
    if !ok {
        eprintln!("exact-small: {} failed its output check", scenario.name);
    }
    ok
}

fn report_counts(first: &Pass, m: &mut Metrics) {
    let reports: Vec<_> = first
        .outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().map(|x| x.report))
        .collect();
    let sum = |f: fn(&sdfrs_core::SolveReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let nodes = sum(|r| r.nodes_expanded);
    m.set("exact.nodes", nodes);
    m.set("exact.lp_pivots", sum(|r| r.lp_pivots));
    m.set("exact.leaves", sum(|r| r.leaves_evaluated));
    m.set(
        "exact.prune_ratio",
        ratio(sum(|r| r.pruned_bound + r.pruned_infeasible), nodes),
    );
    m.set(
        "exact.nodes_per_s",
        ratio(nodes, first.elapsed.as_secs_f64()),
    );
    m.set(
        "exact.proven_ratio",
        ratio(
            reports.iter().filter(|r| r.proven_optimal).count() as f64,
            reports.len() as f64,
        ),
    );
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimer::new(SETUP_BATCH, || scenarios(seed));
    let inputs = setup.build();

    let budget = if trace { seconds / 2.0 } else { seconds };
    let (first, times, elapsed) = timed(&inputs, budget, false, &mut setup);
    let latencies = all_latencies(&times);
    out.metrics.set("setup_s", setup.median_s());
    let solves = latencies.len() as f64;
    out.attempted = solves as u64;
    out.failed = check(&inputs, &first.outcomes);
    let m = &mut out.metrics;
    if !trace {
        let (p50, rate) = best_pass(&times);
        m.set("op_p50_ref", p50);
        m.set("ops_per_kref", rate);
    } else {
        m.set("solve_p50_ms", median(&latencies));
        m.set("solve_p99_ms", percentile(&latencies, 0.99));
        m.set("solves_per_s", solves / elapsed.as_secs_f64());
        m.set("reference.ms", median(&first.times.reference_ms));
        report_counts(&first, m);
        let (traced, traced_times, _) = timed(&inputs, budget, true, &mut setup);
        // Layer rows cover the first traced pass only. The one `exact`
        // span wraps the whole solve, so its share is 1 by construction:
        // the table is printed for the record, with no coverage gate (the
        // exact and simplex layers are told apart by the report's counts).
        let e2e = traced.elapsed;
        let (share, rest) = traced.layers.attribution("exact-small", e2e);
        m.set("attrib.named_share", share);
        m.set("attrib.unattributed_ms", rest);
        m.set(
            "trace.overhead_ratio",
            median(&all_latencies(&traced_times)) / median(&latencies) - 1.0,
        );
    }
    out.finish()
}
