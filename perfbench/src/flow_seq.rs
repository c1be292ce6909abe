//! `flow-seq`: the paper's design-time protocol (Sec 10.1). Each
//! application sequence is allocated onto an empty platform until its
//! first failure, with a fresh `Allocator` per sequence, so nearly every
//! flow is a cold run on a partly occupied platform.

use std::time::{Duration, Instant};

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_bench::table4::{benchmark_sequences, ExperimentConfig};
use sdfrs_core::bind::bind_actors;
use sdfrs_core::list_sched::ListScheduler;
use sdfrs_core::resources::allocation_usage;
use sdfrs_core::slice::allocate_slices_cached;
use sdfrs_core::verify::verify_allocation;
use sdfrs_core::{
    constrained_throughput, Allocation, Allocator, BindingAwareGraph, FlowConfig, MapError,
    ThroughputCache,
};
use sdfrs_platform::mesh::experiment_platforms;
use sdfrs_platform::{ArchitectureGraph, PlatformState};
use sdfrs_sdf::analysis::interner::StateInterner;
use sdfrs_sdf::analysis::selftimed::SelfTimedExecutor;
use sdfrs_sdf::SdfError;

use crate::report::{
    all_latencies, best_pass, median, ms, percentile, ratio, Layers, Outcome, PassTimes, SetupTimer,
};

/// Generator seed of the application sequences: Table 4's default.
const GENERATOR_SEED: u64 = 2007;
/// Applications generated per sequence (more than any run binds).
const APPS_PER_SEQUENCE: usize = 40;
/// Per-exploration state budget of the Table 4 experiment.
const STATE_BUDGET: usize = 200_000;
/// Full passes the untraced run makes at least. A pass takes 15–20 s,
/// about 60% of it in the first flow of two sequences, so these passes
/// outlast `--seconds`; the best of them gives the end-to-end figures
/// (`best_pass`).
const MIN_PASSES: usize = 2;
/// Input builds per set-up sample (one build takes about 17 ms).
const SETUP_BATCH: usize = 4;
/// Sequences the attribution self-test re-runs, once plain and once with
/// the injected delay: the memory-intensive profile on the three meshes
/// (positions in Table 4's order, whatever the seed), about 1 s of flows.
const SELFTEST_SEQUENCES: std::ops::Range<usize> = 3..6;

/// One sequence of applications allocated onto one platform.
struct Sequence {
    /// Position in Table 4's order (profile, then platform), before the
    /// seed-drawn shuffle.
    index: usize,
    platform: usize,
    apps: Vec<ApplicationGraph>,
}

struct Inputs {
    platforms: Vec<ArchitectureGraph>,
    sequences: Vec<Sequence>,
}

fn experiment(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        sequences: 1,
        apps_per_sequence: APPS_PER_SEQUENCE,
        seed,
        state_budget: STATE_BUDGET,
    }
}

/// Every Sec 10.1 profile on every experiment platform, from Table 4's
/// default generator seed, in an order drawn from the workload seed.
fn build_inputs(seed: u64) -> Inputs {
    let platforms = experiment_platforms();
    let mut sequences = Vec::new();
    for (_, seqs) in benchmark_sequences(&experiment(GENERATOR_SEED)) {
        for platform in 0..platforms.len() {
            sequences.push(Sequence {
                index: sequences.len(),
                platform,
                apps: seqs[0].clone(),
            });
        }
    }
    crate::report::shuffle(&mut sequences, seed);
    Inputs {
        platforms,
        sequences,
    }
}

fn flow_config() -> FlowConfig {
    let mut flow = FlowConfig::default();
    flow.slice.state_budget = STATE_BUDGET;
    flow.schedule_state_budget = STATE_BUDGET;
    flow
}

/// A sequence-ending error is a typed verdict of the protocol (no tile
/// fits, λ unreachable, exploration budget spent); anything else means
/// the program misbehaved.
fn is_verdict(error: &MapError) -> bool {
    matches!(
        error,
        MapError::NoFeasibleTile { .. }
            | MapError::ConstraintUnsatisfiable
            | MapError::MissingConnection { .. }
            | MapError::Sdf(SdfError::BudgetExceeded { .. })
    )
}

/// One bound application, kept for the output checks.
struct Bound {
    sequence: usize,
    app: usize,
    before: PlatformState,
    allocation: Allocation,
}

#[derive(Default)]
struct Pass {
    times: PassTimes,
    elapsed: Duration,
    bound: Vec<Bound>,
    failed: u64,
    bind_attempts: usize,
    schedule_states: usize,
    throughput_checks: usize,
    cache_hits: usize,
    cache_misses: usize,
    warm_replayed: u64,
    warm_recomputed: u64,
}

/// One pass through every sequence via `Allocator::allocate` — the
/// untraced measurement — with a set-up sample after each sequence.
/// `keep` retains the bound allocations for the output checks.
fn untraced_pass(inputs: &Inputs, keep: bool, setup: &mut SetupTimer<Inputs>) -> Pass {
    let mut pass = Pass::default();
    for (s, seq) in inputs.sequences.iter().enumerate() {
        let started = Instant::now();
        let arch = &inputs.platforms[seq.platform];
        let mut allocator = Allocator::from_config(flow_config());
        let mut state = PlatformState::new(arch);
        for (a, app) in seq.apps.iter().enumerate() {
            let t = Instant::now();
            let result = allocator.allocate(app, arch, &state);
            pass.times.record(ms(t.elapsed()), 1);
            match result {
                Ok((allocation, stats)) => {
                    pass.bind_attempts += stats.bind_attempts;
                    pass.schedule_states += stats.schedule_states;
                    pass.throughput_checks += stats.throughput_checks;
                    let before = keep.then(|| state.clone());
                    allocation.claim_set().apply(&mut state);
                    if let Some(before) = before {
                        pass.bound.push(Bound {
                            sequence: s,
                            app: a,
                            before,
                            allocation,
                        });
                    }
                }
                Err(error) => {
                    if !is_verdict(&error) {
                        eprintln!("flow-seq: sequence {s} app {a}: untyped failure: {error}");
                        pass.failed += 1;
                    }
                    break;
                }
            }
        }
        pass.cache_hits += allocator.cache().hits();
        pass.cache_misses += allocator.cache().misses();
        if let Some(w) = allocator.cache().warm_stats() {
            pass.warm_replayed += w.replayed_transitions;
            pass.warm_recomputed += w.recomputed_transitions;
        }
        pass.elapsed += started.elapsed();
        setup.sample();
    }
    pass
}

/// Drives one flow through the layers' public functions, recording a
/// span per layer. With `inject`, it spins after the slice call for as
/// long as that call took, inside the `slice` span, and adds the delay to
/// `inject` (the attribution self-test's 2× slowdown of that layer). A
/// spin rather than a sleep keeps the core busy like a slower layer
/// would: code run right after a sleep is measurably slower.
fn traced_flow(
    app: &ApplicationGraph,
    arch: &ArchitectureGraph,
    state: &PlatformState,
    flow: &FlowConfig,
    cache: &mut ThroughputCache,
    layers: &mut Layers,
    inject: Option<&mut Duration>,
) -> Result<Allocation, MapError> {
    let binding = layers.time("bind", || bind_actors(app, arch, state, &flow.bind))?;
    let (mut ba, schedules) = layers.time("list_sched", || {
        let half: Vec<u64> = arch
            .tile_ids()
            .map(|t| (state.available_wheel(arch, t) / 2).max(1))
            .collect();
        let ba =
            BindingAwareGraph::build_with_model(app, arch, &binding, &half, flow.connection_model)?;
        let schedules = ListScheduler::new(&ba)
            .with_state_budget(flow.schedule_state_budget)
            .construct()?;
        Ok::<_, MapError>((ba, schedules))
    })?;
    let start = Instant::now();
    let sliced = allocate_slices_cached(
        &mut ba,
        &schedules,
        app,
        arch,
        state,
        &binding,
        &flow.slice,
        cache,
    );
    if let Some(injected) = inject {
        let delay = Instant::now();
        let target = start.elapsed();
        while delay.elapsed() < target {
            std::hint::spin_loop();
        }
        *injected += delay.elapsed();
    }
    layers.add("slice", start.elapsed());
    let sliced = sliced?;
    let usage = allocation_usage(app, arch, &binding, &sliced.slices);
    Ok(Allocation {
        binding,
        schedules,
        slices: sliced.slices,
        usage,
        achieved: sliced.achieved,
    })
}

fn same_allocation(a: &Allocation, b: &Allocation) -> bool {
    a.binding == b.binding
        && a.schedules == b.schedules
        && a.slices == b.slices
        && a.usage == b.usage
        && a.achieved == b.achieved
}

struct TracedPass {
    latencies_ms: Vec<f64>,
    e2e: Duration,
    layers: Layers,
    mismatches: u64,
}

/// The traced pass: every flow via [`traced_flow`], checked against the
/// untraced pass's allocations.
fn traced_pass(inputs: &Inputs, reference: &Pass) -> TracedPass {
    let flow = flow_config();
    let mut out = TracedPass {
        latencies_ms: Vec::new(),
        e2e: Duration::ZERO,
        layers: Layers::default(),
        mismatches: 0,
    };
    for (s, seq) in inputs.sequences.iter().enumerate() {
        let arch = &inputs.platforms[seq.platform];
        let mut cache = ThroughputCache::new();
        let mut state = PlatformState::new(arch);
        for (a, app) in seq.apps.iter().enumerate() {
            let t = Instant::now();
            let result = traced_flow(app, arch, &state, &flow, &mut cache, &mut out.layers, None);
            let took = t.elapsed();
            out.e2e += took;
            out.latencies_ms.push(ms(took));
            let want = reference
                .bound
                .iter()
                .find(|b| b.sequence == s && b.app == a);
            match (result, want) {
                (Ok(allocation), Some(want)) => {
                    if !same_allocation(&allocation, &want.allocation) {
                        eprintln!("flow-seq: traced flow {s}/{a} differs from Allocator::allocate");
                        out.mismatches += 1;
                    }
                    allocation.claim_set().apply(&mut state);
                }
                (Err(_), None) => break,
                _ => {
                    eprintln!("flow-seq: traced flow {s}/{a} disagrees on success");
                    out.mismatches += 1;
                    break;
                }
            }
        }
    }
    out
}

#[derive(Default)]
struct Checks {
    failures: u64,
    constrained_states: usize,
    constrained_time: Duration,
    interner_states: usize,
    interner_words: usize,
}

/// Output checks on every bound application: `verify_allocation` finds
/// no violation, and an independent `constrained_throughput` run on the
/// final allocation reaches λ. Also measures the interner on the
/// self-timed execution of each final binding-aware graph.
fn check(inputs: &Inputs, pass: &Pass) -> Checks {
    let mut checks = Checks::default();
    let mut interner = StateInterner::new();
    for b in &pass.bound {
        let seq = &inputs.sequences[b.sequence];
        let arch = &inputs.platforms[seq.platform];
        let app = &seq.apps[b.app];
        let fail = |what: &str| {
            eprintln!("flow-seq: sequence {} app {}: {what}", b.sequence, b.app);
        };
        match verify_allocation(app, arch, &b.before, &b.allocation) {
            Ok(v) if v.is_empty() => {}
            Ok(v) => {
                fail(&format!("violations {v:?}"));
                checks.failures += 1;
            }
            Err(e) => {
                fail(&format!("verify error {e}"));
                checks.failures += 1;
            }
        }
        let ba = BindingAwareGraph::build_with_model(
            app,
            arch,
            &b.allocation.binding,
            &b.allocation.slices,
            flow_config().connection_model,
        );
        let Ok(ba) = ba else {
            fail("binding-aware graph of the final allocation does not build");
            checks.failures += 1;
            continue;
        };
        let reference = ba.ba_actor(app.output_actor());
        let start = Instant::now();
        let thr = constrained_throughput(&ba, &b.allocation.schedules, reference);
        checks.constrained_time += start.elapsed();
        match thr {
            Ok(t) if t.iteration_throughput >= app.throughput_constraint() => {
                checks.constrained_states += t.states_explored;
            }
            _ => {
                fail("final allocation misses λ under constrained_throughput");
                checks.failures += 1;
            }
        }
        let explored = SelfTimedExecutor::new(ba.graph())
            .with_state_budget(STATE_BUDGET)
            .throughput_with_interner(reference, &mut interner);
        if explored.is_ok() {
            checks.interner_states += interner.len();
            checks.interner_words += interner.arena_words();
        }
    }
    checks
}

/// Runs full passes until `seconds` is spent, and at least `min_passes`:
/// one pass takes about as long as a whole run, so a time limit alone
/// would flip between one and two passes with the machine's speed.
/// Returns the first pass, every pass's times and the summed pass time.
fn timed_passes(
    inputs: &Inputs,
    seconds: f64,
    min_passes: usize,
    setup: &mut SetupTimer<Inputs>,
) -> (Pass, Vec<PassTimes>, Duration) {
    let first = untraced_pass(inputs, true, setup);
    let mut times = vec![first.times.clone()];
    let mut elapsed = first.elapsed;
    let mut passes = 1;
    while passes < min_passes || elapsed.as_secs_f64() < seconds {
        passes += 1;
        let pass = untraced_pass(inputs, false, setup);
        times.push(pass.times);
        elapsed += pass.elapsed;
    }
    (first, times, elapsed)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimer::new(SETUP_BATCH, || build_inputs(seed));
    let inputs = setup.build();

    let (budget, min_passes) = if trace {
        (seconds / 2.0, 1)
    } else {
        (seconds, MIN_PASSES)
    };
    let (first, times, elapsed) = timed_passes(&inputs, budget, min_passes, &mut setup);
    let latencies = all_latencies(&times);
    let m = &mut out.metrics;
    m.set("setup_s", setup.median_s());
    let flows = latencies.len() as f64;
    let checks = check(&inputs, &first);
    out.attempted = flows as u64;
    out.failed = first.failed + checks.failures;

    if !trace {
        let (p50, rate) = best_pass(&times);
        m.set("op_p50_ref", p50);
        m.set("ops_per_kref", rate);
    } else {
        let per_flow = first.times.latencies_ms.len() as f64;
        m.set("reference.ms", median(&first.times.reference_ms));
        m.set("flow_p50_ms", median(&latencies));
        m.set("flow_p90_ms", percentile(&latencies, 0.9));
        m.set("flows_per_s", flows / elapsed.as_secs_f64());
        m.set("apps_bound", first.bound.len() as f64);
        m.set("bind.attempts", first.bind_attempts as f64 / per_flow);
        m.set("list_sched.states", first.schedule_states as f64 / per_flow);
        m.set(
            "slice.checks_per_flow",
            first.throughput_checks as f64 / per_flow,
        );
        m.set(
            "thru_cache.hit_ratio",
            ratio(
                first.cache_hits as f64,
                (first.cache_hits + first.cache_misses) as f64,
            ),
        );
        m.set(
            "warm.transition_hit_ratio",
            ratio(
                first.warm_replayed as f64,
                (first.warm_replayed + first.warm_recomputed) as f64,
            ),
        );
        m.set("constrained.states", checks.constrained_states as f64);
        m.set("constrained.ms", ms(checks.constrained_time));
        m.set(
            "constrained.states_per_s",
            ratio(
                checks.constrained_states as f64,
                checks.constrained_time.as_secs_f64(),
            ),
        );
        m.set("interner.states", checks.interner_states as f64);
        m.set(
            "interner.bytes_per_state",
            ratio(
                8.0 * checks.interner_words as f64,
                checks.interner_states as f64,
            ),
        );

        let traced = traced_pass(&inputs, &first);
        out.failed += traced.mismatches;
        let per_traced = traced.latencies_ms.len() as f64;
        m.set(
            "bind.ms_per_flow",
            ms(traced.layers.total("bind")) / per_traced,
        );
        m.set(
            "list_sched.ms_per_flow",
            ms(traced.layers.total("list_sched")) / per_traced,
        );
        m.set(
            "slice.ms_per_flow",
            ms(traced.layers.total("slice")) / per_traced,
        );
        let (share, rest) = traced.layers.attribution("flow-seq", traced.e2e);
        m.set("attrib.named_share", share);
        m.set("attrib.unattributed_ms", rest);
        m.set(
            "trace.overhead_ratio",
            median(&traced.latencies_ms) / median(&first.times.latencies_ms) - 1.0,
        );
        if share < 0.95 {
            eprintln!(
                "flow-seq: named layers cover only {:.1}% of flow time",
                100.0 * share
            );
            out.failed += 1;
        }
        if !selftest(&inputs, &first, m) {
            out.failed += 1;
        }
    }
    out.finish()
}

/// Attribution self-test: double the `slice` layer's time with a
/// harness-side delay. The delay must show up in the `slice` row, and
/// the flow median must move by more than `op_p50_ref`'s bound (the
/// reference is not slowed, so `op_p50_ref` moves as the median does).
///
/// Each flow runs twice back to back, plain and then slowed, with a
/// cache per variant, so both variants see the same stretch of machine
/// time: the host's speed drifts by up to 2× over seconds, which would move
/// the `slice` row of two separate passes by more than the tolerance.
fn selftest(inputs: &Inputs, first: &Pass, m: &mut crate::report::Metrics) -> bool {
    // `op_p50_ref`'s bound in BENCHMARK.json.
    const OP_P50_BOUND: f64 = 0.25;
    let flow = flow_config();
    let mut plain = (Layers::default(), Vec::new());
    let mut slowed = (Layers::default(), Vec::new());
    let mut injected = Duration::ZERO;
    for (s, seq) in inputs.sequences.iter().enumerate() {
        if !SELFTEST_SEQUENCES.contains(&seq.index) {
            continue;
        }
        let arch = &inputs.platforms[seq.platform];
        let mut caches = (ThroughputCache::new(), ThroughputCache::new());
        let mut state = PlatformState::new(arch);
        for (a, app) in seq.apps.iter().enumerate() {
            let t = Instant::now();
            let result = traced_flow(app, arch, &state, &flow, &mut caches.0, &mut plain.0, None);
            plain.1.push(ms(t.elapsed()));
            let t = Instant::now();
            let _ = traced_flow(
                app,
                arch,
                &state,
                &flow,
                &mut caches.1,
                &mut slowed.0,
                Some(&mut injected),
            );
            slowed.1.push(ms(t.elapsed()));
            let bound = first.bound.iter().any(|b| b.sequence == s && b.app == a);
            match result {
                Ok(allocation) if bound => allocation.claim_set().apply(&mut state),
                _ => break,
            }
        }
    }
    let plain_slice = ms(plain.0.total("slice"));
    let slowed_slice = ms(slowed.0.total("slice"));
    let injected = ms(injected);
    let row_delta = slowed_slice - plain_slice;
    let p50_ratio = median(&slowed.1) / median(&plain.1);
    m.set("selftest.injected_ms", injected);
    m.set("selftest.row_delta_ms", row_delta);
    m.set("selftest.op_p50_ratio", p50_ratio);
    let seen = (row_delta - injected).abs() <= 0.25 * injected;
    let moved = p50_ratio > 1.0 + OP_P50_BOUND;
    eprintln!(
        "selftest: injected {injected:.1} ms into slice, slice row grew {row_delta:.1} ms, flow p50 x{p50_ratio:.2} ({})",
        if seen && moved { "pass" } else { "FAIL" }
    );
    seen && moved
}
