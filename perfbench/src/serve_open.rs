//! `serve-open`: a self-hosted `NetServer` on one experiment mesh, driven
//! open loop over one pipelined connection at a fixed offered rate.
//!
//! The request script (admit / depart / rebind / status) and the expected
//! response of every request come from an in-process `AllocationService`
//! replay made beforehand; with one connection the server executes the
//! same requests in the same order, so its answers must match byte for
//! byte (ignoring the echoed trace id).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sdfrs_appmodel::ApplicationGraph;
use sdfrs_core::service::{parse_request_line, replay_commit_log, CommitLog};
use sdfrs_core::{
    AllocationService, Allocator, Metrics, ServiceConfig, ServiceRequest, ServiceResponse,
    SessionId,
};
use sdfrs_fastutil::rng::SmallRng;
use sdfrs_gen::{AppGenerator, GeneratorConfig};
use sdfrs_net::server::{histogram_percentile, NetServer, ServerOptions};
use sdfrs_platform::mesh::experiment_platforms;
use sdfrs_platform::{ArchitectureGraph, PlatformState};

use crate::report::{
    best_pass, median, percentile, ratio, reference_ms as reference_ms_sample, us, Layers, Outcome,
    PassTimes,
};

/// Offered load of the timed phase, requests per second. On the 2-core
/// x86-64 container the rate was picked on, the service thread was 36–45%
/// busy at this rate (`service.busy_ratio`; README.md has later readings).
pub const OFFERED_RATE: f64 = 300.0;
/// Requests of the discarded warm-up prefix, sent closed loop.
const WARMUP: usize = 600;
/// Requests of the capacity probe: after the background sessions, the
/// service executes this many requests in process (no socket), the same
/// for every seed. `ops_per_kref` is the rate it sustains. A closed-loop
/// TCP probe read 1580–2610/s on five runs of the same script: its rate
/// was the scheduler's wake-up latency across the process's threads on
/// two cores, not the service's.
const PROBE: usize = 2000;
/// The probe repeats this cycle with the catalogue apps in turn. The
/// service's cost depends on the history it has seen, so the probe
/// starts from a fresh service rather than continuing the seed's script.
const PROBE_CYCLE: [Op; 4] = [Op::Admit, Op::Rebind, Op::Status, Op::Depart];
/// The probe is replayed once after each open-loop segment, each time
/// on a fresh service; `ops_per_kref` is the best repetition's
/// (`report::best_pass`).
/// The probe times the reference after every this many requests: often
/// enough for a median that follows the host's speed, rarely enough to
/// leave the probe's rate alone (about 0.2 ms each).
const REFERENCE_EVERY: usize = 10;
/// The open-loop sender times the reference this long before a send, if
/// every request it sent is answered, so the reference neither contends
/// with the server nor delays the send. Timed
/// while the server worked, it read about twice as long, and a busier
/// server would have slowed its own yardstick.
const REFERENCE_GAP: Duration = Duration::from_millis(1);
/// Applications in the admission catalogue, and their generator seed.
const CATALOGUE: usize = 6;
const CATALOGUE_SEED: u64 = 2007;
/// Long-lived sessions admitted first and never departed: the base
/// occupancy of the platform.
const BACKGROUND: usize = 3;
/// At most this many short-lived sessions on top of the background;
/// departures keep the residual within that band. Churn sessions form a
/// stack (the newest departs or rebinds first), so the residual states
/// the timed phase visits are the ones the warm-up already explored.
const CHURN: usize = 2;
/// The run is invalid if the sender's p99 lateness exceeds this share of
/// the send interval: the offered load then no longer follows the
/// schedule. Four intervals (13 ms) catch a sender that falls behind and
/// leave room for the scheduling hiccups of a shared 2-core machine.
const LATE_SHARE: f64 = 4.0;
/// The open loop runs in this many segments of equal length. After each
/// segment the server idles while the benchmark runs one repetition of
/// the capacity probe, so the repetitions are spread over the run: five
/// back to back fell into one slow stretch of the host together, and one
/// run of five read 0.6× the others.
const SEGMENTS: usize = 5;
/// How long to wait for outstanding responses after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Admit,
    Depart,
    Rebind,
    Status,
}

impl Op {
    /// Admit and rebind run the allocation flow; depart and status do not.
    fn runs_flow(self) -> bool {
        matches!(self, Op::Admit | Op::Rebind)
    }
}

/// One scripted request with its expected answer.
struct Scripted {
    op: Op,
    line: String,
    expected: String,
    /// An admit whose flow missed the evaluation cache and explored.
    cold: bool,
    /// Replay-side spans (traced runs only).
    parse: Duration,
    execute: Duration,
    append: Option<Duration>,
}

struct Script {
    arch: ArchitectureGraph,
    requests: Vec<Scripted>,
    /// Residual digest of the replay after the whole script.
    digest: String,
    /// Cache and warm-layer counters from the end of the warm-up to the
    /// capacity probe (or the end).
    cache_hits: u64,
    cache_misses: u64,
    warm_replayed: u64,
    warm_recomputed: u64,
}

/// Small seeded applications (3–4 actors), one Sec 10.1 profile after
/// another, kept when they allocate on the empty platform. Drawing actor
/// types from the platform's own types makes every app type-feasible.
fn catalogue(arch: &ArchitectureGraph) -> Vec<ApplicationGraph> {
    let empty = PlatformState::new(arch);
    let mut gens: Vec<AppGenerator> = GeneratorConfig::benchmark_sets()
        .into_iter()
        .enumerate()
        .map(|(i, (_, profile))| {
            let cfg = GeneratorConfig {
                actors: 3..=4,
                repetition: 1..=2,
                ..profile
            };
            AppGenerator::new(cfg, arch.processor_types(), CATALOGUE_SEED + i as u64)
        })
        .collect();
    let mut apps = Vec::new();
    let mut tried = 0;
    while apps.len() < CATALOGUE {
        let profile = tried % gens.len();
        let app = gens[profile].generate(&format!("cat{tried}"));
        tried += 1;
        assert!(tried < 1000, "no feasible catalogue for {}", arch.name());
        if Allocator::new().allocate(&app, arch, &empty).is_ok() {
            apps.push(app);
        }
    }
    apps
}

fn counter(metrics: &Metrics, name: &str) -> u64 {
    metrics.snapshot().map_or(0, |s| s.counter(name))
}

/// Generates the script by running it through an in-process service:
/// the replay decides which sessions are live (so departures and rebinds
/// name real sessions) and yields every expected response. Requests from
/// `probe` on are the capacity probe.
fn script(seed: u64, total: usize, probe: usize, traced: bool) -> Script {
    let arch = experiment_platforms().swap_remove(2);
    let apps = catalogue(&arch);
    let metrics = Metrics::collecting();
    let mut service = AllocationService::from_config(&arch, ServiceConfig::default())
        .with_metrics(metrics.clone());
    let mut log = CommitLog::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut churn: Vec<SessionId> = Vec::new();
    let mut requests = Vec::with_capacity(total);
    let counts = |service: &AllocationService| {
        let w = service.warm_stats().unwrap_or_default();
        [
            counter(&metrics, "cache_hits"),
            counter(&metrics, "cache_misses"),
            w.replayed_transitions,
            w.recomputed_transitions,
        ]
    };
    let (mut base, mut end) = ([0; 4], None);
    let mut cycle = 0;
    for i in 0..total {
        if i == WARMUP.min(probe) {
            base = counts(&service);
        }
        if i == probe {
            end = Some(counts(&service));
        }
        let background = i < BACKGROUND;
        let op = match churn.len() {
            _ if i >= probe => {
                cycle += 1;
                match PROBE_CYCLE[(cycle - 1) % PROBE_CYCLE.len()] {
                    // After an admit the service rejected.
                    Op::Rebind | Op::Depart if churn.is_empty() => Op::Status,
                    op => op,
                }
            }
            _ if background => Op::Admit,
            0 => Op::Admit,
            n => match rng.below(100) {
                0..=39 if n < CHURN => Op::Admit,
                0..=59 => Op::Depart,
                60..=79 => Op::Rebind,
                _ => Op::Status,
            },
        };
        let request = match op {
            Op::Admit => ServiceRequest::Admit {
                app: Box::new(if background {
                    apps[i].clone()
                } else if i >= probe {
                    apps[(cycle / PROBE_CYCLE.len()) % apps.len()].clone()
                } else {
                    apps[rng.below(apps.len() as u64) as usize].clone()
                }),
            },
            Op::Depart => ServiceRequest::Depart {
                session: churn.pop().expect("depart needs a churn session"),
            },
            Op::Rebind => ServiceRequest::Rebind {
                session: *churn.last().expect("rebind needs a churn session"),
            },
            Op::Status => ServiceRequest::Status,
        };
        let line = request.to_json_line(i as u64 + 1);
        let t = Instant::now();
        let parsed = parse_request_line(&line).expect("scripted lines parse");
        let parse = t.elapsed();
        let logged = parsed.clone();
        let misses = if op == Op::Admit {
            counter(&metrics, "cache_misses")
        } else {
            0
        };
        let t = Instant::now();
        let response = service.execute_request(parsed);
        let execute = t.elapsed();
        let cold = op == Op::Admit && counter(&metrics, "cache_misses") > misses;
        let append = response.commits().then(|| {
            let t = Instant::now();
            log.append(&logged);
            t.elapsed()
        });
        if let ServiceResponse::Admitted { session, .. } = &response {
            if !background {
                churn.push(*session);
            }
        }
        requests.push(Scripted {
            op,
            line,
            expected: response.to_json_line(i as u64 + 1),
            cold,
            parse: if traced { parse } else { Duration::ZERO },
            execute: if traced { execute } else { Duration::ZERO },
            append: append.filter(|_| traced),
        });
    }
    let end = end.unwrap_or_else(|| counts(&service));
    Script {
        digest: service.residual_digest(),
        cache_hits: end[0] - base[0],
        cache_misses: end[1] - base[1],
        warm_replayed: end[2] - base[2],
        warm_recomputed: end[3] - base[3],
        arch,
        requests,
    }
}

/// Removes the echoed `,"trace":"…"` field (always last).
fn strip_trace(line: &str) -> &str {
    match line.rfind(",\"trace\":\"") {
        Some(at) if line.ends_with("\"}") => &line[..at],
        _ => line.strip_suffix('}').unwrap_or(line),
    }
}

fn expected_body(line: &str) -> &str {
    line.strip_suffix('}').unwrap_or(line)
}

/// What the TCP phase observed.
struct Observed {
    /// Per open-loop request: t0 → send, due → send (lateness) and
    /// send → receive.
    sent: Vec<Duration>,
    late: Vec<Duration>,
    tcp: Vec<Duration>,
    /// Per open-loop request: due → receive.
    latency: Vec<Duration>,
    /// Reference times (`report::reference_ms`) the sender took during
    /// the open loop while the server idled.
    reference_ms: Vec<f64>,
    mismatches: u64,
    lost: u64,
    queue_depth_p99: u64,
    /// Mean round trip of the warm-up's second half: sent closed loop, so
    /// it is the server's service time with no queue in front of it.
    warm_rtt_mean: Duration,
    digest_ok: bool,
}

/// Spawns a server and sends it the script: `warmup` requests closed loop,
/// then the rest open loop in `SEGMENTS` segments. After each segment it
/// waits for the segment's answers and calls `between` while the server
/// idles. Checks every answer. Returns the observations and the set-up
/// time (spawn + warm-up).
fn serve(
    script: &Script,
    warmup: usize,
    mut between: impl FnMut(),
) -> std::io::Result<(Observed, Duration)> {
    let started = Instant::now();
    let options = ServerOptions {
        // Measure latency, never shed or expire: any queue the open loop
        // builds stays within these limits.
        queue_watermark: 1 << 20,
        deadline: Duration::from_secs(120),
        ..ServerOptions::default()
    };
    let server = NetServer::spawn(
        AllocationService::from_config(&script.arch, ServiceConfig::default()),
        CommitLog::new(),
        options,
        "127.0.0.1:0",
    )?;
    let mut stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let total = script.requests.len();
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    let answered = Arc::new(AtomicUsize::new(0));
    let received = Arc::clone(&answered);
    let receiver = std::thread::spawn(move || {
        let mut lines = BufReader::new(reader).lines();
        for _ in 0..total {
            match lines.next() {
                Some(Ok(line)) => {
                    if tx.send((Instant::now(), line)).is_err() {
                        return;
                    }
                    received.fetch_add(1, Ordering::Release);
                }
                _ => return,
            }
        }
    });

    let mut mismatches = 0;
    let mut check = |i: usize, line: &str| {
        if strip_trace(line) != expected_body(&script.requests[i].expected) {
            if mismatches < 3 {
                eprintln!(
                    "serve-open: request {} answered {line}, replay says {}",
                    i + 1,
                    script.requests[i].expected
                );
            }
            mismatches += 1;
        }
    };
    let mut send = |line: &str| -> std::io::Result<()> {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")
    };

    let mut lost = 0u64;
    let mut warm_rtt = Vec::with_capacity(warmup / 2);
    for (i, r) in script.requests.iter().enumerate().take(warmup) {
        let sent = Instant::now();
        send(&r.line)?;
        match rx.recv_timeout(DRAIN_TIMEOUT) {
            Ok((at, line)) => {
                check(i, &line);
                if i >= warmup / 2 {
                    warm_rtt.push(at.saturating_duration_since(sent));
                }
            }
            Err(_) => lost += 1,
        }
    }
    let setup = started.elapsed();

    let interval = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let timed = total - warmup;
    let per_segment = timed.div_ceil(SEGMENTS).max(1);
    let t0 = Instant::now();
    let mut due = Vec::with_capacity(timed);
    let mut late = Vec::with_capacity(timed);
    let mut sent = Vec::with_capacity(timed);
    let mut tcp = Vec::with_capacity(timed);
    let mut latency = Vec::with_capacity(timed);
    let mut reference_ms = Vec::new();
    for segment in script.requests[warmup..].chunks(per_segment) {
        let first = due.len();
        let start = Instant::now();
        for (k, r) in segment.iter().enumerate() {
            let at = start + interval * k as u32;
            // Time the reference while the server idles: shortly before
            // the next send, if every request sent so far is answered.
            sleep_until(at.checked_sub(REFERENCE_GAP).unwrap_or(at));
            if answered.load(Ordering::Acquire) == warmup + due.len()
                && Instant::now() + REFERENCE_GAP / 2 < at
            {
                reference_ms.push(reference_ms_sample());
            }
            sleep_until(at);
            let send_at = Instant::now();
            send(&r.line)?;
            due.push(at);
            sent.push(send_at);
            late.push(send_at.saturating_duration_since(at));
        }
        for k in first..due.len() {
            match rx.recv_timeout(DRAIN_TIMEOUT) {
                Ok((at, line)) => {
                    check(warmup + k, &line);
                    tcp.push(at.saturating_duration_since(sent[k]));
                    latency.push(at.saturating_duration_since(due[k]));
                }
                Err(_) => {
                    lost += (timed - k) as u64;
                    break;
                }
            }
        }
        if lost > 0 {
            break;
        }
        between();
    }

    drop(stream);
    let _ = receiver.join();
    let report = server.shutdown();
    let replayed = replay_commit_log(
        &script.arch,
        ServiceConfig::default(),
        report.commit_log.lines().iter().map(String::as_str),
    );
    let live = report.residual_digest();
    let digest_ok =
        live == script.digest && replayed.is_ok_and(|service| service.residual_digest() == live);
    Ok((
        Observed {
            sent: sent.iter().map(|at| *at - t0).collect(),
            late,
            tcp,
            latency,
            reference_ms,
            mismatches,
            lost,
            queue_depth_p99: histogram_percentile(&report.stats.queue_depth, 0.99),
            warm_rtt_mean: warm_rtt.iter().sum::<Duration>() / warm_rtt.len().max(1) as u32,
            digest_ok,
        },
        setup,
    ))
}

/// One repetition of the capacity probe: replays `probe` in process on a
/// fresh service through `execute_logged` (the service thread's own
/// call), timing parse + execute + commit-append of every request after
/// the background admits, with a reference time every
/// `REFERENCE_EVERY` requests. Returns those times and the number of
/// answers or residual digests that differ from the script's.
fn capacity_rep(probe: &Script) -> (PassTimes, u64) {
    let mut times = PassTimes::default();
    let mut mismatches = 0;
    let mut service = AllocationService::from_config(&probe.arch, ServiceConfig::default());
    let mut log = CommitLog::new();
    for (i, r) in probe.requests.iter().enumerate() {
        let t = Instant::now();
        let request = parse_request_line(&r.line).expect("scripted lines parse");
        let response = service.execute_logged(request, &mut log);
        let took = t.elapsed();
        if i >= BACKGROUND {
            times.record(us(took) / 1e3, REFERENCE_EVERY);
        }
        if response.to_json_line(i as u64 + 1) != r.expected {
            mismatches += 1;
        }
    }
    if service.residual_digest() != probe.digest {
        eprintln!("serve-open: capacity probe residual digest differs from the script's");
        mismatches += 1;
    }
    (times, mismatches)
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Latencies in ms of the flow-running ops (admit and rebind) among
/// `requests`: the end-to-end `op_*` figures time these; depart and
/// status are the per-layer `light_*` figures.
fn flow_ms(requests: &[Scripted], latency: &[Duration]) -> Vec<f64> {
    requests
        .iter()
        .zip(latency)
        .filter(|(r, _)| r.op.runs_flow())
        .map(|(_, d)| us(*d) / 1e3)
        .collect()
}

fn us_of(samples: impl Iterator<Item = Duration>) -> Vec<f64> {
    samples.map(us).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let open = (OFFERED_RATE * seconds).round() as usize;
    // One build replays every request, seconds of work: long enough to
    // time once. The probe's script does not depend on the seed.
    let built = Instant::now();
    let probe = script(0, BACKGROUND + PROBE, BACKGROUND, false);
    let script = script(seed, WARMUP + open, WARMUP + open, trace);
    let script_s = built.elapsed().as_secs_f64();
    let (mut reps, mut probe_mismatches) = (Vec::new(), 0);
    let between = || {
        let (times, mismatches) = capacity_rep(&probe);
        reps.push(times);
        probe_mismatches += mismatches;
    };
    let (observed, spawn_warmup) = match serve(&script, WARMUP, between) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("serve-open: {e}");
            out.failed = 1;
            out.attempted = 1;
            return out.finish();
        }
    };
    let timed = &script.requests[WARMUP..WARMUP + open];
    let interval_us = 1e6 / OFFERED_RATE;
    let late_p99 = percentile(&us_of(observed.late.iter().copied()), 0.99);
    let late_ok = late_p99 <= LATE_SHARE * interval_us;
    if !late_ok {
        eprintln!("serve-open: sender p99 lateness {late_p99:.0} us exceeds {LATE_SHARE} of the {interval_us:.0} us interval");
    }
    if !observed.digest_ok {
        eprintln!("serve-open: residual digests of live server, commit-log replay and script replay differ");
    }
    out.attempted = (script.requests.len() + reps.len() * probe.requests.len()) as u64;
    out.failed = u64::from(!late_ok)
        + observed.mismatches
        + observed.lost
        + u64::from(!observed.digest_ok)
        + probe_mismatches;

    let admits = timed.iter().filter(|r| r.op == Op::Admit).count() as f64;
    let accepted = timed
        .iter()
        .filter(|r| r.op == Op::Admit && r.expected.contains("\"ok\":true"))
        .count() as f64;
    let cold = timed.iter().filter(|r| r.cold).count() as f64;
    eprintln!(
        "serve-open: offered {}/s, {} timed requests, accepted admits {:.1}%, cold admits {:.1}%, sender late p99 {late_p99:.0} us",
        OFFERED_RATE,
        timed.len(),
        100.0 * ratio(accepted, admits),
        100.0 * ratio(cold, admits)
    );

    let m = &mut out.metrics;
    m.set("setup_s", script_s + spawn_warmup.as_secs_f64());
    let reference = median(&observed.reference_ms);
    if !trace {
        m.set(
            "op_p50_ref",
            ratio(median(&flow_ms(timed, &observed.latency)), reference),
        );
        // The open loop answers at the offered rate whatever the server
        // costs; the capacity probe shows the service's own rate.
        m.set("ops_per_kref", best_pass(&reps).1);
    } else {
        m.set("reference.ms", reference);
        m.set(
            "service.capacity_per_s",
            reps.iter()
                .map(|r| {
                    ratio(
                        1e3 * r.latencies_ms.len() as f64,
                        r.latencies_ms.iter().sum(),
                    )
                })
                .fold(0.0, f64::max),
        );
        let class = |flow: bool| -> Vec<f64> {
            timed
                .iter()
                .zip(&observed.latency)
                .filter(|(r, _)| r.op.runs_flow() == flow)
                .map(|(_, d)| us(*d))
                .collect()
        };
        let (heavy, light) = (class(true), class(false));
        m.set("admit_p50_us", median(&heavy));
        m.set("admit_p99_us", percentile(&heavy, 0.99));
        m.set("light_p50_us", median(&light));
        m.set("light_p99_us", percentile(&light, 0.99));
        m.set(
            "thru_cache.hit_ratio",
            ratio(
                script.cache_hits as f64,
                (script.cache_hits + script.cache_misses) as f64,
            ),
        );
        m.set(
            "warm.transition_hit_ratio",
            ratio(
                script.warm_replayed as f64,
                (script.warm_replayed + script.warm_recomputed) as f64,
            ),
        );
        m.set("warm.cold_admit_ratio", ratio(cold, admits));
        m.set(
            "wire.parse_us",
            median(&us_of(timed.iter().map(|r| r.parse))),
        );
        let execute = us_of(timed.iter().map(|r| r.execute));
        m.set("service.execute_us_p50", median(&execute));
        m.set("service.execute_us_p99", percentile(&execute, 0.99));
        let execute_of = |flow: bool| {
            us_of(
                timed
                    .iter()
                    .filter(|r| r.op.runs_flow() == flow)
                    .map(|r| r.execute),
            )
        };
        m.set("service.admit_execute_us_p50", median(&execute_of(true)));
        m.set("service.light_execute_us_p50", median(&execute_of(false)));
        m.set(
            "service.commit_append_us",
            median(&us_of(timed.iter().filter_map(|r| r.append))),
        );
        // The server's own share: TCP round trip minus the replay's
        // parse and execute time of the same request.
        let queue_wait: Vec<f64> = timed
            .iter()
            .zip(&observed.tcp)
            .map(|(r, tcp)| us(*tcp) - us(r.parse) - us(r.execute))
            .collect();
        m.set("server.queue_wait_us_p50", median(&queue_wait));
        m.set("server.queue_wait_us_p99", percentile(&queue_wait, 0.99));
        m.set("server.queue_depth_p99", observed.queue_depth_p99 as f64);
        m.set("gen.late_p99_us", late_p99);
        m.set("gen.offered_rate", OFFERED_RATE);
        m.set("serve.accepted_admit_share", ratio(accepted, admits));
        // Offered rate × closed-loop service time: the share of the
        // timed phase the service thread is busy (an upper estimate; the
        // round trip includes the socket).
        m.set(
            "service.busy_ratio",
            OFFERED_RATE * observed.warm_rtt_mean.as_secs_f64(),
        );

        // Attribution of each open-loop request's latency (due →
        // response). `gen` is the sender's lateness, `wire` the replay's
        // parse time (the server parses on the connection's reader
        // thread), `service` the replay's execute + commit-append time,
        // and `server` the queue wait of a FIFO model of the one service
        // thread fed with the send times and those service times. None is
        // derived from the round trip, so the remainder (socket transfer,
        // response writing, and any server-side cost the replay does not
        // have) is measured, not forced to 0. It is reported, not gated:
        // the live server spends time the replay cannot see, so the ≥95%
        // coverage check gates flow-seq only.
        let mut layers = Layers::default();
        let mut free = Duration::ZERO;
        for (k, r) in timed.iter().enumerate() {
            let ready = observed.sent[k] + r.parse;
            let start = ready.max(free);
            let busy = r.execute + r.append.unwrap_or_default();
            free = start + busy;
            layers.add("gen", observed.late[k]);
            layers.add("wire", r.parse);
            layers.add("server", start - ready);
            layers.add("service", busy);
        }
        let e2e: Duration = observed.latency.iter().sum();
        let (share, rest) = layers.attribution("serve-open", e2e);
        m.set("attrib.named_share", share);
        m.set("attrib.unattributed_ms", rest);
    }
    out.finish()
}
