//! `serve-mixed`: an open loop into an in-process `ServeHandle` over a
//! 2-worker `Engine`.
//!
//! One generator thread sends seeded Poisson arrivals at a fixed offered
//! rate. In every block of ten requests (positions seeded) one runs on the
//! paper L0 mesh (`wire_sizing` or `campaign`, alternating in a seeded
//! order), one is a `wire_sizing` job on the next of five cold block specs
//! (with the hot block and the paper model, more specs than the registry's
//! four slots, so every cold request compiles and evicts), one is a
//! `fusing` job on the hot block and seven are `wire_sizing` jobs on the
//! hot block. Each request's job seed comes from a fixed pool per model and
//! class, so every `Result` is checked against stored QoIs for its (spec,
//! class, params, seed).
//!
//! Latency runs from a request's *scheduled* send time to its terminal
//! frame, which a waiter thread per request receives. A background thread
//! times a short calibration chunk every `SAMPLE_PERIOD` while the requests
//! run, and the latencies are reported scaled by the chunks' mean (see
//! `calib`). Over ten seeds on the development box, this cut the spread of
//! the median latency, which falls among the hot-block jobs, from 0.14 to
//! 0.06. Paper jobs slow less than the chunks when the machine is busy, so
//! there the spread of `latency_p95_ms` and `time_to_solution_s`, which
//! fall among the paper jobs, rose from 0.06 to 0.11. They stay
//! calibrated so that every latency follows one rule.

use crate::calib::{scale, within, Sampler};
use crate::common::{
    distinct, load_reference, max_abs_diff, measure_setup, num_array, paper_options,
    report_counters, report_steps, run_stepped, stream, write_reference,
};
use crate::report::Outcome;
use crate::stats::{max, median, quantile};
use crate::trace::Tracer;
use crate::Ctx;
use etherm_core::SolverOptions;
use etherm_serve::json::Value;
use etherm_serve::{
    Engine, ErrorKind, JobParams, ModelRegistry, ModelSpec, RequestClass, Response, ServeConfig,
    ServeHandle, SolverProfile, SpecKind, SystemClock,
};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Offered load (requests per second): paper jobs then run about 30% of
/// the time, so most block requests see no paper job beside them (see
/// `perfbench/README.md`).
const RATE_PER_S: f64 = 6.0;
const MIN_REQUESTS: usize = 200;
const BLOCK: usize = 10;
const SETUP_REPEATS: usize = 3;
/// Pause between the background calibration chunks.
const SAMPLE_PERIOD: Duration = Duration::from_millis(40);
const LAYER_SETUP_REPEATS: usize = 15;
/// Requests per kind replayed alone on an idle engine (traced runs).
const REPLAY_PER_KIND: usize = 2;
const REFERENCE: &str = "serve_mixed";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    BlockWireSizing,
    BlockFusing,
    PaperWireSizing,
    PaperCampaign,
}

const KINDS: [Kind; 4] = [
    Kind::BlockWireSizing,
    Kind::BlockFusing,
    Kind::PaperWireSizing,
    Kind::PaperCampaign,
];
const PAPER_KINDS: [Kind; 2] = [Kind::PaperWireSizing, Kind::PaperCampaign];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::BlockWireSizing => "block_wire_sizing",
            Kind::BlockFusing => "block_fusing",
            Kind::PaperWireSizing => "paper_wire_sizing",
            Kind::PaperCampaign => "paper_campaign",
        }
    }

    fn on_paper(self) -> bool {
        PAPER_KINDS.contains(&self)
    }

    fn class(self) -> RequestClass {
        match self {
            Kind::BlockWireSizing | Kind::PaperWireSizing => RequestClass::WireSizing,
            Kind::PaperCampaign => RequestClass::Campaign,
            Kind::BlockFusing => RequestClass::Fusing,
        }
    }

    fn params(self) -> JobParams {
        let p = JobParams::default();
        // Hot-block wire sizing costs about 50 ms alone, long enough that
        // thread wake-up delays on a busy machine (1–5 ms per request) stay
        // small against the median, which falls among these jobs. Both
        // paper jobs cost about 0.45 s alone, so the slowest 5% of requests
        // are one population and p95 sits inside it instead of on the edge
        // between two.
        match self {
            Kind::BlockWireSizing => JobParams {
                n_steps: 300,
                t_end: 30.0,
                ..p
            },
            Kind::BlockFusing => JobParams {
                n_steps: 4,
                t_end: 4.0,
                threshold: 350.0,
                ..p
            },
            Kind::PaperWireSizing => p,
            Kind::PaperCampaign => JobParams {
                n_samples: 2,
                n_steps: 5,
                t_end: 0.5,
                ..p
            },
        }
    }

    /// Latency limit of the kind (`slo_met_frac`).
    fn limit_ms(self) -> f64 {
        match self {
            Kind::BlockWireSizing | Kind::BlockFusing => 250.0,
            Kind::PaperWireSizing | Kind::PaperCampaign => 1500.0,
        }
    }
}

fn block(nx: u32, ny: u32, nz: u32, wire_um: u32) -> ModelSpec {
    ModelSpec {
        kind: SpecKind::Block {
            nx,
            ny,
            nz,
            wire_um,
        },
        profile: SolverProfile::Default,
    }
}

fn hot() -> ModelSpec {
    block(8, 4, 2, 1500)
}

fn cold() -> [ModelSpec; 5] {
    [
        block(6, 4, 2, 1200),
        block(8, 4, 3, 1500),
        block(10, 4, 2, 1800),
        block(8, 6, 2, 1500),
        block(6, 6, 2, 1300),
    ]
}

fn paper() -> ModelSpec {
    ModelSpec::paper_coarse()
}

/// Job seeds are `1..=pool` per (spec, kind): the stored reference covers
/// every request the generator can send.
fn pool_size(spec: &ModelSpec, kind: Kind) -> u64 {
    match kind {
        Kind::BlockWireSizing if *spec == hot() => 64,
        Kind::BlockWireSizing => 16,
        // Fusing searches the drive scale at nominal wire lengths: the seed
        // does not change its answer.
        Kind::BlockFusing => 4,
        Kind::PaperWireSizing | Kind::PaperCampaign => 12,
    }
}

fn key(spec: &ModelSpec, kind: Kind, seed: u64) -> String {
    let p = kind.params();
    format!(
        "{}|{}|t_end={};n_steps={};n_samples={};threshold={};spread={}|seed={seed}",
        spec.canonical(),
        kind.class().as_str(),
        p.t_end,
        p.n_steps,
        p.n_samples,
        p.threshold,
        p.spread
    )
}

#[derive(Debug, Clone)]
struct Req {
    index: usize,
    at_s: f64,
    kind: Kind,
    spec: ModelSpec,
    job_seed: u64,
}

/// `n` requests over `n / RATE_PER_S` seconds. Arrival times are a
/// Poisson process conditioned on its count (sorted uniform times), so the
/// offered window is the same for every seed.
fn schedule(seed: u64, n: usize) -> Vec<Req> {
    let mut s = stream(seed, 3);
    let window_s = n as f64 / RATE_PER_S;
    let mut arrivals: Vec<f64> = (0..n).map(|_| s.gen::<f64>() * window_s).collect();
    arrivals.sort_by(f64::total_cmp);
    let colds = cold();
    let mut next_cold = s.gen_range(0..colds.len());
    let mut paper_order: VecDeque<Kind> = VecDeque::new();
    let mut reqs = Vec::with_capacity(n);
    while reqs.len() < n {
        let slots = distinct(&mut s, BLOCK, 3);
        let (paper_slot, cold_slot, fusing_slot) = (slots[0], slots[1], slots[2]);
        for slot in 0..BLOCK {
            if reqs.len() == n {
                break;
            }
            let (kind, spec) = if slot == paper_slot {
                if paper_order.is_empty() {
                    let order = distinct(&mut s, PAPER_KINDS.len(), PAPER_KINDS.len());
                    paper_order.extend(order.into_iter().map(|i| PAPER_KINDS[i]));
                }
                (
                    paper_order.pop_front().unwrap_or(Kind::PaperWireSizing),
                    paper(),
                )
            } else if slot == cold_slot {
                let spec = colds[next_cold];
                next_cold = (next_cold + 1) % colds.len();
                (Kind::BlockWireSizing, spec)
            } else if slot == fusing_slot {
                (Kind::BlockFusing, hot())
            } else {
                (Kind::BlockWireSizing, hot())
            };
            let job_seed = s.gen_range(1..=pool_size(&spec, kind));
            reqs.push(Req {
                index: reqs.len(),
                at_s: arrivals[reqs.len()],
                kind,
                spec,
                job_seed,
            });
        }
    }
    reqs
}

fn is_terminal(frame: &Response) -> bool {
    matches!(
        frame,
        Response::Result { .. }
            | Response::Error { .. }
            | Response::Shed { .. }
            | Response::Cancelled { .. }
    )
}

struct Done {
    req: Req,
    terminal: Option<Response>,
    latency_ms: f64,
    /// Seconds from the schedule origin to the terminal frame.
    end_s: f64,
    admit_us: f64,
    lateness_ms: f64,
    queue_depth: Option<u64>,
    traced: bool,
}

fn submit(handle: &ServeHandle, r: &Req) -> etherm_serve::JobTicket {
    handle.submit(r.kind.class(), r.spec, r.kind.params(), r.job_seed)
}

/// Sends `reqs` on their schedule from this (the generator) thread; one
/// waiter thread per request receives its frames. `traced(i)` selects the
/// requests that record spans and sample the queue depth.
fn drive(
    handle: &ServeHandle,
    reqs: &[Req],
    tracer: &Tracer,
    traced: impl Fn(usize) -> bool,
) -> Vec<Done> {
    let origin = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let mut waiters = Vec::with_capacity(reqs.len());
        for r in reqs {
            let due = origin + Duration::from_secs_f64(r.at_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let is_traced = traced(r.index);
            let t = if is_traced {
                tracer.clone()
            } else {
                Tracer::default()
            };
            let request_span = t.reserve();
            let ticket = {
                let _s = t.span("serve.admit", request_span, r.index as u64);
                submit(handle, r)
            };
            let first = ticket.next();
            let admit_us = sent.elapsed().as_secs_f64() * 1e6;
            let queue_depth = is_traced
                .then(|| match handle.health() {
                    Response::Health { queue_depth, .. } => Some(queue_depth),
                    _ => None,
                })
                .flatten();
            let req = r.clone();
            waiters.push(scope.spawn(move || {
                let terminal = match first {
                    Some(f) if is_terminal(&f) => Some(f),
                    Some(_) => ticket.wait_terminal(),
                    None => None,
                };
                let end = Instant::now();
                t.record(request_span, "serve.request", 0, req.index as u64, due, end);
                Done {
                    latency_ms: (end - due).as_secs_f64() * 1e3,
                    end_s: (end - origin).as_secs_f64(),
                    admit_us,
                    lateness_ms: (sent - due).as_secs_f64() * 1e3,
                    queue_depth,
                    traced: is_traced,
                    terminal,
                    req,
                }
            }));
        }
        waiters
            .into_iter()
            .map(|w| w.join().expect("waiter thread panicked"))
            .collect()
    })
}

fn start_engine(workers: usize) -> (Arc<Engine>, ServeHandle) {
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let engine = Engine::with_clock(config, Arc::new(SystemClock::new()));
    let handle = ServeHandle::new(Arc::clone(&engine));
    (engine, handle)
}

/// Runs `reqs` one at a time on `handle`, returning each terminal frame and
/// its latency (ms).
fn one_by_one(handle: &ServeHandle, reqs: &[Req]) -> Vec<(Option<Response>, f64)> {
    reqs.iter()
        .map(|r| {
            let t0 = Instant::now();
            let frame = submit(handle, r).wait_terminal();
            (frame, t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

fn registry_counts(handle: &ServeHandle) -> (u64, u64) {
    match handle.health() {
        Response::Health {
            registry_compiles,
            registry_hits,
            ..
        } => (registry_compiles, registry_hits),
        _ => (0, 0),
    }
}

/// Compares a terminal frame with the stored QoIs of its request.
fn verify(reference: &Value, tol: f64, r: &Req, frame: Option<&Response>) -> Result<(), String> {
    let k = key(&r.spec, r.kind, r.job_seed);
    let want = reference
        .get(&k)
        .and_then(crate::common::f64_array)
        .ok_or_else(|| format!("no stored QoIs for {k}"))?;
    match frame {
        Some(Response::Result { qoi, .. }) => {
            let d = max_abs_diff(qoi, &want);
            if d <= tol {
                Ok(())
            } else {
                Err(format!("{k}: max |Δqoi| = {d:.3e}"))
            }
        }
        other => Err(format!("{k}: terminal frame {other:?}")),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let stored = load_reference(REFERENCE)?;
    let tol = stored
        .get("tolerance")
        .and_then(Value::as_f64)
        .ok_or("reference lacks tolerance")?;
    let reference = stored.get("qoi").cloned().ok_or("reference lacks qoi")?;
    let mut out = Outcome {
        threads: WORKERS,
        ..Outcome::default()
    };
    let sampler = Sampler::start(SAMPLE_PERIOD);

    // Set-up: engine start plus the hot-model warm-up. The hot block and
    // the paper L0 model are compiled, and two paper jobs sent together
    // leave a pooled paper session on each worker.
    let warm = [
        (Kind::BlockWireSizing, hot(), 1),
        (Kind::PaperWireSizing, paper(), 1),
        (Kind::PaperWireSizing, paper(), 2),
    ]
    .map(|(kind, spec, job_seed)| Req {
        index: 0,
        at_s: 0.0,
        kind,
        spec,
        job_seed,
    });
    let mut setups = Vec::new();
    let mut engine = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let started = {
            let _s = ctx.tracer.span("serve.setup", 0, k as u64);
            let (e, h) = start_engine(WORKERS);
            let tickets: Vec<_> = warm.iter().map(|r| submit(&h, r)).collect();
            let frames: Vec<_> = tickets.iter().map(|t| t.wait_terminal()).collect();
            (e, h, frames)
        };
        setups.push(t0.elapsed().as_secs_f64());
        for (r, frame) in warm.iter().zip(&started.2) {
            if let Err(e) = verify(&reference, tol, r, frame.as_ref()) {
                out.check("warm-up request", false, e);
            }
        }
        // Only the last engine serves the run; the others stop before the
        // next starts, so at most one is resident.
        if k + 1 < SETUP_REPEATS {
            started.0.shutdown_and_join();
        } else {
            engine = Some(started);
        }
    }
    let (engine, handle, _) = engine.ok_or("no engine started")?;
    out.end_to_end.set("setup_s", median(&setups), "s");
    out.timing(
        "setup_s",
        setups.len(),
        "median over engine start + warm-up",
    );

    let n = MIN_REQUESTS.max((RATE_PER_S * ctx.seconds).ceil() as usize);
    let reqs = schedule(ctx.seed, n);
    let before = registry_counts(&handle);
    let t0 = Instant::now();
    let done = drive(&handle, &reqs, &ctx.tracer, |i| ctx.trace && i % 2 == 0);
    let t1 = Instant::now();
    let chunks = sampler.finish();
    let factor = scale(&within(&chunks, t0, t1));
    out.calibration = chunks.iter().map(|&(_, dt)| dt).collect();
    let after = registry_counts(&handle);
    engine.shutdown_and_join();

    out.attempted = done.len() as u64;
    let mut bad = Vec::new();
    for d in &done {
        if let Err(e) = verify(&reference, tol, &d.req, d.terminal.as_ref()) {
            bad.push(e);
        }
    }
    out.failed = bad.len() as u64;
    out.check(
        "every request returns the stored QoIs for its (spec, class, params, seed)",
        bad.is_empty(),
        if bad.is_empty() {
            format!("{} requests within {tol:e}", done.len())
        } else {
            format!("{} failed, first: {}", bad.len(), bad[0])
        },
    );

    let latency: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let paper_s: Vec<f64> = done
        .iter()
        .filter(|d| d.req.kind.on_paper())
        .map(|d| d.latency_ms * 1e-3)
        .collect();
    let solves: u64 = done
        .iter()
        .map(|d| match &d.terminal {
            Some(Response::Result { full_solves, .. }) => *full_solves,
            _ => 0,
        })
        .sum();
    let window_s = done.iter().map(|d| d.end_s).fold(0.0, f64::max);
    let met = done
        .iter()
        .filter(|d| {
            matches!(d.terminal, Some(Response::Result { .. }))
                && d.latency_ms <= d.req.kind.limit_ms()
        })
        .count();
    let p50 = median(&latency);
    out.set_calibrated("latency_p50_ms", p50 * factor, p50, "ms");
    let p95 = quantile(&latency, 0.95);
    out.set_calibrated("latency_p95_ms", p95 * factor, p95, "ms");
    let paper_median = median(&paper_s);
    out.set_calibrated(
        "time_to_solution_s",
        paper_median * factor,
        paper_median,
        "s",
    );
    // Throughput at a fixed offered rate follows the schedule, not the
    // machine's speed: it is reported as measured.
    let e = &mut out.end_to_end;
    e.set("samples_per_s", solves as f64 / window_s, "1/s");
    e.set(
        "slo_met_frac",
        met as f64 / done.len().max(1) as f64,
        "frac",
    );
    out.timing(
        "latency_p50_ms",
        latency.len(),
        "median over requests, scheduled send to terminal frame, calibrated over the window",
    );
    out.timing(
        "latency_p95_ms",
        latency.len(),
        "p95 over requests, scheduled send to terminal frame, calibrated over the window",
    );
    out.timing(
        "time_to_solution_s",
        paper_s.len(),
        "median latency over paper-mesh requests, calibrated over the window",
    );
    out.timing(
        "samples_per_s",
        done.len(),
        "transient solves in Result frames over the serving window",
    );
    out.timing(
        "slo_met_frac",
        done.len(),
        "requests with a Result within their kind's limit",
    );

    if ctx.trace {
        layer_metrics(ctx, &done, before, after, &mut out)?;
    }
    Ok(out)
}

fn layer_metrics(
    ctx: &Ctx,
    done: &[Done],
    before: (u64, u64),
    after: (u64, u64),
    out: &mut Outcome,
) -> Result<(), String> {
    let p = &mut out.per_layer;
    let admit: Vec<f64> = done.iter().map(|d| d.admit_us).collect();
    p.set("serve.admit_us", median(&admit), "us");
    for kind in KINDS {
        let l: Vec<f64> = done
            .iter()
            .filter(|d| d.req.kind == kind)
            .map(|d| d.latency_ms)
            .collect();
        p.set(
            format!("serve.latency_ms.{}.p50", kind.name()),
            median(&l),
            "ms",
        );
    }
    p.set(
        "serve.registry.compiles",
        after.0.saturating_sub(before.0) as f64,
        "count",
    );
    p.set(
        "serve.registry.hits",
        after.1.saturating_sub(before.1) as f64,
        "count",
    );
    let depth = done.iter().filter_map(|d| d.queue_depth).max().unwrap_or(0);
    p.set("serve.queue_depth.max", depth as f64, "count");
    let count = |f: &dyn Fn(&Response) -> bool| {
        done.iter()
            .filter(|d| d.terminal.as_ref().is_some_and(f))
            .count() as f64
    };
    p.set(
        "serve.shed",
        count(&|r| matches!(r, Response::Shed { .. })),
        "count",
    );
    p.set(
        "serve.budget_rejections",
        count(&|r| {
            matches!(
                r,
                Response::Error {
                    kind: ErrorKind::BudgetExhausted,
                    ..
                }
            )
        }),
        "count",
    );
    let iterations: u64 = done
        .iter()
        .map(|d| match &d.terminal {
            Some(Response::Result { iterations, .. }) => *iterations,
            _ => 0,
        })
        .sum();
    p.set("serve.iterations", iterations as f64, "count");
    let lateness: Vec<f64> = done.iter().map(|d| d.lateness_ms).collect();
    p.set("serve.generator_lateness_ms.max", max(&lateness), "ms");
    let block_latency = |traced: bool| {
        let l: Vec<f64> = done
            .iter()
            .filter(|d| d.traced == traced && d.req.kind == Kind::BlockWireSizing)
            .map(|d| d.latency_ms)
            .collect();
        median(&l)
    };
    p.set(
        "trace.overhead_frac",
        block_latency(true) / block_latency(false) - 1.0,
        "frac",
    );
    out.timing(
        "serve.admit_us",
        admit.len(),
        "median over requests, submit to Accepted frame",
    );
    out.timing(
        "trace.overhead_frac",
        done.len(),
        "median traced over median untraced block-request latency, minus 1",
    );

    // Cold compile of each of the workload's specs on a fresh registry.
    let registry = ModelRegistry::new(8);
    let mut compile_ms = Vec::new();
    for spec in [hot(), paper()].into_iter().chain(cold()) {
        let _s = ctx
            .tracer
            .span("serve.registry.get_or_compile", 0, spec.content_hash());
        let t0 = Instant::now();
        registry
            .get_or_compile(&spec)
            .map_err(|e| format!("compile {}: {e}", spec.canonical()))?;
        compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.per_layer.set(
        "serve.registry.compile_ms",
        crate::stats::median(&compile_ms),
        "ms",
    );
    out.timing(
        "serve.registry.compile_ms",
        compile_ms.len(),
        "median cold get_or_compile over the workload's specs",
    );

    // Service time: a seeded subset of the run replayed alone on an idle
    // 1-worker engine whose models are already resident. Queue wait is the
    // run's latency minus that service time.
    let mut pick = stream(ctx.seed, 5);
    let mut subset: Vec<&Done> = Vec::new();
    for kind in KINDS {
        let of_kind: Vec<&Done> = done.iter().filter(|d| d.req.kind == kind).collect();
        for i in distinct(&mut pick, of_kind.len(), REPLAY_PER_KIND) {
            subset.push(of_kind[i]);
        }
    }
    let (idle, idle_handle) = start_engine(1);
    let mut specs: Vec<Req> = Vec::new();
    for d in &subset {
        if !specs.iter().any(|r| r.spec == d.req.spec) {
            specs.push(Req {
                job_seed: 1,
                ..d.req.clone()
            });
        }
    }
    one_by_one(&idle_handle, &specs);
    let replay: Vec<Req> = subset.iter().map(|d| d.req.clone()).collect();
    let timed = {
        let _s = ctx.tracer.span("serve.replay", 0, 0);
        one_by_one(&idle_handle, &replay)
    };
    idle.shutdown_and_join();
    let mut service: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut wait = Vec::new();
    let mut same = true;
    for (d, (frame, ms)) in subset.iter().zip(&timed) {
        service.entry(d.req.kind.name()).or_default().push(*ms);
        wait.push((d.latency_ms - ms).max(0.0));
        same &= match (frame, &d.terminal) {
            (Some(Response::Result { qoi: a, .. }), Some(Response::Result { qoi: b, .. })) => {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        };
    }
    out.check(
        "replayed requests return bit-identical QoIs on a 1-worker engine",
        same,
        format!("{} requests", subset.len()),
    );
    for kind in KINDS {
        let s = service.get(kind.name()).cloned().unwrap_or_default();
        out.per_layer.set(
            format!("serve.service_ms.{}", kind.name()),
            median(&s),
            "ms",
        );
    }
    out.per_layer
        .set("serve.queue_wait_ms.p50", median(&wait), "ms");
    out.per_layer
        .set("serve.queue_wait_ms.p95", quantile(&wait, 0.95), "ms");
    out.timing(
        "serve.service_ms",
        subset.len(),
        "median per kind over the replayed subset",
    );
    out.timing(
        "serve.queue_wait_ms.p50",
        wait.len(),
        "median over the replayed subset",
    );
    out.timing(
        "serve.queue_wait_ms.p95",
        wait.len(),
        "p95 over the replayed subset",
    );

    // The session and numerics layers on the paper L0 model the paper jobs
    // run on: its set-up, one wire_sizing-shaped transient stepped through
    // `Session::step`, and the kernels on its grid.
    let l0 = paper_options(900e-6, 500e-6);
    let mut setup = measure_setup(
        &l0,
        &SolverOptions::uq(),
        LAYER_SETUP_REPEATS,
        &ctx.tracer,
        out,
        false,
    )
    .map_err(|e| format!("L0 set-up failed: {e}"))?;
    let params = JobParams::default();
    let parent = ctx.tracer.span("core.session.transient", 0, 0);
    let run = run_stepped(
        &mut setup.session,
        params.t_end,
        params.n_steps,
        &ctx.tracer,
        parent.id(),
        None,
    )
    .map_err(|e| format!("L0 stepped transient: {e}"))?;
    drop(parent);
    report_steps(std::slice::from_ref(&run), out);
    report_counters(&run.counters, out);
    crate::kernels::measure(setup.built.model.grid(), ctx.seed, &ctx.tracer, out);
    Ok(())
}

pub fn write() -> Result<(), String> {
    let mut reqs = Vec::new();
    let mut add = |kind: Kind, spec: ModelSpec| {
        for seed in 1..=pool_size(&spec, kind) {
            reqs.push(Req {
                index: reqs.len(),
                at_s: 0.0,
                kind,
                spec,
                job_seed: seed,
            });
        }
    };
    add(Kind::BlockWireSizing, hot());
    add(Kind::BlockFusing, hot());
    for spec in cold() {
        add(Kind::BlockWireSizing, spec);
    }
    for kind in PAPER_KINDS {
        add(kind, paper());
    }
    let (engine, handle) = start_engine(WORKERS);
    let tickets: Vec<_> = reqs.iter().map(|r| submit(&handle, r)).collect();
    let mut members = Vec::new();
    for (r, t) in reqs.iter().zip(tickets) {
        match t.wait_terminal() {
            Some(Response::Result { qoi, .. }) => {
                members.push((key(&r.spec, r.kind, r.job_seed), num_array(&qoi)))
            }
            other => return Err(format!("{}: {other:?}", key(&r.spec, r.kind, r.job_seed))),
        }
    }
    engine.shutdown_and_join();
    let value = Value::Object(vec![
        (
            "computed_by".to_string(),
            Value::str("ServeHandle over a 2-worker Engine, every pooled request once"),
        ),
        ("tolerance".to_string(), Value::num(1e-3)),
        ("qoi".to_string(), Value::Object(members)),
    ]);
    write_reference(REFERENCE, &value).map_err(|e| e.to_string())
}
