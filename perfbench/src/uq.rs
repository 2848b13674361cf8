//! `uq-campaign`: the Fig. 7 Monte Carlo campaign on the paper mesh —
//! 32 samples × 10 steps, `SolverOptions::uq()` with `batch_width = 16`,
//! `run_ensemble_batched` on 2 threads (each thread owns one group).
//!
//! Inputs: a pool of 256 samples, each 12 iid elongations drawn from
//! `paper_elongation_distribution`, is fixed once (pool seed 2016) and its
//! per-wire peak temperatures are stored as the reference, computed by the
//! scalar exact `run_ensemble` path. `--seed` picks which 32 pool samples a
//! campaign runs, so every seed's outputs are checked against stored
//! values.
//!
//! A `BatchScenario` wrapper timestamps each worker's `apply`/`qoi` calls:
//! the `qoi` time is when a sample's result exists (its latency), and in
//! traced campaigns the calls become spans under per-group spans.
//!
//! Both worker threads are busy for the whole call, which cannot be
//! interleaved with calibration chunks. A background thread therefore times
//! a short chunk every `SAMPLE_PERIOD` while the campaigns run (see
//! `calib::Sampler`); it takes about 3% of one core. The chunks
//! land on either core, so their mean tracks the speed the campaign ran at:
//! over 18 campaigns on the development box (a chunk every 25 ms), the
//! coefficient of variation of the wall time was 7.3%, and 3.3% after
//! calibration.

use crate::calib::{scale, within, Sampler};
use crate::common::{
    distinct, f64_array, load_reference, max_abs_diff, measure_setup, num_array, paper_options,
    report_counters, report_steps, run_stepped, stream, write_reference,
};
use crate::paper::{wire_peaks, MESH_XY, MESH_Z};
use crate::report::Outcome;
use crate::stats::{max, median, min, quantile};
use crate::trace::Tracer;
use crate::Ctx;
use etherm_core::{
    run_ensemble, run_ensemble_batched, BatchScenario, CoreError, EnsembleOptions, Scenario,
    Session, SolveCounters, SolverOptions, TransientSolution,
};
use etherm_package::{build_model, paper_elongation_distribution, PackageGeometry};
use etherm_serve::json::Value;
use etherm_uq::{draw_samples, Distribution, MonteCarloSampler};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const SAMPLES: usize = 32;
const STEPS: usize = 10;
const T_END: f64 = 10.0;
const WIDTH: usize = 16;
const THREADS: usize = 2;
const POOL_SIZE: usize = 256;
const POOL_SEED: u64 = 2016;
const SETUP_REPEATS: usize = 15;
/// Untraced campaigns timed at least, however short `--seconds`.
const MIN_CAMPAIGNS: usize = 2;
/// Pause between the background calibration chunks.
const SAMPLE_PERIOD: Duration = Duration::from_millis(40);
/// Latency limit of one sample's result, from the campaign call (`slo_met_frac`).
const SAMPLE_LIMIT_S: f64 = 30.0;
const REFERENCE: &str = "uq_campaign";

fn solver() -> SolverOptions {
    SolverOptions {
        batch_width: WIDTH,
        ..SolverOptions::uq()
    }
}

fn pool() -> Vec<Vec<f64>> {
    let delta = paper_elongation_distribution();
    let dists: Vec<&dyn Distribution> = (0..12).map(|_| &delta as &dyn Distribution).collect();
    draw_samples(&mut MonteCarloSampler::new(POOL_SEED), &dists, POOL_SIZE)
}

fn checksum(pool: &[Vec<f64>]) -> f64 {
    pool.iter().flatten().sum()
}

struct Event {
    thread: usize,
    sample: usize,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Log {
    /// Per worker thread: samples applied and not yet extracted, in order.
    threads: Vec<(ThreadId, VecDeque<usize>)>,
    applies: Vec<Event>,
    qois: Vec<Event>,
}

impl Log {
    fn thread(&mut self) -> usize {
        let id = std::thread::current().id();
        match self.threads.iter().position(|(t, _)| *t == id) {
            Some(i) => i,
            None => {
                self.threads.push((id, VecDeque::new()));
                self.threads.len() - 1
            }
        }
    }
}

/// Wraps a batchable scenario and logs every `apply`/`qoi` call per
/// worker thread. `run_ensemble_batched` extracts a group's QoIs in the order
/// it applied the group's samples, on the same thread, so each `qoi` call
/// is matched to the oldest pending `apply` of its thread.
struct Timed<'a, S> {
    inner: &'a S,
    tracer: &'a Tracer,
    /// Reserved span id per group (all 0 when untraced).
    group_spans: Vec<u64>,
    log: Mutex<Log>,
}

impl<S: BatchScenario> Scenario for Timed<'_, S> {
    fn apply(&self, session: &mut Session, sample: &[f64]) -> Result<(), CoreError> {
        self.inner.apply(session, sample)
    }

    fn evaluate(&self, session: &mut Session) -> Result<Vec<f64>, CoreError> {
        self.inner.evaluate(session)
    }

    fn apply_indexed(
        &self,
        session: &mut Session,
        sample: &[f64],
        index: usize,
    ) -> Result<(), CoreError> {
        let start = Instant::now();
        let result = {
            let _s = self.tracer.span(
                "core.ensemble.apply",
                self.group_spans[index / WIDTH],
                index as u64,
            );
            self.inner.apply_indexed(session, sample, index)
        };
        let end = Instant::now();
        let mut log = self.log.lock().expect("event log lock poisoned");
        let thread = log.thread();
        log.threads[thread].1.push_back(index);
        log.applies.push(Event {
            thread,
            sample: index,
            start,
            end,
        });
        result
    }
}

impl<S: BatchScenario> BatchScenario for Timed<'_, S> {
    fn t_end(&self) -> f64 {
        self.inner.t_end()
    }

    fn n_steps(&self) -> usize {
        self.inner.n_steps()
    }

    fn qoi(&self, solution: &TransientSolution) -> Vec<f64> {
        let start = Instant::now();
        let sample = {
            let mut log = self.log.lock().expect("event log lock poisoned");
            let thread = log.thread();
            log.threads[thread].1.pop_front().unwrap_or(usize::MAX)
        };
        let parent = self.group_spans.get(sample / WIDTH).copied().unwrap_or(0);
        let q = {
            let _s = self.tracer.span("core.ensemble.qoi", parent, sample as u64);
            self.inner.qoi(solution)
        };
        let end = Instant::now();
        let mut log = self.log.lock().expect("event log lock poisoned");
        let thread = log.thread();
        log.qois.push(Event {
            thread,
            sample,
            start,
            end,
        });
        q
    }
}

/// One campaign call and what its event log says about the thread split.
struct Campaign {
    wall_s: f64,
    outputs: Vec<Vec<f64>>,
    counters: SolveCounters,
    /// Per sample: seconds from the call to its result.
    latency_s: Vec<f64>,
    group_s: Vec<f64>,
    imbalance_s: f64,
    idle_frac: f64,
    apply_us: Vec<f64>,
}

fn campaign<S: BatchScenario>(
    compiled: &std::sync::Arc<etherm_core::CompiledModel>,
    scenario: &S,
    inputs: &[Vec<f64>],
    tracer: &Tracer,
    rep: u64,
) -> Result<Campaign, CoreError> {
    let n_groups = inputs.len().div_ceil(WIDTH);
    let campaign_span = tracer.reserve();
    let timed = Timed {
        inner: scenario,
        tracer,
        group_spans: (0..n_groups).map(|_| tracer.reserve()).collect(),
        log: Mutex::new(Log::default()),
    };
    let options = EnsembleOptions {
        n_threads: THREADS,
        ..EnsembleOptions::default()
    };
    let t0 = Instant::now();
    let result = run_ensemble_batched(compiled, &timed, inputs, &options)?;
    let t1 = Instant::now();
    let log = timed.log.into_inner().expect("event log lock poisoned");

    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut latency_s = vec![f64::NAN; inputs.len()];
    for q in &log.qois {
        if let Some(slot) = latency_s.get_mut(q.sample) {
            *slot = since(q.end);
        }
    }
    // Group g spans its first apply to its last QoI extraction.
    let mut group_s = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let in_group = |e: &&Event| e.sample / WIDTH == g;
        let first = log.applies.iter().filter(in_group).map(|e| e.start).min();
        let last = log.qois.iter().filter(in_group).map(|e| e.end).max();
        if let (Some(a), Some(b)) = (first, last) {
            group_s.push((b - a).as_secs_f64());
            tracer.record(
                timed.group_spans[g],
                "core.ensemble.group",
                campaign_span,
                g as u64,
                a,
                b,
            );
        }
    }
    tracer.record(campaign_span, "core.ensemble.campaign", 0, rep, t0, t1);
    // A thread is busy from its first apply to its last extraction; the rest
    // of the call it idles (spawn, waiting for the slowest thread, merge).
    let wall = (t1 - t0).as_secs_f64();
    let mut finish = Vec::new();
    let mut busy = 0.0;
    for t in 0..log.threads.len() {
        let first = log
            .applies
            .iter()
            .filter(|e| e.thread == t)
            .map(|e| e.start)
            .min();
        let last = log
            .qois
            .iter()
            .filter(|e| e.thread == t)
            .map(|e| e.end)
            .max();
        if let (Some(a), Some(b)) = (first, last) {
            finish.push(since(b));
            busy += (b - a).as_secs_f64();
        }
    }
    Ok(Campaign {
        wall_s: wall,
        outputs: result.outputs,
        counters: result.counters,
        latency_s,
        group_s,
        imbalance_s: max(&finish) - min(&finish),
        idle_frac: 1.0 - busy / (THREADS as f64 * wall),
        apply_us: log
            .applies
            .iter()
            .map(|e| (e.end - e.start).as_secs_f64() * 1e6)
            .collect(),
    })
}

/// Hottest-wire peak of each sample.
fn hottest(outputs: &[Vec<f64>]) -> Vec<f64> {
    outputs.iter().map(|y| max(y)).collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = load_reference(REFERENCE)?;
    let tol = reference
        .get("tolerance_k")
        .and_then(Value::as_f64)
        .ok_or("reference lacks tolerance_k")?;
    let ref_rows: Vec<Vec<f64>> = reference
        .get("wire_peak_k")
        .and_then(Value::as_array)
        .ok_or("reference lacks wire_peak_k")?
        .iter()
        .map(|r| f64_array(r).ok_or("bad wire_peak_k row"))
        .collect::<Result<_, _>>()?;
    let pool = pool();
    let ref_checksum = reference.get("pool_checksum").and_then(Value::as_f64);

    let mut out = Outcome {
        threads: THREADS,
        ..Outcome::default()
    };
    out.check(
        "elongation pool matches the stored reference pool",
        ref_rows.len() == POOL_SIZE && ref_checksum == Some(checksum(&pool)),
        format!("{} stored rows, checksum {ref_checksum:?}", ref_rows.len()),
    );
    let picks = distinct(&mut stream(ctx.seed, 1), POOL_SIZE, SAMPLES);
    let inputs: Vec<Vec<f64>> = picks.iter().map(|&i| pool[i].clone()).collect();
    let expected: Vec<Vec<f64>> = picks
        .iter()
        .map(|&i| ref_rows.get(i).cloned().unwrap_or_default())
        .collect();

    let build = paper_options(MESH_XY, MESH_Z);
    let mut setup = measure_setup(
        &build,
        &solver(),
        SETUP_REPEATS,
        &ctx.tracer,
        &mut out,
        true,
    )
    .map_err(|e| format!("set-up failed: {e}"))?;
    let scenario = setup
        .built
        .elongation_scenario(T_END, STEPS, |s: &TransientSolution| wire_peaks(s));

    let untraced = Tracer::default();
    let mut plain: Vec<Campaign> = Vec::new();
    // Start and end of each untraced campaign, in `plain` order.
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let sampler = Sampler::start(SAMPLE_PERIOD);
    let mut traced: Vec<Campaign> = Vec::new();
    let mut counters: Option<SolveCounters> = None;
    // Campaign 0 warms the process up (its buffers are first touched there)
    // and is checked but not timed. The window then stops before a campaign
    // that would end past `--seconds`.
    let mut start = Instant::now();
    let mut last_s = 0.0;
    let mut rep = 0u64;
    while plain.len() < MIN_CAMPAIGNS
        || (ctx.trace && traced.is_empty())
        || start.elapsed().as_secs_f64() + last_s <= ctx.seconds
    {
        out.attempted += SAMPLES as u64;
        let trace_this = ctx.trace && rep.is_multiple_of(2) && rep > 0;
        let tracer = if trace_this { &ctx.tracer } else { &untraced };
        let t0 = Instant::now();
        let result = campaign(&setup.compiled, &scenario, &inputs, tracer, rep);
        let t1 = Instant::now();
        last_s = (t1 - t0).as_secs_f64();
        match result {
            Ok(c) => {
                let mut bad = 0;
                for (k, (y, want)) in c.outputs.iter().zip(&expected).enumerate() {
                    if max_abs_diff(y, want) > tol {
                        bad += 1;
                        out.check(
                            format!("rep {rep} sample {k} (pool {}) per-wire peaks", picks[k]),
                            false,
                            format!("max |ΔT| = {:.3e} K", max_abs_diff(y, want)),
                        );
                    }
                }
                let (got, want) = (hottest(&c.outputs), hottest(&expected));
                let d_mean = (mean(&got) - mean(&want)).abs();
                let d_max = (max(&got) - max(&want)).abs();
                let worst = c
                    .outputs
                    .iter()
                    .zip(&expected)
                    .map(|(y, w)| max_abs_diff(y, w))
                    .fold(0.0, f64::max);
                let same = counters.is_none_or(|first| first == c.counters);
                counters.get_or_insert(c.counters);
                let ok = out.check(
                    format!("rep {rep}: hottest-wire QoI mean/max match the reference"),
                    d_mean <= tol && d_max <= tol,
                    format!(
                        "mean {:.4} K (Δ {d_mean:.2e}), max {:.4} K (Δ {d_max:.2e}); worst per-wire Δ {worst:.2e} K; tolerance {tol:e} K",
                        mean(&got),
                        max(&got)
                    ),
                ) & out.check(format!("rep {rep}: counts repeat"), same, format!("{:?}", c.counters));
                out.failed += if ok { bad } else { SAMPLES as u64 };
                if rep == 0 {
                    start = Instant::now();
                } else if trace_this {
                    traced.push(c);
                } else {
                    plain.push(c);
                    spans.push((t0, t1));
                }
            }
            Err(e) => {
                out.failed += SAMPLES as u64;
                out.check(format!("campaign rep {rep}"), false, e.to_string());
                if out.failed > 3 * SAMPLES as u64 {
                    break;
                }
            }
        }
        rep += 1;
    }

    let chunks = sampler.finish();
    let factors: Vec<f64> = spans
        .iter()
        .map(|&(t0, t1)| scale(&within(&chunks, t0, t1)))
        .collect();
    out.calibration = chunks.iter().map(|&(_, dt)| dt).collect();
    let walls: Vec<f64> = plain.iter().map(|c| c.wall_s).collect();
    let walls_cal: Vec<f64> = walls.iter().zip(&factors).map(|(w, f)| w * f).collect();
    let rate =
        |walls: &[f64]| median(&walls.iter().map(|w| SAMPLES as f64 / w).collect::<Vec<_>>());
    let latency_ms: Vec<f64> = plain
        .iter()
        .flat_map(|c| c.latency_s.iter().map(|s| s * 1e3))
        .collect();
    let latency_cal_ms: Vec<f64> = plain
        .iter()
        .zip(&factors)
        .flat_map(|(c, &f)| c.latency_s.iter().map(move |s| s * 1e3 * f))
        .collect();
    out.set_calibrated(
        "time_to_solution_s",
        median(&walls_cal),
        median(&walls),
        "s",
    );
    out.set_calibrated("samples_per_s", rate(&walls_cal), rate(&walls), "1/s");
    out.set_calibrated(
        "latency_p50_ms",
        median(&latency_cal_ms),
        median(&latency_ms),
        "ms",
    );
    out.set_calibrated(
        "latency_p95_ms",
        quantile(&latency_cal_ms, 0.95),
        quantile(&latency_ms, 0.95),
        "ms",
    );
    let met = latency_ms
        .iter()
        .filter(|&&ms| ms <= SAMPLE_LIMIT_S * 1e3)
        .count();
    out.end_to_end.set(
        "slo_met_frac",
        met as f64 / latency_ms.len().max(1) as f64,
        "frac",
    );
    let per_campaign = "median over run_ensemble_batched calls, each calibrated by the \
                        chunks sampled during it";
    out.timing("time_to_solution_s", walls.len(), per_campaign);
    out.timing("samples_per_s", walls.len(), per_campaign);
    out.timing(
        "latency_p50_ms",
        latency_ms.len(),
        "median over samples, call to QoI extraction, calibrated per campaign",
    );
    out.timing(
        "latency_p95_ms",
        latency_ms.len(),
        "p95 over samples, call to QoI extraction, calibrated per campaign",
    );
    out.timing("slo_met_frac", latency_ms.len(), "samples within 30 s");

    if ctx.trace {
        if let Some(c) = &counters {
            report_counters(c, &mut out);
        }
        let groups: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.group_s.iter().copied())
            .collect();
        let imbalance: Vec<f64> = traced.iter().map(|c| c.imbalance_s).collect();
        let idle: Vec<f64> = traced.iter().map(|c| c.idle_frac).collect();
        let apply: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.apply_us.iter().copied())
            .collect();
        let p = &mut out.per_layer;
        p.set("core.ensemble.group_s.p50", median(&groups), "s");
        p.set("core.ensemble.group_s.max", max(&groups), "s");
        p.set("core.ensemble.imbalance_s", median(&imbalance), "s");
        p.set("core.ensemble.idle_frac", median(&idle), "frac");
        p.set("core.ensemble.apply_us", median(&apply), "us");
        let traced_walls: Vec<f64> = traced.iter().map(|c| c.wall_s).collect();
        p.set(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
            "frac",
        );
        out.timing(
            "core.ensemble.group_s.p50",
            groups.len(),
            "median over groups of traced campaigns",
        );
        out.timing(
            "core.ensemble.imbalance_s",
            imbalance.len(),
            "median over traced campaigns",
        );
        out.timing(
            "core.ensemble.apply_us",
            apply.len(),
            "median over apply calls",
        );
        out.timing(
            "trace.overhead_frac",
            traced_walls.len() + walls.len(),
            "median traced campaign over median untraced campaign, minus 1",
        );

        // The scalar session path on the campaign's model: one sample,
        // stepped through `Session::step`.
        let session = &mut setup.session;
        scenario
            .apply(session, &inputs[0])
            .map_err(|e| format!("apply: {e}"))?;
        let parent = ctx.tracer.span("core.session.transient", 0, 0);
        match run_stepped(session, T_END, STEPS, &ctx.tracer, parent.id(), None) {
            Ok(run) => {
                let diff = max_abs_diff(&run.wire_peaks, &expected[0]);
                out.check(
                    "scalar Session::step run of sample 0 matches the reference",
                    diff <= tol,
                    format!("max |ΔT| = {diff:.3e} K"),
                );
                report_steps(std::slice::from_ref(&run), &mut out);
            }
            Err(e) => {
                out.check("scalar Session::step run of sample 0", false, e.to_string());
            }
        }
        drop(parent);
        crate::kernels::measure(setup.built.model.grid(), ctx.seed, &ctx.tracer, &mut out);
    }
    Ok(out)
}

pub fn write() -> Result<(), String> {
    let pool = pool();
    let built = build_model(&PackageGeometry::paper(), &paper_options(MESH_XY, MESH_Z))
        .map_err(|e| e.to_string())?;
    let compiled = std::sync::Arc::new(
        built
            .compile(SolverOptions::uq())
            .map_err(|e| e.to_string())?,
    );
    let scenario = built.elongation_scenario(T_END, STEPS, |s: &TransientSolution| wire_peaks(s));
    let options = EnsembleOptions {
        n_threads: THREADS,
        ..EnsembleOptions::default()
    };
    let result = run_ensemble(&compiled, &scenario, &pool, &options).map_err(|e| e.to_string())?;
    let value = Value::Object(vec![
        (
            "computed_by".to_string(),
            Value::str("run_ensemble, exact mode, SolverOptions::uq() without batching"),
        ),
        ("pool_seed".to_string(), Value::uint(POOL_SEED)),
        ("pool_size".to_string(), Value::uint(POOL_SIZE as u64)),
        ("pool_checksum".to_string(), Value::num(checksum(&pool))),
        ("t_end_s".to_string(), Value::num(T_END)),
        ("steps".to_string(), Value::uint(STEPS as u64)),
        ("tolerance_k".to_string(), Value::num(1e-3)),
        (
            "wire_peak_k".to_string(),
            Value::Array(result.outputs.iter().map(|y| num_array(y)).collect()),
        ),
    ]);
    write_reference(REFERENCE, &value).map_err(|e| e.to_string())
}
