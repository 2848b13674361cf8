//! Pieces shared by the workloads: the seeded input stream, the model
//! builds, the step-driven transient and reference files.

use crate::calib::Calibrator;
use crate::report::Outcome;
use crate::trace::Tracer;
use etherm_core::{CompiledModel, CoreError, Session, SolveCounters, SolverOptions};
use etherm_package::{build_model, BuildOptions, BuiltPackage, PackageGeometry};
use etherm_serve::json::{self, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's input stream for one purpose, seeded from `--seed`.
/// Every generated input (pool picks, arrival times, class and model
/// choices) comes from such a stream; the layers receive only the generated
/// inputs.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// `k` distinct indices of `0..n` in random order (partial Fisher–Yates).
pub fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

/// The paper package at lateral/vertical spacings (m), Fig. 7 preset.
pub fn paper_options(xy: f64, z: f64) -> BuildOptions {
    BuildOptions {
        target_spacing_xy: xy,
        target_spacing_z: z,
        ..BuildOptions::paper_fig7()
    }
}

/// One set-up: geometry → mesh → model, compile, open a session, each
/// timed (seconds) and traced under its layer.
pub struct Setup {
    pub built: BuiltPackage,
    pub compiled: Arc<CompiledModel>,
    pub session: Session,
    pub build_s: f64,
    pub compile_s: f64,
    pub session_new_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.compile_s + self.session_new_s
    }
}

pub fn set_up(
    build: &BuildOptions,
    solver: SolverOptions,
    tracer: &Tracer,
    key: u64,
) -> Result<Setup, CoreError> {
    let t0 = Instant::now();
    let built = {
        let _s = tracer.span("package.build_model", 0, key);
        build_model(&PackageGeometry::paper(), build)?
    };
    let t1 = Instant::now();
    let compiled = {
        let _s = tracer.span("core.compile", 0, key);
        Arc::new(CompiledModel::compile(built.model.clone(), solver)?)
    };
    let t2 = Instant::now();
    let session = {
        let _s = tracer.span("core.session.new", 0, key);
        Session::new(Arc::clone(&compiled))
    };
    let t3 = Instant::now();
    Ok(Setup {
        built,
        compiled,
        session,
        build_s: (t1 - t0).as_secs_f64(),
        compile_s: (t2 - t1).as_secs_f64(),
        session_new_s: (t3 - t2).as_secs_f64(),
    })
}

/// Repeats the set-up `repeats` times and reports the medians: the
/// per-layer build/compile/session times and, when `end_to_end`, their sum
/// as `setup_s`. Returns the last set-up for the measurement.
pub fn measure_setup(
    build: &BuildOptions,
    solver: &SolverOptions,
    repeats: usize,
    tracer: &Tracer,
    out: &mut Outcome,
    end_to_end: bool,
) -> Result<Setup, CoreError> {
    let mut totals = Vec::with_capacity(repeats);
    let (mut b, mut c, mut s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..repeats.max(1) {
        let setup = set_up(build, solver.clone(), tracer, k as u64)?;
        totals.push(setup.total_s());
        b.push(setup.build_s);
        c.push(setup.compile_s);
        s.push(setup.session_new_s);
        last = Some(setup);
    }
    if end_to_end {
        out.end_to_end
            .set("setup_s", crate::stats::median(&totals), "s");
        out.timing("setup_s", totals.len(), "median over set-ups");
    }
    out.per_layer
        .set("package.build_model_s", crate::stats::median(&b), "s");
    out.per_layer
        .set("core.compile_s", crate::stats::median(&c), "s");
    out.per_layer
        .set("core.session_new_s", crate::stats::median(&s), "s");
    last.ok_or_else(|| CoreError::InvalidModel("no set-up ran".to_string()))
}

/// A transient driven step by step through `Session::step`.
pub struct Stepped {
    pub step_ms: Vec<f64>,
    /// Calibration chunk times (s) when calibrated: one before the first
    /// step and one after each step, so step `i` lies between chunks `i`
    /// and `i + 1`.
    pub cal_chunks: Vec<f64>,
    pub counters: SolveCounters,
    /// Peak wire-averaged temperature per wire over the run (K).
    pub wire_peaks: Vec<f64>,
}

/// Drives `n_steps` implicit-Euler steps over `[0, t_end]` through
/// `Session::step` from a reset session: the same computation as
/// `Session::run_transient`, one timed (and, when tracing, spanned) call
/// per step. With a calibrator, one calibration chunk precedes the first
/// step and one follows each step, outside the step timings.
pub fn run_stepped(
    session: &mut Session,
    t_end: f64,
    n_steps: usize,
    tracer: &Tracer,
    parent: u64,
    mut cal: Option<&mut Calibrator>,
) -> Result<Stepped, CoreError> {
    session.reset();
    session.reset_counters();
    let compiled = Arc::clone(session.compiled());
    let layout = compiled.layout();
    let dt = t_end / n_steps as f64;
    let mut state = session.initial_temperature();
    let mut phi = vec![0.0; layout.n_total()];
    let mut wire_peaks: Vec<f64> = (0..layout.n_wires())
        .map(|j| layout.topology(j).average_temperature(&state))
        .collect();
    let mut step_ms = Vec::with_capacity(n_steps);
    let mut cal_chunks: Vec<f64> = cal
        .as_deref_mut()
        .map(Calibrator::sample)
        .into_iter()
        .collect();
    for step in 1..=n_steps {
        let t0 = Instant::now();
        let result = {
            let _s = tracer.span("core.session.step", parent, step as u64);
            session.step(&state, dt, &mut phi, step)?
        };
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for (j, peak) in wire_peaks.iter_mut().enumerate() {
            *peak = peak.max(layout.topology(j).average_temperature(&result.temperature));
        }
        state = result.temperature;
        cal_chunks.extend(cal.as_deref_mut().map(Calibrator::sample));
    }
    Ok(Stepped {
        step_ms,
        cal_chunks,
        counters: session.counters(),
        wire_peaks,
    })
}

/// Reports the per-step latency layer metrics of a stepped run.
pub fn report_steps(runs: &[Stepped], out: &mut Outcome) {
    let first: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.step_ms.first().copied())
        .collect();
    let rest: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_ms.iter().skip(1).copied())
        .collect();
    out.per_layer
        .set("core.step_ms.p50", crate::stats::median(&rest), "ms");
    out.per_layer.set(
        "core.step_ms.tail",
        crate::stats::quantile(&rest, 0.9),
        "ms",
    );
    out.per_layer
        .set("core.first_step_ms", crate::stats::median(&first), "ms");
    out.timing(
        "core.step_ms.p50",
        rest.len(),
        "median over steps after the first",
    );
    out.timing(
        "core.step_ms.tail",
        rest.len(),
        "p90 over steps after the first",
    );
    out.timing(
        "core.first_step_ms",
        first.len(),
        "median over runs of the cold first step",
    );
}

/// Exact solver counts (deltas of `SolveCounters` over the measured runs)
/// and their ratios.
pub fn report_counters(c: &SolveCounters, out: &mut Outcome) {
    let solves = c.electrical_solves + c.thermal_solves;
    let iterations = c.electrical_iterations + c.thermal_iterations;
    let r = &c.recovery;
    let events = r.solve_retries + r.forced_refreshes + r.precond_fallbacks + r.dt_halvings;
    let p = &mut out.per_layer;
    p.set(
        "core.picard_iterations",
        c.picard_iterations as f64,
        "count",
    );
    p.set(
        "core.elec_cg_iterations",
        c.electrical_iterations as f64,
        "count",
    );
    p.set(
        "core.therm_cg_iterations",
        c.thermal_iterations as f64,
        "count",
    );
    p.set("core.solves", solves as f64, "count");
    p.set("core.precond_rebuilds", c.precond_rebuilds as f64, "count");
    p.set("core.precond_reuses", c.precond_reuses as f64, "count");
    p.set("core.recovery_events", events as f64, "count");
    p.set(
        "core.precond_reuse_frac",
        c.precond_reuses as f64 / (c.precond_reuses + c.precond_rebuilds).max(1) as f64,
        "frac",
    );
    p.set(
        "core.cg_iters_per_solve",
        iterations as f64 / solves.max(1) as f64,
        "iter/solve",
    );
}

/// Median wall time per call (µs) of `f`, repeated for at least
/// `min_s` seconds and `min_calls` calls.
pub fn time_per_call_us(min_s: f64, min_calls: usize, mut f: impl FnMut()) -> (f64, usize) {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_calls || start.elapsed() < Duration::from_secs_f64(min_s) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (crate::stats::median(&samples), samples.len())
}

pub fn reference_path(name: &str) -> String {
    format!("perfbench/reference/{name}.json")
}

pub fn load_reference(name: &str) -> Result<Value, String> {
    let path = reference_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

pub fn write_reference(name: &str, value: &Value) -> std::io::Result<()> {
    let path = reference_path(name);
    std::fs::write(&path, value.to_json() + "\n")?;
    eprintln!("wrote {path}");
    Ok(())
}

pub fn f64_array(v: &Value) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(Value::as_f64).collect()
}

pub fn num_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::num(x)).collect())
}

/// Largest absolute difference between two equally long vectors
/// (infinite on a length mismatch).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .map(|d| if d.is_nan() { f64::INFINITY } else { d })
        .fold(0.0, f64::max)
}
