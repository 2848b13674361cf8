//! `paper-transient`: the paper's Fig. 7 run — the 28-pad/12-wire package
//! on the paper mesh (0.42/0.22 mm), `SolverOptions::default()`, nominal
//! wires, one thread, 50 implicit-Euler steps over 50 s.
//!
//! One `Session::run_transient` warms the session up and fixes the solver
//! counts. The measurement window then repeats the same transient as a loop
//! over `Session::step`, which must reproduce those counts exactly, with a
//! calibration chunk before the first step and after each step (see
//! `calib`). A transient's time is the sum of its step times, calibrated by
//! the mean of its chunks, and a step's latency is calibrated by the two
//! chunks beside it: a whole `run_transient` cannot be interleaved with
//! calibration, and on a shared host the speed changes within one
//! transient. Every run must give the stored per-wire peak temperatures.

use crate::calib::{scale, Calibrator};
use crate::common::{
    f64_array, load_reference, max_abs_diff, measure_setup, num_array, paper_options,
    report_counters, report_steps, run_stepped, set_up, write_reference, Stepped,
};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Ctx;
use etherm_core::{Session, SolveCounters, SolverOptions, TransientSolution};
use etherm_serve::json::Value;
use std::time::Instant;

pub const MESH_XY: f64 = 0.42e-3;
pub const MESH_Z: f64 = 0.22e-3;
const T_END: f64 = 50.0;
const STEPS: usize = 50;
const SETUP_REPEATS: usize = 15;
/// Step-loop transients timed at least, however short `--seconds`.
const MIN_TRANSIENTS: usize = 2;
/// Latency limit of one implicit-Euler step (`slo_met_frac`).
const STEP_LIMIT_MS: f64 = 1000.0;
const REFERENCE: &str = "paper_transient";

/// Peak of the wire-averaged temperature per wire over a run (K).
pub fn wire_peaks(sol: &TransientSolution) -> Vec<f64> {
    (0..sol.n_wires())
        .map(|j| {
            sol.wire_series(j)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// The stored per-wire peaks and their tolerance.
struct Expected {
    peaks: Vec<f64>,
    tol: f64,
}

impl Expected {
    /// Records the comparison of `peaks` with the reference; true if it holds.
    fn check(&self, what: String, peaks: &[f64], out: &mut Outcome) -> bool {
        let diff = max_abs_diff(peaks, &self.peaks);
        out.check(
            format!("{what}: per-wire peaks match the reference"),
            diff <= self.tol,
            format!("max |ΔT| = {diff:.3e} K (tolerance {:e} K)", self.tol),
        )
    }
}

/// One timed `Session::run_transient` from a reset session: its wall time
/// and solver counts, or `None` (counted as failed) on error or a wrong
/// result.
fn whole_rep(
    session: &mut Session,
    tracer: &Tracer,
    expect: &Expected,
    out: &mut Outcome,
) -> Option<(f64, SolveCounters)> {
    out.attempted += STEPS as u64;
    session.reset();
    session.reset_counters();
    let t0 = Instant::now();
    let result = {
        let _s = tracer.span("core.session.run_transient", 0, 0);
        session.run_transient(T_END, STEPS, &[])
    };
    let wall = t0.elapsed().as_secs_f64();
    let ok = match &result {
        Ok(sol) => expect.check("run_transient".to_string(), &wire_peaks(sol), out),
        Err(e) => out.check("run_transient", false, e.to_string()),
    };
    if !ok {
        out.failed += STEPS as u64;
        return None;
    }
    Some((wall, session.counters()))
}

/// One transient stepped through `Session::step` with calibration chunks
/// between the steps; it must match the reference and reproduce
/// `run_transient`'s counts.
fn stepped_rep(
    session: &mut Session,
    tracer: &Tracer,
    cal: &mut Calibrator,
    rep: u64,
    counters: SolveCounters,
    expect: &Expected,
    out: &mut Outcome,
) -> Option<Stepped> {
    out.attempted += STEPS as u64;
    let parent = tracer.span("core.session.transient", 0, rep);
    match run_stepped(session, T_END, STEPS, tracer, parent.id(), Some(cal)) {
        Ok(run) => {
            let peaks_ok = expect.check(format!("Session::step rep {rep}"), &run.wire_peaks, out);
            let counts_ok = out.check(
                format!("Session::step rep {rep}: reproduces run_transient's counts"),
                counters == run.counters,
                format!("step loop {:?} vs run_transient {counters:?}", run.counters),
            );
            if peaks_ok && counts_ok {
                return Some(run);
            }
        }
        Err(e) => {
            out.check(format!("Session::step rep {rep}"), false, e.to_string());
        }
    }
    out.failed += STEPS as u64;
    None
}

/// Seconds spent in `Session::step` calls over a stepped transient.
fn step_seconds(run: &Stepped) -> f64 {
    run.step_ms.iter().sum::<f64>() * 1e-3
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = load_reference(REFERENCE)?;
    let ref_peaks = reference
        .get("wire_peak_k")
        .and_then(f64_array)
        .ok_or("reference lacks wire_peak_k")?;
    let tol = reference
        .get("tolerance_k")
        .and_then(Value::as_f64)
        .ok_or("reference lacks tolerance_k")?;

    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let build = paper_options(MESH_XY, MESH_Z);
    let mut setup = measure_setup(
        &build,
        &SolverOptions::default(),
        SETUP_REPEATS,
        &ctx.tracer,
        &mut out,
        true,
    )
    .map_err(|e| format!("set-up failed: {e}"))?;
    let session = &mut setup.session;

    let expect = Expected {
        peaks: ref_peaks,
        tol,
    };
    let (whole_s, counters) = whole_rep(session, &ctx.tracer, &expect, &mut out)
        .ok_or("the warm-up run_transient failed its check")?;
    out.raw.set("run_transient_s", whole_s, "s");

    // Traced runs alternate traced and untraced step loops, so the two are
    // compared under the same machine load.
    let mut cal = Calibrator::default();
    let untraced = Tracer::default();
    let mut plain: Vec<Stepped> = Vec::new();
    let mut traced: Vec<Stepped> = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    let mut rep = 1u64;
    while plain.len() < MIN_TRANSIENTS
        || (ctx.trace && traced.is_empty())
        || start.elapsed().as_secs_f64() + last_s <= ctx.seconds
    {
        let trace_this = ctx.trace && rep.is_multiple_of(2);
        let tracer = if trace_this { &ctx.tracer } else { &untraced };
        let t0 = Instant::now();
        let run = stepped_rep(session, tracer, &mut cal, rep, counters, &expect, &mut out);
        last_s = t0.elapsed().as_secs_f64();
        match run {
            Some(run) if trace_this => traced.push(run),
            Some(run) => plain.push(run),
            None if out.failed > 3 * STEPS as u64 => break,
            None => {}
        }
        rep += 1;
    }

    let factors: Vec<f64> = plain.iter().map(|r| scale(&r.cal_chunks)).collect();
    let raw_s: Vec<f64> = plain.iter().map(step_seconds).collect();
    let cal_s: Vec<f64> = raw_s.iter().zip(&factors).map(|(s, f)| s * f).collect();
    let rate = |secs: &[f64]| median(&secs.iter().map(|s| 1.0 / s).collect::<Vec<_>>());
    out.set_calibrated("time_to_solution_s", median(&cal_s), median(&raw_s), "s");
    out.set_calibrated("samples_per_s", rate(&cal_s), rate(&raw_s), "1/s");
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    // A step's state of the machine is that of the chunks on either side.
    let steps_cal: Vec<f64> = plain
        .iter()
        .flat_map(|r| {
            r.step_ms
                .iter()
                .enumerate()
                .map(|(i, ms)| ms * scale(&r.cal_chunks[i..i + 2]))
        })
        .collect();
    out.set_calibrated("latency_p50_ms", median(&steps_cal), median(&steps), "ms");
    out.set_calibrated(
        "latency_p95_ms",
        quantile(&steps_cal, 0.95),
        quantile(&steps, 0.95),
        "ms",
    );
    let met = steps.iter().filter(|&&ms| ms <= STEP_LIMIT_MS).count();
    out.end_to_end.set(
        "slo_met_frac",
        met as f64 / steps.len().max(1) as f64,
        "frac",
    );
    let per_transient = "median over step-loop transients: the sum of the Session::step times, \
                         calibrated by the mean of the transient's chunks";
    out.timing("time_to_solution_s", plain.len(), per_transient);
    out.timing("samples_per_s", plain.len(), per_transient);
    out.timing(
        "latency_p50_ms",
        steps.len(),
        "median over Session::step calls, each calibrated by the chunks on either side",
    );
    out.timing(
        "latency_p95_ms",
        steps.len(),
        "p95 over Session::step calls, each calibrated by the chunks on either side",
    );
    out.timing("slo_met_frac", steps.len(), "steps within 1000 ms");

    if ctx.trace {
        report_steps(&traced, &mut out);
        report_counters(&counters, &mut out);
        let traced_s: Vec<f64> = traced.iter().map(step_seconds).collect();
        out.per_layer.set(
            "trace.overhead_frac",
            median(&traced_s) / median(&raw_s) - 1.0,
            "frac",
        );
        out.timing(
            "trace.overhead_frac",
            traced_s.len() + raw_s.len(),
            "median traced over median untraced step-loop time, minus 1",
        );
        crate::kernels::measure(setup.built.model.grid(), ctx.seed, &ctx.tracer, &mut out);
    }
    out.calibration = cal.chunks;
    Ok(out)
}

pub fn write() -> Result<(), String> {
    let mut setup = set_up(
        &paper_options(MESH_XY, MESH_Z),
        SolverOptions::default(),
        &Tracer::default(),
        0,
    )
    .map_err(|e| e.to_string())?;
    let sol = setup
        .session
        .run_transient(T_END, STEPS, &[])
        .map_err(|e| e.to_string())?;
    let c = setup.session.counters();
    let value = Value::Object(vec![
        (
            "computed_by".to_string(),
            Value::str("Session::run_transient, SolverOptions::default(), 1 thread"),
        ),
        ("t_end_s".to_string(), Value::num(T_END)),
        ("steps".to_string(), Value::uint(STEPS as u64)),
        (
            "dofs".to_string(),
            Value::uint(setup.compiled.layout().n_total() as u64),
        ),
        ("tolerance_k".to_string(), Value::num(1e-3)),
        (
            "picard_iterations".to_string(),
            Value::uint(c.picard_iterations as u64),
        ),
        (
            "cg_iterations".to_string(),
            Value::uint((c.electrical_iterations + c.thermal_iterations) as u64),
        ),
        ("wire_peak_k".to_string(), num_array(&wire_peaks(&sol))),
    ]);
    write_reference(REFERENCE, &value).map_err(|e| e.to_string())
}
