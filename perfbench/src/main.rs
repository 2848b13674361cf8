//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-transient|uq-campaign|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <workload>
//! ```
//!
//! Drives the layers only through their public items, checks the outputs
//! against stored references, and prints one JSON report line followed by
//! the result line: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 1 when an output check fails, 2 on bad arguments or set-up.

mod calib;
mod common;
mod kernels;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;
mod uq;

use etherm_serve::json::{self, Value};
use report::{envelope, peak_rss_mb, Outcome};
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["paper-transient", "uq-campaign", "serve-mixed"];
const LAYER_MAP: &str = include_str!("../layer_map.json");

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Enabled only with `--trace 1`.
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    if let Some(w) = value("--write-reference") {
        return Ok(Args {
            workload: w.to_string(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            write_reference: true,
        });
    }
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_reference: false,
    })
}

/// One per-layer metric as declared in `layer_map.json`.
struct Declared {
    name: String,
    unit: String,
    workloads: Vec<String>,
}

fn declared_layers() -> Result<Vec<Declared>, String> {
    let map = json::parse(LAYER_MAP).map_err(|e| format!("layer_map.json: {e:?}"))?;
    map.get("per_layer")
        .and_then(Value::as_array)
        .ok_or("layer_map.json lacks per_layer")?
        .iter()
        .map(|row| {
            let text = |k: &str| row.get(k).and_then(Value::as_str).map(str::to_string);
            Ok(Declared {
                name: text("name").ok_or("layer_map row lacks name")?,
                unit: text("unit").ok_or("layer_map row lacks unit")?,
                workloads: row
                    .get("workloads")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|w| w.as_str().map(str::to_string))
                    .collect(),
            })
        })
        .collect()
}

/// Names listed under `section` of the repository's `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let rows = v
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json lacks {section}"))?;
    Ok(rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Value::as_str).map(str::to_string))
        .collect())
}

/// Completes the per-layer metrics of a traced run: self time per layer,
/// zeros for layers the workload does not load, and checks that every
/// metric the map says this workload measures was measured.
fn finish_layers(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = tracer.spans();
    for (layer, secs) in trace::self_seconds(&spans) {
        out.per_layer
            .set(format!("trace.self_s.{layer}"), secs, "s");
    }
    let declared = declared_layers()?;
    let mut missing = Vec::new();
    for d in &declared {
        if out.per_layer.get(&d.name).is_none() {
            if d.workloads.iter().any(|w| w == workload) {
                missing.push(d.name.clone());
            }
            out.per_layer.set(d.name.clone(), 0.0, &d.unit);
        }
    }
    out.check(
        "every per-layer metric this workload loads was measured",
        missing.is_empty(),
        format!("missing: {missing:?}"),
    );
    std::fs::create_dir_all("perfbench/out").map_err(|e| format!("perfbench/out: {e}"))?;
    let path = format!("perfbench/out/trace-{workload}-seed{seed}.json");
    let doc = Value::Object(vec![
        ("workload".to_string(), Value::str(workload)),
        ("spans".to_string(), trace::to_json(&spans)),
    ]);
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    eprintln!("{} spans written to {path}", spans.len());
    Ok(())
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return 2;
        }
    };
    if args.write_reference {
        let written = match args.workload.as_str() {
            "paper-transient" => paper::write(),
            "uq-campaign" => uq::write(),
            "serve-mixed" => serve::write(),
            other => Err(format!("unknown workload {other}")),
        };
        return match written {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        };
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tracer: Tracer::new(args.trace),
    };
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "paper-transient" => paper::run(&ctx),
        "uq-campaign" => uq::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        other => Err(format!(
            "unknown workload {other}; expected one of {WORKLOADS:?}"
        )),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    if args.trace {
        if let Err(e) = finish_layers(&args.workload, args.seed, &ctx.tracer, &mut out) {
            out.check("trace output", false, e);
        }
    }
    let (metrics, section) = if args.trace {
        (&out.per_layer, "per_layer")
    } else {
        (&out.end_to_end, "end_to_end")
    };
    let printed = metrics.names();
    match benchmark_names(section) {
        Ok(mut declared) => {
            declared.sort();
            let same = declared == printed;
            out.check(
                format!("printed metrics are exactly BENCHMARK.json's {section}"),
                same,
                format!("declared {declared:?}, printed {printed:?}"),
            );
        }
        Err(e) => {
            out.check("BENCHMARK.json readable", false, e);
        }
    }

    let checks = Value::Array(
        out.checks
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".to_string(), Value::str(&c.name)),
                    ("ok".to_string(), Value::Bool(c.ok)),
                    ("detail".to_string(), Value::str(&c.detail)),
                ])
            })
            .collect(),
    );
    let timings = Value::Array(
        out.timings
            .iter()
            .map(|t| {
                Value::Object(vec![
                    ("metric".to_string(), Value::str(&t.metric)),
                    ("samples".to_string(), Value::uint(t.samples as u64)),
                    ("statistic".to_string(), Value::str(&t.statistic)),
                ])
            })
            .collect(),
    );
    let correct = out.correct();
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("CHECK FAILED: {}: {}", c.name, c.detail);
    }
    let report = Value::Object(vec![(
        "report".to_string(),
        Value::Object(vec![
            (
                "envelope".to_string(),
                envelope(
                    &args.workload,
                    args.seed,
                    args.seconds,
                    args.trace,
                    out.threads,
                ),
            ),
            (
                "run_wall_s".to_string(),
                Value::num(started.elapsed().as_secs_f64()),
            ),
            ("end_to_end".to_string(), out.end_to_end.to_json()),
            ("end_to_end_wall_clock".to_string(), out.raw.to_json()),
            (
                "calibration".to_string(),
                Value::Object(vec![
                    (
                        "chunks".to_string(),
                        Value::uint(out.calibration.len() as u64),
                    ),
                    (
                        "mean_sweep_us".to_string(),
                        Value::num(
                            out.calibration.iter().sum::<f64>() * 1e6
                                / out.calibration.len() as f64,
                        ),
                    ),
                    (
                        "nominal_sweep_us".to_string(),
                        Value::num(calib::NOMINAL_SWEEP_S * 1e6),
                    ),
                ]),
            ),
            ("per_layer".to_string(), out.per_layer.to_json()),
            ("timings".to_string(), timings),
            ("checks".to_string(), checks),
        ]),
    )]);
    println!("{}", report.to_json());
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::uint(out.attempted)),
        ("failed".to_string(), Value::uint(out.failed)),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    println!("{}", line.to_json());
    if correct {
        0
    } else {
        1
    }
}
