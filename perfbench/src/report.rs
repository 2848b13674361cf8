//! What a run reports: metrics by name and unit, output checks, the sample
//! count behind each timing, and the run envelope.

use etherm_serve::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.insert(name.into(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.0.keys().cloned().collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, (value, unit))| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::num(*value)),
                            ("unit".to_string(), Value::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// One output check: a comparison against stored reference values or an
/// identity the layers promise.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The sample count and statistic behind one reported timing.
pub struct Timing {
    pub metric: String,
    pub samples: usize,
    pub statistic: String,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (steps, samples or requests).
    pub attempted: u64,
    /// Operations that failed, were refused or failed an output check.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Metrics,
    /// Wall-clock values of the calibrated end-to-end timings.
    pub raw: Metrics,
    /// Every calibration chunk time (s) of the run.
    pub calibration: Vec<f64>,
    pub per_layer: Metrics,
    pub timings: Vec<Timing>,
    /// Threads the workload runs its layers on.
    pub threads: usize,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) -> bool {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
        ok
    }

    /// Sets an end-to-end timing: `calibrated` is reported, `raw` (its
    /// wall-clock value) goes to the report line.
    pub fn set_calibrated(&mut self, name: &str, calibrated: f64, raw: f64, unit: &str) {
        self.end_to_end.set(name, calibrated, unit);
        self.raw.set(name, raw, unit);
    }

    pub fn timing(&mut self, metric: &str, samples: usize, statistic: &str) {
        self.timings.push(Timing {
            metric: metric.to_string(),
            samples,
            statistic: statistic.to_string(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `git rev-parse HEAD` when the working directory is a git checkout (git
/// is not asked to search parent directories).
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unavailable (not a git checkout)".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// FNV-1a over every source file the benchmark builds from, in path order:
/// identifies the code under test when the checkout carries no git history.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
    })
}

/// Revision, toolchain, build profile, threads, cores and host of a run.
pub fn envelope(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu =
        first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("workload".to_string(), Value::str(workload)),
        ("seed".to_string(), Value::uint(seed)),
        ("seconds".to_string(), Value::num(seconds)),
        ("trace".to_string(), Value::Bool(trace)),
        ("git_revision".to_string(), Value::str(&git_revision())),
        (
            "source_fnv1a".to_string(),
            Value::str(&source_fingerprint()),
        ),
        ("rustc".to_string(), Value::str(env!("PERFBENCH_RUSTC"))),
        ("profile".to_string(), Value::str(env!("PERFBENCH_PROFILE"))),
        ("threads".to_string(), Value::uint(threads as u64)),
        ("nproc".to_string(), Value::uint(nproc as u64)),
        ("host".to_string(), Value::str(&host)),
        ("cpu".to_string(), Value::str(&cpu)),
    ])
}
