//! Machine-speed calibration of the end-to-end timings.
//!
//! On a shared host each core's speed flips between levels within 0.1–1 s,
//! independently per core, as other tenants come and go on the same
//! physical core; the mix drifts over tens of seconds. On the 2-core
//! development box a fixed sparse kernel took 3.7 ms or 6.2 ms per chunk
//! depending on the moment, and one Fig. 7 transient took 8–11 s. Longer
//! runs average the flips but not the drift. So the benchmark times chunks
//! of a fixed kernel while the work runs: a CSR sparse matrix-vector product
//! and a forward Gauss–Seidel sweep on a 21³ seven-point Laplacian, close in
//! size and access pattern to the paper-grid solves. The kernel belongs to
//! the benchmark, not to the program, so `NOMINAL_SWEEP_S` over its mean
//! time per sweep tracks only the machine, and a timing multiplied by that
//! factor reads in seconds on a machine where one sweep takes
//! `NOMINAL_SWEEP_S`.
//!
//! The chunks must run during the work, on the same cores. With one chunk
//! after each step of the paper transient, the transient-to-transient
//! coefficient of variation fell from 10.3% to 2.4% over 22 transients;
//! chunks only before and after each transient did not track it at all.
//! Where the work runs inside the layers' own threads, a `Sampler` times
//! short chunks on a background thread instead; they land on either core. The report line keeps every raw wall-clock value next to the
//! calibrated one.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Edge of the calibration grid (21³ = 9261 unknowns, like the paper
/// mesh's 9044).
const EDGE: usize = 21;
/// Sweeps (a matrix-vector product and a Gauss–Seidel sweep) per chunk
/// interleaved with the work, and per chunk of the background sampler.
const SWEEPS: usize = 20;
const SAMPLER_SWEEPS: usize = 4;
/// Time per sweep (s) the reported timings are scaled to: about what one
/// sweep takes on the 2-core development box in a quiet stretch.
pub const NOMINAL_SWEEP_S: f64 = 0.25e-3;

/// The calibration kernel's state and every chunk time it measured.
pub struct Calibrator {
    ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    sweeps: usize,
    /// Every chunk's time per sweep (s) of the run, for the report.
    pub chunks: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let m = EDGE;
        let id = |i: usize, j: usize, k: usize| (i * m + j) * m + k;
        let (mut ptr, mut col, mut val) = (vec![0u32], Vec::new(), Vec::new());
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    let mut entries = Vec::with_capacity(7);
                    if i > 0 {
                        entries.push((id(i - 1, j, k), -1.0));
                    }
                    if j > 0 {
                        entries.push((id(i, j - 1, k), -1.0));
                    }
                    if k > 0 {
                        entries.push((id(i, j, k - 1), -1.0));
                    }
                    entries.push((id(i, j, k), 6.1));
                    if k + 1 < m {
                        entries.push((id(i, j, k + 1), -1.0));
                    }
                    if j + 1 < m {
                        entries.push((id(i, j + 1, k), -1.0));
                    }
                    if i + 1 < m {
                        entries.push((id(i + 1, j, k), -1.0));
                    }
                    for (c, v) in entries {
                        col.push(c as u32);
                        val.push(v);
                    }
                    ptr.push(col.len() as u32);
                }
            }
        }
        let n = m * m * m;
        Calibrator {
            ptr,
            col,
            val,
            x: vec![1.0; n],
            y: vec![0.0; n],
            sweeps: SWEEPS,
            chunks: Vec::new(),
        }
    }
}

impl Calibrator {
    /// One chunk: `sweeps` times y = A·x, then a damped forward sweep
    /// x ← 0.1·(D + L)⁻¹ y + 0.5, a contraction that keeps x away from 0
    /// and infinity. Returns the chunk's wall time per sweep (s).
    fn chunk(&mut self) -> f64 {
        let t0 = Instant::now();
        let n = self.x.len();
        for _ in 0..self.sweeps {
            for r in 0..n {
                let (a, b) = (self.ptr[r] as usize, self.ptr[r + 1] as usize);
                let mut s = 0.0;
                for p in a..b {
                    s += self.val[p] * self.x[self.col[p] as usize];
                }
                self.y[r] = s;
            }
            for r in 0..n {
                let (a, b) = (self.ptr[r] as usize, self.ptr[r + 1] as usize);
                let (mut s, mut d) = (self.y[r], 1.0);
                for p in a..b {
                    let c = self.col[p] as usize;
                    if c < r {
                        s -= self.val[p] * self.x[c];
                    } else if c == r {
                        d = self.val[p];
                    }
                }
                self.x[r] = 0.1 * s / d + 0.5;
            }
            black_box(&mut self.x);
        }
        t0.elapsed().as_secs_f64() / self.sweeps as f64
    }

    /// Times one chunk, keeps it for the report and returns its time per
    /// sweep (s).
    pub fn sample(&mut self) -> f64 {
        let t = self.chunk();
        self.chunks.push(t);
        t
    }
}

/// The factor that scales a wall time measured among `chunks` (times per
/// sweep) to the nominal machine: `NOMINAL_SWEEP_S` over their mean, so
/// that a chunk slowed by a short stall weighs as much as work slowed by it.
pub fn scale(chunks: &[f64]) -> f64 {
    NOMINAL_SWEEP_S * chunks.len() as f64 / chunks.iter().sum::<f64>()
}

/// A background thread that times a short chunk every `period`, on
/// whichever core is free, from `start` until `finish`. One thread serves a
/// whole run: a thread started for each unit of work took a per-thread
/// allocator arena freed by the program's last worker threads, so the next
/// workers allocated afresh and `uq-campaign`'s peak resident set jumped by
/// 150 MB in 4 of 10 runs.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<(Instant, f64)>>>,
}

impl Sampler {
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut cal = Calibrator {
                sweeps: SAMPLER_SWEEPS,
                ..Calibrator::default()
            };
            let mut chunks = Vec::with_capacity(1 << 12);
            while !flag.load(Ordering::Relaxed) {
                let started = Instant::now();
                chunks.push((started, cal.chunk()));
                std::thread::sleep(period);
            }
            chunks
        });
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the thread and returns every chunk: its start and its time
    /// per sweep (s).
    pub fn finish(mut self) -> Vec<(Instant, f64)> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Vec<(Instant, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().expect("calibration sampler panicked"))
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Times per sweep (s) of the sampled chunks that started in `[from, to)`.
pub fn within(chunks: &[(Instant, f64)], from: Instant, to: Instant) -> Vec<f64> {
    chunks
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|&(_, dt)| dt)
        .collect()
}
