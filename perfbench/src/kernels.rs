//! The numerics side-measurement: the kernels the solver spends its steps
//! in, timed alone on an operator with the workload's grid and pattern.
//!
//! The operator is the FIT conduction stiffness of the paper grid
//! (`etherm_grid::operators::assemble_stiffness`, unit conductivity) plus
//! the implicit-Euler mass shift `ρc·V/Δt` (mold ρc of the Fig. 7 preset,
//! Δt = 1 s): the same n and 7-point pattern as the thermal system. Widths
//! 1 and 16 are the scalar (`paper-transient`) and panel (`uq-campaign`)
//! paths. Bytes moved are *computed* from the storage layout, not measured.

use crate::common::{stream, time_per_call_us};
use crate::report::Outcome;
use crate::trace::Tracer;
use etherm_grid::{operators::assemble_stiffness, Grid3};
use etherm_numerics::solvers::{
    block_pcg_with, pcg_with, AmgOptions, AmgPrecond, AmgSmoother, BlockKrylovWorkspace, CgOptions,
    IncompleteCholesky, KrylovWorkspace, Preconditioner,
};
use etherm_numerics::{Csr, MultiVec};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const MOLD_RHO_C: f64 = 4.0e4;
const DT_S: f64 = 1.0;
const PANEL: usize = 16;
/// Minimum time and calls per timed kernel.
const MIN_S: f64 = 0.15;
const MIN_CALLS: usize = 5;

fn operator(grid: &Grid3) -> Csr {
    let weights: Vec<f64> = (0..grid.n_edges())
        .map(|e| grid.dual_area(e) / grid.edge_length(e))
        .collect();
    let mut a = assemble_stiffness(grid, &weights);
    let mass: Vec<f64> = (0..grid.n_nodes())
        .map(|n| MOLD_RHO_C * grid.dual_volume(n) / DT_S)
        .collect();
    a.add_diag(&mass);
    a
}

fn panel(n: usize, k: usize, rng: &mut StdRng) -> MultiVec {
    let mut x = MultiVec::zeros(n, k);
    for v in x.as_mut_slice() {
        *v = 0.5 + rng.gen::<f64>();
    }
    x
}

fn set(out: &mut Outcome, name: &str, value: f64, unit: &str, calls: usize) {
    out.per_layer.set(format!("numerics.{name}"), value, unit);
    out.timing(&format!("numerics.{name}"), calls, "median over calls");
}

fn seconds_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

pub fn measure(grid: &Grid3, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let a = operator(grid);
    let n = a.n_rows();
    let x_true = panel(n, PANEL, &mut stream(seed, 7));
    let mut b = MultiVec::zeros(n, PANEL);
    a.spmm_into(&x_true, &mut b);
    let x1 = x_true.col_vec(0);
    let b1 = b.col_vec(0);
    let mut y1 = vec![0.0; n];
    let opts = CgOptions::with_tol(1e-9);

    let (us, calls) = {
        let _s = tracer.span("numerics.spmv", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            a.spmv(black_box(&x1), black_box(&mut y1))
        })
    };
    set(out, "spmv_us", us, "us", calls);
    let x_k1 = {
        let mut p = MultiVec::zeros(n, 1);
        p.copy_col_from(0, &x1);
        p
    };
    let mut y_k1 = MultiVec::zeros(n, 1);
    let (us, calls) = {
        let _s = tracer.span("numerics.spmm_k1", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            a.spmm_into(black_box(&x_k1), black_box(&mut y_k1))
        })
    };
    set(out, "spmm_k1_us", us, "us", calls);
    let mut y_k16 = MultiVec::zeros(n, PANEL);
    let (us, calls) = {
        let _s = tracer.span("numerics.spmm_k16", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            a.spmm_into(black_box(&x_true), black_box(&mut y_k16))
        })
    };
    set(out, "spmm_k16_us_per_col", us / PANEL as f64, "us", calls);
    // CSR storage: values and column indices per stored entry, row
    // pointers per row; one read of x and one write of y.
    let word = std::mem::size_of::<f64>();
    let index = std::mem::size_of::<usize>();
    let bytes = a.nnz() * (word + index) + (n + 1) * index + 2 * n * word;
    out.per_layer
        .set("numerics.spmv_bytes_computed", bytes as f64, "B");

    // IC(1) with the solver's default drop tolerance.
    let (ic, calls, build_us) = {
        let _s = tracer.span("numerics.ic1_build", 0, 0);
        let mut last = None;
        let (us, calls) = time_per_call_us(MIN_S, MIN_CALLS, || {
            last = IncompleteCholesky::with_fill_drop(&a, 1, 0.01).ok();
        });
        (last, calls, us)
    };
    let Some(mut ic) = ic else {
        out.check(
            "numerics: IC(1) factorization",
            false,
            "factorization failed",
        );
        return;
    };
    set(out, "ic1_build_ms", build_us * 1e-3, "ms", calls);
    let (us, calls) = {
        let _s = tracer.span("numerics.ic1_refresh", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            let _ = black_box(ic.refresh(&a));
        })
    };
    set(out, "ic1_refresh_ms", us * 1e-3, "ms", calls);
    let mut z1 = vec![0.0; n];
    let (us, calls) = {
        let _s = tracer.span("numerics.ic1_apply", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            ic.apply(black_box(&b1), black_box(&mut z1))
        })
    };
    set(out, "ic1_apply_us", us, "us", calls);

    // Smoothed-aggregation AMG as the solver builds it for `PrecondKind::amg()`.
    let amg_options = AmgOptions {
        strength_theta: 0.08,
        smoother: AmgSmoother::Ssor {
            omega: 1.0,
            sweeps: 1,
        },
        ..AmgOptions::default()
    };
    let (amg, calls, build_us) = {
        let _s = tracer.span("numerics.amg_build", 0, 0);
        let mut last = None;
        let (us, calls) = time_per_call_us(MIN_S, MIN_CALLS, || {
            last = AmgPrecond::new(&a, amg_options).ok();
        });
        (last, calls, us)
    };
    let Some(mut amg) = amg else {
        out.check("numerics: AMG hierarchy", false, "set-up failed");
        return;
    };
    set(out, "amg_build_ms", build_us * 1e-3, "ms", calls);
    let (us, calls) = {
        let _s = tracer.span("numerics.amg_refresh", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            let _ = black_box(amg.refresh(&a));
        })
    };
    set(out, "amg_refresh_ms", us * 1e-3, "ms", calls);
    let (us, calls) = {
        let _s = tracer.span("numerics.amg_apply", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            amg.apply(black_box(&b1), black_box(&mut z1))
        })
    };
    set(out, "amg_apply_us", us, "us", calls);
    let mut z16 = MultiVec::zeros(n, PANEL);
    let (us, calls) = {
        let _s = tracer.span("numerics.amg_apply_block_k16", 0, 0);
        time_per_call_us(MIN_S, MIN_CALLS, || {
            amg.apply_block(black_box(&b), black_box(&mut z16))
        })
    };
    set(
        out,
        "amg_apply_block_k16_us_per_col",
        us / PANEL as f64,
        "us",
        calls,
    );

    // Whole solves from a zero guess: scalar PCG, the panel solver at
    // k = 1 (same preconditioner: must take the same iterations) and the
    // panel solver at k = 16 with AMG.
    let mut ws = KrylovWorkspace::new();
    let mut x = vec![0.0; n];
    let mut report = None;
    let (us, calls) = {
        let _s = tracer.span("numerics.pcg_ic1", 0, 0);
        time_per_call_us(MIN_S, 3, || {
            x.iter_mut().for_each(|v| *v = 0.0);
            report = pcg_with(&a, &b1, &mut x, &ic, &opts, &mut ws).ok();
        })
    };
    set(out, "pcg_ic1_ms", us * 1e-3, "ms", calls);
    let scalar_iters = report.map(|r| r.iterations);
    let err = x
        .iter()
        .zip(&x1)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    out.check(
        "numerics: PCG-IC(1) solves the paper-grid operator",
        report.is_some_and(|r| r.converged) && err < 1e-5,
        format!("{report:?}, max |x − x*| = {err:.2e}"),
    );
    out.per_layer.set(
        "numerics.pcg_iterations",
        scalar_iters.unwrap_or(0) as f64,
        "count",
    );

    let mut bws = BlockKrylovWorkspace::new();
    let mut reports = Vec::new();
    let b_k1 = {
        let mut p = MultiVec::zeros(n, 1);
        p.copy_col_from(0, &b1);
        p
    };
    let mut x_k1 = MultiVec::zeros(n, 1);
    let mut k1_iters = None;
    let (us, calls) = {
        let _s = tracer.span("numerics.block_pcg_k1", 0, 0);
        time_per_call_us(MIN_S, 3, || {
            x_k1.fill(0.0);
            k1_iters = block_pcg_with(&a, &b_k1, &mut x_k1, &ic, &opts, &mut bws, &mut reports)
                .ok()
                .and_then(|()| reports.first().map(|r| r.iterations));
        })
    };
    set(out, "block_pcg_k1_ms", us * 1e-3, "ms", calls);
    out.check(
        "numerics: block PCG at k = 1 takes the scalar PCG's iterations",
        k1_iters.is_some() && k1_iters == scalar_iters,
        format!("block {k1_iters:?} vs scalar {scalar_iters:?}"),
    );

    let mut x16 = MultiVec::zeros(n, PANEL);
    let (ok, secs): (Vec<bool>, Vec<f64>) = {
        let _s = tracer.span("numerics.block_pcg_amg_k16", 0, 0);
        (0..3)
            .map(|_| {
                x16.fill(0.0);
                seconds_of(|| {
                    block_pcg_with(&a, &b, &mut x16, &amg, &opts, &mut bws, &mut reports).is_ok()
                        && reports.iter().all(|r| r.converged)
                })
            })
            .unzip()
    };
    set(
        out,
        "block_pcg_amg_k16_ms_per_col",
        crate::stats::median(&secs) * 1e3 / PANEL as f64,
        "ms",
        secs.len(),
    );
    out.check(
        "numerics: block PCG-AMG at k = 16 converges every column",
        ok.iter().all(|&o| o),
        format!("{} solves", ok.len()),
    );
}
