//! **A7** — linear-solver comparison on a package-like FIT matrix:
//! CG (no preconditioner) vs Jacobi vs IC(0).

use criterion::{criterion_group, criterion_main, Criterion};
use etherm_grid::{operators, Axis, Grid3};
use etherm_numerics::solvers::{cg, pcg, CgOptions, IncompleteCholesky, JacobiPrecond};
use etherm_numerics::sparse::Csr;
use std::hint::black_box;

/// A two-material (copper-in-epoxy-like, contrast 457×) thermal matrix.
fn system() -> (Csr, Vec<f64>) {
    let g = Grid3::new(
        Axis::uniform(0.0, 6e-3, 20).unwrap(),
        Axis::uniform(0.0, 6e-3, 20).unwrap(),
        Axis::uniform(0.0, 0.8e-3, 5).unwrap(),
    );
    let m: Vec<f64> = (0..g.n_edges())
        .map(|e| {
            let (a, _) = g.edge_endpoints(e);
            let (x, y, _) = g.node_position(a);
            let lam = if (1.5e-3..4.5e-3).contains(&x) && (1.5e-3..4.5e-3).contains(&y) {
                398.0
            } else {
                0.87
            };
            lam * g.dual_area(e) / g.edge_length(e)
        })
        .collect();
    let mut k = operators::assemble_stiffness(&g, &m);
    // Robin-like diagonal to make it SPD.
    let diag: Vec<f64> = (0..g.n_nodes()).map(|n| 25.0 * g.total_boundary_area(n) + 1e-9).collect();
    k.add_diag(&diag);
    let b: Vec<f64> = (0..k.n_rows()).map(|i| ((i % 97) as f64 - 48.0) * 1e-3).collect();
    (k, b)
}

fn bench_solvers(c: &mut Criterion) {
    let (k, b) = system();
    let opts = CgOptions::with_tol(1e-8);
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);

    group.bench_function("cg (no preconditioner)", |bch| {
        bch.iter(|| {
            let mut x = vec![0.0; k.n_rows()];
            let r = cg(&k, &b, &mut x, &opts).unwrap();
            black_box((r.iterations, x[0]));
        })
    });
    group.bench_function("pcg + jacobi", |bch| {
        let p = JacobiPrecond::new(&k).unwrap();
        bch.iter(|| {
            let mut x = vec![0.0; k.n_rows()];
            let r = pcg(&k, &b, &mut x, &p, &opts).unwrap();
            black_box((r.iterations, x[0]));
        })
    });
    group.bench_function("pcg + ic0 (incl. factorization)", |bch| {
        bch.iter(|| {
            let p = IncompleteCholesky::new(&k).unwrap();
            let mut x = vec![0.0; k.n_rows()];
            let r = pcg(&k, &b, &mut x, &p, &opts).unwrap();
            black_box((r.iterations, x[0]));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
