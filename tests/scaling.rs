//! Host-wall scaling guard for the plain distribution pipeline.
//!
//! No rank may do O(p) work against shared state (the owner map, the
//! alive set): summed over p ranks that is O(p²) host time, which at
//! p = 65536 swamps everything the paper models. This guard times ED
//! over a 256 × 256 array on a mesh at p = 16384 and p = 65536 — 4× the
//! ranks — and fails if the larger run costs more than 8× the smaller.
//! Linear host work reads ≈ 4×; one per-rank scan of the owner map
//! reads ≈ 11×.
//!
//! Release builds only (`cargo test --release`): debug timings carry too
//! much constant overhead for the ratio to mean anything.

use sparsedist::gen::SparseRandom;
use sparsedist::prelude::*;
use std::time::{Duration, Instant};

const N: usize = 256;
const MAX_RATIO: f64 = 8.0;

/// The fastest of three ED distributions over a `pr × pc` mesh.
fn best_of_three(a: &Dense2D, pr: usize, pc: usize) -> Duration {
    let part = Mesh2D::new(N, N, pr, pc);
    let machine = Multicomputer::virtual_machine(pr * pc, MachineModel::ibm_sp2());
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let run = run_scheme(SchemeKind::Ed, &machine, a, &part, CompressKind::Crs)
                .expect("fault-free distribution");
            let wall = t0.elapsed();
            assert_eq!(run.reassemble(&part), *a, "p = {}", pr * pc);
            wall
        })
        .min()
        .expect("three runs")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "host timing guard: run with --release")]
fn plain_pipeline_host_time_stays_near_linear_in_p() {
    let a = SparseRandom::new(N, N)
        .sparse_ratio(0.01)
        .seed(0x5CA1E)
        .generate();
    let small = best_of_three(&a, 128, 128);
    let large = best_of_three(&a, 256, 256);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= MAX_RATIO,
        "p = 16384 took {small:?}, p = 65536 took {large:?}: {ratio:.1}x for 4x the ranks \
         (limit {MAX_RATIO}x)"
    );
}
