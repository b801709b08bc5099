//! Staged vs overlapped pipeline at the paper's scale (n = 1000,
//! s = 0.1): the nonblocking-send source (`SchemeConfig::overlap`)
//! hides transfer time behind per-part encode work, shrinking the ED
//! and CFS makespans while moving exactly the same bytes.
//!
//! Besides the Criterion host timings, this bench upserts a
//! `pipeline_overlap` section into `BENCH_wire.json` at the workspace
//! root (under `--test`, its copy in `target/bench-smoke/`). The `*_us` keys are virtual-time makespans — deterministic for
//! a given machine model and workload — so the CI bench-regression gate
//! can pin them without run-to-run noise; the `*_bytes` keys prove the
//! overlap changes scheduling, never the wire volume.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsedist_bench::{bench_json, upsert_bench_sections, workload};
use sparsedist_core::compress::CompressKind;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme, run_scheme_with, SchemeConfig, SchemeKind, SchemeRun};
use sparsedist_multicomputer::{MachineModel, Multicomputer};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 1000;
const P: usize = 16;

fn wire_bytes(run: &SchemeRun) -> u64 {
    run.ledgers.iter().map(|l| l.wire().bytes).sum()
}

fn emit_json(c: &mut Criterion) {
    let a = workload(N);
    let part = RowBlock::new(N, N, P);
    let machine = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());

    let mut lines = vec!["{".to_string()];
    lines.push(format!("    \"n\": {N}, \"p\": {P},"));
    let schemes = [(SchemeKind::Ed, "ed"), (SchemeKind::Cfs, "cfs")];
    for (ki, (scheme, label)) in schemes.iter().enumerate() {
        let staged = run_scheme(*scheme, &machine, &a, &part, CompressKind::Crs)
            .expect("fault-free staged run");
        let over = run_scheme_with(
            *scheme,
            &machine,
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::overlapped(),
        )
        .expect("fault-free overlapped run");
        let (su, ou) = (
            staged.t_makespan().as_micros(),
            over.t_makespan().as_micros(),
        );
        let (sb, ob) = (wire_bytes(&staged), wire_bytes(&over));
        assert!(ou < su, "{label}: overlap must beat staged makespan");
        assert_eq!(sb, ob, "{label}: overlap must not change bytes on wire");
        let comma = if ki + 1 < schemes.len() { "," } else { "" };
        lines.push(format!(
            "    \"{label}\": {{\"staged_us\": {su:.1}, \"overlap_us\": {ou:.1}, \
             \"speedup\": {:.3}, \"staged_bytes\": {sb}, \"overlap_bytes\": {ob}}}{comma}",
            su / ou
        ));
        eprintln!(
            "pipeline {label:>3} (n={N}, p={P}, s=0.1): staged {su:.0} us, \
             overlapped {ou:.0} us ({:.2}x), bytes {sb} == {ob}",
            su / ou
        );
    }
    lines.push("  }".to_string());

    let path = bench_json("BENCH_wire.json").expect("locate BENCH_wire.json");
    upsert_bench_sections(&path, &[("pipeline_overlap", lines.join("\n"))])
        .expect("write BENCH_wire.json");
    eprintln!("wrote {}", path.display());

    let _ = c;
}

fn bench_pipeline_overlap(c: &mut Criterion) {
    let a = workload(N);
    let part = RowBlock::new(N, N, P);
    let machine = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());

    let mut g = c.benchmark_group("pipeline_overlap");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (scheme, label) in [(SchemeKind::Ed, "ed"), (SchemeKind::Cfs, "cfs")] {
        g.bench_function(BenchmarkId::new(label, "staged"), |b| {
            b.iter(|| black_box(run_scheme(scheme, &machine, &a, &part, CompressKind::Crs)))
        });
        g.bench_function(BenchmarkId::new(label, "overlapped"), |b| {
            b.iter(|| {
                black_box(run_scheme_with(
                    scheme,
                    &machine,
                    &a,
                    &part,
                    CompressKind::Crs,
                    SchemeConfig::overlapped(),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, emit_json, bench_pipeline_overlap);
criterion_main!(benches);
