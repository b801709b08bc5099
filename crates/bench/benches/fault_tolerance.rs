//! Makespan under fire at the paper's scale (n = 1000, s = 0.1):
//! how the staged and overlapped pipelines degrade as the link drop
//! rate rises, with the async ARQ retransmitting behind the source's
//! encode work.
//!
//! Besides the Criterion host timings, this bench writes the
//! `makespan_vs_drop` section of `BENCH_faults.json` at the workspace
//! root (under `--test`, its copy in `target/bench-smoke/`). All `*_us` values are virtual-time measurements — a pure
//! function of the machine model, the workload and the fault seed — so
//! the CI bench-regression gate pins them exactly: a protocol change
//! that makes recovery more expensive (or breaks the overlap win under
//! faults) moves a tracked number and trips the gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparsedist_bench::{bench_json, upsert_bench_sections, workload};
use sparsedist_core::compress::CompressKind;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::schemes::{run_scheme_with, SchemeConfig, SchemeKind, SchemeRun};
use sparsedist_multicomputer::{FaultPlan, MachineModel, Multicomputer, Phase, RetryPolicy};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 1000;
const P: usize = 16;
const FAULT_SEED: u64 = 41;
const DROPS: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

fn machine(drop: f64) -> Multicomputer {
    let m = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());
    if drop > 0.0 {
        m.with_faults(FaultPlan::new(FAULT_SEED).with_drop(drop))
            .with_retry_policy(RetryPolicy::with_retries(16))
    } else {
        m
    }
}

fn staged_config() -> SchemeConfig {
    SchemeConfig {
        chunk_elems: 4096,
        ..SchemeConfig::default()
    }
}

fn overlap_config() -> SchemeConfig {
    SchemeConfig {
        chunk_elems: 4096,
        ..SchemeConfig::overlapped()
    }
}

fn retry_us(run: &SchemeRun) -> f64 {
    run.ledgers
        .iter()
        .map(|l| l.get(Phase::Retry).as_micros())
        .sum()
}

fn emit_json(c: &mut Criterion) {
    let a = workload(N);
    let part = RowBlock::new(N, N, P);

    let mut lines = vec!["{".to_string()];
    lines.push(format!(
        "    \"n\": {N}, \"p\": {P}, \"seed\": {FAULT_SEED}, \"chunk_elems\": 4096,"
    ));
    let schemes = [(SchemeKind::Ed, "ed"), (SchemeKind::Cfs, "cfs")];
    for (ki, (scheme, label)) in schemes.iter().enumerate() {
        lines.push(format!("    \"{label}\": {{"));
        for (di, &drop) in DROPS.iter().enumerate() {
            let m = machine(drop);
            let run_with = |config| {
                run_scheme_with(*scheme, &m, &a, &part, CompressKind::Crs, config)
                    .expect("drop plans are recoverable at 16 retries")
            };
            let staged = run_with(staged_config());
            let over = run_with(overlap_config());
            assert_eq!(
                over.locals, staged.locals,
                "{label} drop={drop}: overlap changed state"
            );
            let (su, ou) = (
                staged.t_makespan().as_micros(),
                over.t_makespan().as_micros(),
            );
            let comma = if di + 1 < DROPS.len() { "," } else { "" };
            lines.push(format!(
                "      \"drop{drop:.2}\": {{\"staged_us\": {su:.1}, \"overlap_us\": {ou:.1}, \
                 \"retry_us\": {:.1}, \"gain\": {:.3}}}{comma}",
                retry_us(&over),
                su / ou
            ));
            eprintln!(
                "faults {label:>3} drop={drop:.2}: staged {su:.0} us, \
                 overlapped {ou:.0} us ({:.2}x), retry {:.0} us",
                su / ou,
                retry_us(&over)
            );
        }
        let comma = if ki + 1 < schemes.len() { "," } else { "" };
        lines.push(format!("    }}{comma}"));
    }
    lines.push("  }".to_string());

    let path = bench_json("BENCH_faults.json").expect("locate BENCH_faults.json");
    upsert_bench_sections(&path, &[("makespan_vs_drop", lines.join("\n"))])
        .expect("write BENCH_faults.json");
    eprintln!("wrote {}", path.display());

    let _ = c;
}

fn bench_fault_tolerance(c: &mut Criterion) {
    let a = workload(N);
    let part = RowBlock::new(N, N, P);
    let m = machine(0.05);

    let mut g = c.benchmark_group("fault_tolerance");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (scheme, label) in [(SchemeKind::Ed, "ed"), (SchemeKind::Cfs, "cfs")] {
        g.bench_function(BenchmarkId::new(label, "staged_drop5"), |b| {
            b.iter(|| {
                black_box(run_scheme_with(
                    scheme,
                    &m,
                    &a,
                    &part,
                    CompressKind::Crs,
                    staged_config(),
                ))
            })
        });
        g.bench_function(BenchmarkId::new(label, "overlapped_drop5"), |b| {
            b.iter(|| {
                black_box(run_scheme_with(
                    scheme,
                    &m,
                    &a,
                    &part,
                    CompressKind::Crs,
                    overlap_config(),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, emit_json, bench_fault_tolerance);
criterion_main!(benches);
