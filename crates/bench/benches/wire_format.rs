//! Wire-format shootout: v1 vs v2 vs v3 packed bytes on the distribution
//! hot path, and sequential vs parallel per-part encode at the source.
//!
//! Besides the Criterion timings (`pack_roundtrip`, `encode_parallel`),
//! this bench writes `BENCH_wire.json` at the workspace root (under
//! `--test`, its copy in `target/bench-smoke/`): packed-byte
//! totals per scheme/format at three sparsities, the v2-vs-v3 virtual
//! makespans (v3 charges zero extra ops, so these must stay equal), and
//! the measured host-time encode speedup, so CI can archive the wire
//! saving as an artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparsedist_bench::{bench_json, upsert_bench_sections};
use sparsedist_core::compress::{CompressKind, Crs};
use sparsedist_core::encode::encode_part_into;
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::{Partition, RowBlock};
use sparsedist_core::schemes::{run_scheme_with, SchemeConfig, SchemeKind};
use sparsedist_core::wire::{self, WireFormat, WirePolicy};
use sparsedist_gen::SparseRandom;
use sparsedist_multicomputer::{MachineModel, Multicomputer, PackArena, PackBuffer};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 1000;
const P: usize = 4;

fn array(s: f64) -> sparsedist_core::dense::Dense2D {
    SparseRandom::new(N, N)
        .sparse_ratio(s)
        .seed(0xC0FFEE)
        .generate()
}

/// Bytes the source transmits and the virtual makespan (microseconds)
/// for one scheme run under `format` with the default codec choice.
fn source_bytes_and_makespan(
    scheme: SchemeKind,
    a: &sparsedist_core::dense::Dense2D,
    part: &dyn Partition,
    format: WireFormat,
) -> (u64, f64) {
    let m = Multicomputer::virtual_machine(P, MachineModel::ibm_sp2());
    let run = run_scheme_with(
        scheme,
        &m,
        a,
        part,
        CompressKind::Crs,
        SchemeConfig {
            wire: format,
            ..SchemeConfig::default()
        },
    )
    .expect("bench distribution run");
    (run.ledgers[0].wire().bytes, run.t_makespan().as_micros())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn encode_one(a: &sparsedist_core::dense::Dense2D, part: &dyn Partition, pid: usize) -> usize {
    let mut buf = PackBuffer::new();
    let mut ops = OpCounter::new();
    encode_part_into(
        &mut buf,
        a,
        part,
        pid,
        CompressKind::Crs,
        &WirePolicy::of(WireFormat::V2),
        &mut ops,
    );
    buf.byte_len()
}

/// Encode all `P` parts, sequentially or on core-capped scoped threads
/// (mirroring the scheme drivers' `map_parts`), and return the wall time
/// plus total encoded bytes (to keep the work observable).
fn encode_all(
    a: &sparsedist_core::dense::Dense2D,
    part: &dyn Partition,
    parallel: bool,
) -> (Duration, usize) {
    let start = Instant::now();
    let workers = if parallel { host_cores().min(P) } else { 1 };
    let total: usize = if workers < 2 {
        (0..P).map(|pid| encode_one(a, part, pid)).sum()
    } else {
        let chunk = P.div_ceil(workers);
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    sc.spawn(move || {
                        (w * chunk..((w + 1) * chunk).min(P))
                            .map(|pid| encode_one(a, part, pid))
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    };
    (start.elapsed(), total)
}

/// Best-of-`reps` wall times for the sequential and parallel encodes, in
/// microseconds, with the two measurements interleaved so drift (cache
/// warm-up, CPU frequency) hits both sides equally.
fn encode_best_us(
    reps: usize,
    a: &sparsedist_core::dense::Dense2D,
    part: &dyn Partition,
) -> (f64, f64) {
    let mut seq = Duration::MAX;
    let mut par = Duration::MAX;
    for _ in 0..reps {
        seq = seq.min(encode_all(a, part, false).0);
        par = par.min(encode_all(a, part, true).0);
    }
    (seq.as_secs_f64() * 1e6, par.as_secs_f64() * 1e6)
}

fn emit_json(c: &mut Criterion) {
    let part = RowBlock::new(N, N, P);
    let mut lines = vec!["{".to_string()];
    let sparsities = [(0.01, "s0.01"), (0.1, "s0.1"), (0.5, "s0.5")];
    let schemes = [
        (SchemeKind::Sfc, "sfc"),
        (SchemeKind::Cfs, "cfs"),
        (SchemeKind::Ed, "ed"),
    ];
    let mut makespan_lines = vec!["{".to_string()];
    for (si, (s, slabel)) in sparsities.iter().enumerate() {
        let a = array(*s);
        lines.push(format!("    \"{slabel}\": {{"));
        for (ki, (scheme, klabel)) in schemes.iter().enumerate() {
            let (v1, _) = source_bytes_and_makespan(*scheme, &a, &part, WireFormat::V1);
            let (v2, m2) = source_bytes_and_makespan(*scheme, &a, &part, WireFormat::V2);
            let (v3, m3) = source_bytes_and_makespan(*scheme, &a, &part, WireFormat::V3);
            let saving = 1.0 - v2 as f64 / v1 as f64;
            let saving_v3 = 1.0 - v3 as f64 / v2 as f64;
            let comma = if ki + 1 < schemes.len() { "," } else { "" };
            lines.push(format!(
                "      \"{klabel}\": {{\"v1_bytes\": {v1}, \"v2_bytes\": {v2}, \
                 \"v3_bytes\": {v3}, \"saving\": {saving:.4}, \
                 \"saving_v3\": {saving_v3:.4}}}{comma}"
            ));
            if *s == 0.1 {
                // v3 spends host CPU, never virtual ops: equal makespans
                // here are the element-transparency invariant, archived.
                makespan_lines.push(format!(
                    "    \"{klabel}\": {{\"v2_makespan_us\": {m2:.1}, \
                     \"v3_makespan_us\": {m3:.1}}},"
                ));
            }
            eprintln!(
                "wire bytes {klabel:>3} s={s:<5} v1={v1:>9} v2={v2:>9} v3={v3:>9} \
                 saving={:5.1}% saving_v3={:5.1}%",
                saving * 100.0,
                saving_v3 * 100.0
            );
        }
        let comma = if si + 1 < sparsities.len() { "," } else { "" };
        lines.push(format!("    }}{comma}"));
    }
    lines.push("  }".to_string());
    let bytes_section = lines.join("\n");
    if let Some(last) = makespan_lines.last_mut() {
        *last = last.trim_end_matches(',').to_string();
    }
    makespan_lines.push("  }".to_string());
    let makespan_section = makespan_lines.join("\n");

    let a = array(0.1);
    let (seq_us, par_us) = encode_best_us(7, &a, &part);
    let speedup = seq_us / par_us;
    let cores = host_cores();
    eprintln!(
        "encode {P} parts on {cores} core(s): sequential {seq_us:.0} us, \
         parallel {par_us:.0} us ({speedup:.2}x)"
    );
    let encode_section = format!(
        "{{\"parts\": {P}, \"host_cores\": {cores}, \
         \"sequential_us\": {seq_us:.1}, \"parallel_us\": {par_us:.1}, \
         \"speedup\": {speedup:.3}}}"
    );

    let path = bench_json("BENCH_wire.json").expect("locate BENCH_wire.json");
    upsert_bench_sections(
        &path,
        &[
            ("n", N.to_string()),
            ("p", P.to_string()),
            ("bytes", bytes_section),
            ("makespan_s0.1", makespan_section),
            ("encode_parallel", encode_section),
        ],
    )
    .expect("write BENCH_wire.json");
    eprintln!("wrote {}", path.display());

    let _ = c;
}

fn bench_pack_roundtrip(c: &mut Criterion) {
    let a = array(0.1);
    let part = RowBlock::new(N, N, P);
    let crs = Crs::from_part_global(&a, &part, 0, &mut OpCounter::new());
    let (lrows, _) = part.local_shape(0);
    let arena = PackArena::new();

    let mut g = c.benchmark_group("pack_roundtrip");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements(
        (crs.ro().len() + 2 * crs.nnz()) as u64,
    ));
    for format in [WireFormat::V1, WireFormat::V2, WireFormat::V3] {
        let policy = WirePolicy::of(format);
        g.bench_with_input(
            BenchmarkId::new("cfs_triple", format),
            &policy,
            |b, policy| {
                b.iter(|| {
                    let mut buf = arena.checkout(crs.nnz() * 16 + crs.ro().len() * 8);
                    wire::pack_triple_into(&mut buf, crs.ro(), crs.co(), crs.vl(), N, policy);
                    let out = wire::unpack_triple(&mut buf.cursor(), lrows, policy.format)
                        .expect("round trip");
                    arena.recycle(buf);
                    black_box(out)
                })
            },
        );
    }
    g.finish();
}

fn bench_encode_parallel(c: &mut Criterion) {
    let a = array(0.1);
    let part = RowBlock::new(N, N, P);
    let mut g = c.benchmark_group("encode_parallel");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements((N * N) as u64));
    for (label, parallel) in [("sequential", false), ("parallel", true)] {
        g.bench_with_input(
            BenchmarkId::new("encode", label),
            &parallel,
            |b, &parallel| b.iter(|| black_box(encode_all(&a, &part, parallel).1)),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    emit_json,
    bench_pack_roundtrip,
    bench_encode_parallel
);
criterion_main!(benches);
