//! Real host-time microbenches of the kernels the schemes are built from:
//! CRS/CCS compression, ED encode/decode, CFS pack/unpack path, and SpMV
//! on the resulting compressed arrays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparsedist_bench::workload;
use sparsedist_core::compress::{Ccs, CompressKind, Crs};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::encode::{decode_part_wire, encode_part_into};
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::RowBlock;
use sparsedist_core::wire::{WireFormat, WirePolicy};
use sparsedist_multicomputer::PackBuffer;
use sparsedist_ops::spmv::{crs_spmv, dense_spmv};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for &n in &[200usize, 800] {
        let a = workload(n);
        let cells = (n * n) as u64;
        g.throughput(Throughput::Elements(cells));

        g.bench_with_input(BenchmarkId::new("crs_from_dense", n), &a, |b, a| {
            b.iter(|| black_box(Crs::from_dense(a, &mut OpCounter::new())))
        });
        g.bench_with_input(BenchmarkId::new("ccs_from_dense", n), &a, |b, a| {
            b.iter(|| black_box(Ccs::from_dense(a, &mut OpCounter::new())))
        });

        let part = RowBlock::new(n, n, 4);
        let v1 = WirePolicy::of(WireFormat::V1);
        let encode = |a: &Dense2D| {
            let mut buf = PackBuffer::new();
            encode_part_into(
                &mut buf,
                a,
                &part,
                0,
                CompressKind::Crs,
                &v1,
                &mut OpCounter::new(),
            );
            buf
        };
        g.bench_with_input(BenchmarkId::new("ed_encode_part", n), &a, |b, a| {
            b.iter(|| black_box(encode(a)))
        });
        let buf = encode(&a);
        g.bench_with_input(BenchmarkId::new("ed_decode_part", n), &buf, |b, buf| {
            b.iter(|| {
                let mut ops = OpCounter::new();
                black_box(
                    decode_part_wire(buf, &part, 0, CompressKind::Crs, WireFormat::V1, &mut ops)
                        .unwrap(),
                )
            })
        });

        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
        g.bench_with_input(BenchmarkId::new("crs_spmv", n), &crs, |b, crs| {
            b.iter(|| black_box(crs_spmv(crs, &x)))
        });
        g.bench_with_input(BenchmarkId::new("dense_spmv_baseline", n), &a, |b, a| {
            b.iter(|| black_box(dense_spmv(a, &x)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
