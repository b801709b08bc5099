//! The SPMD programs outside the distribution pipeline — gather,
//! redistribute, the two distributed SpMVs, transpose and the Frobenius
//! allreduce — pinned bit for bit, and run at a machine size only the
//! event loop can schedule.
//!
//! Each pinned case folds the `Debug` rendering of its results and
//! per-rank ledgers (shortest round-trip f64s, so equal digests mean
//! bit-identical values) into an FNV-1a digest. The pins are the values
//! these programs produced as blocking closures on one OS thread per
//! rank; as rank tasks they must reproduce them on both executors.

use sparsedist::core::gather::{gather_global, GatherStrategy};
use sparsedist::core::redistribute::{redistribute, RedistStrategy};
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::{EngineKind, FaultPlan, PhaseLedger, RetryPolicy};
use sparsedist::ops::distributed::{distributed_frobenius, distributed_transpose};
use sparsedist::ops::spmv::{
    crs_spmv, distributed_spmv, distributed_spmv_ledgers, distributed_spmv_rowwise_ledgers,
};
use sparsedist::prelude::*;

const PINS: [(&str, u64); 7] = [
    ("spmv", 0xda6d_bb18_0ee0_5ffc),
    ("spmv_rowwise", 0x32fc_2d1a_531b_c931),
    ("transpose", 0x5209_98ef_8ecf_9317),
    ("gather", 0x59ed_cec2_abaa_08b9),
    ("redistribute", 0x5335_0aa3_844f_2530),
    ("frobenius", 0x2541_5e99_6dab_27e2),
    ("fixture", 0x8c3a_e8a1_6f8f_6d4e),
];

/// FNV-1a 64 fold of `bytes` into `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(values: &[String]) -> u64 {
    values
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| fnv1a(h, v.as_bytes()))
}

/// A 64×64 array with 410 scattered nonzeros over 8 row blocks: every
/// rank holds real work.
fn scattered() -> (Dense2D, RowBlock) {
    let mut a = Dense2D::zeros(64, 64);
    for i in 0..410 {
        a.set((i * 7) % 64, (i * 13 + i / 64) % 64, 1.0 + i as f64);
    }
    (a, RowBlock::new(64, 64, 8))
}

fn machine(engine: EngineKind) -> Multicomputer {
    Multicomputer::virtual_machine(8, MachineModel::ibm_sp2()).with_engine(engine)
}

/// Rank 3 dead from the start: its parts move to survivors.
fn one_dead(engine: EngineKind) -> Multicomputer {
    machine(engine).with_faults(FaultPlan::new(11).with_dead_rank(3))
}

/// Drops and corruptions on every link: the ARQ runs inside every
/// collective, so fault fates (decided per phase) are pinned too.
fn lossy(engine: EngineKind) -> Multicomputer {
    machine(engine)
        .with_faults(FaultPlan::new(5).with_drop(0.2).with_corrupt(0.1))
        .with_retry_policy(RetryPolicy::with_retries(16))
}

/// Under the lossy plan the ARQ must actually run, or the pin covers
/// less than it claims.
fn assert_retries(m: &Multicomputer, ledgers: &[PhaseLedger]) {
    if m.fault_plan().is_some() {
        assert!(ledgers.iter().any(|l| l.faults().retries > 0));
    }
}

fn digests(engine: EngineKind) -> Vec<(&'static str, u64)> {
    let (a, part) = scattered();
    let run = run_scheme(
        SchemeKind::Ed,
        &machine(engine),
        &a,
        &part,
        CompressKind::Crs,
    )
    .expect("fault-free distribution");
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let healthy_and_lossy = [machine(engine), lossy(engine)];
    let healthy_and_dead = [machine(engine), one_dead(engine)];

    let spmv: Vec<String> = healthy_and_lossy
        .iter()
        .map(|m| {
            let out = distributed_spmv_ledgers(m, &run, &part, &x).unwrap();
            assert_retries(m, &out.1);
            format!("{out:?}")
        })
        .collect();
    let rowwise: Vec<String> = healthy_and_lossy
        .iter()
        .map(|m| {
            let out = distributed_spmv_rowwise_ledgers(m, &run, &part, &x).unwrap();
            assert_retries(m, &out.1);
            format!("{out:?}")
        })
        .collect();
    let to = ColBlock::new(64, 64, 8);
    let transpose: Vec<String> = healthy_and_lossy
        .iter()
        .map(|m| {
            let out = distributed_transpose(m, &run.locals, &part, &to, CompressKind::Crs);
            let out = out.unwrap();
            assert_retries(m, &out.1);
            format!("{out:?}")
        })
        .collect();
    let mut gather = Vec::new();
    for m in &healthy_and_dead {
        for strategy in [
            GatherStrategy::Dense,
            GatherStrategy::Compressed,
            GatherStrategy::Encoded,
        ] {
            let g = gather_global(m, &run.locals, &part, CompressKind::Crs, strategy).unwrap();
            assert_eq!(g.global.to_dense(), a, "{strategy:?}");
            gather.push(format!("{:?}", (&g.ledgers, &g.global)));
        }
    }
    let mesh = Mesh2D::new(64, 64, 2, 4);
    let mut redist = Vec::new();
    for m in &healthy_and_dead {
        for strategy in [RedistStrategy::Direct, RedistStrategy::ViaSource] {
            let r =
                redistribute(m, &run.locals, &part, &mesh, CompressKind::Crs, strategy).unwrap();
            redist.push(format!("{:?}", (&r.ledgers, &r.locals)));
        }
    }
    let frobenius: Vec<String> = [machine(engine), lossy(engine), one_dead(engine)]
        .iter()
        .map(|m| {
            let f = distributed_frobenius(m, &run.locals).unwrap();
            format!("{:#018x}", f.to_bits())
        })
        .collect();
    let fixture = vec![format!("{:?}", (&run.ledgers, &run.locals))];
    vec![
        ("spmv", digest(&spmv)),
        ("spmv_rowwise", digest(&rowwise)),
        ("transpose", digest(&transpose)),
        ("gather", digest(&gather)),
        ("redistribute", digest(&redist)),
        ("frobenius", digest(&frobenius)),
        ("fixture", digest(&fixture)),
    ]
}

#[test]
fn ledgers_match_the_pins_on_both_executors() {
    for engine in [EngineKind::Threaded, EngineKind::EventLoop] {
        let got = digests(engine);
        let shown: Vec<String> = got
            .iter()
            .map(|(name, h)| format!("(\"{name}\", {h:#018x})"))
            .collect();
        assert_eq!(
            got,
            PINS,
            "{engine:?}: digests moved: [{}]",
            shown.join(", ")
        );
    }
}

/// Past the threaded executor's 1024-rank cap the auto engine is the
/// event loop: gather, redistribute and SpMV must still reassemble the
/// input and agree with the serial product.
#[test]
fn gather_redistribute_and_spmv_run_at_2048_ranks() {
    let n = 256;
    let a = SparseRandom::new(n, n)
        .sparse_ratio(0.02)
        .seed(9)
        .generate();
    let blocks = Mesh2D::new(n, n, 32, 64);
    let machine = Multicomputer::virtual_machine(2048, MachineModel::ibm_sp2());
    assert_eq!(machine.task_engine(), EngineKind::EventLoop);
    let run = run_scheme(SchemeKind::Ed, &machine, &a, &blocks, CompressKind::Crs)
        .expect("fault-free distribution");
    assert_eq!(run.reassemble(&blocks), a);

    let g = gather_global(
        &machine,
        &run.locals,
        &blocks,
        CompressKind::Crs,
        GatherStrategy::Encoded,
    )
    .expect("gather");
    assert_eq!(g.global.to_dense(), a);

    let tall = Mesh2D::new(n, n, 64, 32);
    let moved = redistribute(
        &machine,
        &run.locals,
        &blocks,
        &tall,
        CompressKind::Crs,
        RedistStrategy::ViaSource,
    )
    .expect("redistribute");
    let rerun = SchemeRun {
        locals: moved.locals,
        ..run.clone()
    };
    assert_eq!(rerun.reassemble(&tall), a);

    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).cos()).collect();
    let y = distributed_spmv(&machine, &run, &blocks, &x).expect("spmv");
    let want = crs_spmv(&Crs::from_dense(&a, &mut Default::default()), &x);
    for (r, (got, want)) in y.iter().zip(&want).enumerate() {
        let tol = 1e-12 * want.abs().max(1.0);
        assert!((got - want).abs() <= tol, "row {r}: {got} vs {want}");
    }
}
