//! Sparse operations that act **on the distributed representation** —
//! no gather, no dense intermediate. Everything here takes the
//! per-processor [`LocalCompressed`] arrays a scheme run (or a previous
//! distributed op) produced and returns new per-processor arrays.

use crate::elementwise;
use sparsedist_core::compress::{Ccs, CompressKind, Crs, LocalCompressed};
use sparsedist_core::error::SparsedistError;
use sparsedist_core::partition::Partition;
use sparsedist_multicomputer::collectives::allreduce_sum;
use sparsedist_multicomputer::{Env, Multicomputer, PackBuffer, Phase, PhaseLedger, TaskFuture};

/// Scale every processor's local array in place-ish (returns new locals):
/// `A ← α·A`. Purely local — no communication at all.
pub fn distributed_scale(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    alpha: f64,
) -> Vec<LocalCompressed> {
    assert_eq!(machine.nprocs(), locals.len(), "machine size != locals");
    machine.run_tasks(&(locals, alpha), |ctx, env| scale_task(ctx, env))
}

/// One rank of [`distributed_scale`].
fn scale_task<'e>(
    &(locals, alpha): &'e (&[LocalCompressed], f64),
    env: &'e mut Env,
) -> TaskFuture<'e, LocalCompressed> {
    Box::pin(async move {
        let me = env.rank();
        env.phase(Phase::Compute, |env| {
            let out = match &locals[me] {
                LocalCompressed::Crs(a) => LocalCompressed::Crs(elementwise::scale(a, alpha)),
                LocalCompressed::Ccs(a) => {
                    // Scale values directly; structure unchanged.
                    let vl: Vec<f64> = a.vl().iter().map(|&v| alpha * v).collect();
                    LocalCompressed::Ccs(
                        Ccs::from_raw(a.rows(), a.cols(), a.cp().to_vec(), a.ri().to_vec(), vl)
                            .expect("scaling preserves structure"),
                    )
                }
            };
            env.charge_ops(locals[me].nnz() as u64);
            out
        })
    })
}

/// Elementwise sum `C = A + B` of two arrays distributed under the *same*
/// partition with CRS locals. Purely local merges.
///
/// # Panics
/// Panics if sizes disagree or any local array is not CRS.
pub fn distributed_add(
    machine: &Multicomputer,
    a: &[LocalCompressed],
    b: &[LocalCompressed],
) -> Vec<LocalCompressed> {
    assert_eq!(machine.nprocs(), a.len(), "machine size != a");
    assert_eq!(a.len(), b.len(), "operand processor counts differ");
    machine.run_tasks(&(a, b), |ctx, env| add_task(ctx, env))
}

/// One rank of [`distributed_add`].
fn add_task<'e>(
    &(a, b): &'e (&[LocalCompressed], &[LocalCompressed]),
    env: &'e mut Env,
) -> TaskFuture<'e, LocalCompressed> {
    Box::pin(async move {
        let me = env.rank();
        env.phase(Phase::Compute, |env| {
            let (x, y) = (a[me].as_crs(), b[me].as_crs());
            let sum = elementwise::add(x, y);
            env.charge_ops((x.nnz() + y.nnz()) as u64);
            LocalCompressed::Crs(sum)
        })
    })
}

/// Frobenius norm of the whole distributed array: local partials combined
/// with an allreduce ([`sparsedist_multicomputer::collectives::allreduce_sum`]).
///
/// # Errors
/// Propagates communication failures from the allreduce when a fault plan
/// is installed.
pub fn distributed_frobenius(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
) -> Result<f64, SparsedistError> {
    assert_eq!(machine.nprocs(), locals.len(), "machine size != locals");
    let results = machine.run_tasks(locals, |locals, env| frobenius_task(locals, env));
    results.into_iter().next().expect("at least one rank")
}

/// One rank of [`distributed_frobenius`]: the local sum of squares, then
/// the allreduce.
fn frobenius_task<'e>(
    locals: &'e [LocalCompressed],
    env: &'e mut Env,
) -> TaskFuture<'e, Result<f64, SparsedistError>> {
    Box::pin(async move {
        let me = env.rank();
        let partial: f64 = env.phase(Phase::Compute, |env| {
            env.charge_ops(locals[me].nnz() as u64);
            match &locals[me] {
                LocalCompressed::Crs(a) => a.vl().iter().map(|v| v * v).sum(),
                LocalCompressed::Ccs(a) => a.vl().iter().map(|v| v * v).sum(),
            }
        });
        let total = allreduce_sum(env, &[partial]).await?;
        Ok(total[0].sqrt())
    })
}

/// Distributed transpose: re-own `Aᵀ` under the target partition without
/// gathering. Every processor flips its local triplets to transposed
/// global coordinates, buckets them by their new owner, and the machine
/// does a compressed all-to-all; receivers rebuild local CRS/CCS.
///
/// Returns `(new locals of Aᵀ, per-rank ledgers)`.
///
/// # Errors
/// Propagates communication and unpack failures when a fault plan is
/// installed.
///
/// # Panics
/// Panics if the target partition's shape is not the transpose of the
/// source's, or processor counts disagree.
pub fn distributed_transpose(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    from: &dyn Partition,
    to: &dyn Partition,
    kind: CompressKind,
) -> Result<(Vec<LocalCompressed>, Vec<PhaseLedger>), SparsedistError> {
    let p = machine.nprocs();
    assert_eq!(from.nparts(), p, "source partition size");
    assert_eq!(to.nparts(), p, "target partition size");
    let (fr, fc) = from.global_shape();
    let (tr, tc) = to.global_shape();
    assert_eq!(
        (fr, fc),
        (tc, tr),
        "target must describe the transposed shape"
    );
    assert_eq!(locals.len(), p, "one local array per processor");

    let ctx = TransposeCtx {
        locals,
        from,
        to,
        kind,
    };
    let (results, ledgers) =
        machine.run_tasks_with_ledgers(&ctx, |ctx, env| transpose_task(ctx, env));
    let locals = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((locals, ledgers))
}

/// What every rank of [`distributed_transpose`] reads.
struct TransposeCtx<'a> {
    locals: &'a [LocalCompressed],
    from: &'a dyn Partition,
    to: &'a dyn Partition,
    kind: CompressKind,
}

/// One rank of [`distributed_transpose`]: bucket the transposed local
/// triplets by new owner, exchange them all-to-all, and rebuild the new
/// local array.
fn transpose_task<'e>(
    ctx: &'e TransposeCtx<'_>,
    env: &'e mut Env,
) -> TaskFuture<'e, Result<LocalCompressed, SparsedistError>> {
    Box::pin(async move {
        let TransposeCtx {
            locals,
            from,
            to,
            kind,
        } = *ctx;
        let me = env.rank();
        let p = env.nprocs();
        // Bucket transposed triplets by new owner.
        let buckets: Vec<Vec<(usize, usize, f64)>> = env.phase(Phase::Pack, |env| {
            let mut buckets: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); p];
            let mut ops = 0u64;
            let mut push = |lr: usize, lc: usize, v: f64, ops: &mut u64| {
                let (gr, gc) = from.to_global(me, lr, lc);
                let dest = to.owner_of(gc, gr); // transposed coordinates
                *ops += 2;
                buckets[dest].push((gc, gr, v));
            };
            match &locals[me] {
                LocalCompressed::Crs(a) => {
                    for (lr, lc, v) in a.iter() {
                        push(lr, lc, v, &mut ops);
                    }
                }
                LocalCompressed::Ccs(a) => {
                    for (lr, lc, v) in a.iter() {
                        push(lr, lc, v, &mut ops);
                    }
                }
            }
            env.charge_ops(ops);
            buckets
        });

        // All-to-all; the buckets are consumed before the first receive.
        let bufs: Vec<PackBuffer> = env.phase(Phase::Pack, |env| {
            let mut ops = 0u64;
            let bufs = buckets
                .into_iter()
                .map(|b| {
                    let mut buf = PackBuffer::with_capacity(1 + b.len() * 3);
                    buf.push_u64(b.len() as u64);
                    for &(r, c, v) in &b {
                        buf.push_u64(r as u64);
                        buf.push_u64(c as u64);
                        buf.push_f64(v);
                        ops += 3;
                    }
                    buf
                })
                .collect();
            env.charge_ops(ops);
            bufs
        });
        env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
            for (dst, buf) in bufs.into_iter().enumerate() {
                env.send(dst, buf)?;
            }
            Ok(())
        })?;

        // The unpack work is charged once the last bucket has arrived.
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut ops = 0u64;
        for src in 0..p {
            let msg = env.recv_async(src).await?;
            let mut cursor = msg.payload.cursor();
            let n = cursor.try_read_usize()?;
            for _ in 0..n {
                let r = cursor.try_read_usize()?;
                let c = cursor.try_read_usize()?;
                let v = cursor.try_read_f64()?;
                ops += 3;
                let (_, lr, lc) = to.to_local(r, c);
                trips.push((lr, lc, v));
            }
        }
        env.phase(Phase::Unpack, |env| env.charge_ops(ops));

        Ok(env.phase(Phase::Compress, |env| {
            let mut ops = sparsedist_core::opcount::OpCounter::new();
            let (lrows, lcols) = to.local_shape(me);
            let out = match kind {
                CompressKind::Crs => {
                    LocalCompressed::Crs(Crs::from_triplets(lrows, lcols, &trips, &mut ops))
                }
                CompressKind::Ccs => {
                    LocalCompressed::Ccs(Ccs::from_triplets(lrows, lcols, &trips, &mut ops))
                }
            };
            env.charge_ops(ops.take());
            out
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsedist_core::dense::paper_array_a;
    use sparsedist_core::partition::{ColBlock, Mesh2D, RowBlock};
    use sparsedist_core::schemes::{run_scheme, SchemeKind, SchemeRun};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn distribute(kind: CompressKind) -> (SchemeRun, RowBlock) {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        (
            run_scheme(SchemeKind::Ed, &machine(4), &a, &part, kind).unwrap(),
            part,
        )
    }

    #[test]
    fn scale_scales_every_local() {
        let (run, part) = distribute(CompressKind::Crs);
        let scaled = distributed_scale(&machine(4), &run.locals, 3.0);
        let rebuilt = SchemeRun {
            locals: scaled,
            ..run.clone()
        };
        let d = rebuilt.reassemble(&part);
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 3.0 * v);
        }
    }

    #[test]
    fn scale_works_on_ccs_locals() {
        let (run, part) = distribute(CompressKind::Ccs);
        let scaled = distributed_scale(&machine(4), &run.locals, -1.0);
        let rebuilt = SchemeRun {
            locals: scaled,
            ..run.clone()
        };
        assert_eq!(rebuilt.reassemble(&part).get(2, 0), -3.0);
    }

    #[test]
    fn add_combines_distributions() {
        let (run, part) = distribute(CompressKind::Crs);
        let doubled = distributed_add(&machine(4), &run.locals, &run.locals);
        let rebuilt = SchemeRun {
            locals: doubled,
            ..run.clone()
        };
        let d = rebuilt.reassemble(&part);
        for (r, c, v) in paper_array_a().iter_nonzero() {
            assert_eq!(d.get(r, c), 2.0 * v);
        }
    }

    #[test]
    fn frobenius_matches_sequential() {
        let (run, _) = distribute(CompressKind::Crs);
        let got = distributed_frobenius(&machine(4), &run.locals).unwrap();
        let want: f64 = (1..=16).map(|v| (v * v) as f64).sum::<f64>().sqrt();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = paper_array_a(); // 10×8
        let from = RowBlock::new(10, 8, 4);
        let run = run_scheme(SchemeKind::Cfs, &machine(4), &a, &from, CompressKind::Crs).unwrap();
        // Aᵀ is 8×10; own it under a column partition of the transposed
        // shape.
        let to = ColBlock::new(8, 10, 4);
        let (tlocals, _) =
            distributed_transpose(&machine(4), &run.locals, &from, &to, CompressKind::Crs).unwrap();
        let trun = SchemeRun {
            locals: tlocals,
            ..run.clone()
        };
        let t = trun.reassemble(&to);
        assert_eq!((t.rows(), t.cols()), (8, 10));
        for (r, c, v) in a.iter_nonzero() {
            assert_eq!(t.get(c, r), v);
        }
        assert_eq!(t.nnz(), 16);
    }

    #[test]
    fn double_transpose_is_identity() {
        let a = paper_array_a();
        let from = RowBlock::new(10, 8, 4);
        let mid = Mesh2D::new(8, 10, 2, 2);
        let run = run_scheme(SchemeKind::Ed, &machine(4), &a, &from, CompressKind::Crs).unwrap();
        let (t1, _) =
            distributed_transpose(&machine(4), &run.locals, &from, &mid, CompressKind::Crs)
                .unwrap();
        let (t2, _) =
            distributed_transpose(&machine(4), &t1, &mid, &from, CompressKind::Crs).unwrap();
        assert_eq!(t2, run.locals);
    }

    #[test]
    #[should_panic(expected = "transposed shape")]
    fn transpose_rejects_untransposed_target() {
        let (run, from) = distribute(CompressKind::Crs);
        let to = RowBlock::new(10, 8, 4);
        let _ = distributed_transpose(&machine(4), &run.locals, &from, &to, CompressKind::Crs);
    }
}
