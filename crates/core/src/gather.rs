//! **Gathering**: collecting a distributed sparse array back onto the
//! source processor — the inverse of the distribution phase, needed at the
//! end of any compute pipeline (write the result, checkpoint, hand off to
//! a sequential post-processing stage).
//!
//! The paper's three orderings have exact mirror images here, and the same
//! trade-offs apply in reverse:
//!
//! * [`GatherStrategy::Dense`] — each processor expands its local array to
//!   dense and ships every cell (`n²` elements total), the SFC mirror;
//! * [`GatherStrategy::Compressed`] — each processor ships its local
//!   `RO`/`CO`/`VL` with indices converted to **global** on the sender
//!   (the CFS mirror; conversion now happens before the send);
//! * [`GatherStrategy::Encoded`] — each processor encodes the ED special
//!   buffer of its local array with global indices; the source decodes all
//!   `p` buffers straight into the global compressed array.

use crate::compress::{Ccs, CompressKind, Crs, LocalCompressed};
use crate::convert::conversion_case;
use crate::convert::ConversionCase;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::schemes::{alive_ranks_of, assign_owners, OwnerIndex};
use sparsedist_multicomputer::pack::UnpackError;
use sparsedist_multicomputer::{
    Env, Multicomputer, PackBuffer, Phase, PhaseLedger, TaskFuture, VirtualTime,
};

/// How the local arrays travel back to the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherStrategy {
    /// Ship dense local arrays (`n²` elements) — the SFC mirror.
    Dense,
    /// Ship `RO`/`CO`/`VL` with sender-side index globalisation — the CFS
    /// mirror.
    Compressed,
    /// Ship the ED special buffer with global indices — the ED mirror.
    Encoded,
}

/// Result of a gather: the reassembled global array at the source plus
/// per-rank ledgers.
#[derive(Debug, Clone)]
pub struct GatherRun {
    /// Which strategy ran.
    pub strategy: GatherStrategy,
    /// Per-rank phase ledgers.
    pub ledgers: Vec<PhaseLedger>,
    /// The global array, compressed in the requested kind (held by the
    /// source; replicated here for inspection).
    pub global: LocalCompressed,
}

impl GatherRun {
    /// The source processor's busy time (it does the merging) — the
    /// gather analogue of the paper's `T_Distribution` focus.
    pub fn t_gather(&self) -> VirtualTime {
        self.ledgers[0].busy_total()
    }
}

/// Convert one local nonzero's travelling index to global at the sender:
/// the exact inverse of the receive-side Cases 3.2.x/3.3.x, charged the
/// same one op when (and only when) the distribution direction would have
/// charged it.
fn globalise(
    part: &dyn Partition,
    me: usize,
    kind: CompressKind,
    lr: usize,
    lc: usize,
    ops: &mut OpCounter,
) -> usize {
    let (gr, gc) = part.to_global(me, lr, lc);
    match (kind, conversion_case(part, kind)) {
        (CompressKind::Crs, ConversionCase::None) => gc,
        (CompressKind::Ccs, ConversionCase::None) => gr,
        (CompressKind::Crs, _) => {
            ops.tick();
            gc
        }
        (CompressKind::Ccs, _) => {
            ops.tick();
            gr
        }
    }
}

/// Everything a gather rank task needs, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter.
struct GatherCtx<'a> {
    locals: &'a [LocalCompressed],
    part: &'a dyn Partition,
    kind: CompressKind,
    strategy: GatherStrategy,
    owners: &'a [usize],
    index: &'a OwnerIndex,
}

/// One rank of the gather: ship every owned part to rank 0 (exactly one
/// — this rank's own — when every rank is alive); rank 0 then merges one
/// message per part, arriving from each part's owner, into the global
/// array. Returns the global array on rank 0 and `None` elsewhere.
fn gather_task<'e>(
    ctx: &'e GatherCtx<'_>,
    env: &'e mut Env,
) -> TaskFuture<'e, Result<Option<LocalCompressed>, SparsedistError>> {
    Box::pin(async move {
        let me = env.rank();
        if env.is_rank_dead(me) {
            return Ok(None);
        }
        for &pid in ctx.index.parts_of(me) {
            let buf = env.phase(Phase::Pack, |env| {
                let mut ops = OpCounter::new();
                let buf = pack_part(ctx, pid, &mut ops);
                env.charge_ops(ops.take());
                buf
            });
            env.phase(Phase::Send, |env| env.send(0, buf))?;
        }
        if me != 0 {
            return Ok(None);
        }

        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut ops = OpCounter::new();
        for (src, &owner) in ctx.owners.iter().enumerate() {
            let msg = env.recv_async(owner).await?;
            env.phase(Phase::Unpack, |_env| {
                unpack_part(ctx, src, &msg.payload, &mut trips, &mut ops)
            })?;
        }
        env.phase(Phase::Unpack, |env| env.charge_ops(ops.take()));

        // Build the global compressed array.
        let (grows, gcols) = ctx.part.global_shape();
        Ok(Some(env.phase(Phase::Compress, |env| {
            let mut ops = OpCounter::new();
            let global = match ctx.kind {
                CompressKind::Crs => {
                    LocalCompressed::Crs(Crs::from_triplets(grows, gcols, &trips, &mut ops))
                }
                CompressKind::Ccs => {
                    LocalCompressed::Ccs(Ccs::from_triplets(grows, gcols, &trips, &mut ops))
                }
            };
            env.charge_ops(ops.take());
            global
        })))
    })
}

/// Pack part `pid`'s local array for the trip back to the source, in
/// the strategy's layout, counting the work in `ops`.
fn pack_part(ctx: &GatherCtx<'_>, pid: usize, ops: &mut OpCounter) -> PackBuffer {
    let GatherCtx {
        locals,
        part,
        kind,
        strategy,
        ..
    } = *ctx;
    match strategy {
        GatherStrategy::Dense => {
            let dense = locals[pid].to_dense();
            let (lr, lc) = (dense.rows(), dense.cols());
            let mut buf = PackBuffer::with_capacity(lr * lc);
            for r in 0..lr {
                buf.push_f64_slice(dense.row(r));
            }
            // Expansion cost: one op per cell written.
            ops.add((lr * lc) as u64);
            buf
        }
        GatherStrategy::Compressed => {
            // Ship count + (travelling-global index, value) runs per
            // segment pointer, i.e. the CFS layout in reverse:
            // pointer array then indices (globalised) then values.
            let mut buf = PackBuffer::new();
            match &locals[pid] {
                LocalCompressed::Crs(a) => {
                    buf.push_usize_slice(a.ro());
                    ops.add(a.ro().len() as u64);
                    for (lr, lc, _) in a.iter() {
                        let g = globalise(part, pid, kind, lr, lc, ops);
                        buf.push_u64(g as u64);
                        ops.tick();
                    }
                    buf.push_f64_slice(a.vl());
                    ops.add(a.vl().len() as u64);
                }
                LocalCompressed::Ccs(a) => {
                    buf.push_usize_slice(a.cp());
                    ops.add(a.cp().len() as u64);
                    for (lr, lc, _) in a.iter() {
                        let g = globalise(part, pid, kind, lr, lc, ops);
                        buf.push_u64(g as u64);
                        ops.tick();
                    }
                    buf.push_f64_slice(a.vl());
                    ops.add(a.vl().len() as u64);
                }
            }
            buf
        }
        GatherStrategy::Encoded => {
            // ED layout per segment: count, then (global index,
            // value) pairs.
            let mut buf = PackBuffer::new();
            match &locals[pid] {
                LocalCompressed::Crs(a) => {
                    for r in 0..a.rows() {
                        buf.push_u64(a.row_nnz(r) as u64);
                        ops.tick();
                        for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                            let g = globalise(part, pid, kind, r, c, ops);
                            buf.push_u64(g as u64);
                            buf.push_f64(v);
                            ops.add(2);
                        }
                    }
                }
                LocalCompressed::Ccs(a) => {
                    for c in 0..a.cols() {
                        buf.push_u64(a.col_nnz(c) as u64);
                        ops.tick();
                        for (&r, &v) in a.col_rows(c).iter().zip(a.col_vals(c)) {
                            let g = globalise(part, pid, kind, r, c, ops);
                            buf.push_u64(g as u64);
                            buf.push_f64(v);
                            ops.add(2);
                        }
                    }
                }
            }
            buf
        }
    }
}

/// Merge part `src`'s message, in the strategy's layout, into global
/// triplets, counting the work in `ops`.
fn unpack_part(
    ctx: &GatherCtx<'_>,
    src: usize,
    payload: &PackBuffer,
    trips: &mut Vec<(usize, usize, f64)>,
    ops: &mut OpCounter,
) -> Result<(), SparsedistError> {
    let GatherCtx {
        part,
        kind,
        strategy,
        ..
    } = *ctx;
    let mut cursor = payload.cursor();
    let (lrows, lcols) = part.local_shape(src);
    match strategy {
        GatherStrategy::Dense => {
            for lr in 0..lrows {
                for lc in 0..lcols {
                    let v = cursor.try_read_f64()?;
                    ops.tick();
                    if v != 0.0 {
                        let (gr, gc) = part.to_global(src, lr, lc);
                        trips.push((gr, gc, v));
                        ops.add(2);
                    }
                }
            }
        }
        GatherStrategy::Compressed => {
            let nsegs = match kind {
                CompressKind::Crs => lrows,
                CompressKind::Ccs => lcols,
            };
            let pointer = cursor.try_read_usize_vec(nsegs + 1)?;
            ops.add((nsegs + 1) as u64);
            let nnz = pointer[nsegs];
            let travelling = cursor.try_read_usize_vec(nnz)?;
            let values = cursor.try_read_f64_vec(nnz)?;
            ops.add(2 * nnz as u64);
            let mut k = 0;
            for seg in 0..nsegs {
                for _ in pointer[seg]..pointer[seg + 1] {
                    let (gr, gc) = match kind {
                        CompressKind::Crs => {
                            let (gr, _) = part.to_global(src, seg, 0);
                            (gr, travelling[k])
                        }
                        CompressKind::Ccs => {
                            let (_, gc) = part.to_global(src, 0, seg);
                            (travelling[k], gc)
                        }
                    };
                    trips.push((gr, gc, values[k]));
                    ops.tick();
                    k += 1;
                }
            }
        }
        GatherStrategy::Encoded => {
            let nsegs = match kind {
                CompressKind::Crs => lrows,
                CompressKind::Ccs => lcols,
            };
            for seg in 0..nsegs {
                let count = cursor.try_read_usize()?;
                ops.tick();
                for _ in 0..count {
                    let g = cursor.try_read_usize()?;
                    let v = cursor.try_read_f64()?;
                    ops.add(2);
                    let (gr, gc) = match kind {
                        CompressKind::Crs => {
                            let (gr, _) = part.to_global(src, seg, 0);
                            (gr, g)
                        }
                        CompressKind::Ccs => {
                            let (_, gc) = part.to_global(src, 0, seg);
                            (g, gc)
                        }
                    };
                    trips.push((gr, gc, v));
                    ops.tick();
                }
            }
        }
    }
    if !cursor.is_exhausted() {
        return Err(UnpackError {
            at: 0,
            remaining: cursor.remaining(),
        }
        .into());
    }
    Ok(())
}

/// Gather `locals` (owned under `part`) back to rank 0 as one global
/// compressed array.
///
/// ```
/// use sparsedist_core::dense::paper_array_a;
/// use sparsedist_core::partition::RowBlock;
/// use sparsedist_core::compress::CompressKind;
/// use sparsedist_core::gather::{gather_global, GatherStrategy};
/// use sparsedist_core::schemes::{run_scheme, SchemeKind};
/// use sparsedist_multicomputer::{MachineModel, Multicomputer};
///
/// let a = paper_array_a();
/// let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
/// let part = RowBlock::new(10, 8, 4);
/// let run = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs).unwrap();
/// let g = gather_global(&machine, &run.locals, &part, CompressKind::Crs,
///                       GatherStrategy::Encoded).unwrap();
/// assert_eq!(g.global.to_dense(), a); // gather inverts distribution
/// ```
///
/// # Errors
/// Returns [`SparsedistError::SourceDead`] when the collecting rank 0 is
/// dead, plus the usual communication/validation failures. Dead sender
/// ranks degrade gracefully: each part travels from the rank that owns it
/// under [`assign_owners`], so survivors cover for the dead.
///
/// # Panics
/// Panics if the machine size disagrees with the partition or `locals`.
pub fn gather_global(
    machine: &Multicomputer,
    locals: &[LocalCompressed],
    part: &dyn Partition,
    kind: CompressKind,
    strategy: GatherStrategy,
) -> Result<GatherRun, SparsedistError> {
    let p = machine.nprocs();
    assert_eq!(
        part.nparts(),
        p,
        "partition has {} parts, machine {p}",
        part.nparts()
    );
    assert_eq!(locals.len(), p, "need one local array per processor");
    for (pid, l) in locals.iter().enumerate() {
        assert_eq!(
            l.kind(),
            kind,
            "local array {pid} is {} but gather kind is {kind}",
            l.kind()
        );
    }
    if machine.fault_plan().is_some_and(|pl| pl.is_dead(0)) {
        return Err(SparsedistError::SourceDead { rank: 0 });
    }
    let owners = assign_owners(part, &alive_ranks_of(machine));
    let index = OwnerIndex::new(&owners, p);
    let ctx = GatherCtx {
        locals,
        part,
        kind,
        strategy,
        owners: &owners,
        index: &index,
    };
    let (globals, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| gather_task(ctx, env));

    let mut iter = globals.into_iter();
    let global = match iter.next() {
        Some(Ok(Some(g))) => {
            for r in iter {
                r?;
            }
            g
        }
        Some(Err(e)) => return Err(e),
        _ => unreachable!("rank 0 is alive and returns the global array"),
    };
    Ok(GatherRun {
        strategy,
        ledgers,
        global,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{ColBlock, Mesh2D, RowBlock, RowCyclic};
    use crate::schemes::{run_scheme, SchemeKind};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    #[test]
    fn gather_inverts_distribution() {
        let a = paper_array_a();
        let parts: Vec<Box<dyn Partition>> = vec![
            Box::new(RowBlock::new(10, 8, 4)),
            Box::new(ColBlock::new(10, 8, 4)),
            Box::new(Mesh2D::new(10, 8, 2, 2)),
            Box::new(RowCyclic::new(10, 8, 4)),
        ];
        for part in &parts {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let run = run_scheme(SchemeKind::Ed, &machine(4), &a, part.as_ref(), kind).unwrap();
                for strategy in [
                    GatherStrategy::Dense,
                    GatherStrategy::Compressed,
                    GatherStrategy::Encoded,
                ] {
                    let g = gather_global(&machine(4), &run.locals, part.as_ref(), kind, strategy)
                        .unwrap();
                    assert_eq!(
                        g.global.to_dense(),
                        a,
                        "{kind} {:?} {}",
                        strategy,
                        part.name()
                    );
                    assert_eq!(g.global.kind(), kind);
                }
            }
        }
    }

    #[test]
    fn compressed_gather_ships_less_than_dense() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let run = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let dense = gather_global(
            &machine(4),
            &run.locals,
            &part,
            CompressKind::Crs,
            GatherStrategy::Dense,
        )
        .unwrap();
        let enc = gather_global(
            &machine(4),
            &run.locals,
            &part,
            CompressKind::Crs,
            GatherStrategy::Encoded,
        )
        .unwrap();
        let send = |g: &GatherRun| -> f64 {
            g.ledgers
                .iter()
                .map(|l| l.get(Phase::Send).as_micros())
                .sum()
        };
        assert!(send(&enc) < send(&dense));
    }

    #[test]
    fn encoded_gather_beats_compressed_on_the_wire() {
        // Same margin as in the forward direction: no separate pointer
        // array, counts only.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let run = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let comp = gather_global(
            &machine(4),
            &run.locals,
            &part,
            CompressKind::Crs,
            GatherStrategy::Compressed,
        )
        .unwrap();
        let enc = gather_global(
            &machine(4),
            &run.locals,
            &part,
            CompressKind::Crs,
            GatherStrategy::Encoded,
        )
        .unwrap();
        let send = |g: &GatherRun| -> f64 {
            g.ledgers
                .iter()
                .map(|l| l.get(Phase::Send).as_micros())
                .sum()
        };
        assert!(send(&enc) < send(&comp));
    }

    #[test]
    fn gather_of_empty_array() {
        let a = crate::dense::Dense2D::zeros(12, 12);
        let part = RowBlock::new(12, 12, 4);
        let run = run_scheme(SchemeKind::Cfs, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let g = gather_global(
            &machine(4),
            &run.locals,
            &part,
            CompressKind::Crs,
            GatherStrategy::Encoded,
        )
        .unwrap();
        assert_eq!(g.global.nnz(), 0);
        assert_eq!(g.global.shape(), (12, 12));
    }
}
