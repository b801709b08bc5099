//! The staged distribution pipeline shared by every scheme driver.
//!
//! The paper's three schemes differ only in *what* each stage does and
//! *which phase* pays for it — the flow is always the same stage graph:
//!
//! ```text
//!   source:    encode part 0..p  ──►  send part 0..p
//!                (per-scheme hook)      (blocking, or isend + wait_all
//!                                        under SchemeConfig::overlap;
//!                                        whole buffers, or bounded framed
//!                                        chunks under chunk_elems)
//!   receiver:  recv part(s)  ──►  decode  ──►  [finish]
//!                                  (hook)       (SFC's local compression)
//! ```
//!
//! [`SchemeStages`] captures the per-scheme hooks; [`run_pipeline`] is the
//! one driver that composes them with owner maps, wire-format negotiation,
//! host-side parallelism ([`map_parts_counted`]) and the fault-aware retry
//! layer underneath `send`/`recv_async`. The scheme modules (`sfc.rs`, `cfs.rs`,
//! `ed.rs`) shrink to their hooks plus a phase-charging policy.
//!
//! # Invariants
//!
//! * Under the default config (v1 wire, no overlap, no chunking) the driver
//!   replays the seed per-scheme drivers *exactly*: identical virtual
//!   clocks, ledgers, wire bytes and trace spans.
//! * `overlap` and `chunk_elems` never change the decoded local arrays or
//!   any non-`Send` busy phase's op total; overlap additionally keeps bytes
//!   and elements on the wire identical, while chunking adds exactly one
//!   prefix element (8 bytes) per logical message plus the extra
//!   `T_Startup` per additional chunk.

use crate::compress::{CompressKind, LocalCompressed};
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::schemes::{
    alive_ranks_of, assign_owners, collect_parts, map_parts_counted, OwnerIndex, SchemeConfig,
    SchemeKind, SchemeRun, SOURCE,
};
use sparsedist_multicomputer::{CommError, Env, Multicomputer, PackBuffer, Phase, TaskFuture};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a scheme's source-side encode is charged to the virtual clock.
pub(crate) enum SourcePolicy {
    /// Encode work is charged in one fused phase: SFC packs under
    /// [`Phase::Pack`], ED encodes under [`Phase::Encode`].
    Fused(Phase),
    /// CFS interleaves compression and packing per part in the code but the
    /// paper accounts them separately: the encode hook counts *compression*
    /// ops, and packing is then charged as one op per packed element.
    CompressThenPack,
}

/// The per-scheme hooks the shared driver composes. Implementations borrow
/// the global array / partition / wire format they need, so the hooks only
/// see a part id.
pub(crate) trait SchemeStages: Sync {
    /// What the decode hook produces; [`SchemeStages::finish_part`] or
    /// [`SchemeStages::local_from`] turns it into the final local array.
    /// (`Sync` because the batch finish stage shares the mids across scoped
    /// host threads by reference.)
    type Mid: Send + Sync;

    /// Which scheme this is (labels traces and the returned [`SchemeRun`]).
    fn scheme(&self) -> SchemeKind;

    /// Source-side phase-charging policy.
    fn source_policy(&self) -> SourcePolicy;

    /// The phase the receiver-side decode is charged to.
    fn recv_phase(&self) -> Phase;

    /// Whether the batch receiver path runs the decode inside the phase
    /// block (SFC, ED) or ahead of it (CFS) — irrelevant to the virtual
    /// clock (the hooks never charge the env) but it decides wall-clock
    /// attribution, and the driver replays each seed driver's shape.
    fn batch_decode_inside_phase(&self) -> bool;

    /// Arena checkout size for part `pid`'s wire buffer.
    fn buf_capacity(&self, pid: usize) -> usize;

    /// Produce part `pid`'s wire buffer, counting source-side ops.
    fn encode_part(
        &self,
        buf: &mut PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<(), SparsedistError>;

    /// Decode a received payload, counting receiver-side ops.
    fn decode_part(
        &self,
        payload: &PackBuffer,
        pid: usize,
        ops: &mut OpCounter,
    ) -> Result<Self::Mid, SparsedistError>;

    /// The phase of the optional post-decode stage (SFC compresses its
    /// dense parts under [`Phase::Compress`]); `None` for CFS/ED, whose
    /// decode already yields the compressed local array.
    fn finish_phase(&self) -> Option<Phase> {
        None
    }

    /// The optional post-decode stage itself. Only invoked when
    /// [`SchemeStages::finish_phase`] is `Some`.
    fn finish_part(&self, mid: &Self::Mid, ops: &mut OpCounter) -> LocalCompressed;

    /// Convert the decode result into the local array directly (CFS/ED).
    /// Only invoked when [`SchemeStages::finish_phase`] is `None`.
    fn local_from(&self, mid: Self::Mid) -> LocalCompressed;
}

/// Send one logical part buffer: whole (the seed byte stream) or, with
/// `chunk_elems > 0`, as `⌈elems / chunk_elems⌉` bounded framed chunks.
///
/// Chunk framing: the byte stream is split into `k` near-equal ranges
/// (splits need *not* align with element boundaries — the receiver
/// reassembles before decoding); chunk 0 is prefixed with the chunk count
/// as one `u64` element. Each chunk re-credits its share `⌊E(i+1)/k⌋ −
/// ⌊Ei/k⌋ ≤ chunk_elems` of the original element count `E`, so per-chunk
/// `T_Data` charges sum to the unchunked total and any retransmission under
/// a fault plan charges [`Phase::Retry`] per *chunk*, not per logical
/// message. Overhead: one element + 8 bytes per logical message, plus one
/// `T_Startup` per additional chunk.
///
/// With `nonblocking`, every transmission is posted via [`Env::isend`];
/// the caller owns the eventual [`Env::wait_all`].
pub(crate) fn send_part(
    env: &mut Env,
    dst: usize,
    buf: PackBuffer,
    chunk_elems: usize,
    nonblocking: bool,
) -> Result<(), CommError> {
    let post = |env: &mut Env, b: PackBuffer| {
        if nonblocking {
            // lint: allow(C002) — send_part posts on behalf of its caller, who owns the eventual wait_all (drivers drain per stage)
            env.isend(dst, b)
        } else {
            env.send(dst, b)
        }
    };
    if chunk_elems == 0 {
        return post(env, buf);
    }
    let elems = buf.elem_count();
    let nbytes = buf.byte_len();
    // lint: allow(W002) — the chunk count is bounded by an in-memory element count
    let k = (elems.div_ceil(chunk_elems as u64) as usize).max(1);
    for i in 0..k {
        let (lo, hi) = (nbytes * i / k, nbytes * (i + 1) / k);
        let credit = elems * (i as u64 + 1) / k as u64 - elems * i as u64 / k as u64;
        let mut chunk = env.arena().checkout(hi - lo + 8);
        if i == 0 {
            chunk.push_u64(k as u64);
        }
        chunk.push_chunk(&buf.as_bytes()[lo..hi], credit);
        env.span(&format!("chunk{}/{k}", i + 1), |env| post(env, chunk))?;
    }
    env.arena().recycle_bytes(buf.into_bytes());
    Ok(())
}

/// Receive one logical part buffer from `src`, reassembling chunks when
/// `chunk_elems > 0` (the sender and receiver must agree on whether
/// chunking is on; the chunk count itself travels in the first frame).
/// The returned buffer's element count equals the sender's pre-chunking
/// count, so downstream recycling and accounting are chunking-agnostic.
///
/// Async so the event-loop engine can park the rank between frames; on
/// the threaded engine each `.await` resolves in the same poll.
pub(crate) async fn recv_part(
    env: &mut Env,
    src: usize,
    chunk_elems: usize,
) -> Result<PackBuffer, SparsedistError> {
    let first = env.recv_async(src).await?.payload;
    if chunk_elems == 0 {
        return Ok(first);
    }
    let k = first.cursor().try_read_usize()?;
    let mut out = env.arena().checkout(first.byte_len().saturating_mul(k));
    out.push_chunk(&first.as_bytes()[8..], first.elem_count() - 1);
    env.arena().recycle_bytes(first.into_bytes());
    for _ in 1..k {
        let chunk = env.recv_async(src).await?.payload;
        out.push_chunk(chunk.as_bytes(), chunk.elem_count());
        env.arena().recycle_bytes(chunk.into_bytes());
    }
    Ok(out)
}

/// Source side, staged (the seed flow): encode *all* parts, then send them
/// in part order.
fn source_staged<S: SchemeStages>(
    env: &mut Env,
    stages: &S,
    nparts: usize,
    owners: &[usize],
    config: SchemeConfig,
) -> Result<(), SparsedistError> {
    let bufs: Vec<PackBuffer> = match stages.source_policy() {
        SourcePolicy::Fused(phase) => env.phase(phase, |env| {
            let mut ops = OpCounter::new();
            let (bufs, counts) = {
                let arena = env.arena();
                map_parts_counted(nparts, config.parallel, &mut ops, &|pid, ops| {
                    let mut buf = arena.checkout(stages.buf_capacity(pid));
                    stages.encode_part(&mut buf, pid, ops).map(|()| buf)
                })
            };
            if env.is_tracing() {
                let pairs: Vec<(usize, u64)> = counts.into_iter().enumerate().collect();
                env.trace_part_ops(&pairs);
            }
            env.charge_ops(ops.take());
            bufs.into_iter().collect::<Result<Vec<_>, _>>()
        })?,
        SourcePolicy::CompressThenPack => {
            let (bufs, compress_total, compress_counts) = {
                let arena = env.arena();
                let mut compress_ops = OpCounter::new();
                let (bufs, counts) =
                    map_parts_counted(nparts, config.parallel, &mut compress_ops, &|pid, ops| {
                        let mut buf = arena.checkout(stages.buf_capacity(pid));
                        stages.encode_part(&mut buf, pid, ops).map(|()| buf)
                    });
                (bufs, compress_ops.take(), counts)
            };
            let bufs: Vec<PackBuffer> = bufs.into_iter().collect::<Result<Vec<_>, _>>()?;
            let pack_total: u64 = bufs.iter().map(PackBuffer::elem_count).sum();
            env.phase(Phase::Compress, |env| {
                if env.is_tracing() {
                    let pairs: Vec<(usize, u64)> =
                        compress_counts.into_iter().enumerate().collect();
                    env.trace_part_ops(&pairs);
                }
                env.charge_ops(compress_total)
            });
            env.phase(Phase::Pack, |env| {
                if env.is_tracing() {
                    let pairs: Vec<(usize, u64)> = bufs
                        .iter()
                        .map(PackBuffer::elem_count)
                        .enumerate()
                        .collect();
                    env.trace_part_ops(&pairs);
                }
                env.charge_ops(pack_total)
            });
            bufs
        }
    };
    env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
        for (pid, buf) in bufs.into_iter().enumerate() {
            send_part(env, owners[pid], buf, config.chunk_elems, false)?;
        }
        Ok(())
    })
}

/// Source side, overlapped: each part is sent (nonblocking) as soon as it
/// is encoded, so encode of part `i+1` overlaps the transfer of part `i`
/// on the NIC; one final `wait_all` (charged to [`Phase::Send`]) drains
/// the link. Encode/compress/pack carry the same *op totals* as the staged
/// path (charged per part here rather than as one fused sum, so the f64
/// phase totals agree to rounding dust), while the `Send` total shrinks to
/// the part of the wire time the CPU could not hide.
fn source_overlapped<S: SchemeStages>(
    env: &mut Env,
    stages: &S,
    nparts: usize,
    owners: &[usize],
    config: SchemeConfig,
) -> Result<(), SparsedistError> {
    for (pid, &owner) in owners.iter().enumerate().take(nparts) {
        let buf = match stages.source_policy() {
            SourcePolicy::Fused(phase) => env.phase(phase, |env| {
                let mut ops = OpCounter::new();
                let mut buf = env.arena().checkout(stages.buf_capacity(pid));
                let r = stages.encode_part(&mut buf, pid, &mut ops).map(|()| buf);
                let n = ops.take();
                env.trace_part_ops(&[(pid, n)]);
                env.charge_ops(n);
                r
            })?,
            SourcePolicy::CompressThenPack => {
                let mut ops = OpCounter::new();
                let mut buf = env.arena().checkout(stages.buf_capacity(pid));
                stages.encode_part(&mut buf, pid, &mut ops)?;
                let n = ops.take();
                env.phase(Phase::Compress, |env| {
                    env.trace_part_ops(&[(pid, n)]);
                    env.charge_ops(n);
                });
                let packed = buf.elem_count();
                env.phase(Phase::Pack, |env| {
                    env.trace_part_ops(&[(pid, packed)]);
                    env.charge_ops(packed);
                });
                buf
            }
        };
        env.phase(Phase::Send, |env| {
            send_part(env, owner, buf, config.chunk_elems, true)
        })?;
    }
    env.phase(Phase::Send, |env| env.wait_all());
    Ok(())
}

/// Receiver side: collect the parts this rank owns, decode them (batched
/// onto host threads when `parallel` and ≥ 2 parts land here), and run the
/// optional finish stage. Awaits only inside [`recv_part`].
async fn receive_parts<S: SchemeStages>(
    env: &mut Env,
    stages: &S,
    mine: &[usize],
    config: SchemeConfig,
) -> Result<Vec<(usize, LocalCompressed)>, SparsedistError> {
    let mut out = Vec::with_capacity(mine.len());
    if config.parallel && mine.len() >= 2 {
        // Receive everything first, then decode the parts on scoped host
        // threads; each phase's merged op total equals the sequential
        // path's sum of per-part charges, so the virtual clock cannot tell
        // them apart.
        let mut payloads = Vec::with_capacity(mine.len());
        for &pid in mine {
            payloads.push((pid, recv_part(env, SOURCE, config.chunk_elems).await?));
        }
        let decode = |i: usize, ops: &mut OpCounter, payloads: &[(usize, PackBuffer)]| {
            let (pid, payload) = &payloads[i];
            stages.decode_part(payload, *pid, ops)
        };
        let mids = if stages.batch_decode_inside_phase() {
            env.phase(stages.recv_phase(), |env| {
                let mut ops = OpCounter::new();
                let (mids, counts) = {
                    let ps = &payloads;
                    map_parts_counted(ps.len(), true, &mut ops, &|i, ops| decode(i, ops, ps))
                };
                if env.is_tracing() {
                    let pairs: Vec<(usize, u64)> =
                        payloads.iter().map(|(pid, _)| *pid).zip(counts).collect();
                    env.trace_part_ops(&pairs);
                }
                env.charge_ops(ops.take());
                mids
            })
        } else {
            let (mids, total, counts) = {
                let ps = &payloads;
                let mut ops = OpCounter::new();
                let (mids, counts) =
                    map_parts_counted(ps.len(), true, &mut ops, &|i, ops| decode(i, ops, ps));
                (mids, ops.take(), counts)
            };
            env.phase(stages.recv_phase(), |env| {
                if env.is_tracing() {
                    let pairs: Vec<(usize, u64)> =
                        payloads.iter().map(|(pid, _)| *pid).zip(counts).collect();
                    env.trace_part_ops(&pairs);
                }
                env.charge_ops(total)
            });
            mids
        };
        let mut locals = Vec::with_capacity(mids.len());
        for (mid, (pid, payload)) in mids.into_iter().zip(payloads) {
            env.arena().recycle_bytes(payload.into_bytes());
            locals.push((pid, mid?));
        }
        if let Some(fphase) = stages.finish_phase() {
            let compressed = env.phase(fphase, |env| {
                let mut ops = OpCounter::new();
                let (c, counts) = {
                    let locals_ref = &locals;
                    map_parts_counted(locals.len(), true, &mut ops, &|i, ops| {
                        stages.finish_part(&locals_ref[i].1, ops)
                    })
                };
                if env.is_tracing() {
                    let pairs: Vec<(usize, u64)> =
                        locals.iter().map(|(pid, _)| *pid).zip(counts).collect();
                    env.trace_part_ops(&pairs);
                }
                env.charge_ops(ops.take());
                c
            });
            out.extend(locals.iter().map(|(pid, _)| *pid).zip(compressed));
        } else {
            out.extend(
                locals
                    .into_iter()
                    .map(|(pid, mid)| (pid, stages.local_from(mid))),
            );
        }
    } else {
        for &pid in mine {
            let payload = recv_part(env, SOURCE, config.chunk_elems).await?;
            let mid = env.phase(stages.recv_phase(), |env| {
                let mut ops = OpCounter::new();
                let mid = stages.decode_part(&payload, pid, &mut ops);
                let n = ops.take();
                env.trace_part_ops(&[(pid, n)]);
                env.charge_ops(n);
                mid
            })?;
            env.arena().recycle_bytes(payload.into_bytes());
            if let Some(fphase) = stages.finish_phase() {
                let local = env.phase(fphase, |env| {
                    let mut ops = OpCounter::new();
                    let local = stages.finish_part(&mid, &mut ops);
                    let n = ops.take();
                    env.trace_part_ops(&[(pid, n)]);
                    env.charge_ops(n);
                    local
                });
                out.push((pid, local));
            } else {
                out.push((pid, stages.local_from(mid)));
            }
        }
    }
    Ok(out)
}

/// Everything a plain (unrouted) rank task needs, threaded through
/// [`Multicomputer::run_tasks_with_ledgers`]'s context parameter so the
/// spawning closure itself stays capture-free (the `for<'e>` bound
/// forbids it from holding these borrows directly).
struct PlainCtx<'a, S: SchemeStages> {
    stages: &'a S,
    nparts: usize,
    owners: &'a [usize],
    index: &'a OwnerIndex,
    config: SchemeConfig,
}

/// One rank of the plain pipeline as a boxed task: source encode+send
/// (all synchronous — sends never block), then the async receive side.
fn plain_task<'e, S: SchemeStages>(
    ctx: &'e PlainCtx<'_, S>,
    env: &'e mut Env,
) -> TaskFuture<'e, Result<Vec<(usize, LocalCompressed)>, SparsedistError>> {
    Box::pin(async move {
        let me = env.rank();
        env.trace_scope(ctx.stages.scheme().label());
        if env.is_rank_dead(me) {
            return Ok(Vec::new());
        }
        if me == SOURCE {
            if ctx.config.overlap {
                source_overlapped(env, ctx.stages, ctx.nparts, ctx.owners, ctx.config)?;
            } else {
                source_staged(env, ctx.stages, ctx.nparts, ctx.owners, ctx.config)?;
            }
        }
        receive_parts(env, ctx.stages, ctx.index.parts_of(me), ctx.config).await
    })
}

/// The one SPMD driver behind `run_scheme`: owner assignment, source
/// encode+send (staged or overlapped), receiver decode (+finish), and
/// result collection. Runs through the task API, so machines past the
/// threaded engine's processor cap transparently land on the event-loop
/// backend with bit-identical ledgers.
///
/// Fault plans that schedule *timed* rank deaths
/// ([`sparsedist_multicomputer::FaultPlan::with_death_at`]) switch the run
/// onto the routed recovery protocol ([`run_pipeline_routed`]): parts are
/// announced with headers, dead destinations are re-homed mid-stream, and
/// the final owner map reflects where each part actually landed. Plans
/// without timed deaths (including drop/corrupt/delay-only plans) take the
/// plain path below, byte-identical to the seed behaviour.
pub(crate) fn run_pipeline<S: SchemeStages>(
    machine: &Multicomputer,
    stages: &S,
    part: &dyn Partition,
    kind: CompressKind,
    config: SchemeConfig,
) -> Result<SchemeRun, SparsedistError> {
    if machine.fault_plan().is_some_and(|p| p.has_timed_deaths()) {
        return run_pipeline_routed(machine, stages, part, kind, config);
    }
    let nparts = part.nparts();
    let owners = assign_owners(part, &alive_ranks_of(machine));
    let index = OwnerIndex::new(&owners, machine.nprocs());
    let ctx = PlainCtx {
        stages,
        nparts,
        owners: &owners,
        index: &index,
        config,
    };
    let (results, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| plain_task(ctx, env));
    let locals = collect_parts(results, nparts)?;
    Ok(SchemeRun {
        scheme: stages.scheme(),
        compress_kind: kind,
        source: SOURCE,
        ledgers,
        locals,
        owners,
    })
}

// ----------------------------------------------------------------------
// Routed recovery: the driver used when the fault plan schedules timed
// rank deaths.
// ----------------------------------------------------------------------

/// Routed-stream header tag announcing "no more parts for you".
const ROUTED_DONE: u64 = u64::MAX;

/// Source-side state for the routed recovery protocol.
///
/// Each part travels as a 1-element *header* message carrying its part id,
/// followed by the part body via [`send_part`]. When a send trips a timed
/// death ([`CommError::PeerDead`]) the router marks the destination dead,
/// re-homes every part it owned — both the already-delivered ones (lost
/// with the rank) and the queued remainder — onto the least-loaded
/// surviving compute rank, and replays them under [`Phase::Retry`]
/// (re-encode plus blocking resend: recovery work, not pipeline work).
/// After the queue drains, each surviving rank gets a [`ROUTED_DONE`]
/// header in ascending rank order; a death detected on the DONE send
/// triggers the same re-home-and-replay before the walk continues. Ranks
/// that already received DONE have left their receive loop, so they are
/// never re-home targets. The source itself is not a fallback owner: when
/// the last compute rank dies the distribution has failed, reported as
/// [`SparsedistError::NoSurvivors`].
struct Router<'a, S: SchemeStages> {
    stages: &'a S,
    config: SchemeConfig,
    /// Per-part cell counts, for least-loaded re-home placement.
    cells: &'a [usize],
    /// The evolving owner map (starts as [`assign_owners`]' placement).
    owners: Vec<usize>,
    /// Parts still to deliver, with a replay flag.
    work: VecDeque<(usize, bool)>,
    /// Parts fully delivered to each rank (replayed if the rank dies).
    delivered: Vec<Vec<usize>>,
    /// Ranks observed dead mid-run.
    dead: BTreeSet<usize>,
    /// Ranks that already received their DONE header.
    finished: BTreeSet<usize>,
}

impl<'a, S: SchemeStages> Router<'a, S> {
    fn new(
        stages: &'a S,
        config: SchemeConfig,
        cells: &'a [usize],
        owners: Vec<usize>,
        nprocs: usize,
    ) -> Self {
        let work = (0..owners.len()).map(|pid| (pid, false)).collect();
        let delivered = vec![Vec::new(); nprocs];
        Router {
            stages,
            config,
            cells,
            owners,
            work,
            delivered,
            dead: BTreeSet::new(),
            finished: BTreeSet::new(),
        }
    }

    /// Drive the whole source side: deliver every part, drain the NIC when
    /// overlapping, then walk the DONE headers in `done_order`.
    ///
    /// `done_order` lists the ranks sorted by scheduled death time,
    /// earliest first (the fault plan is shared deterministic state).
    /// Flushing the doomed ranks first means a death discovered on a DONE
    /// send still finds unfinished survivors to adopt the lost parts; a
    /// naive ascending walk can strand a late death's parts after every
    /// other rank has already left its receive loop.
    fn run(&mut self, env: &mut Env, done_order: &[usize]) -> Result<(), SparsedistError> {
        self.drain(env)?;
        if self.config.overlap {
            env.phase(Phase::Send, |env| env.wait_all());
        }
        for &r in done_order {
            if env.is_rank_dead(r) || self.dead.contains(&r) {
                continue;
            }
            let mut header = env.arena().checkout(8);
            header.push_u64(ROUTED_DONE);
            match env.phase(Phase::Send, |env| env.send(r, header)) {
                Ok(()) => {
                    self.finished.insert(r);
                }
                Err(CommError::PeerDead { rank }) => {
                    self.on_death(env, rank, None)?;
                    self.drain(env)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Pop and deliver queued parts until the queue is empty.
    fn drain(&mut self, env: &mut Env) -> Result<(), SparsedistError> {
        while let Some((pid, replay)) = self.work.pop_front() {
            self.deliver(env, pid, replay)?;
        }
        Ok(())
    }

    /// Encode and ship one part to its current owner, handling a death on
    /// the way out by re-homing and requeueing.
    fn deliver(&mut self, env: &mut Env, pid: usize, replay: bool) -> Result<(), SparsedistError> {
        let dst = self.owners[pid];
        let res = if replay {
            // Recovery work: the re-encode and the resend are both charged
            // to Retry, and the resend is blocking — replays are rare and
            // correctness of the failure ordering beats pipelining them.
            env.phase(Phase::Retry, |env| -> Result<(), SparsedistError> {
                let mut ops = OpCounter::new();
                let mut buf = env.arena().checkout(self.stages.buf_capacity(pid));
                self.stages.encode_part(&mut buf, pid, &mut ops)?;
                env.charge_ops(ops.take());
                self.ship(env, dst, pid, buf, false)
            })
        } else {
            let buf = self.encode_charged(env, pid)?;
            let nb = self.config.overlap;
            env.phase(Phase::Send, |env| self.ship(env, dst, pid, buf, nb))
        };
        match res {
            Ok(()) => {
                self.delivered[dst].push(pid);
                Ok(())
            }
            Err(SparsedistError::Comm(CommError::PeerDead { rank })) => {
                self.on_death(env, rank, Some(pid))
            }
            Err(e) => Err(e),
        }
    }

    /// Per-part encode with the same phase charging as the overlapped
    /// source path (per part, not fused).
    fn encode_charged(&self, env: &mut Env, pid: usize) -> Result<PackBuffer, SparsedistError> {
        match self.stages.source_policy() {
            SourcePolicy::Fused(phase) => env.phase(phase, |env| {
                let mut ops = OpCounter::new();
                let mut buf = env.arena().checkout(self.stages.buf_capacity(pid));
                let r = self
                    .stages
                    .encode_part(&mut buf, pid, &mut ops)
                    .map(|()| buf);
                let n = ops.take();
                env.trace_part_ops(&[(pid, n)]);
                env.charge_ops(n);
                r
            }),
            SourcePolicy::CompressThenPack => {
                let mut ops = OpCounter::new();
                let mut buf = env.arena().checkout(self.stages.buf_capacity(pid));
                self.stages.encode_part(&mut buf, pid, &mut ops)?;
                let n = ops.take();
                env.phase(Phase::Compress, |env| {
                    env.trace_part_ops(&[(pid, n)]);
                    env.charge_ops(n);
                });
                let packed = buf.elem_count();
                env.phase(Phase::Pack, |env| {
                    env.trace_part_ops(&[(pid, packed)]);
                    env.charge_ops(packed);
                });
                Ok(buf)
            }
        }
    }

    /// One header + part-body transmission to `dst`.
    fn ship(
        &self,
        env: &mut Env,
        dst: usize,
        pid: usize,
        buf: PackBuffer,
        nonblocking: bool,
    ) -> Result<(), SparsedistError> {
        let mut header = env.arena().checkout(8);
        // lint: allow(W002) — part ids are bounded by the partition's part count
        header.push_u64(pid as u64);
        if nonblocking {
            // lint: allow(C002) — Router::ship pipelines posts across parts; Router::run wait_alls once after the routing loop completes
            env.isend(dst, header)?;
        } else {
            env.send(dst, header)?;
        }
        send_part(env, dst, buf, self.config.chunk_elems, nonblocking)?;
        Ok(())
    }

    /// React to a [`CommError::PeerDead`] observed while sending: the
    /// source's own death is terminal ([`SparsedistError::SourceDead`]);
    /// a destination's death re-homes its parts and requeues the in-flight
    /// one (if any) as a replay.
    fn on_death(
        &mut self,
        env: &Env,
        rank: usize,
        in_flight: Option<usize>,
    ) -> Result<(), SparsedistError> {
        if rank == SOURCE {
            return Err(SparsedistError::SourceDead { rank: SOURCE });
        }
        self.dead.insert(rank);
        self.rehome(env, rank)?;
        if let Some(pid) = in_flight {
            self.work.push_back((pid, true));
        }
        Ok(())
    }

    /// Move every part owned by `casualty` onto the least-loaded surviving
    /// compute rank (ties to the lowest rank — deterministic), and requeue
    /// the parts it had already received as replays.
    fn rehome(&mut self, env: &Env, casualty: usize) -> Result<(), SparsedistError> {
        let orphans: Vec<usize> = (0..self.owners.len())
            .filter(|&pid| self.owners[pid] == casualty)
            .collect();
        if orphans.is_empty() {
            return Ok(());
        }
        let survivors: Vec<usize> = (0..env.nprocs())
            .filter(|&r| {
                r != SOURCE
                    && !env.is_rank_dead(r)
                    && !self.dead.contains(&r)
                    && !self.finished.contains(&r)
            })
            .collect();
        if survivors.is_empty() {
            return Err(SparsedistError::NoSurvivors { part: orphans[0] });
        }
        let mut load: BTreeMap<usize, usize> = survivors.iter().map(|&r| (r, 0)).collect();
        for pid in 0..self.owners.len() {
            if let Some(l) = load.get_mut(&self.owners[pid]) {
                *l += self.cells[pid];
            }
        }
        for &pid in &orphans {
            let (&best, _) = load
                .iter()
                .min_by_key(|&(&r, &l)| (l, r))
                // lint: allow(E002) — survivors is non-empty, checked above
                .expect("at least one survivor");
            self.owners[pid] = best;
            // lint: allow(E002) — best was drawn from load's own iterator just above
            *load.get_mut(&best).expect("chosen rank survives") += self.cells[pid];
        }
        let lost = std::mem::take(&mut self.delivered[casualty]);
        self.work.extend(lost.into_iter().map(|pid| (pid, true)));
        Ok(())
    }
}

/// Receiver side of the routed protocol: consume `(header, part)` pairs
/// from the source until a [`ROUTED_DONE`] header arrives.
///
/// Replayed parts are deduplicated by part id — a part already decoded is
/// received and discarded, so replays are idempotent. A death notice for
/// *this* rank ends the loop with an empty contribution (the source
/// observed the same death and re-homed everything this rank held); any
/// other communication failure surfaces as a typed error.
async fn routed_receive<S: SchemeStages>(
    env: &mut Env,
    stages: &S,
    config: SchemeConfig,
) -> Result<Vec<(usize, LocalCompressed)>, SparsedistError> {
    let me = env.rank();
    let mut got: BTreeMap<usize, LocalCompressed> = BTreeMap::new();
    loop {
        let header = match env.recv_async(SOURCE).await {
            Ok(msg) => msg.payload,
            Err(CommError::PeerDead { rank }) if rank == me => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let tag = header.cursor().try_read_u64()?;
        env.arena().recycle_bytes(header.into_bytes());
        if tag == ROUTED_DONE {
            break;
        }
        // lint: allow(W002) — the tag is a part id bounded by the part count
        let pid = tag as usize;
        let payload = match recv_part(env, SOURCE, config.chunk_elems).await {
            Ok(p) => p,
            Err(SparsedistError::Comm(CommError::PeerDead { rank })) if rank == me => {
                return Ok(Vec::new())
            }
            Err(e) => return Err(e),
        };
        if got.contains_key(&pid) {
            env.arena().recycle_bytes(payload.into_bytes());
            continue;
        }
        let mid = env.phase(stages.recv_phase(), |env| {
            let mut ops = OpCounter::new();
            let mid = stages.decode_part(&payload, pid, &mut ops);
            let n = ops.take();
            env.trace_part_ops(&[(pid, n)]);
            env.charge_ops(n);
            mid
        })?;
        env.arena().recycle_bytes(payload.into_bytes());
        let local = if let Some(fphase) = stages.finish_phase() {
            env.phase(fphase, |env| {
                let mut ops = OpCounter::new();
                let local = stages.finish_part(&mid, &mut ops);
                let n = ops.take();
                env.trace_part_ops(&[(pid, n)]);
                env.charge_ops(n);
                local
            })
        } else {
            stages.local_from(mid)
        };
        got.insert(pid, local);
    }
    Ok(got.into_iter().collect())
}

/// Context for one routed-recovery rank task (see [`PlainCtx`] for why
/// the borrows ride in a struct instead of the spawning closure).
struct RoutedCtx<'a, S: SchemeStages> {
    stages: &'a S,
    config: SchemeConfig,
    cells: &'a [usize],
    owners0: &'a [usize],
    done_order: &'a [usize],
}

/// One rank of the routed pipeline as a boxed task: the source drives the
/// [`Router`] (synchronous — sends never block, deaths are observed on
/// the send path), every rank then runs the async routed receive loop.
fn routed_task<'e, S: SchemeStages>(
    ctx: &'e RoutedCtx<'_, S>,
    env: &'e mut Env,
) -> TaskFuture<'e, Result<Vec<(usize, LocalCompressed)>, SparsedistError>> {
    Box::pin(async move {
        let me = env.rank();
        env.trace_scope(ctx.stages.scheme().label());
        if env.is_rank_dead(me) {
            return Ok(Vec::new());
        }
        if me == SOURCE {
            let mut router = Router::new(
                ctx.stages,
                ctx.config,
                ctx.cells,
                ctx.owners0.to_vec(),
                env.nprocs(),
            );
            router.run(env, ctx.done_order)?;
        }
        routed_receive(env, ctx.stages, ctx.config).await
    })
}

/// [`run_pipeline`] for fault plans with timed deaths: the routed recovery
/// protocol. The returned [`SchemeRun::owners`] is rebuilt from where each
/// part actually landed, so mid-stream re-homes are visible to callers.
fn run_pipeline_routed<S: SchemeStages>(
    machine: &Multicomputer,
    stages: &S,
    part: &dyn Partition,
    kind: CompressKind,
    config: SchemeConfig,
) -> Result<SchemeRun, SparsedistError> {
    let nparts = part.nparts();
    let owners0 = assign_owners(part, &alive_ranks_of(machine));
    let cells: Vec<usize> = (0..nparts)
        .map(|pid| {
            let (r, c) = part.local_shape(pid);
            r * c
        })
        .collect();
    // DONE walk order: scheduled deaths earliest first (ties and immortal
    // ranks by ascending rank) — see `Router::run`.
    let deaths: BTreeMap<usize, f64> = machine
        .fault_plan()
        .map(|p| p.dying_ranks().collect())
        .unwrap_or_default();
    let mut done_order: Vec<usize> = (0..machine.nprocs()).collect();
    done_order.sort_by(|&x, &y| {
        let kx = deaths.get(&x).copied().unwrap_or(f64::INFINITY);
        let ky = deaths.get(&y).copied().unwrap_or(f64::INFINITY);
        kx.partial_cmp(&ky)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.cmp(&y))
    });
    let ctx = RoutedCtx {
        stages,
        config,
        cells: &cells,
        owners0: &owners0,
        done_order: &done_order,
    };
    let (results, ledgers) = machine.run_tasks_with_ledgers(&ctx, |ctx, env| routed_task(ctx, env));
    let mut owners = vec![usize::MAX; nparts];
    let mut slots: Vec<Option<LocalCompressed>> = (0..nparts).map(|_| None).collect();
    for (rank, res) in results.into_iter().enumerate() {
        for (pid, local) in res? {
            owners[pid] = rank;
            slots[pid] = Some(local);
        }
    }
    let locals = slots
        .into_iter()
        .enumerate()
        .map(|(pid, s)| s.ok_or(SparsedistError::NoSurvivors { part: pid }))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SchemeRun {
        scheme: stages.scheme(),
        compress_kind: kind,
        source: SOURCE,
        ledgers,
        locals,
        owners,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{Ccs, Crs};
    use crate::dense::{paper_array_a, Dense2D};
    use crate::partition::{ColBlock, RowBlock};
    use crate::schemes::{run_scheme, run_scheme_with};
    use sparsedist_multicomputer::{FaultPlan, MachineModel, PackArena, RetryPolicy, WireStats};

    fn sp2(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn run(
        scheme: SchemeKind,
        m: &Multicomputer,
        a: &Dense2D,
        part: &dyn Partition,
        kind: CompressKind,
        config: SchemeConfig,
    ) -> SchemeRun {
        run_scheme_with(scheme, m, a, part, kind, config).unwrap()
    }

    fn assert_close(
        p: sparsedist_multicomputer::VirtualTime,
        o: sparsedist_multicomputer::VirtualTime,
        scheme: SchemeKind,
        rank: usize,
        phase: Phase,
    ) {
        assert!(
            (p.as_micros() - o.as_micros()).abs() < 1e-6,
            "{scheme:?} rank {rank} {phase:?}: {p:?} vs {o:?}"
        );
    }

    fn wire_totals(r: &SchemeRun) -> WireStats {
        r.ledgers.iter().fold(WireStats::default(), |acc, l| {
            let w = l.wire();
            WireStats {
                messages: acc.messages + w.messages,
                elements: acc.elements + w.elements,
                bytes: acc.bytes + w.bytes,
            }
        })
    }

    /// A 64×64 array with 410 scattered nonzeros: large enough that every
    /// phase does real work on all 8 ranks.
    fn scattered() -> (Dense2D, RowBlock) {
        let mut a = Dense2D::zeros(64, 64);
        for i in 0..410 {
            a.set((i * 7) % 64, (i * 13 + i / 64) % 64, 1.0 + i as f64);
        }
        (a, RowBlock::new(64, 64, 8))
    }

    /// FNV-1a 64 fold of `bytes` into `h`.
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn survivors_owning_several_parts_keep_their_ledgers() {
        // Digests of the ledgers (their `Debug` rendering: shortest
        // round-trip f64s, so equal digests mean bit-identical ledgers)
        // this layout produced when every rank scanned the owner map for
        // its parts. The owner index must hand each survivor the same
        // parts in the same order, so nothing may move.
        const PINNED: [(SchemeKind, u64); 3] = [
            (SchemeKind::Sfc, 0x6a21_303a_a858_9af1),
            (SchemeKind::Cfs, 0x931f_ddfd_2f50_3d92),
            (SchemeKind::Ed, 0x21d5_bc4b_0c80_3482),
        ];
        let (a, part) = scattered();
        let parallel = SchemeConfig {
            parallel: true,
            ..SchemeConfig::default()
        };
        for (scheme, pinned) in PINNED {
            let mut h = 0xcbf2_9ce4_8422_2325;
            // Four survivors owning two parts each; then two owning four.
            for dead in [&[2, 3, 5, 6][..], &[1, 2, 3, 4, 5, 6]] {
                let plan = dead
                    .iter()
                    .fold(FaultPlan::new(11), |p, &r| p.with_dead_rank(r));
                let m = sp2(8).with_faults(plan);
                for kind in [CompressKind::Crs, CompressKind::Ccs] {
                    let seq = run(scheme, &m, &a, &part, kind, SchemeConfig::default());
                    let par = run(scheme, &m, &a, &part, kind, parallel);
                    let most = (0..8)
                        .map(|r| seq.owners.iter().filter(|&&o| o == r).count())
                        .max();
                    assert_eq!(most, Some(8 / (8 - dead.len())), "{scheme} {kind}");
                    assert_eq!(seq.reassemble(&part), a, "{scheme} {kind}");
                    assert_eq!(par.reassemble(&part), a, "{scheme} {kind}");
                    assert_eq!(par.owners, seq.owners, "{scheme} {kind}");
                    assert_eq!(par.locals, seq.locals, "{scheme} {kind}");
                    // The batched receive waits for all its parts before
                    // decoding, so the two ledgers differ in `Wait`; each
                    // is pinned on its own.
                    for r in [&seq, &par] {
                        h = fnv1a(h, format!("{:?}", r.ledgers).as_bytes());
                    }
                }
            }
            assert_eq!(h, pinned, "{scheme}: ledgers moved (digest {h:#018x})");
        }
    }

    // ------------------------------------------------------------------
    // SFC through the unified driver (relocated from the seed `sfc.rs`).
    // ------------------------------------------------------------------

    #[test]
    fn sfc_row_partition_matches_table1_closed_form() {
        // Table 1 SFC: T_Distribution = p·T_Startup + n²·T_Data,
        // T_Compression = ⌈n/p⌉·n·(1+3s')·T_Operation.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Sfc,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );

        let dist = run.t_distribution().as_micros();
        let expect_dist = 4.0 * m.t_startup + 80.0 * m.t_data;
        assert!(
            (dist - expect_dist).abs() < 1e-9,
            "dist {dist} vs {expect_dist}"
        );

        // The slowest *compressor* is the part maximising cells + 3·nnz:
        // P0/P1/P2 have 24 cells; P2 has 6 nonzeros → 24 + 18 = 42 ops.
        let comp = run.t_compression().as_micros();
        let expect_comp = 42.0 * m.t_op;
        assert!(
            (comp - expect_comp).abs() < 1e-9,
            "comp {comp} vs {expect_comp}"
        );
    }

    #[test]
    fn sfc_row_partition_charges_no_pack_ops() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let run = run(
            SchemeKind::Sfc,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        assert_eq!(run.ledgers[0].get(Phase::Pack).as_micros(), 0.0);
        for l in &run.ledgers {
            assert_eq!(l.get(Phase::Unpack).as_micros(), 0.0);
        }
    }

    #[test]
    fn sfc_column_partition_charges_strided_pack() {
        let a = paper_array_a();
        let part = ColBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Sfc,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        // Source packs all 80 cells at 1 op each.
        let pack = run.ledgers[0].get(Phase::Pack).as_micros();
        assert!((pack - 80.0 * m.t_op).abs() < 1e-9);
        // Each receiver unpacks its 10×2 = 20 cells.
        for l in &run.ledgers {
            assert!((l.get(Phase::Unpack).as_micros() - 20.0 * m.t_op).abs() < 1e-9);
        }
    }

    #[test]
    fn sfc_wire_volume_is_the_full_dense_array() {
        // SFC always ships n·m dense elements regardless of sparsity.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Sfc,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let send = run.ledgers[0].get(Phase::Send).as_micros();
        assert!((send - (4.0 * m.t_startup + 80.0 * m.t_data)).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // CFS through the unified driver (relocated from the seed `cfs.rs`).
    // ------------------------------------------------------------------

    #[test]
    fn cfs_row_crs_matches_table1_closed_form() {
        // Table 1 CFS with n-not-square array generalised:
        // compression = cells·(1+3s) ops; pack = 2·nnz + Σ(rows_i + 1);
        // send = p·T_Startup + pack_elems·T_Data;
        // unpack(max) = max_i (rows_i + 1 + 2·nnz_i).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Cfs,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );

        let comp = run.t_compression().as_micros();
        assert!((comp - 128.0 * m.t_op).abs() < 1e-9, "compression: {comp}");

        // pack elems: pointers (3+1)+(3+1)+(3+1)+(1+1) = 14, plus 2·16 = 32
        // → 46 elements.
        let src = &run.ledgers[0];
        assert!((src.get(Phase::Pack).as_micros() - 46.0 * m.t_op).abs() < 1e-9);
        let send = src.get(Phase::Send).as_micros();
        assert!((send - (4.0 * m.t_startup + 46.0 * m.t_data)).abs() < 1e-9);

        // unpack max: P2 has 4 pointers + 2·6 indices/values = 16 ops
        // (Case 3.2.1: no conversion).
        let unpack_max = run
            .ledgers
            .iter()
            .map(|l| l.get(Phase::Unpack).as_micros())
            .fold(0.0f64, f64::max);
        assert!(
            (unpack_max - 16.0 * m.t_op).abs() < 1e-9,
            "unpack {unpack_max}"
        );
    }

    #[test]
    fn cfs_row_ccs_conversion_charged() {
        // Row partition + CCS is Case 3.2.2: each index conversion costs
        // one extra op → unpack per rank = (9 pointers) + 3·nnz_i.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Cfs,
            &sp2(4),
            &a,
            &part,
            CompressKind::Ccs,
            SchemeConfig::default(),
        );
        // P2 has 6 nonzeros: 9 + 18 = 27 ops.
        let unpack_max = run
            .ledgers
            .iter()
            .map(|l| l.get(Phase::Unpack).as_micros())
            .fold(0.0f64, f64::max);
        assert!(
            (unpack_max - 27.0 * m.t_op).abs() < 1e-9,
            "unpack {unpack_max}"
        );
    }

    #[test]
    fn cfs_receivers_hold_local_indices() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let run = run(
            SchemeKind::Cfs,
            &sp2(4),
            &a,
            &part,
            CompressKind::Ccs,
            SchemeConfig::default(),
        );
        // P1's decoded CCS must be over local rows 0..3, matching the
        // direct local compression.
        let expect = Ccs::from_dense(&part.extract_dense(&a, 1), &mut OpCounter::new());
        assert_eq!(run.locals[1].as_ccs(), &expect);
    }

    #[test]
    fn cfs_wire_volume_scales_with_nnz_not_cells() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Cfs,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let send = run.ledgers[0].get(Phase::Send).as_micros();
        // 46 elements (see above) — far less than the 80 dense cells SFC
        // would send.
        assert!(send < 4.0 * m.t_startup + 80.0 * m.t_data);
    }

    // ------------------------------------------------------------------
    // ED through the unified driver (relocated from the seed `ed.rs`).
    // ------------------------------------------------------------------

    #[test]
    fn ed_row_crs_matches_table1_closed_form() {
        // Table 1 ED: T_Distribution = p·T_Startup + (2·nnz + rows)·T_Data
        // (no pack/unpack ops at all); T_Compression = encode + max decode.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = MachineModel::ibm_sp2();
        let run = run(
            SchemeKind::Ed,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );

        let src = &run.ledgers[0];
        assert_eq!(src.get(Phase::Pack).as_micros(), 0.0);
        for l in &run.ledgers {
            assert_eq!(l.get(Phase::Unpack).as_micros(), 0.0);
        }
        // Wire: per part rows_i + 2·nnz_i elements → total 10 + 32 = 42.
        let dist = run.t_distribution().as_micros();
        assert!(
            (dist - (4.0 * m.t_startup + 42.0 * m.t_data)).abs() < 1e-9,
            "dist {dist}"
        );

        // Encode = 128 ops (cells + 3·nnz); max decode = P2's
        // 1 + 3 rows + 2·6 = 16 ops (Case 3.3.1, no conversion).
        let comp = run.t_compression().as_micros();
        assert!((comp - (128.0 + 16.0) * m.t_op).abs() < 1e-9, "comp {comp}");
    }

    #[test]
    fn ed_wire_volume_beats_cfs() {
        // ED ships rows + 2·nnz; CFS ships (rows + p) + 2·nnz. The
        // difference is the p extra pointer entries (Remark 1's margin on
        // the wire, on top of the removed pack/unpack passes).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let ed = run(
            SchemeKind::Ed,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let cfs = run_scheme(SchemeKind::Cfs, &sp2(4), &a, &part, CompressKind::Crs).unwrap();
        let ed_send = ed.ledgers[0].get(Phase::Send);
        let cfs_send = cfs.ledgers[0].get(Phase::Send);
        assert!(ed_send < cfs_send);
    }

    #[test]
    fn ed_decoded_state_matches_direct_compression() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let run = run(
            SchemeKind::Ed,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        for pid in 0..4 {
            let expect = Crs::from_dense(&part.extract_dense(&a, pid), &mut OpCounter::new());
            assert_eq!(run.locals[pid].as_crs(), &expect, "P{pid}");
        }
    }

    // ------------------------------------------------------------------
    // Overlap: nonblocking sends behind `SchemeConfig::overlap`.
    // ------------------------------------------------------------------

    #[test]
    fn overlap_preserves_state_and_non_send_phases_for_every_scheme() {
        let (a, row) = scattered();
        // SFC's row-partition pack is free (contiguous memcpy, zero ops),
        // leaving nothing to hide transfers behind — give it the strided
        // column partition so every scheme has source-side compute.
        let col = ColBlock::new(64, 64, 8);
        let m = sp2(8);
        for (scheme, part) in [
            (SchemeKind::Sfc, &col as &dyn Partition),
            (SchemeKind::Cfs, &row),
            (SchemeKind::Ed, &row),
        ] {
            let plain = run(
                scheme,
                &m,
                &a,
                part,
                CompressKind::Crs,
                SchemeConfig::default(),
            );
            let over = run(
                scheme,
                &m,
                &a,
                part,
                CompressKind::Crs,
                SchemeConfig::overlapped(),
            );
            assert_eq!(plain.locals, over.locals, "{scheme:?} locals");
            // Same bytes and elements travel; overlap only re-times them.
            assert_eq!(
                wire_totals(&plain),
                wire_totals(&over),
                "{scheme:?} wire totals"
            );
            // Every busy phase except Send carries the same op totals. The
            // staged source charges one fused total while overlap charges
            // per part as each buffer is posted, so the f64 sums agree only
            // to rounding dust — compare with a 1e-6 µs tolerance.
            for (rank, (p, o)) in plain.ledgers.iter().zip(&over.ledgers).enumerate() {
                for phase in [
                    Phase::Compress,
                    Phase::Encode,
                    Phase::Pack,
                    Phase::Unpack,
                    Phase::Decode,
                    Phase::Retry,
                ] {
                    assert_close(p.get(phase), o.get(phase), scheme, rank, phase);
                }
            }
            // The NIC hides transfer time behind the per-part encode, so the
            // source finishes strictly earlier and so does the whole run.
            assert!(
                over.ledgers[0].get(Phase::Send) < plain.ledgers[0].get(Phase::Send),
                "{scheme:?} Send did not shrink"
            );
            assert!(
                over.t_makespan() < plain.t_makespan(),
                "{scheme:?} makespan {:?} !< {:?}",
                over.t_makespan(),
                plain.t_makespan()
            );
        }
    }

    #[test]
    fn ed_overlap_shrinks_makespan_and_distribution() {
        // Unlike the historical blocking interleave (equal makespan, better
        // mean completion), nonblocking sends genuinely shorten both the
        // makespan and `T_Distribution`.
        let (a, part) = scattered();
        let m = sp2(8);
        let plain = run(
            SchemeKind::Ed,
            &m,
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let over = run_scheme_with(
            SchemeKind::Ed,
            &m,
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::overlapped(),
        )
        .unwrap();
        assert_eq!(plain.locals, over.locals);
        assert!(
            (plain.t_compression().as_micros() - over.t_compression().as_micros()).abs() < 1e-6,
            "t_compression {:?} vs {:?}",
            plain.t_compression(),
            over.t_compression()
        );
        assert_eq!(wire_totals(&plain), wire_totals(&over));
        assert!(over.t_distribution() < plain.t_distribution());
        assert!(over.t_makespan() < plain.t_makespan());
    }

    // ------------------------------------------------------------------
    // Chunked streaming behind `SchemeConfig::chunk_elems`.
    // ------------------------------------------------------------------

    #[test]
    fn chunking_preserves_locals_and_adds_one_prefix_element_per_message() {
        let (a, part) = scattered();
        let m = sp2(8);
        for scheme in [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed] {
            let plain = run(
                scheme,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig::default(),
            );
            let chunked = run(
                scheme,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig {
                    chunk_elems: 7,
                    ..SchemeConfig::default()
                },
            );
            assert_eq!(plain.locals, chunked.locals, "{scheme:?} locals");
            let (pw, cw) = (wire_totals(&plain), wire_totals(&chunked));
            // Framing overhead is exactly one u64 chunk-count prefix per
            // logical message (8 parts from one source here).
            assert_eq!(cw.elements, pw.elements + 8, "{scheme:?} elements");
            assert_eq!(cw.bytes, pw.bytes + 8 * 8, "{scheme:?} bytes");
            assert!(cw.messages > pw.messages, "{scheme:?} messages");
            // Receiver-side phases can't tell: reassembly happens before
            // decode and costs no virtual time.
            for (rank, (p, c)) in plain.ledgers.iter().zip(&chunked.ledgers).enumerate() {
                for phase in [
                    Phase::Compress,
                    Phase::Encode,
                    Phase::Pack,
                    Phase::Unpack,
                    Phase::Decode,
                ] {
                    assert_eq!(
                        p.get(phase),
                        c.get(phase),
                        "{scheme:?} rank {rank} {phase:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_composes_with_chunking() {
        let (a, part) = scattered();
        let m = sp2(8);
        for scheme in [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed] {
            let plain = run(
                scheme,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig::default(),
            );
            let both = run(
                scheme,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig {
                    overlap: true,
                    chunk_elems: 16,
                    ..SchemeConfig::default()
                },
            );
            assert_eq!(plain.locals, both.locals, "{scheme:?} locals");
            assert_eq!(
                wire_totals(&both).elements,
                wire_totals(&plain).elements + 8,
                "{scheme:?} elements"
            );
        }
    }

    // ------------------------------------------------------------------
    // Chunked retries: `Phase::Retry` is charged per chunk.
    // ------------------------------------------------------------------

    /// Drive `send_part`/`recv_part` directly on a 2-rank machine so the
    /// payload geometry is exact: 10 elements, 80 bytes, chunked by 2 into
    /// k = 5 frames (chunk 0 carries the u64 chunk-count prefix → 3
    /// elements; chunks 1-4 carry 2 each).
    fn chunked_fault_ledgers(
        seed: u64,
        drop_p: f64,
        chunk_elems: usize,
    ) -> Vec<sparsedist_multicomputer::PhaseLedger> {
        let plan = FaultPlan::new(seed).with_drop(drop_p);
        let m = Multicomputer::virtual_machine(2, MachineModel::new(10.0, 2.0, 1.0))
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 6,
                timeout_us: 100.0,
                backoff: 2.0,
            });
        let (results, ledgers) = m.run_tasks_with_ledgers(&(), move |(), env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    let arena = PackArena::new();
                    let mut buf = arena.checkout(80);
                    for i in 0..10u64 {
                        buf.push_u64(i);
                    }
                    env.phase(Phase::Send, |env| {
                        send_part(env, 1, buf, chunk_elems, false)
                    })?;
                } else {
                    let got = recv_part(env, 0, chunk_elems).await?;
                    assert_eq!(got.elem_count(), 10);
                    let mut c = got.cursor();
                    for i in 0..10u64 {
                        assert_eq!(c.read_u64(), i);
                    }
                }
                Ok::<(), SparsedistError>(())
            })
        });
        for r in results {
            r.unwrap();
        }
        ledgers
    }

    #[test]
    fn chunked_retry_charges_retry_per_chunk_not_per_message() {
        // Seed 21 drops exactly the first attempt of sequence 0 (found by
        // scanning seeds; pinned by the exact ledger split below). With
        // chunking, sequence 0 is *chunk 0*: 3 elements (u64 chunk-count
        // prefix + 2 payload elements), 24 bytes. First attempts of all
        // five chunks book to Send:
        //   5·T_Startup + (3+2+2+2+2)·T_Data = 50 + 22 = 72 µs.
        // The single retransmission books to Retry: one 100 µs ARQ timeout
        // plus the *chunk's* wire cost (10 + 3·2 = 16 µs), not the whole
        // 10-element message's (10 + 10·2 = 30 µs):
        let ledgers = chunked_fault_ledgers(21, 0.08, 2);
        assert_eq!(ledgers[0].faults().retries, 1, "want exactly one retry");
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 72.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 116.0);
    }

    #[test]
    fn unchunked_retry_recharges_the_whole_message() {
        // The contrast case under the *same* fault roll: seed 21 drops the
        // first attempt of sequence 0, which without chunking is the whole
        // 10-element message — Send = 10 + 10·2 = 30 µs for the first
        // attempt, Retry = 100 µs timeout + 30 µs full-message recharge
        // (vs the 16 µs single-chunk recharge above).
        let ledgers = chunked_fault_ledgers(21, 0.08, 0);
        assert_eq!(ledgers[0].faults().retries, 1, "want exactly one retry");
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 30.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 130.0);
    }

    #[test]
    fn chunking_survives_fault_plans_with_identical_locals() {
        let (a, part) = scattered();
        for seed in [1, 7, 42] {
            let plan = || FaultPlan::new(seed).with_drop(0.15).with_corrupt(0.1);
            let m = |chunk: usize| {
                let m = Multicomputer::virtual_machine(8, MachineModel::ibm_sp2())
                    .with_faults(plan())
                    .with_retry_policy(RetryPolicy::with_retries(20));
                run(
                    SchemeKind::Ed,
                    &m,
                    &a,
                    &part,
                    CompressKind::Crs,
                    SchemeConfig {
                        chunk_elems: chunk,
                        ..SchemeConfig::default()
                    },
                )
            };
            let plain = m(0);
            let chunked = m(9);
            assert_eq!(plain.locals, chunked.locals, "seed {seed}");
            assert!(
                chunked
                    .ledgers
                    .iter()
                    .map(|l| l.faults().retries)
                    .sum::<u64>()
                    > 0,
                "seed {seed}: fault plan never fired — weak test"
            );
        }
    }

    // ------------------------------------------------------------------
    // Routed recovery under timed rank death.
    // ------------------------------------------------------------------

    fn death_machine(p: usize, victim: usize, t_us: f64) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::new(10.0, 2.0, 1.0))
            .with_faults(FaultPlan::new(3).with_death_at(victim, t_us))
    }

    #[test]
    fn timed_death_rehomes_parts_and_reassembles() {
        // Kill rank 3 at various points of the stream, across every config
        // shape. The run must always either deliver the golden array with
        // part 3 re-homed to a survivor, or (late deaths) behave as if no
        // death happened. At least one death time per config must actually
        // trigger a mid-stream re-home, or the test is vacuous.
        let (a, part) = scattered();
        for config in [
            SchemeConfig::default(),
            SchemeConfig::overlapped(),
            SchemeConfig {
                chunk_elems: 16,
                ..SchemeConfig::default()
            },
            SchemeConfig {
                overlap: true,
                chunk_elems: 16,
                parallel: true,
                ..SchemeConfig::default()
            },
        ] {
            let mut rehomed = 0;
            for t in [60.0, 400.0, 900.0, 2500.0, 1e9] {
                let m = death_machine(8, 3, t);
                let run = run_scheme_with(SchemeKind::Ed, &m, &a, &part, CompressKind::Crs, config)
                    .unwrap_or_else(|e| panic!("t={t} {config:?}: {e}"));
                assert_eq!(run.reassemble(&part), a, "t={t} {config:?}");
                assert_eq!(run.total_nnz(), a.nnz(), "t={t} {config:?}");
                if run.owners[3] != 3 {
                    rehomed += 1;
                    assert!(
                        run.owners.iter().all(|&o| o != 3),
                        "t={t} {config:?}: dead rank still owns a part: {:?}",
                        run.owners
                    );
                }
            }
            assert!(rehomed >= 1, "{config:?}: no death time re-homed anything");
        }
    }

    #[test]
    fn every_death_time_reassembles_for_every_scheme() {
        // A dense sweep of death times across the whole run — including the
        // narrow windows around part boundaries and the DONE walk — on all
        // three schemes. Every instant must recover to the golden array
        // (7 survivors always remain).
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 3);
        for scheme in SchemeKind::ALL {
            for step in 0..80 {
                let t = 5.0 + 25.0 * step as f64;
                let m = death_machine(3, 2, t);
                let run = run_scheme(scheme, &m, &a, &part, CompressKind::Crs)
                    .unwrap_or_else(|e| panic!("{scheme} t={t}: {e}"));
                assert_eq!(run.reassemble(&part), a, "{scheme} t={t}");
            }
        }
    }

    #[test]
    fn no_survivors_is_a_typed_error() {
        // Two ranks: the only non-source compute rank dies immediately, so
        // part 1 has nowhere to go.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 2);
        let m = death_machine(2, 1, 1.0);
        let err = run_scheme(SchemeKind::Ed, &m, &a, &part, CompressKind::Crs).unwrap_err();
        assert_eq!(err, SparsedistError::NoSurvivors { part: 1 });
        assert!(err.to_string().contains("re-home part 1"), "{err}");
    }

    #[test]
    fn routed_death_runs_are_deterministic() {
        let (a, part) = scattered();
        let go = || {
            let m = death_machine(8, 3, 900.0);
            run_scheme_with(
                SchemeKind::Cfs,
                &m,
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig {
                    overlap: true,
                    chunk_elems: 32,
                    ..SchemeConfig::default()
                },
            )
            .unwrap()
        };
        let (r1, r2) = (go(), go());
        assert_eq!(r1.ledgers, r2.ledgers);
        assert_eq!(r1.locals, r2.locals);
        assert_eq!(r1.owners, r2.owners);
    }

    #[test]
    fn late_death_matches_plain_locals() {
        // A death scheduled far beyond the run horizon never fires: the
        // routed protocol must deliver the same locals and owner map as the
        // unrouted path (ledgers differ by the header traffic, by design).
        let (a, part) = scattered();
        let plain = run(
            SchemeKind::Ed,
            &sp2(8),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let m = Multicomputer::virtual_machine(8, MachineModel::ibm_sp2())
            .with_faults(FaultPlan::new(3).with_death_at(5, 1e12));
        let routed = run_scheme(SchemeKind::Ed, &m, &a, &part, CompressKind::Crs).unwrap();
        assert_eq!(routed.locals, plain.locals);
        assert_eq!(routed.owners, plain.owners);
    }

    /// A minimal passthrough scheme for driving the routed receiver by
    /// hand: each part is one u64, decoded into a 1×1 CRS local.
    struct EchoStages;

    impl SchemeStages for EchoStages {
        type Mid = LocalCompressed;

        fn scheme(&self) -> SchemeKind {
            SchemeKind::Ed
        }
        fn source_policy(&self) -> SourcePolicy {
            SourcePolicy::Fused(Phase::Encode)
        }
        fn recv_phase(&self) -> Phase {
            Phase::Decode
        }
        fn batch_decode_inside_phase(&self) -> bool {
            true
        }
        fn buf_capacity(&self, _pid: usize) -> usize {
            8
        }
        fn encode_part(
            &self,
            buf: &mut PackBuffer,
            pid: usize,
            ops: &mut OpCounter,
        ) -> Result<(), SparsedistError> {
            buf.push_u64(pid as u64);
            ops.add(1);
            Ok(())
        }
        fn decode_part(
            &self,
            payload: &PackBuffer,
            _pid: usize,
            ops: &mut OpCounter,
        ) -> Result<LocalCompressed, SparsedistError> {
            ops.add(1);
            let mut d = Dense2D::zeros(1, 1);
            d.set(0, 0, payload.cursor().read_u64() as f64 + 1.0);
            Ok(LocalCompressed::Crs(Crs::from_dense(
                &d,
                &mut OpCounter::new(),
            )))
        }
        fn finish_part(&self, mid: &LocalCompressed, _ops: &mut OpCounter) -> LocalCompressed {
            mid.clone()
        }
        fn local_from(&self, mid: LocalCompressed) -> LocalCompressed {
            mid
        }
    }

    #[test]
    fn routed_receiver_dedups_replayed_parts() {
        // Deliver the same part twice (a replay a conservative source might
        // issue) followed by DONE: the receiver must keep exactly one copy
        // and charge the decode exactly once — replays are idempotent.
        let m = Multicomputer::virtual_machine(2, MachineModel::new(10.0, 2.0, 1.0));
        let (results, ledgers) = m.run_tasks_with_ledgers(&(), |(), env| {
            Box::pin(async move {
                if env.rank() == 0 {
                    env.phase(Phase::Send, |env| -> Result<(), SparsedistError> {
                        for _ in 0..2 {
                            let mut header = env.arena().checkout(8);
                            header.push_u64(0);
                            env.send(1, header)?;
                            let mut buf = env.arena().checkout(8);
                            buf.push_u64(7);
                            send_part(env, 1, buf, 0, false)?;
                        }
                        let mut done = env.arena().checkout(8);
                        done.push_u64(u64::MAX);
                        env.send(1, done)?;
                        Ok(())
                    })?;
                    Ok(Vec::new())
                } else {
                    routed_receive(env, &EchoStages, SchemeConfig::default()).await
                }
            })
        });
        let mut out = results.into_iter();
        out.next().unwrap().unwrap();
        let got = out.next().unwrap().unwrap();
        assert_eq!(got.len(), 1, "duplicate survived dedup");
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1.nnz(), 1);
        // Decode charged once: 1 op at T_Operation = 1 µs.
        assert_eq!(ledgers[1].get(Phase::Decode).as_micros(), 1.0);
    }

    #[test]
    fn tiny_payloads_chunk_to_a_single_frame() {
        // chunk_elems larger than the payload: k = 1, pure prefix overhead.
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let plain = run(
            SchemeKind::Ed,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig::default(),
        );
        let chunked = run(
            SchemeKind::Ed,
            &sp2(4),
            &a,
            &part,
            CompressKind::Crs,
            SchemeConfig {
                chunk_elems: 1 << 20,
                ..SchemeConfig::default()
            },
        );
        assert_eq!(plain.locals, chunked.locals);
        let (pw, cw) = (wire_totals(&plain), wire_totals(&chunked));
        assert_eq!(cw.messages, pw.messages);
        assert_eq!(cw.elements, pw.elements + 4);
    }
}
