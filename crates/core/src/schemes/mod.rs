//! The three data distribution schemes (paper §3) and their shared
//! reporting machinery.
//!
//! Every driver runs SPMD on a [`Multicomputer`], with rank 0 acting as the
//! source processor that holds the global array (the paper's host). All
//! three produce identical final state — each processor holding its
//! compressed local sparse array — but spend their time in different
//! phases, which is the whole point of the comparison:
//!
//! | scheme | source does | wire carries | receiver does |
//! |---|---|---|---|
//! | SFC | extract dense parts | `n²` dense elements | compress locally |
//! | CFS | compress all parts, pack `RO`/`CO`/`VL` | `≈ 2n²s` elements | unpack + convert indices |
//! | ED  | encode special buffers `B` | `≈ 2n²s` elements | decode `B` directly |
//!
//! [`SchemeRun::t_distribution`] and [`SchemeRun::t_compression`] aggregate
//! the per-rank ledgers exactly the way the paper's Tables 1–2 do, so the
//! regenerated tables are directly comparable.

mod cfs;
mod ed;
pub mod multi;
mod pipeline;
mod sfc;

use crate::compress::{CompressKind, LocalCompressed};
use crate::dense::Dense2D;
use crate::error::SparsedistError;
use crate::opcount::OpCounter;
use crate::partition::Partition;
use crate::wire::{CodecChoice, WireFormat};
use sparsedist_multicomputer::{Multicomputer, Phase, PhaseLedger, VirtualTime};
use std::fmt;

/// Tuning knobs for a scheme run that change *how* the work is done on the
/// host — never *what* is distributed or what the paper's cost model
/// charges for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SchemeConfig {
    /// Wire layout for every buffer the scheme sends. [`WireFormat::V1`]
    /// (the default) reproduces the seed byte streams exactly;
    /// [`WireFormat::V2`] negotiates compact index encodings per message;
    /// [`WireFormat::V3`] adds per-stream codecs chosen by [`Self::codec`].
    pub wire: WireFormat,
    /// Which v3 codec the sender picks per message: a forced codec, or
    /// [`CodecChoice::Auto`] to let the machine's α-β cost model decide
    /// whether encode CPU beats wire bytes. Ignored under v1/v2, whose
    /// layouts are fixed by the format.
    pub codec: CodecChoice,
    /// Encode/compress the per-part buffers on scoped host threads at the
    /// source (and decode in parallel on receivers owning several parts).
    /// Per-part op counts are merged in part order and charged once, so
    /// virtual-time phase totals are bit-identical to the sequential path.
    pub parallel: bool,
    /// Overlap encode/compress with the transfers: the source sends each
    /// part **as soon as it is encoded** via the engine's nonblocking
    /// [`sparsedist_multicomputer::engine::Env::isend`], draining the NIC
    /// once at the end. Locals, bytes on the wire and every non-`Send`
    /// phase total are unchanged; the `Send` total (and with it the
    /// makespan and `T_Distribution`) shrinks to the wire time the CPU
    /// could not hide. Fault plans compose: the NIC runs the ARQ schedule
    /// asynchronously, so posts stay nonblocking and recovery time
    /// (retransmissions plus timeouts) that the CPU could not hide is
    /// charged to `Phase::Retry` when the final `wait_all` drains the
    /// link — delivering the same payloads as the blocking path under the
    /// identical deterministic fate sequence.
    pub overlap: bool,
    /// When nonzero, split each part's wire buffer into framed chunks of at
    /// most this many elements ([`crate::schemes`] pipeline framing), so
    /// large parts travel as bounded messages instead of one. Costs one
    /// prefix element (8 bytes) per logical message plus `T_Startup` per
    /// additional chunk; retransmissions under a fault plan are then
    /// charged per chunk. `0` (the default) sends whole buffers — the seed
    /// byte streams.
    pub chunk_elems: usize,
}

impl SchemeConfig {
    /// The compact, parallel configuration: v2 wire format plus host-side
    /// parallel encode/compress — the distribution hot path at full tilt.
    pub fn compact_parallel() -> Self {
        SchemeConfig {
            wire: WireFormat::V2,
            parallel: true,
            ..SchemeConfig::default()
        }
    }

    /// The default configuration with communication/compute overlap on.
    pub fn overlapped() -> Self {
        SchemeConfig {
            overlap: true,
            ..SchemeConfig::default()
        }
    }
}

/// Map part ids `0..nparts` through `f`, sequentially or on scoped host
/// threads, preserving part order in the returned vector and additionally
/// returning each part's own op count (`counts[pid]`).
///
/// Each part — on either path — counts its ops into a private
/// [`OpCounter`]; the counts (plain `u64`s, so addition is associative)
/// are merged into `ops` in part order afterwards. The caller charges the
/// merged total exactly once, so the virtual clock cannot tell the two
/// paths apart, and the per-part counts feed the tracing layer's sub-span
/// attribution identically whether the parts ran sequentially or on host
/// threads.
pub(crate) fn map_parts_counted<T: Send>(
    nparts: usize,
    parallel: bool,
    ops: &mut OpCounter,
    f: &(dyn Fn(usize, &mut OpCounter) -> T + Sync),
) -> (Vec<T>, Vec<u64>) {
    let workers = if parallel {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(nparts)
    } else {
        1
    };
    if workers < 2 || nparts < 2 {
        // Single-core hosts (and single parts) take the sequential path:
        // threads could only add overhead, and the results are identical
        // by construction.
        let mut out = Vec::with_capacity(nparts);
        let mut counts = Vec::with_capacity(nparts);
        for pid in 0..nparts {
            let mut local = OpCounter::new();
            out.push(f(pid, &mut local));
            let n = local.get();
            counts.push(n);
            ops.add(n);
        }
        return (out, counts);
    }
    // Contiguous part chunks, one scoped thread each — never more threads
    // than cores, so wide partitions don't oversubscribe the host.
    let chunk = nparts.div_ceil(workers);
    let per_chunk: Vec<Vec<(T, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(nparts);
                    (lo..hi)
                        .map(|pid| {
                            let mut local = OpCounter::new();
                            let out = f(pid, &mut local);
                            (out, local.get())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(E002) — a panicked worker must abort the run; propagate it
            .map(|h| h.join().expect("part worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(nparts);
    let mut counts = Vec::with_capacity(nparts);
    for chunk_results in per_chunk {
        for (t, n) in chunk_results {
            ops.add(n);
            counts.push(n);
            out.push(t);
        }
    }
    (out, counts)
}

/// The source rank every provided driver distributes from.
pub(crate) const SOURCE: usize = 0;

/// Map each part to the rank that will own it, given the alive ranks.
///
/// Fault-free (every rank alive, one part per rank) this is the identity —
/// part `i` lives on rank `i`, exactly the paper's layout. When the fault
/// plan declares ranks dead, their parts are re-assigned to survivors by
/// greedy longest-processing-time bin packing over cell counts (the same
/// idiom as [`crate::partition::BalancedRows::bin_packed`]), so the
/// distribution degrades instead of deadlocking. Every rank computes this
/// from shared state (partition + fault plan), so no agreement protocol is
/// needed.
///
/// # Panics
/// Panics if `alive` is empty.
pub fn assign_owners(part: &dyn Partition, alive: &[usize]) -> Vec<usize> {
    assert!(!alive.is_empty(), "cannot place parts with no alive ranks");
    let nparts = part.nparts();
    if alive.len() == nparts && alive.iter().enumerate().all(|(i, &r)| i == r) {
        return (0..nparts).collect();
    }
    let alive_set: std::collections::BTreeSet<usize> = alive.iter().copied().collect();
    let mut owners: Vec<usize> = vec![usize::MAX; nparts];
    // Parts whose home rank survives stay put; dead parts get re-packed.
    let mut load: std::collections::BTreeMap<usize, usize> =
        alive.iter().map(|&r| (r, 0usize)).collect();
    let cells = |pid: usize| {
        let (r, c) = part.local_shape(pid);
        r * c
    };
    let mut orphans: Vec<usize> = Vec::new();
    for (pid, owner) in owners.iter_mut().enumerate() {
        // A part's home rank is the rank with its index (one part per rank).
        if alive_set.contains(&pid) {
            *owner = pid;
            // lint: allow(E002) — load was seeded with one slot per alive rank above
            *load.get_mut(&pid).expect("alive rank has a load slot") += cells(pid);
        } else {
            orphans.push(pid);
        }
    }
    // LPT: biggest orphan first, onto the least-loaded survivor (ties to
    // the lowest rank — BTreeMap iteration order makes this deterministic).
    orphans.sort_by_key(|&pid| std::cmp::Reverse(cells(pid)));
    for pid in orphans {
        let (&best, _) = load
            .iter()
            .min_by_key(|&(&r, &l)| (l, r))
            // lint: allow(E002) — `assert!(!alive.is_empty())` at entry keeps load non-empty
            .expect("at least one alive rank");
        owners[pid] = best;
        // lint: allow(E002) — best was drawn from load's own iterator just above
        *load.get_mut(&best).expect("chosen rank is alive") += cells(pid);
    }
    owners
}

/// The inverse of an owner map: for every rank, the parts it owns.
///
/// Built once on the host by a counting sort into two flat vectors —
/// `start[nprocs + 1]` offsets into `parts[nparts]` — so a rank reads its
/// own parts in O(1) instead of scanning the whole owner map, which would
/// cost O(p) per rank and O(p²) per run. [`OwnerIndex::parts_of`] lists
/// each rank's parts in ascending part id: the source sends parts in that
/// order and links are FIFO, so receivers must take them in it too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerIndex {
    start: Vec<usize>,
    parts: Vec<usize>,
}

impl OwnerIndex {
    /// Invert `owners` (`owners[pid]` = owning rank) over `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if some owner is not below `nprocs`.
    pub fn new(owners: &[usize], nprocs: usize) -> Self {
        // Count each rank's parts, turn the counts into start offsets, then
        // place every part at its rank's cursor. The cursors end one rank
        // ahead, so shifting them back by one slot restores the offsets.
        let mut start = vec![0usize; nprocs + 1];
        for &rank in owners {
            assert!(
                rank < nprocs,
                "owner {rank} outside a {nprocs}-rank machine"
            );
            start[rank] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            (*s, sum) = (sum, sum + *s);
        }
        let mut parts = vec![0usize; owners.len()];
        for (pid, &rank) in owners.iter().enumerate() {
            parts[start[rank]] = pid;
            start[rank] += 1;
        }
        start.copy_within(0..nprocs, 1);
        start[0] = 0;
        OwnerIndex { start, parts }
    }

    /// The parts `rank` owns, in ascending part id (empty for a rank that
    /// owns none, e.g. a dead one).
    ///
    /// # Panics
    /// Panics if `rank` is not below the `nprocs` the index was built for.
    pub fn parts_of(&self, rank: usize) -> &[usize] {
        &self.parts[self.start[rank]..self.start[rank + 1]]
    }
}

/// The ranks alive under `machine`'s fault plan (all of them without one).
pub(crate) fn alive_ranks_of(machine: &Multicomputer) -> Vec<usize> {
    (0..machine.nprocs())
        .filter(|&r| !machine.fault_plan().is_some_and(|p| p.is_dead(r)))
        .collect()
}

/// Flatten per-rank `(pid, local)` contributions into a per-part vector,
/// surfacing the first rank error.
pub(crate) fn collect_parts(
    results: Vec<Result<Vec<(usize, LocalCompressed)>, SparsedistError>>,
    nparts: usize,
) -> Result<Vec<LocalCompressed>, SparsedistError> {
    let mut slots: Vec<Option<LocalCompressed>> = (0..nparts).map(|_| None).collect();
    for r in results {
        for (pid, local) in r? {
            slots[pid] = Some(local);
        }
    }
    Ok(slots
        .into_iter()
        // lint: allow(E002) — assign_owners gives every part exactly one alive owner
        .map(|s| s.expect("every part has exactly one alive owner"))
        .collect())
}

/// Which distribution scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Send Followed Compress (the baseline).
    Sfc,
    /// Compress Followed Send.
    Cfs,
    /// Encoding–Decoding.
    Ed,
}

impl SchemeKind {
    /// All three schemes, in the paper's presentation order.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Sfc, SchemeKind::Cfs, SchemeKind::Ed];

    /// Upper-case label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Sfc => "SFC",
            SchemeKind::Cfs => "CFS",
            SchemeKind::Ed => "ED",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one distribution: each rank's compressed local array plus
/// the per-rank phase ledgers.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Which compression method was used.
    pub compress_kind: CompressKind,
    /// The source rank (always 0 in the provided drivers).
    pub source: usize,
    /// Per-rank phase ledgers.
    pub ledgers: Vec<PhaseLedger>,
    /// Per-part compressed local arrays (`locals[pid]` is part `pid`).
    pub locals: Vec<LocalCompressed>,
    /// Which rank owns each part (`owners[pid]`). Identity fault-free;
    /// under rank death, parts of dead ranks move to survivors (see
    /// [`assign_owners`]).
    pub owners: Vec<usize>,
}

fn vmax(it: impl Iterator<Item = VirtualTime>) -> VirtualTime {
    it.fold(VirtualTime::ZERO, VirtualTime::max)
}

impl SchemeRun {
    /// The paper's `T_Distribution`: packing and sending at the source plus
    /// the slowest receiver's unpacking.
    pub fn t_distribution(&self) -> VirtualTime {
        let src = &self.ledgers[self.source];
        src.get(Phase::Pack)
            + src.get(Phase::Send)
            + vmax(self.ledgers.iter().map(|l| l.get(Phase::Unpack)))
    }

    /// The paper's `T_Compression`: for SFC the slowest receiver's local
    /// compression; for CFS the source's compression of every part; for ED
    /// the source's encoding plus the slowest receiver's decoding.
    pub fn t_compression(&self) -> VirtualTime {
        match self.scheme {
            SchemeKind::Sfc => vmax(self.ledgers.iter().map(|l| l.get(Phase::Compress))),
            SchemeKind::Cfs => self.ledgers[self.source].get(Phase::Compress),
            SchemeKind::Ed => {
                self.ledgers[self.source].get(Phase::Encode)
                    + vmax(self.ledgers.iter().map(|l| l.get(Phase::Decode)))
            }
        }
    }

    /// Overall cost: `T_Distribution + T_Compression` (what the paper's
    /// "overall performance" conclusions compare).
    pub fn t_total(&self) -> VirtualTime {
        self.t_distribution() + self.t_compression()
    }

    /// The simulated makespan: the latest finishing processor's clock
    /// (busy + wait). Unlike the paper's phase aggregates this captures
    /// pipelining effects — e.g. overlapping encode with send shortens the
    /// makespan without changing any phase total.
    pub fn t_makespan(&self) -> VirtualTime {
        vmax(
            self.ledgers
                .iter()
                .map(|l| l.busy_total() + l.get(Phase::Wait)),
        )
    }

    /// Total nonzeros across all local arrays.
    pub fn total_nnz(&self) -> usize {
        self.locals.iter().map(|l| l.nnz()).sum()
    }

    /// Rebuild the global dense array from the distributed compressed
    /// parts — the correctness check that all three schemes must pass.
    ///
    /// Walks each local's stored nonzeros through the part's
    /// [`Partition::global_axes`] table: O(nnz) beyond the output array.
    pub fn reassemble(&self, part: &dyn Partition) -> Dense2D {
        let (grows, gcols) = part.global_shape();
        let mut out = Dense2D::zeros(grows, gcols);
        for (pid, local) in self.locals.iter().enumerate() {
            let (rows, cols) = part.global_axes(pid);
            let mut place = |(lr, lc, v): (usize, usize, f64)| {
                if v != 0.0 {
                    out.set(rows[lr], cols[lc], v);
                }
            };
            match local {
                LocalCompressed::Crs(crs) => crs.iter().for_each(&mut place),
                LocalCompressed::Ccs(ccs) => ccs.iter().for_each(&mut place),
            }
        }
        out
    }
}

/// Distribute `global` over `machine` with the chosen scheme, partition and
/// compression method.
///
/// # Errors
/// Returns [`SparsedistError::SourceDead`] if the fault plan declares the
/// source rank dead, [`SparsedistError::Comm`] if the interconnect's retry
/// budget runs out, and compression/unpack errors if an accepted stream
/// fails validation.
///
/// # Panics
/// Panics if the partition's part count differs from the machine's
/// processor count, or if the partition was built for a different shape
/// (API misuse, not runtime faults).
pub fn run_scheme(
    scheme: SchemeKind,
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    kind: CompressKind,
) -> Result<SchemeRun, SparsedistError> {
    run_scheme_with(scheme, machine, global, part, kind, SchemeConfig::default())
}

/// [`run_scheme`] with explicit [`SchemeConfig`] knobs: wire format and
/// host-side parallel encode/compress.
///
/// `run_scheme(…)` is exactly `run_scheme_with(…, SchemeConfig::default())`
/// — v1 wire bytes and sequential host execution, the seed behaviour.
///
/// # Errors
/// Same as [`run_scheme`].
///
/// # Panics
/// Same as [`run_scheme`].
pub fn run_scheme_with(
    scheme: SchemeKind,
    machine: &Multicomputer,
    global: &Dense2D,
    part: &dyn Partition,
    kind: CompressKind,
    config: SchemeConfig,
) -> Result<SchemeRun, SparsedistError> {
    assert_eq!(
        machine.nprocs(),
        part.nparts(),
        "partition has {} parts but the machine has {} processors",
        part.nparts(),
        machine.nprocs()
    );
    assert_eq!(
        part.global_shape(),
        (global.rows(), global.cols()),
        "partition shape {:?} does not match the array {}x{}",
        part.global_shape(),
        global.rows(),
        global.cols()
    );
    if machine.fault_plan().is_some_and(|p| p.is_dead(SOURCE)) {
        return Err(SparsedistError::SourceDead { rank: SOURCE });
    }
    match scheme {
        SchemeKind::Sfc => sfc::run(machine, global, part, kind, config),
        SchemeKind::Cfs => cfs::run(machine, global, part, kind, config),
        SchemeKind::Ed => ed::run(machine, global, part, kind, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::paper_array_a;
    use crate::partition::{ColBlock, ColCyclic, Mesh2D, RowBlock, RowCyclic};
    use sparsedist_multicomputer::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::ibm_sp2())
    }

    fn all_partitions(rows: usize, cols: usize) -> Vec<Box<dyn Partition>> {
        vec![
            Box::new(RowBlock::new(rows, cols, 4)),
            Box::new(ColBlock::new(rows, cols, 4)),
            Box::new(Mesh2D::new(rows, cols, 2, 2)),
            Box::new(RowCyclic::new(rows, cols, 4)),
            Box::new(ColCyclic::new(rows, cols, 4)),
        ]
    }

    #[test]
    fn all_schemes_reassemble_the_original() {
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for scheme in SchemeKind::ALL {
                    let run = run_scheme(scheme, &machine(4), &a, part.as_ref(), kind).unwrap();
                    assert_eq!(
                        run.reassemble(part.as_ref()),
                        a,
                        "{scheme} {kind} {}",
                        part.name()
                    );
                    assert_eq!(run.total_nnz(), 16);
                }
            }
        }
    }

    #[test]
    fn schemes_produce_identical_local_state() {
        // The final compressed local arrays must be bit-identical across
        // schemes: the ordering of phases must not change the result.
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let sfc =
                    run_scheme(SchemeKind::Sfc, &machine(4), &a, part.as_ref(), kind).unwrap();
                let cfs =
                    run_scheme(SchemeKind::Cfs, &machine(4), &a, part.as_ref(), kind).unwrap();
                let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, part.as_ref(), kind).unwrap();
                assert_eq!(sfc.locals, cfs.locals, "{kind} {}", part.name());
                assert_eq!(cfs.locals, ed.locals, "{kind} {}", part.name());
            }
        }
    }

    #[test]
    fn distribution_time_ordering_matches_remark1_and_2() {
        // Remark 1: ED's distribution time beats CFS's and SFC's.
        // Remark 2: CFS's beats SFC's for s = 0.1 < 0.25 at T_Data/T_Op
        // = 1.2. The remarks drop O(n) terms, so use an array big enough
        // for the asymptotics (the 10×8 example is startup-dominated).
        let mut a = Dense2D::zeros(80, 80);
        for i in 0..640 {
            // A scattered pattern with exactly 640 nonzeros: s = 0.1.
            a.set((i * 7) % 80, (i * 13 + i / 80) % 80, 1.0 + i as f64);
        }
        assert_eq!(a.nnz(), 640);
        let part = RowBlock::new(80, 80, 4);
        let sfc = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let cfs = run_scheme(SchemeKind::Cfs, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        assert!(ed.t_distribution() < cfs.t_distribution());
        assert!(cfs.t_distribution() < sfc.t_distribution());
    }

    #[test]
    fn compression_time_ordering_matches_remark3() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let sfc = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let cfs = run_scheme(SchemeKind::Cfs, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Crs).unwrap();
        assert!(sfc.t_compression() < cfs.t_compression());
        assert!(cfs.t_compression() < ed.t_compression());
    }

    #[test]
    fn ed_beats_cfs_overall_matches_remark4() {
        let a = paper_array_a();
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                let cfs =
                    run_scheme(SchemeKind::Cfs, &machine(4), &a, part.as_ref(), kind).unwrap();
                let ed = run_scheme(SchemeKind::Ed, &machine(4), &a, part.as_ref(), kind).unwrap();
                assert!(
                    ed.t_total() < cfs.t_total(),
                    "{kind} {}: ED {} !< CFS {}",
                    part.name(),
                    ed.t_total(),
                    cfs.t_total()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "parts but the machine")]
    fn mismatched_processor_count_panics() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 2);
        let _ = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs);
    }

    #[test]
    #[should_panic(expected = "does not match the array")]
    fn mismatched_shape_panics() {
        let a = paper_array_a();
        let part = RowBlock::new(12, 8, 4);
        let _ = run_scheme(SchemeKind::Sfc, &machine(4), &a, &part, CompressKind::Crs);
    }

    #[test]
    fn virtual_runs_are_deterministic() {
        let a = paper_array_a();
        let part = Mesh2D::new(10, 8, 2, 2);
        let r1 = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Ccs).unwrap();
        let r2 = run_scheme(SchemeKind::Ed, &machine(4), &a, &part, CompressKind::Ccs).unwrap();
        assert_eq!(r1.ledgers, r2.ledgers);
        assert_eq!(r1.locals, r2.locals);
    }

    #[test]
    fn every_config_yields_identical_state_and_phase_totals() {
        // The SchemeConfig knobs tune *how* the host does the work — wire
        // layout and threading — never *what* is distributed or what the
        // paper's clock charges. Compare every config against the default
        // on every scheme × partition × kind: identical locals and
        // identical non-Wait phase totals. (Wait is excluded because the
        // parallel receiver path drains messages before decoding, which
        // legitimately reshuffles waiting between recv calls.)
        let a = paper_array_a();
        let configs = [
            SchemeConfig {
                wire: WireFormat::V2,
                ..SchemeConfig::default()
            },
            SchemeConfig {
                parallel: true,
                ..SchemeConfig::default()
            },
            SchemeConfig::compact_parallel(),
        ];
        let busy_phases = [
            Phase::Pack,
            Phase::Send,
            Phase::Unpack,
            Phase::Compress,
            Phase::Encode,
            Phase::Decode,
        ];
        for part in all_partitions(10, 8) {
            for kind in [CompressKind::Crs, CompressKind::Ccs] {
                for scheme in SchemeKind::ALL {
                    let base = run_scheme(scheme, &machine(4), &a, part.as_ref(), kind).unwrap();
                    for config in configs {
                        let run =
                            run_scheme_with(scheme, &machine(4), &a, part.as_ref(), kind, config)
                                .unwrap();
                        let tag = format!("{scheme} {kind} {} {config:?}", part.name());
                        assert_eq!(run.locals, base.locals, "{tag}");
                        for (l, b) in run.ledgers.iter().zip(&base.ledgers) {
                            for ph in busy_phases {
                                assert_eq!(l.get(ph), b.get(ph), "{tag} {ph:?}");
                            }
                            // Same logical elements on the wire under every
                            // config — T_Data cannot tell the formats apart.
                            assert_eq!(l.wire().elements, b.wire().elements, "{tag} wire elements");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn v2_wire_sends_fewer_bytes_for_compressed_schemes() {
        // The v2 saving on a sparse payload: CFS and ED index streams
        // narrow to delta varints, so the source transmits strictly fewer
        // bytes while SFC's pure-f64 stream only grows by the 3-byte
        // headers.
        let mut a = Dense2D::zeros(80, 80);
        for i in 0..640 {
            a.set((i * 7) % 80, (i * 13 + i / 80) % 80, 1.0 + i as f64);
        }
        let part = RowBlock::new(80, 80, 4);
        for scheme in [SchemeKind::Cfs, SchemeKind::Ed] {
            let v1 = run_scheme(scheme, &machine(4), &a, &part, CompressKind::Crs).unwrap();
            let v2 = run_scheme_with(
                scheme,
                &machine(4),
                &a,
                &part,
                CompressKind::Crs,
                SchemeConfig {
                    wire: WireFormat::V2,
                    ..SchemeConfig::default()
                },
            )
            .unwrap();
            let (b1, b2) = (v1.ledgers[0].wire().bytes, v2.ledgers[0].wire().bytes);
            assert!(
                (b2 as f64) < 0.7 * b1 as f64,
                "{scheme}: v2 {b2} bytes !< 70% of v1 {b1} bytes"
            );
            assert_eq!(v1.ledgers[0].wire().elements, v2.ledgers[0].wire().elements);
        }
    }

    #[test]
    fn parallel_receiver_path_matches_sequential_under_rank_death() {
        // Fault-free every receiver owns one part, so the parallel decode
        // path only wakes up when rank death re-homes parts. Kill a rank:
        // its survivor owns two parts and decodes them on host threads —
        // with the same state and the same busy-phase totals as the
        // sequential walk.
        use sparsedist_multicomputer::FaultPlan;
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = machine(4).with_faults(FaultPlan::new(7).with_dead_rank(2));
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            for scheme in SchemeKind::ALL {
                let base = run_scheme(scheme, &m, &a, &part, kind).unwrap();
                let par = run_scheme_with(
                    scheme,
                    &m,
                    &a,
                    &part,
                    kind,
                    SchemeConfig::compact_parallel(),
                )
                .unwrap();
                assert_eq!(par.locals, base.locals, "{scheme} {kind}");
                assert_eq!(par.reassemble(&part), a, "{scheme} {kind}");
                for (l, b) in par.ledgers.iter().zip(&base.ledgers) {
                    for ph in [Phase::Unpack, Phase::Compress, Phase::Decode] {
                        assert_eq!(l.get(ph), b.get(ph), "{scheme} {kind} {ph:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn compact_parallel_runs_are_deterministic() {
        let a = paper_array_a();
        let part = Mesh2D::new(10, 8, 2, 2);
        let cfg = SchemeConfig::compact_parallel();
        for scheme in SchemeKind::ALL {
            let r1 =
                run_scheme_with(scheme, &machine(4), &a, &part, CompressKind::Ccs, cfg).unwrap();
            let r2 =
                run_scheme_with(scheme, &machine(4), &a, &part, CompressKind::Ccs, cfg).unwrap();
            assert_eq!(r1.ledgers, r2.ledgers, "{scheme}");
            assert_eq!(r1.locals, r2.locals, "{scheme}");
        }
    }

    #[test]
    fn assign_owners_is_identity_when_all_alive() {
        let part = RowBlock::new(10, 8, 4);
        assert_eq!(assign_owners(&part, &[0, 1, 2, 3]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn assign_owners_moves_dead_parts_to_least_loaded_survivors() {
        let part = RowBlock::new(10, 8, 4);
        // Rank 2 dead: its part must land on some survivor.
        let owners = assign_owners(&part, &[0, 1, 3]);
        assert_eq!(owners[0], 0);
        assert_eq!(owners[1], 1);
        assert_eq!(owners[3], 3);
        assert!([0, 1, 3].contains(&owners[2]), "owners = {owners:?}");
        // Determinism: same inputs, same placement.
        assert_eq!(owners, assign_owners(&part, &[0, 1, 3]));
    }

    /// Every partition family at 12 parts over a 30×26 array.
    fn families() -> Vec<Box<dyn Partition>> {
        use crate::partition::{BalancedRows, BlockCyclic};
        let mut a = Dense2D::zeros(30, 26);
        for i in 0..120 {
            a.set((i * 7) % 30, (i * 11 + i / 30) % 26, 1.0 + i as f64);
        }
        vec![
            Box::new(RowBlock::new(30, 26, 12)),
            Box::new(ColBlock::new(30, 26, 12)),
            Box::new(RowCyclic::new(30, 26, 12)),
            Box::new(ColCyclic::new(30, 26, 12)),
            Box::new(Mesh2D::new(30, 26, 3, 4)),
            Box::new(BlockCyclic::new(30, 26, 2, 3, 3, 4)),
            Box::new(BalancedRows::contiguous(&a, 12)),
            Box::new(BalancedRows::bin_packed(&a, 12)),
        ]
    }

    /// Alive-rank sets over `p` ranks: everyone, seeded random deaths
    /// (always leaving a survivor), and each all-but-one case.
    fn alive_sets(p: usize) -> Vec<Vec<usize>> {
        let mut sets = vec![(0..p).collect::<Vec<_>>()];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..24 {
            let mut alive = Vec::new();
            for r in 0..p {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 3 != 0 {
                    alive.push(r);
                }
            }
            if alive.is_empty() {
                alive.push((x % p as u64) as usize);
            }
            sets.push(alive);
        }
        sets.extend((0..p).map(|r| vec![r]));
        sets
    }

    #[test]
    fn owner_index_inverts_every_owner_map() {
        for part in families() {
            let p = part.nparts();
            for alive in alive_sets(p) {
                let owners = assign_owners(part.as_ref(), &alive);
                let index = OwnerIndex::new(&owners, p);
                let mut seen = Vec::new();
                for r in 0..p {
                    let scan: Vec<usize> = (0..p).filter(|&pid| owners[pid] == r).collect();
                    assert_eq!(index.parts_of(r), scan, "{part:?} alive {alive:?} rank {r}");
                    if !alive.contains(&r) {
                        assert!(index.parts_of(r).is_empty(), "dead rank {r} owns parts");
                    }
                    seen.extend_from_slice(index.parts_of(r));
                }
                seen.sort_unstable();
                assert_eq!(seen, (0..p).collect::<Vec<_>>(), "{part:?} alive {alive:?}");
            }
        }
    }

    #[test]
    fn owner_index_handles_more_ranks_than_parts() {
        let index = OwnerIndex::new(&[3, 0, 3, 3], 6);
        assert_eq!(index.parts_of(0), [1]);
        assert_eq!(index.parts_of(3), [0, 2, 3]);
        for r in [1, 2, 4, 5] {
            assert!(index.parts_of(r).is_empty());
        }
        assert!(OwnerIndex::new(&[], 0).parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside a 2-rank machine")]
    fn owner_index_rejects_an_owner_beyond_the_machine() {
        let _ = OwnerIndex::new(&[0, 2], 2);
    }

    #[test]
    fn dead_rank_degrades_gracefully_for_all_schemes() {
        use sparsedist_multicomputer::FaultPlan;
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = machine(4).with_faults(FaultPlan::new(7).with_dead_rank(2));
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            for scheme in SchemeKind::ALL {
                let run = run_scheme(scheme, &m, &a, &part, kind)
                    .unwrap_or_else(|e| panic!("{scheme} {kind}: {e}"));
                // Part 2 was re-homed to a survivor, and no data was lost.
                assert_ne!(run.owners[2], 2, "{scheme} {kind}");
                assert_eq!(run.reassemble(&part), a, "{scheme} {kind}");
                assert_eq!(run.total_nnz(), 16);
            }
        }
    }

    #[test]
    fn dead_source_reports_source_dead() {
        use sparsedist_multicomputer::FaultPlan;
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 4);
        let m = machine(4).with_faults(FaultPlan::new(7).with_dead_rank(0));
        let err = run_scheme(SchemeKind::Ed, &m, &a, &part, CompressKind::Crs);
        assert_eq!(
            err.unwrap_err(),
            crate::error::SparsedistError::SourceDead { rank: 0 }
        );
    }

    #[test]
    fn single_processor_degenerate_case() {
        let a = paper_array_a();
        let part = RowBlock::new(10, 8, 1);
        let m = machine(1);
        for scheme in SchemeKind::ALL {
            let run = run_scheme(scheme, &m, &a, &part, CompressKind::Crs).unwrap();
            assert_eq!(run.reassemble(&part), a);
        }
    }
}
