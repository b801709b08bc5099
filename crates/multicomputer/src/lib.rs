#![warn(missing_docs)]

//! A simulated distributed-memory multicomputer.
//!
//! This crate is the substrate on which the `sparsedist-core` distribution
//! schemes run. The paper this workspace reproduces (Lin, Chung & Liu,
//! *"Data Distribution Schemes of Sparse Arrays on Distributed Memory
//! Multicomputers"*, ICPP 2002) evaluated its schemes in C + MPI on a
//! 16-node IBM SP2. No such machine (and no mature Rust MPI binding) is
//! available here, so this crate provides the closest synthetic equivalent
//! that exercises the same code paths:
//!
//! * an **SPMD engine** ([`Multicomputer`]) that runs every simulated
//!   processor as an `async` rank task over point-to-point message links —
//!   one OS thread per rank up to 1024 ranks, a single-threaded event loop
//!   ([`exec`]) beyond — with receives as the only yield points;
//! * **pack/unpack buffers** ([`pack::PackBuffer`], [`pack::UnpackCursor`])
//!   playing the role of `MPI_Pack`/`MPI_Unpack`;
//! * an **α-β network cost model** ([`model::MachineModel`]) identical in
//!   form to the paper's own analysis (`T_Startup`, `T_Data`,
//!   `T_Operation`), charged on a deterministic per-processor **virtual
//!   clock** ([`time::VirtualTime`]). Message causality (a receive cannot
//!   complete before the matching send finished) is respected, so results
//!   are deterministic and independent of host scheduling; and
//! * **per-phase timing ledgers** ([`timing::PhaseLedger`]) so a scheme can
//!   report the paper's `T_Distribution` / `T_Compression` split.
//!
//! A deterministic **fault-injection substrate** ([`fault::FaultPlan`])
//! can be installed with [`Multicomputer::with_faults`]: messages are then
//! CRC32-framed and carried by a reliable-delivery layer (ack/nack,
//! timeout with exponential backoff, bounded retransmission — see
//! [`fault::RetryPolicy`]), with every recovery action charged to
//! [`Phase::Retry`] on the virtual clock and counted in the ledger's
//! [`timing::FaultStats`]. Communication failures surface as
//! [`CommError`] values, never panics.
//!
//! An **observability layer** ([`trace`]) records per-rank spans with
//! virtual-clock stamps plus counters/histograms, delivered to a
//! [`trace::TraceSink`] installed via [`Multicomputer::with_trace_sink`].
//! Tracing is purely observational — the clocks and ledgers of a traced
//! run are bit-identical to an untraced one.
//!
//! # Example
//!
//! ```
//! use sparsedist_multicomputer::{Multicomputer, model::MachineModel, pack::PackBuffer};
//! use sparsedist_multicomputer::timing::Phase;
//!
//! let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
//! let results = machine.run_tasks(&(), |(), env| {
//!     Box::pin(async move {
//!         if env.rank() == 0 {
//!             for dst in 0..env.nprocs() {
//!                 let mut buf = PackBuffer::new();
//!                 buf.push_u64(dst as u64 * 10);
//!                 env.phase(Phase::Send, |env| env.send(dst, buf)).unwrap();
//!             }
//!         }
//!         let msg = env.recv_async(0).await.unwrap();
//!         msg.payload.cursor().read_u64()
//!     })
//! });
//! assert_eq!(results, vec![0, 10, 20, 30]);
//! ```

pub mod collectives;
pub mod engine;
pub mod exec;
pub mod explore;
pub mod fault;
pub mod model;
pub mod pack;
pub mod progress;
pub mod time;
pub mod timing;
pub mod topology;
pub mod trace;

pub use engine::{CommError, Env, Message, Multicomputer, TaskFuture};
pub use exec::EngineKind;
pub use explore::{explore, Divergence, Exploration};
pub use fault::{FaultKind, FaultPlan, FaultSpecError, LinkProbs, RetryPolicy};
pub use model::MachineModel;
pub use pack::{ArenaStats, PackArena, PackBuffer, PatchError, UnpackCursor};
pub use progress::{NicProgress, TxWindow};
pub use time::VirtualTime;
pub use timing::{render_fault_summary, FaultStats, Phase, PhaseLedger, WireStats};
pub use topology::Topology;
pub use trace::{
    chrome_trace_json, metrics_json, render_phase_table, render_waterfall, MemorySink,
    MetricsRegistry, NullSink, RankTrace, Span, TraceSink,
};
