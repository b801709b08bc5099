//! The SPMD engine: one thread per simulated processor, point-to-point
//! message channels, and a per-processor clock.
//!
//! # Timing modes
//!
//! In **virtual mode** every cost is *charged*: [`Env::charge_ops`] advances
//! the local clock by `n × T_Operation`, and [`Env::send`] advances it by
//! `T_Startup + elems × T_Data`. A message records the sender's clock after
//! the charge as its arrival time; [`Env::recv`] synchronises the
//! receiver's clock to `max(local, arrival)` and books the jump as
//! [`Phase::Wait`]. Because the arrival times depend only on message
//! causality, the resulting ledgers are fully deterministic no matter how
//! the host schedules the threads.
//!
//! In **wall-clock mode** the clock is the host's monotonic clock; charges
//! are no-ops (real work takes real time) and [`Env::phase`] measures the
//! elapsed wall time of its body. An optional per-element wire delay can be
//! injected into `send` to emulate an interconnect slower than shared
//! memory.
//!
//! # Reliable delivery and fault injection
//!
//! When a [`FaultPlan`] is installed ([`Multicomputer::with_faults`]), all
//! traffic runs through a reliable-delivery layer:
//!
//! * every frame carries the CRC32 of its payload; the receiver rejects
//!   frames whose payload fails the check and emits a **nack** on a
//!   dedicated control channel (good frames are **acked**);
//! * a dropped frame elicits nothing — the sender's ARQ timeout fires;
//! * the sender retransmits after a timeout that backs off exponentially
//!   ([`RetryPolicy`]), up to a retry budget, charging each timeout and
//!   retransmission to [`Phase::Retry`] in virtual time;
//! * exhausting the budget surfaces as [`CommError::RetriesExhausted`] on
//!   *both* ends (a poison frame unblocks the receiver), never a deadlock.
//!
//! Fault decisions are pure hashes of `(seed, src, dst, seq, attempt)`
//! (see [`crate::fault`]), and the sender — which shares the plan — charges
//! the same timeout the ack round-trip would have established. The
//! simulation therefore stays deterministic in virtual mode: same plan,
//! same ledgers, bit for bit. Faulted frames are still physically moved
//! across the channel (tagged with their injected fate) so the blocking
//! receiver always has something to reject; a `Drop` tag means "this frame
//! never arrived" and is skipped without cost.
//!
//! The nonblocking path carries the same guarantees: under a plan,
//! [`Env::isend`] runs the whole ARQ schedule *on the NIC timeline* —
//! doomed attempts, backoff timeouts and retransmissions are scheduled as
//! labelled spans in [`crate::progress::NicProgress`] without advancing
//! the CPU clock, and [`Env::wait_all`] books whatever slice of the drain
//! was recovery work to [`Phase::Retry`]. Recovery that hides behind
//! compute costs nothing, exactly like hidden first attempts.
//!
//! # Mid-run rank death and the watchdog
//!
//! A plan may schedule a rank to die at a virtual-time instant
//! ([`FaultPlan::with_death_at`], CLI `die=R:T`). In virtual mode every
//! send checks the frame's would-be arrival against the destination's
//! death time: a frame that cannot land in time fails with
//! [`CommError::PeerDead`] at the sender, and a *death notice* frame is
//! pushed so the dying receiver observes its own death at the matching
//! point in its stream — sender detection and receiver observation always
//! agree, keeping recovery protocols deterministic.
//!
//! Structurally the engine cannot hang on an early error: when a rank's
//! closure returns, its channel senders drop and every peer blocked in
//! `recv` gets [`CommError::Disconnected`]. [`Multicomputer::with_watchdog`]
//! adds a belt-and-braces wall-clock bound for chaos harnesses: a `recv`
//! that sees no frame within the limit returns [`CommError::Stalled`]
//! instead of blocking forever. It only fires on protocol bugs.
//!
//! Without a plan the fast path is exactly the original engine: no CRC
//! work, no acks, identical charges — the paper's tables are unaffected.

use crate::exec::{self, EngineKind, EventFabric};
use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
use crate::model::MachineModel;
use crate::pack::{PackArena, PackBuffer};
use crate::progress::NicProgress;
use crate::time::VirtualTime;
use crate::timing::{Phase, PhaseLedger, WireStats};
use crate::topology::Topology;
use crate::trace::{RankTrace, TraceSink, Tracer};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
// lint: allow(D001) — WallClock mode measures real elapsed time by design
use std::time::Instant;

/// How the machine keeps time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimingMode {
    /// Deterministic virtual-time accounting under an α-β model.
    Virtual(MachineModel),
    /// Real wall-clock measurement, with an optional injected wire cost of
    /// `wire_ns_per_elem` nanoseconds per transmitted element (busy-wait at
    /// the sender, emulating the wire occupancy of a real interconnect).
    WallClock {
        /// Injected per-element send cost in nanoseconds (0 = pure shared
        /// memory).
        wire_ns_per_elem: u64,
        /// Injected per-message startup cost in nanoseconds.
        wire_ns_startup: u64,
    },
}

impl TimingMode {
    /// Wall-clock mode with no injected wire cost.
    pub fn wall() -> Self {
        TimingMode::WallClock {
            wire_ns_per_elem: 0,
            wire_ns_startup: 0,
        }
    }
}

/// A communication failure surfaced by the engine instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The reliable-delivery layer ran out of retries on one message.
    RetriesExhausted {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Per-link sequence number of the doomed message.
        seq: u64,
        /// Attempts made (initial transmission + retries).
        attempts: u32,
    },
    /// The peer rank is declared dead by the fault plan.
    PeerDead {
        /// The dead rank.
        rank: usize,
    },
    /// The peer's thread exited early and its channel is closed.
    Disconnected {
        /// The vanished peer.
        peer: usize,
    },
    /// The engine watchdog fired: no frame arrived from the peer within
    /// the wall-clock bound set by [`Multicomputer::with_watchdog`]. Only
    /// reachable through a protocol bug — a healthy run, however slow its
    /// virtual timeline, keeps frames flowing.
    Stalled {
        /// The rank being waited on.
        src: usize,
        /// The wall-clock bound that elapsed, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RetriesExhausted {
                src,
                dst,
                seq,
                attempts,
            } => write!(
                f,
                "message {seq} from rank {src} to rank {dst} undelivered after {attempts} attempts"
            ),
            CommError::PeerDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::Disconnected { peer } => {
                write!(f, "rank {peer} hung up: peer processor exited early")
            }
            CommError::Stalled { src, waited_ms } => write!(
                f,
                "watchdog: no frame from rank {src} within {waited_ms} ms (protocol stall)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// A message delivered to scheme code: the payload plus provenance.
#[derive(Debug, Clone)]
pub struct Message {
    /// Which rank sent this message.
    pub src: usize,
    /// The packed payload.
    pub payload: PackBuffer,
    /// Sender-side clock at the moment transmission completed (virtual
    /// mode only; `ZERO` in wall-clock mode).
    pub arrival: VirtualTime,
}

/// A posted nonblocking receive (see [`Env::irecv`]). Redeem it with
/// [`Env::wait_recv`]; handles for the same source complete in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an irecv completes nothing until passed to wait_recv"]
pub struct RecvHandle {
    src: usize,
}

impl RecvHandle {
    /// The source rank this receive was posted against.
    pub fn src(&self) -> usize {
        self.src
    }
}

/// What actually travels on a link: a framed payload with the metadata
/// the reliable-delivery layer needs. Crate-visible so the event-loop
/// fabric ([`crate::exec`]) can carry the same frames as the channels.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    seq: u64,
    src: usize,
    payload: PackBuffer,
    arrival: VirtualTime,
    /// CRC32 of the payload *as sent* (before any injected corruption), so
    /// the receiver can detect a corrupted frame.
    crc: u32,
    /// The fate the fault plan decided for this frame (None = clean).
    injected: Option<FaultKind>,
    /// True on the poison frame a sender emits after exhausting retries.
    failed: bool,
    /// A death notice: the rank that died (possibly the sender itself),
    /// pushed so the receiver observes the death at the matching point in
    /// its frame stream. Consuming one yields [`CommError::PeerDead`].
    dead: Option<usize>,
}

/// Receiver → sender control frame of the ack/nack protocol.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AckMsg {
    seq: u64,
    ok: bool,
}

/// The transport seam between rank logic and the rest of the machine:
/// per-peer crossbeam channels when each rank owns an OS thread, or the
/// shared mailbox fabric when all ranks are tasks on the event loop. All
/// charging, ARQ, fault and trace logic lives in [`Env`] *above* this
/// enum, which is what makes the two engines bit-identical.
enum Links {
    Threaded {
        senders: Vec<Sender<Frame>>,
        receivers: Vec<Receiver<Frame>>,
        ack_senders: Vec<Sender<AckMsg>>,
        ack_receivers: Vec<Receiver<AckMsg>>,
    },
    Event(Rc<EventFabric>),
}

/// A simulated distributed-memory machine with `p` processors.
pub struct Multicomputer {
    nprocs: usize,
    mode: TimingMode,
    topology: Topology,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    watchdog: Option<Duration>,
    /// Forced execution backend for task runs (`None` = auto-select by
    /// machine size; see [`Multicomputer::task_engine`]).
    engine: Option<EngineKind>,
    /// One buffer-reuse arena per rank, persisting across `run_*` calls so
    /// repeated distributions stop reallocating their send buffers.
    arenas: Vec<Arc<PackArena>>,
    /// Where completed rank traces go; `None` (the default) and disabled
    /// sinks allocate no tracer at all.
    sink: Option<Arc<dyn TraceSink>>,
}

impl Multicomputer {
    /// A machine whose time is simulated under `model` (fully connected
    /// interconnect, as in the paper).
    pub fn virtual_machine(nprocs: usize, model: MachineModel) -> Self {
        Multicomputer::with_topology(nprocs, TimingMode::Virtual(model), Topology::FullyConnected)
    }

    /// A virtual machine on an explicit interconnect [`Topology`]; message
    /// costs become `T_Startup + hops·T_Hop + elems·T_Data`.
    pub fn virtual_with_topology(nprocs: usize, model: MachineModel, topology: Topology) -> Self {
        Multicomputer::with_topology(nprocs, TimingMode::Virtual(model), topology)
    }

    /// A machine measured with the host's wall clock.
    pub fn wall_clock(nprocs: usize) -> Self {
        Multicomputer::with_topology(nprocs, TimingMode::wall(), Topology::FullyConnected)
    }

    /// A machine with an explicit [`TimingMode`].
    pub fn with_mode(nprocs: usize, mode: TimingMode) -> Self {
        Multicomputer::with_topology(nprocs, mode, Topology::FullyConnected)
    }

    /// The fully general constructor.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero or the topology's grid does not match.
    pub fn with_topology(nprocs: usize, mode: TimingMode, topology: Topology) -> Self {
        assert!(nprocs > 0, "a multicomputer needs at least one processor");
        // Validate grid topologies eagerly (hops would panic lazily).
        if let Topology::Mesh2D { pr, pc } | Topology::Torus2D { pr, pc } = topology {
            assert_eq!(
                pr * pc,
                nprocs,
                "topology grid {pr}x{pc} != {nprocs} processors"
            );
        }
        assert!(
            nprocs <= EngineKind::EventLoop.max_procs(),
            "{} processors exceeds the engine maximum of {}",
            nprocs,
            EngineKind::EventLoop.max_procs()
        );
        Multicomputer {
            nprocs,
            mode,
            topology,
            faults: None,
            retry: RetryPolicy::default(),
            watchdog: None,
            engine: None,
            arenas: (0..nprocs).map(|_| Arc::new(PackArena::new())).collect(),
            sink: None,
        }
    }

    /// Force the execution backend used by [`Multicomputer::run_tasks`] /
    /// [`Multicomputer::run_tasks_with_ledgers`] instead of auto-selecting
    /// by machine size. [`EngineKind::EventLoop`] only models virtual
    /// time; in wall-clock mode the choice falls back to the threaded
    /// engine (see [`Multicomputer::task_engine`]).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The backend a task run will actually use: the forced choice if one
    /// was installed, otherwise [`EngineKind::Threaded`] up to its
    /// [`EngineKind::max_procs`] and [`EngineKind::EventLoop`] beyond —
    /// with the caveat that wall-clock mode always keeps real threads
    /// (there is no virtual timeline for the event loop to schedule).
    ///
    /// The closure-based [`Multicomputer::run`] /
    /// [`Multicomputer::run_with_ledgers`] entry points are always
    /// threaded: a synchronous closure has no yield points to schedule.
    pub fn task_engine(&self) -> EngineKind {
        let auto = if self.nprocs > EngineKind::Threaded.max_procs() {
            EngineKind::EventLoop
        } else {
            EngineKind::Threaded
        };
        let kind = self.engine.unwrap_or(auto);
        match (kind, self.mode) {
            (EngineKind::EventLoop, TimingMode::Virtual(_)) => EngineKind::EventLoop,
            _ => EngineKind::Threaded,
        }
    }

    /// Rank `rank`'s buffer-reuse arena. The same arena is handed to that
    /// rank's [`Env`] on every `run_*` call, so allocations recycled in one
    /// distribution are reused by the next.
    pub fn arena(&self, rank: usize) -> &PackArena {
        &self.arenas[rank]
    }

    /// Install a [`FaultPlan`]: all traffic now runs through the
    /// reliable-delivery layer (CRC32 framing, ack/nack, timeouts,
    /// retransmission).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Set the [`RetryPolicy`] used when a fault plan is installed.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Bound every blocking receive by a *wall-clock* watchdog: a `recv`
    /// that sees no frame within `limit` returns [`CommError::Stalled`]
    /// instead of blocking forever. The engine already cannot hang on an
    /// early peer error (a returning rank drops its channels, unblocking
    /// every peer with [`CommError::Disconnected`]), so the watchdog is a
    /// last-resort bound for chaos harnesses — it fires only on protocol
    /// bugs and never charges the virtual clock.
    pub fn with_watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// The installed watchdog bound, if any.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Install a [`TraceSink`]: every subsequent `run_*` call records one
    /// [`RankTrace`] per rank (spans, counters, histograms) and hands them
    /// to the sink in rank order after the run joins. Tracing is purely
    /// observational — it never charges the virtual clock — and a sink
    /// whose [`TraceSink::is_enabled`] is false (e.g.
    /// [`crate::trace::NullSink`]) costs nothing at all.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The retry policy the reliable-delivery layer uses.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The interconnect topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The machine's timing mode.
    pub fn mode(&self) -> TimingMode {
        self.mode
    }

    /// The α-β machine model this machine charges by. Wall-clock runs
    /// still expose the paper's IBM SP2 model so host-side decisions that
    /// price bytes against operations (e.g. wire codec negotiation) have
    /// coefficients to work with.
    pub fn model(&self) -> MachineModel {
        match self.mode {
            TimingMode::Virtual(m) => m,
            TimingMode::WallClock { .. } => MachineModel::ibm_sp2(),
        }
    }

    /// Run `f` in SPMD style on every processor and collect the return
    /// values in rank order. Each invocation gets an [`Env`] holding that
    /// rank's channels, clock and ledger.
    ///
    /// # Panics
    /// Propagates a panic from any processor's closure.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut Env) -> R + Sync,
        R: Send,
    {
        self.run_with_ledgers(f).0
    }

    /// Like [`Multicomputer::run`], but also returns each rank's
    /// [`PhaseLedger`] — the usual entry point for scheme drivers.
    pub fn run_with_ledgers<F, R>(&self, f: F) -> (Vec<R>, Vec<PhaseLedger>)
    where
        F: Fn(&mut Env) -> R + Sync,
        R: Send,
    {
        let p = self.nprocs;
        assert!(
            p <= EngineKind::Threaded.max_procs(),
            "the threaded engine supports at most {} processors; \
             use run_tasks (event loop) for larger machines",
            EngineKind::Threaded.max_procs()
        );
        // Data frames: chans[src][dst]. Ack control frames flow the other
        // way on their own matrix so they never interleave with data.
        let (data_tx, data_rx) = channel_matrix::<Frame>(p);
        let (ack_tx, ack_rx) = channel_matrix::<AckMsg>(p);

        let f = &f;
        let mode = self.mode;
        let topology = self.topology;
        let faults = &self.faults;
        let retry = self.retry;
        let watchdog = self.watchdog;
        let arenas = &self.arenas;
        let tracing = self.sink.as_ref().is_some_and(|s| s.is_enabled());
        let (results, ledgers, traces) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            let rows = data_tx
                .into_iter()
                .zip(data_rx)
                .zip(ack_tx.into_iter().zip(ack_rx));
            for (rank, ((tx_row, rx_row), (ack_tx_row, ack_rx_row))) in rows.enumerate() {
                handles.push(scope.spawn(move || {
                    let mut env = Env::new(
                        rank,
                        p,
                        mode,
                        topology,
                        faults.clone(),
                        retry,
                        watchdog,
                        Arc::clone(&arenas[rank]),
                        tracing,
                        Links::Threaded {
                            senders: tx_row,
                            receivers: rx_row,
                            ack_senders: ack_tx_row,
                            ack_receivers: ack_rx_row,
                        },
                    );
                    let out = f(&mut env);
                    let (ledger, trace) = env.into_parts();
                    (out, ledger, trace)
                }));
            }
            let mut results = Vec::with_capacity(p);
            let mut ledgers = Vec::with_capacity(p);
            let mut traces = Vec::with_capacity(p);
            for h in handles {
                // lint: allow(E002) — a panicked rank must abort the simulation; propagate
                let (r, l, t) = h.join().expect("simulated processor panicked");
                results.push(r);
                ledgers.push(l);
                traces.push(t);
            }
            (results, ledgers, traces)
        });
        if let Some(sink) = &self.sink {
            // Rank order by construction — sinks never need to re-sort.
            for trace in traces.into_iter().flatten() {
                sink.record(trace);
            }
        }
        (results, ledgers)
    }

    /// Run an *asynchronous* rank program on every processor and collect
    /// the return values in rank order — the scalable twin of
    /// [`Multicomputer::run`].
    ///
    /// `f` is called once per rank with the shared read-only context
    /// `ctx` and the rank's [`Env`], and returns that rank's task: a
    /// boxed future borrowing both (in practice, a named `async fn`
    /// wrapped in `Box::pin`). The context parameter exists because the
    /// `for<'e>` closure bound forbids the *closure* from capturing
    /// borrowed per-run state (owner maps, scheme tables) — thread it
    /// through `ctx` instead, where the compiler can tie its lifetime to
    /// each task's. Receives are the only awaited operations — sends,
    /// nonblocking posts and `wait_all` never block on a peer — so on
    /// the threaded backend the future completes in a single poll with
    /// *exactly* the blocking engine's behavior, while on the event loop
    /// ([`EngineKind::EventLoop`], auto-selected for machines beyond
    /// [`EngineKind::max_procs`] threads) the awaits become yield points
    /// and tens of thousands of ranks share one OS thread. Ledgers,
    /// traces, wire stats and fault fates are bit-identical between the
    /// two backends.
    pub fn run_tasks<C, F, R>(&self, ctx: &C, f: F) -> Vec<R>
    where
        C: Sync + ?Sized,
        F: for<'e> Fn(&'e C, &'e mut Env) -> Pin<Box<dyn Future<Output = R> + 'e>> + Sync,
        R: Send,
    {
        self.run_tasks_with_ledgers(ctx, f).0
    }

    /// Like [`Multicomputer::run_tasks`], but also returns each rank's
    /// [`PhaseLedger`] — the entry point for scheme drivers that need to
    /// scale past the threaded engine.
    pub fn run_tasks_with_ledgers<C, F, R>(&self, ctx: &C, f: F) -> (Vec<R>, Vec<PhaseLedger>)
    where
        C: Sync + ?Sized,
        F: for<'e> Fn(&'e C, &'e mut Env) -> Pin<Box<dyn Future<Output = R> + 'e>> + Sync,
        R: Send,
    {
        match self.task_engine() {
            EngineKind::Threaded => self.run_with_ledgers(|env| poll_complete(f(ctx, env))),
            EngineKind::EventLoop => self.run_tasks_event(ctx, &f),
        }
    }

    /// Event-loop backend: all ranks as tasks on this thread, scheduled
    /// by frame availability (see [`crate::exec`]).
    fn run_tasks_event<C, F, R>(&self, ctx: &C, f: &F) -> (Vec<R>, Vec<PhaseLedger>)
    where
        C: Sync + ?Sized,
        F: for<'e> Fn(&'e C, &'e mut Env) -> Pin<Box<dyn Future<Output = R> + 'e>> + Sync,
        R: Send,
    {
        let p = self.nprocs;
        let watchdog_ms = self
            .watchdog
            .map(|limit| limit.as_millis() as u64)
            .unwrap_or(0);
        let fabric = Rc::new(EventFabric::new(p, watchdog_ms));
        let tracing = self.sink.as_ref().is_some_and(|s| s.is_enabled());
        #[allow(clippy::type_complexity)]
        let mut tasks: Vec<
            Pin<Box<dyn Future<Output = (R, PhaseLedger, Option<RankTrace>)> + '_>>,
        > = Vec::with_capacity(p);
        for rank in 0..p {
            let env = Env::new(
                rank,
                p,
                self.mode,
                self.topology,
                self.faults.clone(),
                self.retry,
                self.watchdog,
                Arc::clone(&self.arenas[rank]),
                tracing,
                Links::Event(Rc::clone(&fabric)),
            );
            // The env is moved *into* the task so the future is
            // self-contained: no self-referential (env, future) pairs, no
            // unsafe.
            tasks.push(Box::pin(async move {
                let mut env = env;
                // lint: allow(C001) — the executor awaits the whole rank task; its only internal yield points are still receives
                let out = f(ctx, &mut env).await;
                let (ledger, trace) = env.into_parts();
                (out, ledger, trace)
            }));
        }
        let outs = exec::drive(tasks, &fabric);
        let mut results = Vec::with_capacity(p);
        let mut ledgers = Vec::with_capacity(p);
        let mut traces = Vec::with_capacity(p);
        for (r, l, t) in outs {
            results.push(r);
            ledgers.push(l);
            traces.push(t);
        }
        if let Some(sink) = &self.sink {
            for trace in traces.into_iter().flatten() {
                sink.record(trace);
            }
        }
        (results, ledgers)
    }
}

/// Drive a rank future on the *threaded* engine, where every await point
/// resolves immediately (receives block inside the poll, exactly like the
/// synchronous engine): one poll always completes the task.
fn poll_complete<R>(mut fut: Pin<Box<dyn Future<Output = R> + '_>>) -> R {
    let waker = exec::noop_waker();
    let mut cx = Context::from_waker(&waker);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(r) => r,
        // Unreachable by construction: the threaded transport never
        // returns Pending — its receives block until a frame (or a
        // disconnect/stall verdict) is available.
        Poll::Pending => unreachable!("a threaded rank task pended"),
    }
}

/// Build a `p × p` channel matrix; returns per-rank rows of senders (to
/// every peer) and receivers (from every peer).
#[allow(clippy::type_complexity)]
fn channel_matrix<T>(p: usize) -> (Vec<Vec<Sender<T>>>, Vec<Vec<Receiver<T>>>) {
    let mut senders: Vec<Vec<Sender<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut receivers: Vec<Vec<Option<Receiver<T>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for (src, sender_row) in senders.iter_mut().enumerate() {
        for receiver_row in receivers.iter_mut() {
            let (tx, rx) = unbounded();
            sender_row.push(tx);
            receiver_row[src] = Some(rx);
        }
    }
    let receivers = receivers
        .into_iter()
        .map(|row| {
            row.into_iter()
                // lint: allow(E002) — the p×p loop above filled every (src, dst) slot
                .map(|r| r.expect("channel matrix fully populated"))
                .collect()
        })
        .collect();
    (senders, receivers)
}

enum Clock {
    Virtual {
        now: VirtualTime,
        model: MachineModel,
    },
    Wall {
        // lint: allow(D001) — wall-clock epoch is the point of WallClock mode
        epoch: Instant,
    },
}

/// One simulated processor's execution environment: its rank, its channels
/// to every peer, its clock, and its phase ledger.
pub struct Env {
    rank: usize,
    nprocs: usize,
    topology: Topology,
    clock: Clock,
    wire_ns_per_elem: u64,
    wire_ns_startup: u64,
    ledger: PhaseLedger,
    current_phase: Phase,
    /// Span/metrics recorder; `None` unless an enabled [`TraceSink`] is
    /// installed on the machine, so every hook below is a branch on `None`
    /// in the untraced hot path.
    tracer: Option<Tracer>,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    watchdog: Option<Duration>,
    arena: Arc<PackArena>,
    /// Outgoing-link progress state for nonblocking sends ([`Env::isend`]).
    nic: NicProgress,
    /// Next per-link sequence number, keyed by destination. Sparse on
    /// purpose: a rank at p = 65536 typically talks to a handful of peers,
    /// and a dense per-rank `Vec` would cost O(p²) across the machine.
    send_seq: BTreeMap<usize, u64>,
    links: Links,
}

impl Env {
    #[allow(clippy::too_many_arguments)]
    fn new(
        rank: usize,
        nprocs: usize,
        mode: TimingMode,
        topology: Topology,
        plan: Option<FaultPlan>,
        retry: RetryPolicy,
        watchdog: Option<Duration>,
        arena: Arc<PackArena>,
        tracing: bool,
        links: Links,
    ) -> Self {
        let (clock, wire_ns_per_elem, wire_ns_startup) = match mode {
            TimingMode::Virtual(model) => (
                Clock::Virtual {
                    now: VirtualTime::ZERO,
                    model,
                },
                0,
                0,
            ),
            TimingMode::WallClock {
                wire_ns_per_elem,
                wire_ns_startup,
            } => (
                Clock::Wall {
                    // lint: allow(D001) — WallClock mode anchors to real time on purpose
                    epoch: Instant::now(),
                },
                wire_ns_per_elem,
                wire_ns_startup,
            ),
        };
        Env {
            rank,
            nprocs,
            topology,
            clock,
            wire_ns_per_elem,
            wire_ns_startup,
            ledger: PhaseLedger::new(),
            current_phase: Phase::Other,
            tracer: tracing.then(|| Tracer::new(rank)),
            plan,
            retry,
            watchdog,
            arena,
            nic: NicProgress::new(),
            send_seq: BTreeMap::new(),
            links,
        }
    }

    /// Claim the next per-link sequence number for `dst`.
    fn next_seq(&mut self, dst: usize) -> u64 {
        let slot = self.send_seq.entry(dst).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// This processor's rank, `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// True in virtual-time mode.
    pub fn is_virtual(&self) -> bool {
        matches!(self.clock, Clock::Virtual { .. })
    }

    /// True if the fault plan declares `rank` dead.
    pub fn is_rank_dead(&self, rank: usize) -> bool {
        self.plan.as_ref().is_some_and(|p| p.is_dead(rank))
    }

    /// The virtual-time instant (µs) the plan schedules `rank` to die.
    fn death_time_us(&self, rank: usize) -> Option<f64> {
        self.plan.as_ref().and_then(|p| p.death_time(rank))
    }

    /// Push a death-notice frame for `died` onto the link to `dst`, so the
    /// receiver observes the death at the matching point in its stream.
    /// Best-effort: the peer may already have exited.
    fn push_death_notice(&mut self, dst: usize, died: usize, seq: u64) {
        let frame = Frame {
            seq,
            src: self.rank,
            payload: PackBuffer::new(),
            arrival: self.now(),
            crc: 0,
            injected: None,
            failed: false,
            dead: Some(died),
        };
        let _ = self.push_frame(dst, frame);
    }

    /// Death check for one attempt of a blocking or nonblocking send:
    /// `start` is when the sender commits the frame to the wire, `arrival`
    /// when it would land (including any injected delay). Returns the
    /// `PeerDead` error — after pushing the matching death notice — if the
    /// sender is already past its own death or the frame cannot land
    /// before the destination dies. Timed deaths are a virtual-time
    /// concept; wall-clock mode never reaches this.
    fn check_timed_death(
        &mut self,
        dst: usize,
        seq: u64,
        start: VirtualTime,
        arrival: VirtualTime,
    ) -> Result<(), CommError> {
        if let Some(t) = self.death_time_us(self.rank) {
            if start.as_micros() > t {
                self.push_death_notice(dst, self.rank, seq);
                return Err(CommError::PeerDead { rank: self.rank });
            }
        }
        if let Some(t) = self.death_time_us(dst) {
            if arrival.as_micros() > t {
                self.push_death_notice(dst, dst, seq);
                return Err(CommError::PeerDead { rank: dst });
            }
        }
        Ok(())
    }

    /// This rank's buffer-reuse arena. Buffers checked out here and
    /// recycled after use keep their allocations across distributions
    /// (the arena lives on the [`Multicomputer`], not the `Env`).
    pub fn arena(&self) -> &PackArena {
        &self.arena
    }

    /// Count one physical transmission in the ledger's [`WireStats`].
    fn record_tx(&mut self, elems: u64, bytes: usize) {
        *self.ledger.wire_mut() += WireStats {
            messages: 1,
            elements: elems,
            bytes: bytes as u64,
        };
    }

    /// The lowest rank alive under the current fault plan, found without
    /// allocating (O(1) when rank 0 is alive). `None` only if every rank
    /// is dead.
    pub fn lowest_alive_rank(&self) -> Option<usize> {
        (0..self.nprocs).find(|&r| !self.is_rank_dead(r))
    }

    /// Current local clock reading.
    pub fn now(&self) -> VirtualTime {
        match &self.clock {
            Clock::Virtual { now, .. } => *now,
            Clock::Wall { epoch } => VirtualTime::from_micros(epoch.elapsed().as_secs_f64() * 1e6),
        }
    }

    /// Run `f` attributed to `phase`.
    ///
    /// Virtual mode: sets the current phase so [`Env::charge_ops`] books
    /// into it. Wall mode: measures the body's elapsed wall time into the
    /// ledger (charges are no-ops there).
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Env) -> T) -> T {
        let prev = self.current_phase;
        self.current_phase = phase;
        let wall_start = match &self.clock {
            Clock::Wall { epoch } => Some((*epoch, epoch.elapsed())),
            Clock::Virtual { .. } => None,
        };
        self.trace_open(phase, String::new());
        let out = f(self);
        if let Some((epoch, start)) = wall_start {
            let span = epoch.elapsed().saturating_sub(start);
            self.ledger
                .record(phase, VirtualTime::from_micros(span.as_secs_f64() * 1e6));
        }
        self.trace_close();
        self.current_phase = prev;
        out
    }

    /// Run `f` as a labelled trace span inside the current phase — used by
    /// the collectives so a `scatterv` or `allreduce` shows up as one unit
    /// in the trace. A pure pass-through when tracing is off.
    pub fn span<T>(&mut self, label: &str, f: impl FnOnce(&mut Env) -> T) -> T {
        if self.tracer.is_none() {
            return f(self);
        }
        self.trace_open(self.current_phase, label.to_string());
        let out = f(self);
        self.trace_close();
        out
    }

    /// True when this run records spans (an enabled sink is installed).
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Set the driver scope stamped on subsequent spans (`"SFC"`, `"ED"`,
    /// `"redistribute"`, …). No-op when tracing is off.
    pub fn trace_scope(&mut self, scope: &'static str) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_scope(scope);
        }
    }

    /// Attach `(part id, ops)` pairs — merged in part order, exactly the
    /// numbers `map_parts` produces — to the innermost open span. On close
    /// the span subdivides into per-part child spans proportional to the
    /// counts, which in virtual mode reproduces the sequential execution's
    /// intervals exactly. No-op when tracing is off.
    pub fn trace_part_ops(&mut self, parts: &[(usize, u64)]) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.part_ops(parts);
        }
    }

    /// Bump a named metrics counter on this rank. No-op when tracing is
    /// off.
    pub fn trace_count(&mut self, name: &'static str, v: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.metrics_mut().count(name, v);
        }
    }

    fn trace_open(&mut self, phase: Phase, label: String) {
        // Outer check first: `now()`/`wire()` borrow `self`, so they must
        // be read before `tracer` is mutably borrowed.
        if self.tracer.is_some() {
            let now = self.now();
            let wire = self.ledger.wire();
            if let Some(tr) = self.tracer.as_mut() {
                tr.open(phase, label, now, wire);
            }
        }
    }

    fn trace_close(&mut self) {
        if self.tracer.is_some() {
            let now = self.now();
            let wire = self.ledger.wire();
            if let Some(tr) = self.tracer.as_mut() {
                tr.close(now, wire);
            }
        }
    }

    /// Record one physical transmission as a span plus a histogram sample.
    fn trace_tx(&mut self, phase: Phase, dst: usize, t0: VirtualTime, elems: u64, bytes: usize) {
        let t1 = self.now();
        if let Some(tr) = self.tracer.as_mut() {
            tr.metrics_mut().observe("tx.elems", elems);
            tr.emit(
                phase,
                format!("->{dst}"),
                t0,
                t1,
                WireStats {
                    messages: 1,
                    elements: elems,
                    bytes: bytes as u64,
                },
            );
        }
    }

    /// Charge `n` element operations (`n × T_Operation`) to the local clock
    /// and the current phase. No-op in wall-clock mode.
    pub fn charge_ops(&mut self, n: u64) {
        if let Clock::Virtual { now, model } = &mut self.clock {
            let cost = model.op_cost(n);
            *now += cost;
            self.ledger.record(self.current_phase, cost);
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.note_ops(n);
        }
    }

    /// Charge the wire cost of one transmission of `elems` elements over
    /// `hops` links into `phase`, returning the post-charge clock (virtual
    /// mode), or busy-wait the configured wire time (wall mode).
    fn charge_wire(&mut self, elems: u64, hops: usize, phase: Phase) -> VirtualTime {
        match &mut self.clock {
            Clock::Virtual { now, model } => {
                let cost = model.message_cost_hops(elems, hops.max(1));
                *now += cost;
                self.ledger.record(phase, cost);
                *now
            }
            Clock::Wall { .. } => {
                let ns = self.wire_ns_startup + self.wire_ns_per_elem * elems;
                if ns > 0 {
                    // lint: allow(D001) — WallClock mode burns real nanoseconds here
                    let start = Instant::now();
                    while (start.elapsed().as_nanos() as u64) < ns {
                        std::hint::spin_loop();
                    }
                }
                VirtualTime::ZERO
            }
        }
    }

    /// Charge `us` microseconds of ARQ timeout to [`Phase::Retry`]
    /// (virtual mode only; in wall mode the timeout is counted, not slept).
    fn charge_timeout(&mut self, us: f64) {
        if let Clock::Virtual { now, .. } = &mut self.clock {
            let span = VirtualTime::from_micros(us);
            *now += span;
            self.ledger.record(Phase::Retry, span);
        }
    }

    /// Send `payload` to `dst`.
    ///
    /// Virtual mode: charges `T_Startup + hops·T_Hop + elems × T_Data` to
    /// the local clock, attributed to [`Phase::Send`], and stamps the
    /// message with the post-charge clock as its arrival time. Wall mode:
    /// optionally busy-waits the configured wire cost, then moves the
    /// buffer.
    ///
    /// With a [`FaultPlan`] installed the transmission runs through the
    /// reliable-delivery layer: injected drops and corruptions trigger
    /// timeouts, exponential backoff and retransmission (charged to
    /// [`Phase::Retry`]); exhausting the retry budget returns
    /// [`CommError::RetriesExhausted`]; a dead peer returns
    /// [`CommError::PeerDead`].
    ///
    /// # Panics
    /// Panics if `dst` is out of range (API misuse, like slice indexing).
    pub fn send(&mut self, dst: usize, payload: PackBuffer) -> Result<(), CommError> {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        if self.is_rank_dead(dst) {
            return Err(CommError::PeerDead { rank: dst });
        }
        if self.is_rank_dead(self.rank) {
            return Err(CommError::PeerDead { rank: self.rank });
        }
        let hops = self.topology.hops(self.rank, dst, self.nprocs);
        let seq = self.next_seq(dst);

        let Some(plan) = self.plan.clone() else {
            // Fast path: the original engine, byte-for-byte cost behavior.
            let t0 = self.tracer.is_some().then(|| self.now());
            let arrival = self.charge_wire(payload.elem_count(), hops, Phase::Send);
            self.record_tx(payload.elem_count(), payload.byte_len());
            if let Some(t0) = t0 {
                self.trace_tx(
                    Phase::Send,
                    dst,
                    t0,
                    payload.elem_count(),
                    payload.byte_len(),
                );
            }
            let frame = Frame {
                seq,
                src: self.rank,
                payload,
                arrival,
                crc: 0,
                injected: None,
                failed: false,
                dead: None,
            };
            return self.push_frame(dst, frame);
        };

        self.drain_acks(dst);
        let crc = payload.crc32();
        let elems = payload.elem_count();
        let nbytes = payload.byte_len();
        let mut attempt: u32 = 0;
        loop {
            let fate = plan.decide(self.rank, dst, seq, attempt, self.current_phase);
            if plan.has_timed_deaths() {
                if let Clock::Virtual { now, model } = &self.clock {
                    let start = *now;
                    let mut would_arrive = start + model.message_cost_hops(elems, hops.max(1));
                    if let Some(FaultKind::Delay(extra)) = fate {
                        would_arrive += VirtualTime::from_micros(extra);
                    }
                    self.check_timed_death(dst, seq, start, would_arrive)?;
                }
            }
            let wire_phase = if attempt == 0 {
                Phase::Send
            } else {
                Phase::Retry
            };
            let t0 = self.tracer.is_some().then(|| self.now());
            let sent_at = self.charge_wire(elems, hops, wire_phase);
            self.record_tx(elems, nbytes);
            if let Some(t0) = t0 {
                self.trace_tx(wire_phase, dst, t0, elems, nbytes);
            }
            match fate {
                None | Some(FaultKind::Delay(_)) => {
                    let arrival = match fate {
                        Some(FaultKind::Delay(extra_us)) => match self.clock {
                            Clock::Virtual { .. } => sent_at + VirtualTime::from_micros(extra_us),
                            Clock::Wall { .. } => sent_at,
                        },
                        _ => sent_at,
                    };
                    let frame = Frame {
                        seq,
                        src: self.rank,
                        payload,
                        arrival,
                        crc,
                        injected: fate,
                        failed: false,
                        dead: None,
                    };
                    return self.push_frame(dst, frame);
                }
                Some(fault @ (FaultKind::Drop | FaultKind::Corrupt)) => {
                    // Transmit the doomed frame so the blocking receiver can
                    // observe (and for corruption, CRC-reject) it.
                    let mut wire_payload = payload.clone();
                    if fault == FaultKind::Corrupt {
                        wire_payload.flip_bit(plan.aux_roll(self.rank, dst, seq, attempt));
                    }
                    let frame = Frame {
                        seq,
                        src: self.rank,
                        payload: wire_payload,
                        arrival: sent_at,
                        crc,
                        injected: Some(fault),
                        failed: false,
                        dead: None,
                    };
                    self.push_frame(dst, frame)?;
                    if attempt >= self.retry.max_retries {
                        // Unblock the receiver with a poison frame before
                        // reporting failure on this side.
                        let poison = Frame {
                            seq,
                            src: self.rank,
                            payload: PackBuffer::new(),
                            arrival: sent_at,
                            crc: 0,
                            injected: None,
                            failed: true,
                            dead: None,
                        };
                        self.push_frame(dst, poison)?;
                        return Err(CommError::RetriesExhausted {
                            src: self.rank,
                            dst,
                            seq,
                            attempts: attempt + 1,
                        });
                    }
                    let t0 = self.tracer.is_some().then(|| self.now());
                    self.charge_timeout(self.retry.timeout_for(attempt));
                    if let Some(t0) = t0 {
                        let t1 = self.now();
                        if let Some(tr) = self.tracer.as_mut() {
                            tr.emit(
                                Phase::Retry,
                                format!("timeout->{dst}"),
                                t0,
                                t1,
                                WireStats::default(),
                            );
                        }
                    }
                    self.ledger.faults_mut().retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    fn push_frame(&mut self, dst: usize, frame: Frame) -> Result<(), CommError> {
        let pushed = match &self.links {
            Links::Threaded { senders, .. } => senders[dst]
                .send(frame)
                .map_err(|_| CommError::Disconnected { peer: dst }),
            Links::Event(fabric) => fabric.push_frame(dst, self.rank, frame),
        };
        match pushed {
            // A peer with a scheduled timed death tears its transport down
            // at a moment the virtual clock cannot see (the threaded engine
            // drops its channel whenever the victim's OS thread happens to
            // exit). Under the virtual clock, `check_timed_death` is the
            // sole arbiter of whether a frame lands before the death — it
            // has already ruled on this frame, so the push "delivers" into
            // the void of a rank that dies before the contents matter.
            // Surfacing the teardown would leak host scheduling into the
            // outcome and make the two engines disagree run to run.
            Err(CommError::Disconnected { .. })
                if matches!(self.clock, Clock::Virtual { .. })
                    && self.death_time_us(dst).is_some() =>
            {
                Ok(())
            }
            other => other,
        }
    }

    /// Emit one nonblocking transmission span into the trace.
    fn trace_tx_nb(
        &mut self,
        phase: Phase,
        dst: usize,
        window: crate::progress::TxWindow,
        elems: u64,
        nbytes: usize,
    ) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.metrics_mut().observe("tx.elems", elems);
            tr.emit(
                phase,
                format!("->{dst} (nb)"),
                window.start,
                window.arrival,
                WireStats {
                    messages: 1,
                    elements: elems,
                    bytes: nbytes as u64,
                },
            );
        }
    }

    /// Nonblocking send: post `payload` to this rank's NIC and return
    /// immediately **without advancing the local clock**.
    ///
    /// The NIC serialises the rank's outgoing transmissions (see
    /// [`crate::progress::NicProgress`]): the frame occupies the wire from
    /// `max(now, nic_free)` for the usual `T_Startup + hops·T_Hop +
    /// elems·T_Data`, and its arrival is stamped accordingly — so compute
    /// performed between `isend` calls genuinely overlaps with the
    /// transfers. Call [`Env::wait_all`] to rejoin the NIC; the completion
    /// jump is booked into the phase current *at the wait*.
    ///
    /// With a [`FaultPlan`] installed the ARQ runs **on the NIC timeline**
    /// instead of degrading to the blocking [`Env::send`]. Fault fates are
    /// pure hashes shared with the receiver, so the whole retransmit
    /// schedule is computable at post time: doomed attempts occupy the
    /// wire, each followed by its [`RetryPolicy::timeout_for`] backoff gap,
    /// until a clean (or delayed) attempt is committed — all as labelled
    /// NIC spans, with the CPU clock untouched. `wait_all` later books the
    /// recovery slice of the drain to [`Phase::Retry`] and the rest to the
    /// waiting phase, so a run with no compute between post and wait
    /// charges exactly the blocking totals, while recovery hidden behind
    /// compute costs nothing. Retry exhaustion surfaces here, at post
    /// time, as [`CommError::RetriesExhausted`] (the receiver is unblocked
    /// by a poison frame, as on the blocking path).
    ///
    /// In wall-clock mode there is no virtual NIC to model, so the call
    /// falls back to a plain `send`.
    ///
    /// # Errors
    /// Same failure modes as [`Env::send`].
    ///
    /// # Panics
    /// Panics if `dst` is out of range (API misuse, like slice indexing).
    pub fn isend(&mut self, dst: usize, payload: PackBuffer) -> Result<(), CommError> {
        assert!(dst < self.nprocs, "isend to rank {dst} of {}", self.nprocs);
        if !self.is_virtual() {
            return self.send(dst, payload);
        }
        if self.is_rank_dead(dst) {
            return Err(CommError::PeerDead { rank: dst });
        }
        if self.is_rank_dead(self.rank) {
            return Err(CommError::PeerDead { rank: self.rank });
        }
        let hops = self.topology.hops(self.rank, dst, self.nprocs);
        let seq = self.next_seq(dst);
        let elems = payload.elem_count();
        let nbytes = payload.byte_len();
        let (now, cost) = match &self.clock {
            Clock::Virtual { now, model } => (*now, model.message_cost_hops(elems, hops.max(1))),
            // Unreachable: the !is_virtual() guard above already bailed.
            Clock::Wall { .. } => return self.send(dst, payload),
        };

        let Some(plan) = self.plan.clone() else {
            // Fast path: clean single transmission on the NIC.
            let window = self.nic.begin_tx(now, cost);
            self.record_tx(elems, nbytes);
            self.trace_tx_nb(Phase::Send, dst, window, elems, nbytes);
            let frame = Frame {
                seq,
                src: self.rank,
                payload,
                arrival: window.arrival,
                crc: 0,
                injected: None,
                failed: false,
                dead: None,
            };
            return self.push_frame(dst, frame);
        };

        // Async ARQ: walk the deterministic attempt schedule on the NIC.
        self.drain_acks(dst);
        let crc = payload.crc32();
        let mut attempt: u32 = 0;
        loop {
            let fate = plan.decide(self.rank, dst, seq, attempt, self.current_phase);
            if plan.has_timed_deaths() {
                let start = now.max(self.nic.free_at());
                let mut would_arrive = start + cost;
                if let Some(FaultKind::Delay(extra)) = fate {
                    would_arrive += VirtualTime::from_micros(extra);
                }
                // The sender commits the frame at post time, not at the
                // scheduled wire start: `now` is when it acts.
                self.check_timed_death(dst, seq, now, would_arrive)?;
            }
            let window = if attempt == 0 {
                self.nic.begin_tx(now, cost)
            } else {
                self.nic.begin_retry_tx(now, cost)
            };
            self.record_tx(elems, nbytes);
            let wire_phase = if attempt == 0 {
                Phase::Send
            } else {
                Phase::Retry
            };
            self.trace_tx_nb(wire_phase, dst, window, elems, nbytes);
            match fate {
                None | Some(FaultKind::Delay(_)) => {
                    let arrival = match fate {
                        Some(FaultKind::Delay(extra_us)) => {
                            window.arrival + VirtualTime::from_micros(extra_us)
                        }
                        _ => window.arrival,
                    };
                    let frame = Frame {
                        seq,
                        src: self.rank,
                        payload,
                        arrival,
                        crc,
                        injected: fate,
                        failed: false,
                        dead: None,
                    };
                    return self.push_frame(dst, frame);
                }
                Some(fault @ (FaultKind::Drop | FaultKind::Corrupt)) => {
                    // Transmit the doomed frame so the receiver can observe
                    // (and for corruption, CRC-reject) it.
                    let mut wire_payload = payload.clone();
                    if fault == FaultKind::Corrupt {
                        wire_payload.flip_bit(plan.aux_roll(self.rank, dst, seq, attempt));
                    }
                    let frame = Frame {
                        seq,
                        src: self.rank,
                        payload: wire_payload,
                        arrival: window.arrival,
                        crc,
                        injected: Some(fault),
                        failed: false,
                        dead: None,
                    };
                    self.push_frame(dst, frame)?;
                    if attempt >= self.retry.max_retries {
                        let poison = Frame {
                            seq,
                            src: self.rank,
                            payload: PackBuffer::new(),
                            arrival: window.arrival,
                            crc: 0,
                            injected: None,
                            failed: true,
                            dead: None,
                        };
                        self.push_frame(dst, poison)?;
                        return Err(CommError::RetriesExhausted {
                            src: self.rank,
                            dst,
                            seq,
                            attempts: attempt + 1,
                        });
                    }
                    self.nic
                        .timeout_gap(VirtualTime::from_micros(self.retry.timeout_for(attempt)));
                    self.ledger.faults_mut().retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// Complete every transmission posted with [`Env::isend`]: the local
    /// clock jumps forward to the NIC-idle instant (if it is ahead) and the
    /// jump is booked into the **current phase** — wrap the call in
    /// `env.phase(Phase::Send, |env| env.wait_all())` to attribute the
    /// drain to the send phase. Any slice of the jump the NIC spent on ARQ
    /// recovery (retransmission wire time and backoff timeouts, see
    /// [`Env::isend`]) is booked to [`Phase::Retry`] instead, mirroring the
    /// blocking sender's attribution. A no-op in wall-clock mode, with no
    /// posted sends, or when the CPU already ran past the NIC (in which
    /// case even recovery time was hidden and costs nothing).
    pub fn wait_all(&mut self) {
        let pre = match &self.clock {
            Clock::Virtual { now, .. } => *now,
            Clock::Wall { .. } => {
                self.nic.drain();
                return;
            }
        };
        let target = self.nic.free_at();
        // Compute the recovery slice before the drain clears the timeline.
        let retry = self.nic.retry_within(pre, target);
        self.nic.drain();
        let jump = target.saturating_sub(pre);
        if jump.as_micros() <= 0.0 {
            return;
        }
        if let Clock::Virtual { now, .. } = &mut self.clock {
            *now = target;
        }
        let phase = self.current_phase;
        if retry.as_micros() > 0.0 {
            self.ledger.record(Phase::Retry, retry);
        }
        self.ledger.record(phase, jump.saturating_sub(retry));
        if let Some(tr) = self.tracer.as_mut() {
            tr.emit(
                phase,
                "wait_all".to_string(),
                pre,
                target,
                WireStats::default(),
            );
        }
    }

    /// Post a nonblocking receive for the next message from `src`.
    ///
    /// Posting costs nothing — the matching [`Env::wait_recv`] performs the
    /// actual (deterministic, arrival-stamped) receive. Handles from the
    /// same `src` complete in FIFO order, mirroring the channel.
    pub fn irecv(&mut self, src: usize) -> RecvHandle {
        assert!(
            src < self.nprocs,
            "irecv from rank {src} of {}",
            self.nprocs
        );
        RecvHandle { src }
    }

    /// Complete a receive posted with [`Env::irecv`]. Identical semantics
    /// to calling [`Env::recv`] at this point: the clock syncs to the
    /// message's arrival and any forward jump books as [`Phase::Wait`].
    ///
    /// # Errors
    /// Same failure modes as [`Env::recv`].
    pub fn wait_recv(&mut self, handle: RecvHandle) -> Result<Message, CommError> {
        self.recv(handle.src)
    }

    /// Blocking receive of the next message from `src`.
    ///
    /// Virtual mode: synchronises the local clock with the message's
    /// arrival time; any forward jump is booked as [`Phase::Wait`].
    ///
    /// With a [`FaultPlan`] installed, faulted frames are consumed here:
    /// dropped frames are skipped silently (the sender's timeout pays for
    /// them), corrupted frames fail the CRC32 check and are nacked, and
    /// clean frames are acked — all counted in the ledger's
    /// [`crate::timing::FaultStats`]. A sender that exhausted its retries
    /// surfaces as [`CommError::RetriesExhausted`]; a dead peer as
    /// [`CommError::PeerDead`].
    ///
    /// # Panics
    /// Panics if `src` is out of range (API misuse, like slice indexing).
    pub fn recv(&mut self, src: usize) -> Result<Message, CommError> {
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        self.recv_preflight(src)?;
        loop {
            let frame = self.next_frame(src)?;
            if let Some(msg) = self.process_frame(src, frame)? {
                return Ok(msg);
            }
        }
    }

    /// Asynchronous twin of [`Env::recv`]: identical semantics, identical
    /// charges, but the wait for a frame is an `await` point. On the
    /// threaded engine the await resolves immediately (the transport
    /// blocks inside the poll); on the event loop it parks the rank's task
    /// until the frame is pushed. This is the *only* suspension point a
    /// rank task has — sends and collectives built from sends never block
    /// on a peer.
    ///
    /// # Errors
    /// Same failure modes as [`Env::recv`].
    ///
    /// # Panics
    /// Panics if `src` is out of range (API misuse, like slice indexing).
    pub async fn recv_async(&mut self, src: usize) -> Result<Message, CommError> {
        assert!(src < self.nprocs, "recv from rank {src} of {}", self.nprocs);
        self.recv_preflight(src)?;
        loop {
            let frame = self.next_frame_async(src).await?;
            if let Some(msg) = self.process_frame(src, frame)? {
                return Ok(msg);
            }
        }
    }

    /// Dead-rank checks shared by the blocking and async receive paths.
    fn recv_preflight(&self, src: usize) -> Result<(), CommError> {
        if self.is_rank_dead(src) {
            return Err(CommError::PeerDead { rank: src });
        }
        if self.is_rank_dead(self.rank) {
            return Err(CommError::PeerDead { rank: self.rank });
        }
        Ok(())
    }

    /// Consume one frame from `src`: deliver it (`Ok(Some)`), absorb it
    /// and keep waiting (`Ok(None)` — injected drops and CRC-rejected
    /// corruptions), or surface the failure it encodes. Every charge the
    /// receive path makes happens here, shared verbatim by both engines.
    fn process_frame(&mut self, src: usize, frame: Frame) -> Result<Option<Message>, CommError> {
        if let Some(rank) = frame.dead {
            return Err(CommError::PeerDead { rank });
        }
        if frame.failed {
            return Err(CommError::RetriesExhausted {
                src,
                dst: self.rank,
                seq: frame.seq,
                attempts: self.retry.max_retries + 1,
            });
        }
        if self.plan.is_none() {
            // Fast path: deliver directly, original cost behavior.
            return Ok(Some(self.deliver(frame)));
        }
        match frame.injected {
            Some(FaultKind::Drop) => {
                // Lost on the wire: the receiver never saw it; only the
                // deterministic drop counter records it.
                self.ledger.faults_mut().drops += 1;
                return Ok(None);
            }
            Some(FaultKind::Delay(_)) => {
                self.ledger.faults_mut().delays += 1;
            }
            _ => {}
        }
        // CRC verification walks every payload element once.
        self.phase(Phase::Recv, |env| {
            env.charge_ops(frame.payload.elem_count())
        });
        let ok = frame.payload.crc32() == frame.crc;
        self.send_ack(src, AckMsg { seq: frame.seq, ok });
        if ok {
            return Ok(Some(self.deliver(frame)));
        }
        self.ledger.faults_mut().corrupts += 1;
        Ok(None)
    }

    /// Pull the next frame from `src`, honouring the wall-clock watchdog
    /// when one is installed (see [`Multicomputer::with_watchdog`]). On an
    /// event-loop env this cannot block (there is no thread to park), so
    /// an empty link reports a stall — synchronous receives belong to the
    /// threaded engine, asynchronous rank tasks await
    /// [`Env::next_frame_async`] instead.
    fn next_frame(&mut self, src: usize) -> Result<Frame, CommError> {
        match &self.links {
            Links::Threaded { receivers, .. } => match self.watchdog {
                None => receivers[src]
                    .recv()
                    .map_err(|_| CommError::Disconnected { peer: src }),
                Some(limit) => match receivers[src].recv_timeout(limit) {
                    Ok(frame) => Ok(frame),
                    Err(RecvTimeoutError::Disconnected) => {
                        Err(CommError::Disconnected { peer: src })
                    }
                    Err(RecvTimeoutError::Timeout) => Err(CommError::Stalled {
                        src,
                        waited_ms: limit.as_millis() as u64,
                    }),
                },
            },
            Links::Event(fabric) => fabric.try_next_frame(self.rank, src),
        }
    }

    /// Await the next frame from `src`: the transport-level yield point of
    /// a rank task. Threaded links resolve in the same poll by blocking;
    /// event links park the task until the frame (or a disconnect/stall
    /// verdict) is available.
    async fn next_frame_async(&mut self, src: usize) -> Result<Frame, CommError> {
        match &self.links {
            Links::Threaded { .. } => self.next_frame(src),
            Links::Event(fabric) => fabric.frame_wait(self.rank, src).await,
        }
    }

    /// Clock-sync to the frame's arrival and hand it to the caller.
    fn deliver(&mut self, frame: Frame) -> Message {
        if let Clock::Virtual { now, .. } = &mut self.clock {
            let pre = *now;
            let jump = frame.arrival.saturating_sub(*now);
            *now = now.max(frame.arrival);
            self.ledger.record(Phase::Wait, jump);
            if jump.as_micros() > 0.0 {
                if let Some(tr) = self.tracer.as_mut() {
                    tr.emit(
                        Phase::Wait,
                        format!("<-{}", frame.src),
                        pre,
                        frame.arrival,
                        WireStats::default(),
                    );
                }
            }
        }
        Message {
            src: frame.src,
            payload: frame.payload,
            arrival: frame.arrival,
        }
    }

    /// Emit an ack/nack control frame and charge its wire cost (a one-
    /// element control message) to [`Phase::Recv`].
    fn send_ack(&mut self, src: usize, ack: AckMsg) {
        if ack.ok {
            self.ledger.faults_mut().acks += 1;
        } else {
            self.ledger.faults_mut().nacks += 1;
        }
        if let Clock::Virtual { now, model } = &mut self.clock {
            let cost = model.message_cost(1);
            *now += cost;
            self.ledger.record(Phase::Recv, cost);
        }
        // The peer may already have finished — a vanished ack listener is
        // not an error; acks are confirmations, not data.
        match &self.links {
            Links::Threaded { ack_senders, .. } => {
                let _ = ack_senders[src].send(ack);
            }
            Links::Event(fabric) => fabric.push_ack(src, self.rank, ack),
        }
    }

    /// Opportunistically drain delivery confirmations from `dst`. The
    /// fault plan already told the sender everything the acks would (the
    /// decisions are shared), so these only sanity-check the protocol.
    fn drain_acks(&mut self, dst: usize) {
        let sent = self.send_seq.get(&dst).copied().unwrap_or(0);
        let check = |ack: &AckMsg| {
            debug_assert!(
                ack.seq < sent,
                "ack for a frame rank {} never sent to {dst}",
                self.rank
            );
        };
        match &self.links {
            Links::Threaded { ack_receivers, .. } => {
                while let Ok(ack) = ack_receivers[dst].try_recv() {
                    check(&ack);
                }
            }
            Links::Event(fabric) => {
                while let Some(ack) = fabric.pop_ack(self.rank, dst) {
                    check(&ack);
                }
            }
        }
    }

    /// Immutable view of the ledger accumulated so far.
    pub fn ledger(&self) -> &PhaseLedger {
        &self.ledger
    }

    /// Finalize the rank: drain stray acks, fold arena statistics into the
    /// metrics registry and close out the trace (when tracing).
    fn into_parts(mut self) -> (PhaseLedger, Option<RankTrace>) {
        if self.plan.is_some() {
            for dst in 0..self.nprocs {
                self.drain_acks(dst);
            }
        }
        let trace = self.tracer.take().map(|mut tr| {
            let st = self.arena.stats();
            tr.metrics_mut().count("arena.checkouts", st.checkouts);
            tr.metrics_mut().count("arena.reuses", st.reuses);
            tr.metrics_mut().count("arena.recycles", st.recycles);
            tr.finish(&self.ledger)
        });
        (self.ledger, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MachineModel {
        MachineModel::new(10.0, 2.0, 1.0)
    }

    #[test]
    fn ranks_and_sizes() {
        let m = Multicomputer::virtual_machine(5, model());
        let ranks = m.run(|env| {
            assert_eq!(env.nprocs(), 5);
            env.rank()
        });
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn point_to_point_round_trip() {
        let m = Multicomputer::virtual_machine(2, model());
        let results = m.run(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_f64(3.25);
                env.send(1, b).unwrap();
                let back = env.recv(1).unwrap();
                back.payload.cursor().read_f64()
            } else {
                let msg = env.recv(0).unwrap();
                let v = msg.payload.cursor().read_f64();
                let mut b = PackBuffer::new();
                b.push_f64(v * 2.0);
                env.send(0, b).unwrap();
                v
            }
        });
        assert_eq!(results, vec![6.5, 3.25]);
    }

    #[test]
    fn virtual_send_cost_is_charged() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3, 4, 5]);
                env.send(1, b).unwrap();
            } else {
                env.recv(0).unwrap();
            }
        });
        // t_startup + 5 elems * t_data = 10 + 10 = 20 µs at the sender.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 20.0);
        // Receiver started at 0 and the message arrived at 20: 20 µs wait.
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
    }

    #[test]
    fn charge_ops_books_current_phase() {
        let m = Multicomputer::virtual_machine(1, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            env.phase(Phase::Compress, |env| env.charge_ops(7));
            env.charge_ops(3); // outside any phase block -> Other
        });
        assert_eq!(ledgers[0].get(Phase::Compress).as_micros(), 7.0);
        assert_eq!(ledgers[0].get(Phase::Other).as_micros(), 3.0);
    }

    #[test]
    fn virtual_clocks_are_deterministic() {
        // Arrival times depend only on causality, so repeated runs agree
        // exactly even under different host scheduling.
        let run_once = || {
            let m = Multicomputer::virtual_machine(4, model());
            let (_, ledgers) = m.run_with_ledgers(|env| {
                if env.rank() == 0 {
                    for dst in 1..env.nprocs() {
                        let mut b = PackBuffer::new();
                        b.push_u64_slice(&vec![0; dst * 10]);
                        env.send(dst, b).unwrap();
                    }
                } else {
                    env.recv(0).unwrap();
                    env.charge_ops(100);
                }
            });
            ledgers
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn self_send_works() {
        let m = Multicomputer::virtual_machine(3, model());
        let results = m.run(|env| {
            let mut b = PackBuffer::new();
            b.push_u64(env.rank() as u64);
            env.send(env.rank(), b).unwrap();
            env.recv(env.rank()).unwrap().payload.cursor().read_u64()
        });
        assert_eq!(results, vec![0, 1, 2]);
    }

    #[test]
    fn wall_clock_phase_measures_time() {
        let m = Multicomputer::wall_clock(1);
        let (_, ledgers) = m.run_with_ledgers(|env| {
            env.phase(Phase::Compute, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        assert!(ledgers[0].get(Phase::Compute).as_millis() >= 4.0);
    }

    #[test]
    fn wall_clock_charges_are_noop() {
        let m = Multicomputer::wall_clock(1);
        let (_, ledgers) = m.run_with_ledgers(|env| {
            env.charge_ops(1_000_000_000);
        });
        // charge_ops must not book anything in wall mode.
        assert_eq!(ledgers[0].get(Phase::Other).as_micros(), 0.0);
    }

    #[test]
    fn messages_from_same_source_preserve_order() {
        let m = Multicomputer::virtual_machine(2, model());
        let results = m.run(|env| {
            if env.rank() == 0 {
                for i in 0..10u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    env.send(1, b).unwrap();
                }
                Vec::new()
            } else {
                (0..10)
                    .map(|_| env.recv(0).unwrap().payload.cursor().read_u64())
                    .collect()
            }
        });
        assert_eq!(results[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn message_src_is_stamped() {
        let m = Multicomputer::virtual_machine(3, model());
        let results = m.run(|env| {
            if env.rank() == 2 {
                let a = env.recv(0).unwrap().src;
                let b = env.recv(1).unwrap().src;
                (a, b)
            } else {
                env.send(2, PackBuffer::new()).unwrap();
                (usize::MAX, usize::MAX)
            }
        });
        assert_eq!(results[2], (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Multicomputer::virtual_machine(0, model());
    }

    #[test]
    fn topology_hop_cost_charged_on_send() {
        // Ring of 4 with t_hop = 5: 0→2 is 2 hops.
        let hop_model = MachineModel::new(10.0, 2.0, 1.0).with_hop_cost(5.0);
        let m = Multicomputer::virtual_with_topology(4, hop_model, Topology::Ring);
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]);
                env.send(2, b).unwrap();
            } else if env.rank() == 2 {
                env.recv(0).unwrap();
            }
        });
        // 10 startup + 2 hops * 5 + 3 elems * 2 = 26 µs.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 26.0);
    }

    #[test]
    #[should_panic(expected = "topology grid")]
    fn mismatched_topology_grid_rejected() {
        let _ = Multicomputer::virtual_with_topology(6, model(), Topology::Mesh2D { pr: 2, pc: 2 });
    }

    #[test]
    fn nested_phases_restore_outer() {
        let m = Multicomputer::virtual_machine(1, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            env.phase(Phase::Pack, |env| {
                env.charge_ops(1);
                env.phase(Phase::Unpack, |env| env.charge_ops(2));
                env.charge_ops(4);
            });
        });
        assert_eq!(ledgers[0].get(Phase::Pack).as_micros(), 5.0);
        assert_eq!(ledgers[0].get(Phase::Unpack).as_micros(), 2.0);
    }

    #[test]
    fn wire_stats_count_messages_elements_and_bytes() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]); // 3 elems, 24 bytes
                env.send(1, b).unwrap();
                let mut c = PackBuffer::new();
                c.push_raw(&[b'S', b'2', 0]);
                c.push_varint(300); // 1 elem, 3 header + 2 varint bytes
                env.send(1, c).unwrap();
            } else {
                env.recv(0).unwrap();
                env.recv(0).unwrap();
            }
        });
        let w = ledgers[0].wire();
        assert_eq!(
            w,
            WireStats {
                messages: 2,
                elements: 4,
                bytes: 29
            }
        );
        assert!(ledgers[1].wire().is_zero(), "receiving transmits nothing");
    }

    #[test]
    fn wire_stats_count_retransmissions() {
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]);
                let _ = env.send(1, b);
            } else {
                let _ = env.recv(0);
            }
        });
        // 3 physical attempts of the same 3-element, 24-byte frame; the
        // poison frame is control traffic, not data.
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 3,
                elements: 9,
                bytes: 72
            }
        );
    }

    #[test]
    fn arena_persists_across_runs() {
        let m = Multicomputer::virtual_machine(2, model());
        m.run(|env| {
            let mut b = env.arena().checkout(256);
            b.push_u64(env.rank() as u64);
            let arena = env.arena();
            arena.recycle(b);
        });
        // The second run sees the allocations recycled by the first.
        let pooled = m.run(|env| env.arena().pooled());
        assert_eq!(pooled, vec![1, 1]);
        assert_eq!(m.arena(0).pooled(), 1);
    }

    // ---- fault injection & reliable delivery ----

    use crate::fault::LinkProbs;

    /// A plan whose every decision is "no fault": exercises the reliable
    /// layer (CRC, acks) without any injected trouble.
    fn quiet_plan() -> FaultPlan {
        FaultPlan::new(1)
    }

    #[test]
    fn reliable_layer_round_trips_without_faults() {
        let m = Multicomputer::virtual_machine(2, model()).with_faults(quiet_plan());
        let (results, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]);
                env.send(1, b).unwrap();
                0
            } else {
                env.recv(0).unwrap().payload.cursor().read_u64() as usize
            }
        });
        assert_eq!(results, vec![0, 1]);
        assert_eq!(ledgers[1].faults().acks, 1);
        assert_eq!(ledgers[1].faults().nacks, 0);
        assert!(ledgers[0].faults().is_quiet());
    }

    #[test]
    fn dropped_messages_are_retried_and_charged() {
        // Certain drop on the first attempt of every frame would livelock;
        // use a high-but-not-certain rate and a generous budget instead, on
        // a fixed seed so the test is stable.
        let plan = FaultPlan::new(7).with_drop(0.5);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 50.0,
                backoff: 2.0,
            });
        let (results, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                for i in 0..20u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    env.send(1, b).unwrap();
                }
                Vec::new()
            } else {
                (0..20)
                    .map(|_| env.recv(0).unwrap().payload.cursor().read_u64())
                    .collect()
            }
        });
        assert_eq!(results[1], (0..20).collect::<Vec<_>>());
        let retries = ledgers[0].faults().retries;
        assert!(retries > 0, "a 50% drop rate must force retries");
        assert_eq!(
            ledgers[1].faults().drops,
            retries,
            "every retry answers one lost frame"
        );
        assert!(
            ledgers[0].get(Phase::Retry).as_micros() > 0.0,
            "retries must be charged"
        );
    }

    #[test]
    fn corrupted_messages_fail_crc_and_are_nacked() {
        let plan = FaultPlan::new(3).with_corrupt(0.5);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 10.0,
                backoff: 1.5,
            });
        let (results, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                for i in 0..20u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i * 1000);
                    b.push_f64(i as f64);
                    env.send(1, b).unwrap();
                }
                Vec::new()
            } else {
                (0..20)
                    .map(|_| {
                        let msg = env.recv(0).unwrap();
                        let mut c = msg.payload.cursor();
                        (c.read_u64(), c.read_f64())
                    })
                    .collect()
            }
        });
        let want: Vec<(u64, f64)> = (0..20).map(|i| (i * 1000, i as f64)).collect();
        assert_eq!(results[1], want, "all payloads must arrive uncorrupted");
        assert!(
            ledgers[1].faults().corrupts > 0,
            "a 50% corrupt rate must hit some frames"
        );
        assert_eq!(ledgers[1].faults().nacks, ledgers[1].faults().corrupts);
        assert_eq!(ledgers[1].faults().acks, 20);
    }

    #[test]
    fn delayed_messages_arrive_late_but_intact() {
        let plan = FaultPlan::new(5).with_delay(1.0, 500.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let (results, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64(9);
                env.send(1, b).unwrap();
                0.0
            } else {
                env.recv(0).unwrap();
                env.now().as_micros()
            }
        });
        // Send costs 10 + 1*2 = 12 µs, plus the injected 500 µs delay.
        assert!(
            results[1] >= 512.0,
            "receiver clock must include the delay, got {}",
            results[1]
        );
        assert_eq!(ledgers[1].faults().delays, 1);
    }

    #[test]
    fn retries_exhausted_errors_both_sides_without_deadlock() {
        let plan = FaultPlan::new(0).with_link(
            0,
            1,
            LinkProbs {
                drop: 1.0,
                ..Default::default()
            },
        );
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let results = m.run(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64(1);
                env.send(1, b).map(|_| 0u64).map_err(|e| e.to_string())
            } else {
                env.recv(0)
                    .map(|m| m.payload.cursor().read_u64())
                    .map_err(|e| e.to_string())
            }
        });
        let sender_err = results[0].clone().unwrap_err();
        let receiver_err = results[1].clone().unwrap_err();
        assert!(sender_err.contains("after 3 attempts"), "{sender_err}");
        assert!(receiver_err.contains("undelivered"), "{receiver_err}");
    }

    #[test]
    fn exhausted_send_charges_backoff_series() {
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]);
                let _ = env.send(1, b);
            } else {
                let _ = env.recv(0);
            }
        });
        // Attempt 0 books to Send (10 + 3*2 = 16 µs); attempts 1-2 book
        // their wire cost to Retry along with timeouts 10 and 20 µs:
        // Retry = 16 + 16 + 10 + 20 = 62 µs.
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 16.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 62.0);
        assert_eq!(ledgers[0].faults().retries, 2);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run_once = || {
            let plan = FaultPlan::new(11)
                .with_drop(0.3)
                .with_corrupt(0.2)
                .with_delay(0.1, 80.0);
            let m = Multicomputer::virtual_machine(3, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy {
                    max_retries: 20,
                    timeout_us: 25.0,
                    backoff: 2.0,
                });
            m.run_with_ledgers(|env| {
                if env.rank() == 0 {
                    for dst in 1..env.nprocs() {
                        for i in 0..10u64 {
                            let mut b = PackBuffer::new();
                            b.push_u64_slice(&[i; 5]);
                            env.send(dst, b).unwrap();
                        }
                    }
                    0
                } else {
                    (0..10)
                        .map(|_| env.recv(0).unwrap().payload.elem_count())
                        .sum::<u64>()
                }
            })
        };
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(
            la, lb,
            "ledgers (including fault stats) must be byte-identical"
        );
    }

    #[test]
    fn dead_peer_errors_immediately() {
        let plan = FaultPlan::new(0).with_dead_rank(1);
        let m = Multicomputer::virtual_machine(3, model()).with_faults(plan);
        let results = m.run(|env| {
            if env.rank() == 0 {
                let send_err = env.send(1, PackBuffer::new()).unwrap_err();
                let recv_err = env.recv(1).unwrap_err();
                assert_eq!(send_err, CommError::PeerDead { rank: 1 });
                assert_eq!(recv_err, CommError::PeerDead { rank: 1 });
                // Traffic to live ranks is unaffected.
                env.send(2, PackBuffer::new()).unwrap();
                "sent"
            } else if env.rank() == 2 {
                env.recv(0).unwrap();
                "got"
            } else {
                // The dead rank itself cannot communicate.
                assert!(env.send(0, PackBuffer::new()).is_err());
                "dead"
            }
        });
        assert_eq!(results, vec!["sent", "dead", "got"]);
    }

    #[test]
    fn alive_ranks_reflect_plan() {
        let plan = FaultPlan::new(0).with_dead_rank(0).with_dead_rank(2);
        let m = Multicomputer::virtual_machine(4, model()).with_faults(plan);
        let alive = m.run(|env| (env.lowest_alive_rank(), env.is_rank_dead(env.rank())));
        assert_eq!(
            alive,
            vec![
                (Some(1), true),
                (Some(1), false),
                (Some(1), true),
                (Some(1), false)
            ]
        );
        let healthy = Multicomputer::virtual_machine(3, model());
        assert_eq!(healthy.run(|env| env.lowest_alive_rank()), vec![Some(0); 3]);
        let all_dead = (0..3).fold(FaultPlan::new(0), |p, r| p.with_dead_rank(r));
        let doomed = Multicomputer::virtual_machine(3, model()).with_faults(all_dead);
        assert_eq!(doomed.run(|env| env.lowest_alive_rank()), vec![None; 3]);
    }

    #[test]
    fn wall_clock_mode_recovers_from_faults_too() {
        let plan = FaultPlan::new(21).with_drop(0.4).with_corrupt(0.2);
        let m = Multicomputer::wall_clock(2)
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 24,
                timeout_us: 1.0,
                backoff: 1.1,
            });
        let results = m.run(|env| {
            if env.rank() == 0 {
                for i in 0..30u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    env.send(1, b).unwrap();
                }
                0
            } else {
                (0..30)
                    .map(|_| env.recv(0).unwrap().payload.cursor().read_u64())
                    .sum::<u64>()
            }
        });
        assert_eq!(results[1], (0..30).sum::<u64>());
    }

    // ---- nonblocking sends (isend / wait_all / irecv) ----

    #[test]
    fn isend_overlaps_compute_with_transfer() {
        // Sender posts a 5-elem message (cost 20 µs), computes 12 µs while
        // the NIC drains, then waits: makespan is max(20, 12) = 20 µs, not
        // the blocking 20 + 12 = 32 µs.
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3, 4, 5]);
                env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                env.phase(Phase::Encode, |env| env.charge_ops(12));
                env.phase(Phase::Send, |env| env.wait_all());
            } else {
                env.recv(0).unwrap();
            }
        });
        // isend itself is free; wait_all books the 20 − 12 = 8 µs drain.
        assert_eq!(ledgers[0].get(Phase::Encode).as_micros(), 12.0);
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 8.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 20.0);
        // The receiver still observes arrival at t = 20 µs.
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
    }

    #[test]
    fn isend_serialises_on_the_nic_and_preserves_wire_stats() {
        // Two back-to-back posts share the outgoing link: arrivals at 20
        // and 20 + 12 = 32 µs, exactly the blocking totals — only the
        // sender-side attribution moves.
        let m = Multicomputer::virtual_machine(3, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut a = PackBuffer::new();
                a.push_u64_slice(&[1, 2, 3, 4, 5]); // 10 + 5·2 = 20 µs
                let mut b = PackBuffer::new();
                b.push_u64(9); // 10 + 1·2 = 12 µs
                env.phase(Phase::Send, |env| {
                    env.isend(1, a)?;
                    env.isend(2, b)?;
                    env.wait_all();
                    Ok::<(), CommError>(())
                })
                .unwrap();
            } else {
                env.recv(0).unwrap();
            }
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 32.0);
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 2,
                elements: 6,
                bytes: 48
            }
        );
        assert_eq!(ledgers[1].get(Phase::Wait).as_micros(), 20.0);
        assert_eq!(ledgers[2].get(Phase::Wait).as_micros(), 32.0);
    }

    #[test]
    fn wait_all_is_a_noop_when_cpu_ran_past_the_nic() {
        let m = Multicomputer::virtual_machine(2, model());
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                env.phase(Phase::Send, |env| env.isend(1, PackBuffer::new()))
                    .unwrap();
                env.charge_ops(1_000); // sails far past the 10 µs arrival
                env.phase(Phase::Send, |env| env.wait_all());
                env.wait_all(); // second drain: nothing left
            } else {
                env.recv(0).unwrap();
            }
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 0.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 1_000.0);
    }

    // ---- async ARQ: nonblocking sends under a fault plan ----

    #[test]
    fn async_arq_matches_blocking_totals_when_not_overlapped() {
        // With no compute between the posts and the wait, the NIC schedule
        // is exactly the blocking sender's timeline, so the ledgers —
        // phases, wire stats, fault stats — must be bit-identical.
        let run = |nonblocking: bool| {
            let plan = FaultPlan::new(7).with_drop(0.5);
            let m = Multicomputer::virtual_machine(2, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy {
                    max_retries: 16,
                    timeout_us: 50.0,
                    backoff: 2.0,
                });
            let (_, ledgers) = m.run_with_ledgers(move |env| {
                if env.rank() == 0 {
                    for i in 0..8u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64(i);
                        if nonblocking {
                            env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                        } else {
                            env.phase(Phase::Send, |env| env.send(1, b)).unwrap();
                        }
                    }
                    env.phase(Phase::Send, |env| env.wait_all());
                } else {
                    for _ in 0..8 {
                        env.recv(0).unwrap();
                    }
                }
            });
            ledgers
        };
        let (nb, blocking) = (run(true), run(false));
        assert!(
            blocking[0].faults().retries > 0,
            "the seed must actually force retries"
        );
        assert_eq!(nb, blocking);
    }

    #[test]
    fn async_arq_exhaustion_errors_at_post_time_and_charges_backoff_series() {
        // The nonblocking twin of exhausted_send_charges_backoff_series:
        // certain drop, 3 attempts of a 16 µs frame with 10/20 µs backoffs.
        // Exhaustion surfaces from isend itself; wait_all splits the drain
        // into Send = 16 and Retry = 16 + 10 + 16 + 20 = 62 µs.
        let plan = FaultPlan::new(0).with_drop(1.0);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                timeout_us: 10.0,
                backoff: 2.0,
            });
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64_slice(&[1, 2, 3]);
                let err = env.phase(Phase::Send, |env| env.isend(1, b)).unwrap_err();
                assert!(matches!(
                    err,
                    CommError::RetriesExhausted { attempts: 3, .. }
                ));
                env.phase(Phase::Send, |env| env.wait_all());
            } else {
                let err = env.recv(0).unwrap_err();
                assert!(matches!(err, CommError::RetriesExhausted { .. }));
            }
        });
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 16.0);
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 62.0);
        assert_eq!(ledgers[0].faults().retries, 2);
        assert_eq!(
            ledgers[0].wire(),
            WireStats {
                messages: 3,
                elements: 9,
                bytes: 72
            }
        );
    }

    #[test]
    fn async_arq_recovery_hides_behind_compute() {
        // The point of the tentpole: ARQ recovery runs on the NIC while the
        // CPU computes, so a long enough compute block swallows wire time,
        // timeouts and retransmissions alike.
        let plan = FaultPlan::new(7).with_drop(0.3);
        let m = Multicomputer::virtual_machine(2, model())
            .with_faults(plan)
            .with_retry_policy(RetryPolicy {
                max_retries: 16,
                timeout_us: 10.0,
                backoff: 1.5,
            });
        let (_, ledgers) = m.run_with_ledgers(|env| {
            if env.rank() == 0 {
                for i in 0..12u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    env.phase(Phase::Send, |env| env.isend(1, b)).unwrap();
                }
                env.phase(Phase::Encode, |env| env.charge_ops(10_000));
                env.phase(Phase::Send, |env| env.wait_all());
            } else {
                for _ in 0..12 {
                    env.recv(0).unwrap();
                }
            }
        });
        assert!(
            ledgers[0].faults().retries > 0,
            "a 30% drop rate over 12 messages must force retries"
        );
        // Everything the NIC did — including recovery — was hidden.
        assert_eq!(ledgers[0].get(Phase::Retry).as_micros(), 0.0);
        assert_eq!(ledgers[0].get(Phase::Send).as_micros(), 0.0);
        assert_eq!(ledgers[0].busy_total().as_micros(), 10_000.0);
    }

    #[test]
    fn async_fault_runs_are_bit_deterministic() {
        let run_once = || {
            let plan = FaultPlan::new(11)
                .with_drop(0.3)
                .with_corrupt(0.2)
                .with_delay(0.1, 80.0);
            let m = Multicomputer::virtual_machine(3, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy {
                    max_retries: 20,
                    timeout_us: 25.0,
                    backoff: 2.0,
                });
            m.run_with_ledgers(|env| {
                if env.rank() == 0 {
                    for dst in 1..env.nprocs() {
                        for i in 0..10u64 {
                            let mut b = PackBuffer::new();
                            b.push_u64_slice(&[i; 5]);
                            env.phase(Phase::Send, |env| env.isend(dst, b)).unwrap();
                        }
                        env.phase(Phase::Encode, |env| env.charge_ops(37));
                    }
                    env.phase(Phase::Send, |env| env.wait_all());
                    0
                } else {
                    (0..10)
                        .map(|_| env.recv(0).unwrap().payload.elem_count())
                        .sum::<u64>()
                }
            })
        };
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(la, lb, "async fault ledgers must be byte-identical");
        // And the data still arrives intact.
        assert_eq!(ra[1], 50);
        assert_eq!(ra[2], 50);
    }

    // ---- timed rank death ----

    #[test]
    fn sends_past_a_timed_death_error_on_both_sides() {
        // 1-elem frames cost 12 µs: the first lands at 12 ≤ 20, the second
        // would land at 24 > 20 — rank 1 is gone. The sender detects it,
        // the dying receiver observes it via the death notice.
        let plan = FaultPlan::new(0).with_death_at(1, 20.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let results = m.run(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64(1);
                env.send(1, b).unwrap();
                let mut b = PackBuffer::new();
                b.push_u64(2);
                let err = env.send(1, b).unwrap_err();
                assert_eq!(err, CommError::PeerDead { rank: 1 });
                "detected"
            } else {
                assert_eq!(env.recv(0).unwrap().payload.cursor().read_u64(), 1);
                let err = env.recv(0).unwrap_err();
                assert_eq!(err, CommError::PeerDead { rank: 1 });
                "observed"
            }
        });
        assert_eq!(results, vec!["detected", "observed"]);
    }

    #[test]
    fn isend_respects_timed_death_on_the_nic_schedule() {
        // Both frames are posted at t = 0, but the NIC serialises them:
        // scheduled arrivals 12 and 24 µs, so the second post already
        // cannot land before rank 1 dies at t = 20.
        let plan = FaultPlan::new(0).with_death_at(1, 20.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        m.run(|env| {
            if env.rank() == 0 {
                env.phase(Phase::Send, |env| {
                    let mut b = PackBuffer::new();
                    b.push_u64(1);
                    env.isend(1, b).unwrap();
                    let mut b = PackBuffer::new();
                    b.push_u64(2);
                    let err = env.isend(1, b).unwrap_err();
                    assert_eq!(err, CommError::PeerDead { rank: 1 });
                    env.wait_all();
                });
            } else {
                env.recv(0).unwrap();
                let err = env.recv(0).unwrap_err();
                assert_eq!(err, CommError::PeerDead { rank: 1 });
            }
        });
    }

    #[test]
    fn a_rank_past_its_own_death_cannot_send() {
        let plan = FaultPlan::new(0).with_death_at(0, 50.0);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        m.run(|env| {
            if env.rank() == 0 {
                env.charge_ops(100); // sail past the death instant
                let err = env.send(1, PackBuffer::new()).unwrap_err();
                assert_eq!(err, CommError::PeerDead { rank: 0 });
            } else {
                let err = env.recv(0).unwrap_err();
                assert_eq!(err, CommError::PeerDead { rank: 0 });
            }
        });
    }

    #[test]
    fn timed_death_runs_are_deterministic() {
        let run_once = || {
            let plan = FaultPlan::new(3).with_drop(0.2).with_death_at(1, 300.0);
            let m = Multicomputer::virtual_machine(3, model())
                .with_faults(plan)
                .with_retry_policy(RetryPolicy::with_retries(10));
            m.run_with_ledgers(|env| {
                if env.rank() == 0 {
                    let mut delivered = 0u64;
                    for i in 0..20u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64_slice(&[i; 4]);
                        let dst = 1 + (i % 2) as usize;
                        if env.send(dst, b).is_ok() {
                            delivered += 1;
                        }
                    }
                    delivered
                } else {
                    let mut got = 0u64;
                    while let Ok(m) = env.recv(0) {
                        got += m.payload.elem_count();
                    }
                    got
                }
            })
        };
        let (ra, la) = run_once();
        let (rb, lb) = run_once();
        assert_eq!(ra, rb);
        assert_eq!(la, lb);
        // Rank 2 outlives the run and keeps receiving after rank 1 died.
        assert!(ra[2] > ra[1], "{ra:?}");
    }

    // ---- watchdog ----

    #[test]
    fn watchdog_unblocks_a_protocol_stall() {
        // Both ranks wait on each other without anyone sending — a
        // deliberate protocol bug that would deadlock forever. The
        // watchdog turns it into a typed error.
        let m = Multicomputer::virtual_machine(2, model()).with_watchdog(Duration::from_millis(50));
        let results = m.run(|env| {
            let peer = 1 - env.rank();
            env.recv(peer)
                .map(|_| String::new())
                .unwrap_err()
                .to_string()
        });
        // Whichever rank times out first unblocks the other by dropping
        // its channels, so the peer may see a disconnect instead.
        for err in &results {
            assert!(err.contains("watchdog") || err.contains("hung up"), "{err}");
        }
        assert!(
            results.iter().any(|e| e.contains("watchdog")),
            "{results:?}"
        );
    }

    #[test]
    fn isend_works_in_wall_clock_mode() {
        let m = Multicomputer::wall_clock(2);
        let results = m.run(|env| {
            if env.rank() == 0 {
                let mut b = PackBuffer::new();
                b.push_u64(41);
                env.isend(1, b).unwrap();
                env.wait_all();
                0
            } else {
                let h = env.irecv(0);
                env.wait_recv(h).unwrap().payload.cursor().read_u64()
            }
        });
        assert_eq!(results, vec![0, 41]);
    }

    #[test]
    fn irecv_completes_in_fifo_order() {
        let m = Multicomputer::virtual_machine(2, model());
        let results = m.run(|env| {
            if env.rank() == 0 {
                for i in 0..3u64 {
                    let mut b = PackBuffer::new();
                    b.push_u64(i);
                    env.isend(1, b).unwrap();
                }
                env.wait_all();
                Vec::new()
            } else {
                let handles: Vec<_> = (0..3).map(|_| env.irecv(0)).collect();
                handles
                    .into_iter()
                    .map(|h| env.wait_recv(h).unwrap().payload.cursor().read_u64())
                    .collect()
            }
        });
        assert_eq!(results[1], vec![0, 1, 2]);
    }

    // ---- task engine (run_tasks / event loop) ----

    /// A rank program exercising sends, faults and async receives: rank 0
    /// fans out batches, everyone else receives until their link closes.
    fn fan_out_task<'e>(env: &'e mut Env) -> Pin<Box<dyn Future<Output = u64> + 'e>> {
        Box::pin(async move {
            if env.rank() == 0 {
                let mut delivered = 0u64;
                for dst in 1..env.nprocs() {
                    for i in 0..4u64 {
                        let mut b = PackBuffer::new();
                        b.push_u64_slice(&[i; 3]);
                        if env.phase(Phase::Send, |env| env.send(dst, b)).is_ok() {
                            delivered += 1;
                        }
                    }
                }
                delivered
            } else {
                let mut got = 0u64;
                for _ in 0..4 {
                    match env.recv_async(0).await {
                        Ok(m) => got += m.payload.elem_count(),
                        Err(_) => break,
                    }
                }
                got
            }
        })
    }

    #[test]
    fn task_engine_auto_selects_by_size_and_mode() {
        let small = Multicomputer::virtual_machine(8, model());
        assert_eq!(small.task_engine(), EngineKind::Threaded);
        let big = Multicomputer::virtual_machine(4096, model());
        assert_eq!(big.task_engine(), EngineKind::EventLoop);
        // Wall-clock mode has no virtual timeline for the event loop.
        let wall = Multicomputer::wall_clock(8).with_engine(EngineKind::EventLoop);
        assert_eq!(wall.task_engine(), EngineKind::Threaded);
    }

    #[test]
    fn event_loop_matches_threaded_results_and_ledgers() {
        let run = |kind: EngineKind| {
            let m = Multicomputer::virtual_machine(6, model()).with_engine(kind);
            m.run_tasks_with_ledgers(&(), |(), env| fan_out_task(env))
        };
        let (rt, lt) = run(EngineKind::Threaded);
        let (re, le) = run(EngineKind::EventLoop);
        assert_eq!(rt, re);
        assert_eq!(lt, le, "event-loop ledgers must be bit-identical");
        assert_eq!(rt[1], 12, "4 messages x 3 elements each");
    }

    #[test]
    fn event_loop_matches_threaded_under_faults() {
        let run = |kind: EngineKind| {
            let plan = FaultPlan::new(11)
                .with_drop(0.3)
                .with_corrupt(0.2)
                .with_delay(0.1, 80.0);
            let m = Multicomputer::virtual_machine(4, model())
                .with_engine(kind)
                .with_faults(plan)
                .with_retry_policy(RetryPolicy {
                    max_retries: 20,
                    timeout_us: 25.0,
                    backoff: 2.0,
                });
            m.run_tasks_with_ledgers(&(), |(), env| fan_out_task(env))
        };
        let (rt, lt) = run(EngineKind::Threaded);
        let (re, le) = run(EngineKind::EventLoop);
        assert_eq!(rt, re);
        assert_eq!(lt, le, "faulted event-loop ledgers must be bit-identical");
        assert!(
            lt[0].faults().retries > 0,
            "the seed must actually force retries"
        );
    }

    #[test]
    fn event_loop_runs_ten_thousand_ranks() {
        // Far past any OS thread limit: a 10k-rank ring relay on one
        // thread. Rank 0 seeds the token; everyone adds one and forwards.
        let m = Multicomputer::virtual_machine(10_000, model());
        assert_eq!(m.task_engine(), EngineKind::EventLoop);
        let results = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                let me = env.rank();
                let p = env.nprocs();
                if me == 0 {
                    let mut b = PackBuffer::new();
                    b.push_u64(0);
                    env.send(1, b).unwrap();
                    0
                } else {
                    let got = env.recv_async(me - 1).await.unwrap();
                    let v = got.payload.cursor().read_u64() + 1;
                    if me + 1 < p {
                        let mut b = PackBuffer::new();
                        b.push_u64(v);
                        env.send(me + 1, b).unwrap();
                    }
                    v
                }
            })
        });
        assert_eq!(results[9_999], 9_999);
    }

    #[test]
    fn event_loop_detects_protocol_stalls_structurally() {
        // The deadlock of watchdog_unblocks_a_protocol_stall, but on the
        // event loop: detection is structural (everyone parked), so no
        // wall-clock watchdog is needed and no real time is burned.
        let m = Multicomputer::virtual_machine(2, model()).with_engine(EngineKind::EventLoop);
        let results = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                let peer = 1 - env.rank();
                env.recv_async(peer).await.unwrap_err().to_string()
            })
        });
        // Whichever rank errors out first closes its links; the peer may
        // observe either the stall or the disconnect.
        for err in &results {
            assert!(err.contains("watchdog") || err.contains("hung up"), "{err}");
        }
        assert!(
            results.iter().any(|e| e.contains("watchdog")),
            "{results:?}"
        );
    }

    #[test]
    fn event_loop_preserves_traces() {
        use crate::trace::MemorySink;
        let run = |kind: EngineKind| {
            let sink = Arc::new(MemorySink::new());
            let m = Multicomputer::virtual_machine(3, model())
                .with_engine(kind)
                .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
            m.run_tasks(&(), |(), env| fan_out_task(env));
            sink.take()
        };
        let threaded = run(EngineKind::Threaded);
        let event = run(EngineKind::EventLoop);
        assert_eq!(threaded.len(), 3);
        assert_eq!(threaded, event, "traces must be identical across engines");
    }

    #[test]
    #[should_panic(expected = "threaded engine supports at most")]
    fn threaded_closure_engine_rejects_oversized_machines() {
        let m = Multicomputer::virtual_machine(2048, model());
        let _ = m.run(|env| env.rank());
    }

    #[test]
    fn isend_to_dead_rank_errors() {
        let plan = FaultPlan::new(0).with_dead_rank(1);
        let m = Multicomputer::virtual_machine(2, model()).with_faults(plan);
        let errs = m.run(|env| {
            if env.rank() == 0 {
                matches!(
                    env.isend(1, PackBuffer::new()),
                    Err(CommError::PeerDead { rank: 1 })
                )
            } else {
                true
            }
        });
        assert!(errs[0]);
    }
}
