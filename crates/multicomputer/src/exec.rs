//! The event-loop engine: every simulated rank runs as a resumable task on
//! one OS thread, scheduled by message availability on the virtual
//! timeline.
//!
//! The threaded executor in [`crate::engine`] spawns one OS thread per
//! rank, which caps realistic machine sizes at around a thousand ranks.
//! This module removes that cap. The observation that makes it cheap: the
//! *only* operation that ever blocks on a peer is a receive — sends charge the local clock and append to an unbounded
//! queue, acks are drained opportunistically, and `wait_all` is local NIC
//! arithmetic. A rank program is therefore an `async` function whose only
//! suspension points are receives, and the "scheduler" reduces to: run a
//! task until it needs a frame that has not been pushed yet, park it keyed
//! by the awaited source, and wake it when that source pushes a frame (or
//! finishes, which surfaces [`CommError::Disconnected`] exactly like a
//! dropped channel endpoint).
//!
//! # Determinism
//!
//! All charging, ARQ, fault-fate and trace logic lives in
//! [`crate::engine::Env`] above the transport seam, so a rank's ledger is a
//! pure function of its program order and of the frames it consumes, in
//! order, per link. The fabric preserves per-link FIFO exactly like the
//! channel matrix, and arrival stamps travel inside the frames — so the
//! ledgers are bit-identical to the threaded engine's by construction, no
//! matter in which order the scheduler interleaves tasks (the equality is
//! additionally enforced by a proptest over the chaos corpus). To keep the
//! *schedule* itself reproducible too, the ready queue is FIFO, wakes
//! happen in push order, and this module uses no wall-clock time, no
//! entropy and no unordered collections (the `sparsedist-lint` D rules
//! police this file).
//!
//! # Stall handling
//!
//! Deadlock detection is structural instead of wall-clock: when every
//! unfinished task is parked, no frame can ever arrive again — the
//! scheduler marks the fabric stalled and wakes everyone, so each pending
//! receive returns [`CommError::Stalled`] (the event-loop analogue of the
//! threaded engine's watchdog, but exact rather than timeout-based).

use crate::engine::{AckMsg, CommError, Frame};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Which executor a [`crate::Multicomputer`] uses to drive rank tasks
/// (see [`crate::Multicomputer::run_tasks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One OS thread per simulated rank, connected by a channel matrix.
    /// Every task future completes in a single poll because its receives
    /// block inside the poll.
    Threaded,
    /// Every rank is a resumable task on a single-threaded deterministic
    /// event loop; receives are yield points scheduled by frame
    /// availability.
    EventLoop,
}

impl EngineKind {
    /// The largest machine this backend supports. The threaded bound keeps
    /// thread-spawn storms away from OS limits; the event-loop bound is a
    /// sanity cap on fabric memory (per-rank state is O(1), so the loop
    /// comfortably drives the paper's sweeps at 65536 ranks).
    pub fn max_procs(self) -> usize {
        match self {
            EngineKind::Threaded => 1024,
            EngineKind::EventLoop => 131_072,
        }
    }
}

/// The shared mailbox fabric connecting event-loop tasks: the event-mode
/// replacement for the threaded engine's crossbeam channel matrix.
///
/// Everything lives in one `RefCell` because the event loop is strictly
/// single-threaded; borrows are confined to the short fabric methods, never
/// held across a task poll.
pub(crate) struct EventFabric {
    state: RefCell<FabricState>,
    /// Installed watchdog bound in milliseconds (0 = none), reported in
    /// [`CommError::Stalled`] for parity with the threaded engine.
    watchdog_ms: u64,
}

/// Mutable fabric state. Mailboxes are keyed `[dst][src]` with sparse
/// per-source queues (a `BTreeMap`, not a dense `Vec`, so a 65536-rank
/// machine does not allocate p² queues up front).
struct FabricState {
    /// In-flight data frames, FIFO per (src, dst) link.
    frames: Vec<BTreeMap<usize, VecDeque<Frame>>>,
    /// In-flight ack/nack control frames, same keying.
    acks: Vec<BTreeMap<usize, VecDeque<AckMsg>>>,
    /// Tasks whose future has completed (their "channels" are closed).
    done: Vec<bool>,
    /// The source each parked task is blocked on (a task waits on at most
    /// one link at a time — receives are sequential within a rank).
    waiting_on: Vec<Option<usize>>,
    /// Reverse index: tasks possibly parked on frames from rank `i`.
    /// Entries can go stale (the task was woken by a frame push since);
    /// wakes filter through `waiting_on` before enqueueing.
    waiters: Vec<Vec<usize>>,
    /// FIFO ready queue of runnable task ranks.
    ready: VecDeque<usize>,
    /// Guards against double-enqueueing a rank onto `ready`.
    queued: Vec<bool>,
    /// Set by the scheduler when every unfinished task is parked: no frame
    /// can ever arrive, so pending receives must error out. Cleared by any
    /// subsequent frame push (progress resumed).
    stalled: bool,
}

impl FabricState {
    fn enqueue(&mut self, rank: usize) {
        if !self.queued[rank] && !self.done[rank] {
            self.queued[rank] = true;
            self.ready.push_back(rank);
        }
    }

    fn pop_ready(&mut self) -> Option<usize> {
        let rank = self.ready.pop_front()?;
        self.queued[rank] = false;
        Some(rank)
    }

    /// Wake every task currently parked on `src` (stale waiter entries are
    /// skipped via the `waiting_on` check).
    fn wake_waiters_of(&mut self, src: usize) {
        let parked = std::mem::take(&mut self.waiters[src]);
        for w in parked {
            if self.waiting_on[w] == Some(src) {
                self.waiting_on[w] = None;
                self.enqueue(w);
            }
        }
    }
}

impl EventFabric {
    /// A fabric for `p` tasks, all initially runnable in rank order.
    pub(crate) fn new(p: usize, watchdog_ms: u64) -> Self {
        EventFabric {
            state: RefCell::new(FabricState {
                frames: (0..p).map(|_| BTreeMap::new()).collect(),
                acks: (0..p).map(|_| BTreeMap::new()).collect(),
                done: vec![false; p],
                waiting_on: vec![None; p],
                waiters: (0..p).map(|_| Vec::new()).collect(),
                ready: (0..p).collect(),
                queued: vec![true; p],
                stalled: false,
            }),
            watchdog_ms,
        }
    }

    /// Append a frame to the `src → dst` link, waking `dst` if it is
    /// parked on that link. Fails like a closed channel when `dst`'s task
    /// has already completed.
    pub(crate) fn push_frame(&self, dst: usize, src: usize, frame: Frame) -> Result<(), CommError> {
        let mut st = self.state.borrow_mut();
        if st.done[dst] {
            return Err(CommError::Disconnected { peer: dst });
        }
        st.frames[dst].entry(src).or_default().push_back(frame);
        st.stalled = false; // a frame in flight is progress
        if st.waiting_on[dst] == Some(src) {
            st.waiting_on[dst] = None;
            st.enqueue(dst);
        }
        Ok(())
    }

    /// A future resolving to the next frame on the `src → rank` link (or
    /// the matching [`CommError`]); the task parks while the link is empty.
    pub(crate) fn frame_wait(self: &Rc<Self>, rank: usize, src: usize) -> FrameWait {
        FrameWait {
            fabric: Rc::clone(self),
            rank,
            src,
            yielded: false,
        }
    }

    /// Best-effort ack push (acks to a finished task vanish, exactly like
    /// sends on a dropped channel endpoint).
    pub(crate) fn push_ack(&self, dst: usize, src: usize, ack: AckMsg) {
        let mut st = self.state.borrow_mut();
        if !st.done[dst] {
            st.acks[dst].entry(src).or_default().push_back(ack);
        }
    }

    /// Pop the next pending ack from `from`, if any.
    pub(crate) fn pop_ack(&self, rank: usize, from: usize) -> Option<AckMsg> {
        self.state.borrow_mut().acks[rank]
            .get_mut(&from)
            .and_then(VecDeque::pop_front)
    }
}

/// Future for one pending receive on the fabric (see
/// [`EventFabric::frame_wait`]).
pub(crate) struct FrameWait {
    fabric: Rc<EventFabric>,
    rank: usize,
    src: usize,
    /// Whether the exploration-mode pre-consume yield already happened.
    yielded: bool,
}

impl Future for FrameWait {
    type Output = Result<Frame, CommError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut st = this.fabric.state.borrow_mut();
        // Under an installed schedule override, every receive parks once
        // *before* consuming, staying runnable: the scheduler may then
        // interleave any other ready rank between two receives, which is
        // exactly the "frame delivered later" case a production poll
        // short-circuits past. This widens the explored interleaving
        // space to per-receive granularity; plain runs skip it.
        if !this.yielded && !st.stalled && exploring() {
            this.yielded = true;
            st.enqueue(this.rank);
            return Poll::Pending;
        }
        if let Some(frame) = st.frames[this.rank]
            .get_mut(&this.src)
            .and_then(VecDeque::pop_front)
        {
            return Poll::Ready(Ok(frame));
        }
        if st.done[this.src] {
            // Drained and the peer has exited: the link can only ever be
            // empty from here on — the channel-close semantics.
            return Poll::Ready(Err(CommError::Disconnected { peer: this.src }));
        }
        if st.stalled {
            return Poll::Ready(Err(CommError::Stalled {
                src: this.src,
                waited_ms: this.fabric.watchdog_ms,
            }));
        }
        st.waiting_on[this.rank] = Some(this.src);
        st.waiters[this.src].push(this.rank);
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Pluggable scheduling (the `simcheck` seam)
//
// By default the loop pops the FIFO ready queue — one canonical schedule.
// The explorer (`crate::explore`) installs a thread-local override that
// picks *which* ready task runs at every step where the ready set offers
// a real choice (width > 1), and records the (width, choice) trace so a
// depth-first sweep can enumerate every delivery interleaving. The
// override lives in a thread-local because the event loop is strictly
// single-threaded and `Multicomputer` must stay `Sync`-agnostic.
// ---------------------------------------------------------------------------

/// A schedule override: replay `prefix` at the first branch points, then
/// take choice 0; record every branch point taken.
pub(crate) struct ScheduleState {
    /// Choices to replay, one per branch point (ready width > 1).
    prefix: Vec<usize>,
    /// Recorded `(width, choice)` per branch point, in order.
    pub(crate) trace: Vec<(usize, usize)>,
    cursor: usize,
}

thread_local! {
    static SCHEDULE: RefCell<Option<ScheduleState>> = const { RefCell::new(None) };
}

/// Whether a schedule override is installed on this thread (exploration
/// mode): receives then park once before consuming so the sweep sees
/// per-receive delivery granularity.
fn exploring() -> bool {
    SCHEDULE.with(|s| s.borrow().is_some())
}

/// Install a schedule override for the next event-loop run on this
/// thread. The returned guard uninstalls on drop (panic-safe) and hands
/// back the recorded trace via [`ScheduleGuard::finish`].
pub(crate) struct ScheduleGuard;

impl ScheduleGuard {
    pub(crate) fn install(prefix: Vec<usize>) -> Self {
        SCHEDULE.with(|s| {
            *s.borrow_mut() = Some(ScheduleState {
                prefix,
                trace: Vec::new(),
                cursor: 0,
            });
        });
        ScheduleGuard
    }

    /// Uninstall and return the branch-point trace of the run.
    pub(crate) fn finish(self) -> Vec<(usize, usize)> {
        SCHEDULE
            .with(|s| s.borrow_mut().take())
            .map_or_else(Vec::new, |st| st.trace)
    }
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        SCHEDULE.with(|s| {
            s.borrow_mut().take();
        });
    }
}

/// Pick the next runnable rank: FIFO by default, or the installed
/// schedule's choice at branch points. Decisions are recorded only where
/// the ready set offers a real choice — a width-1 step has exactly one
/// possible successor state, so exploring it adds nothing (the DPOR-lite
/// reduction).
fn pick_ready(st: &mut FabricState) -> Option<usize> {
    let width = st.ready.len();
    if width <= 1 {
        return st.pop_ready();
    }
    let choice = SCHEDULE.with(|s| {
        s.borrow_mut().as_mut().map(|sch| {
            let c = if sch.cursor < sch.prefix.len() {
                sch.prefix[sch.cursor].min(width - 1)
            } else {
                0
            };
            sch.cursor += 1;
            sch.trace.push((width, c));
            c
        })
    });
    match choice {
        None | Some(0) => st.pop_ready(),
        Some(c) => {
            let rank = st.ready.remove(c)?;
            st.queued[rank] = false;
            Some(rank)
        }
    }
}

fn noop_raw_waker() -> RawWaker {
    fn clone(_: *const ()) -> RawWaker {
        noop_raw_waker()
    }
    fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    RawWaker::new(std::ptr::null(), &VTABLE)
}

/// A waker that does nothing: wakeups are tracked in the fabric's
/// `waiting_on`/`waiters` tables, not through the std waker protocol
/// (hand-rolled because `Waker::noop` postdates the MSRV).
pub(crate) fn noop_waker() -> Waker {
    // SAFETY: every vtable entry ignores its data pointer and carries no
    // state, so the RawWaker contract (clone/wake/wake_by_ref/drop over a
    // null pointer) is upheld trivially.
    unsafe { Waker::from_raw(noop_raw_waker()) }
}

/// Drive `tasks` (one per rank, index = rank) to completion on the fabric
/// and return their outputs in rank order.
///
/// The loop is deterministic: tasks are polled in FIFO ready order
/// starting from rank 0, a parked task is woken only by a frame push on
/// the link it awaits (or its peer finishing), and a global stall — every
/// unfinished task parked — synthesizes wakeups so pending receives
/// surface [`CommError::Stalled`] instead of deadlocking.
pub(crate) fn drive<'f, T>(
    mut tasks: Vec<Pin<Box<dyn Future<Output = T> + 'f>>>,
    fabric: &Rc<EventFabric>,
) -> Vec<T> {
    let p = tasks.len();
    let mut results: Vec<Option<T>> = (0..p).map(|_| None).collect();
    let mut remaining = p;
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    while remaining > 0 {
        let next = pick_ready(&mut fabric.state.borrow_mut());
        let rank = match next {
            Some(rank) => rank,
            None => {
                // Every unfinished task is parked on a link that can never
                // deliver: a protocol stall. Wake them all so the pending
                // receives error out deterministically.
                let mut st = fabric.state.borrow_mut();
                st.stalled = true;
                for r in 0..p {
                    if !st.done[r] {
                        st.waiting_on[r] = None;
                        st.enqueue(r);
                    }
                }
                continue;
            }
        };
        match tasks[rank].as_mut().poll(&mut cx) {
            Poll::Ready(out) => {
                results[rank] = Some(out);
                remaining -= 1;
                let mut st = fabric.state.borrow_mut();
                st.done[rank] = true;
                // Closing the rank's "channels" is progress: peers blocked
                // on it must now observe the disconnect.
                st.stalled = false;
                st.wake_waiters_of(rank);
            }
            Poll::Pending => {
                let st = fabric.state.borrow();
                debug_assert!(
                    st.waiting_on[rank].is_some() || st.queued[rank],
                    "task {rank} pended without parking or re-enqueueing"
                );
            }
        }
    }
    results
        .into_iter()
        .map(|r| {
            // lint: allow(E002) — the loop above runs until every slot is filled
            r.expect("event loop finished with an unfinished task")
        })
        .collect()
}
