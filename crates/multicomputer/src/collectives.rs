//! Collective operations built on the point-to-point primitives.
//!
//! The distribution pipeline and the SpMV, gather and redistribute
//! programs route their own messages; the one collective they share is
//! [`allreduce_sum`], which the distributed Frobenius norm uses. It is
//! implemented as sequential sends to and from a hub, matching the
//! paper's sequential-send cost model (`p × T_Startup + total_elems ×
//! T_Data` charged at the hub).
//!
//! # Fault behavior
//!
//! The collective returns `Result<_, CommError>` and degrades gracefully
//! under a [`crate::fault::FaultPlan`] with dead ranks: dead peers are
//! skipped, the hub moves to the lowest *alive* rank, and a rank that is
//! itself dead gets [`CommError::PeerDead`] back immediately so rank tasks
//! can bail out without deadlocking the survivors.

use crate::engine::{CommError, Env};
use crate::timing::Phase;

/// Elementwise sum-reduction of equal-length `f64` vectors over the alive
/// ranks, followed by a broadcast — an allreduce. The hub is the lowest
/// alive rank, so the collective survives the death of rank 0. Returns the
/// reduced vector on every alive rank.
///
/// The sends and the hub's reduction arithmetic are booked to
/// [`Phase::Send`]; receives book their waits as usual. Its only await
/// points are receives.
///
/// # Panics
/// Panics if alive ranks contribute different lengths.
pub async fn allreduce_sum(env: &mut Env, values: &[f64]) -> Result<Vec<f64>, CommError> {
    if env.is_rank_dead(env.rank()) {
        return Err(CommError::PeerDead { rank: env.rank() });
    }
    let hub = env
        .lowest_alive_rank()
        // lint: allow(E002) — this rank is alive, so at least one rank is
        .expect("allreduce needs at least one alive rank");
    // Checkout from the rank's arena: iterative solvers call allreduce
    // every sweep, and recycling keeps the hub's p-fold churn off the
    // allocator entirely after the first round.
    let mut buf = env.arena().checkout((values.len() + 1) * 8);
    buf.push_u64(values.len() as u64);
    buf.push_f64_slice(values);
    env.phase(Phase::Send, |env| env.send(hub, buf))?;
    if env.rank() == hub {
        let mut acc = vec![0.0f64; values.len()];
        let mut contributors = 0u64;
        for src in 0..env.nprocs() {
            if env.is_rank_dead(src) {
                continue;
            }
            let msg = env.recv_async(src).await?;
            let mut cursor = msg.payload.cursor();
            let len = cursor.read_usize();
            assert_eq!(
                len,
                acc.len(),
                "rank {src} contributed length {len}, expected {}",
                acc.len()
            );
            for slot in acc.iter_mut() {
                *slot += cursor.read_f64();
            }
            contributors += 1;
            env.arena().recycle_bytes(msg.payload.into_bytes());
        }
        env.phase(Phase::Send, |env| -> Result<(), CommError> {
            env.charge_ops(acc.len() as u64 * contributors);
            for dst in 0..env.nprocs() {
                if env.is_rank_dead(dst) {
                    continue;
                }
                let mut b = env.arena().checkout(acc.len() * 8);
                b.push_f64_slice(&acc);
                env.send(dst, b)?;
            }
            Ok(())
        })?;
    }
    let msg = env.recv_async(hub).await?;
    let out = msg.payload.cursor().read_f64_vec(values.len());
    env.arena().recycle_bytes(msg.payload.into_bytes());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Multicomputer;
    use crate::exec::EngineKind;
    use crate::fault::FaultPlan;
    use crate::model::MachineModel;

    fn machine(p: usize) -> Multicomputer {
        Multicomputer::virtual_machine(p, MachineModel::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn allreduce_sums_elementwise() {
        for engine in [EngineKind::Threaded, EngineKind::EventLoop] {
            let got = machine(5).with_engine(engine).run_tasks(&(), |(), env| {
                Box::pin(async move {
                    let mine = vec![env.rank() as f64, 1.0, -(env.rank() as f64)];
                    allreduce_sum(env, &mine).await.unwrap()
                })
            });
            // Σ ranks = 10, Σ 1 = 5, Σ -ranks = -10.
            for v in got {
                assert_eq!(v, vec![10.0, 5.0, -10.0], "{engine:?}");
            }
        }
    }

    #[test]
    fn allreduce_works_on_a_torus() {
        use crate::topology::Topology;
        let m = Multicomputer::virtual_with_topology(
            4,
            MachineModel::new(1.0, 1.0, 1.0).with_hop_cost(2.0),
            Topology::Torus2D { pr: 2, pc: 2 },
        );
        let got = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                let first = allreduce_sum(env, &[1.0]).await.unwrap();
                let second = allreduce_sum(env, &[env.rank() as f64]).await.unwrap();
                (first, second)
            })
        });
        assert_eq!(got, vec![(vec![4.0], vec![6.0]); 4]);
    }

    #[test]
    fn allreduce_survives_death_of_rank_zero() {
        let plan = FaultPlan::new(0).with_dead_rank(0);
        let m = machine(4).with_faults(plan);
        let got = m.run_tasks(&(), |(), env| {
            Box::pin(async move {
                if env.is_rank_dead(env.rank()) {
                    return vec![-1.0];
                }
                let out = allreduce_sum(env, &[env.rank() as f64]).await.unwrap();
                assert_eq!(allreduce_sum(env, &out).await.unwrap(), vec![18.0]);
                out
            })
        });
        // Alive ranks 1+2+3 = 6; the hub moved to rank 1.
        assert_eq!(got, vec![vec![-1.0], vec![6.0], vec![6.0], vec![6.0]]);
    }
}
