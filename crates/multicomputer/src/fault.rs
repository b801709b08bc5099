//! Deterministic fault injection for the simulated interconnect.
//!
//! The paper's IBM SP2 experiments assume a perfectly reliable network;
//! this module removes that assumption in a controlled way. A [`FaultPlan`]
//! is a *seeded, deterministic* description of what goes wrong on the wire:
//! message drops, payload corruption, delivery delays, and dead ranks,
//! configurable globally, per-link (`src→dst`), and per-phase. The engine
//! consults the plan between `send` and `recv_async`; because every decision is a
//! pure hash of `(seed, src, dst, seq, attempt)`, two runs with the same
//! plan inject byte-identical fault sequences no matter how the host
//! schedules the simulated processors — virtual-time ledgers stay exactly
//! reproducible.
//!
//! Recovery is driven by a [`RetryPolicy`]: the reliable-delivery layer in
//! [`crate::engine`] retransmits a faulted frame after a timeout that backs
//! off exponentially, up to a retry budget, charging every retransmission
//! and timeout to the virtual clock (see `Phase::Retry`).

use crate::timing::Phase;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One kind of injected communication fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The frame is lost on the wire: the receiver never sees it and the
    /// sender's ARQ timeout fires.
    Drop,
    /// The frame arrives with flipped payload bits; the receiver's CRC32
    /// check rejects it and a nack is returned.
    Corrupt,
    /// The frame arrives intact but late by the given extra microseconds.
    Delay(f64),
}

/// Fault probabilities for one direction of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkProbs {
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is corrupted.
    pub corrupt: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
}

impl LinkProbs {
    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("delay", self.delay),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{name} probability must be in [0, 1], got {p}"
            );
        }
        assert!(
            self.drop + self.corrupt + self.delay <= 1.0 + 1e-12,
            "fault probabilities must sum to at most 1"
        );
    }
}

/// A seeded, deterministic description of interconnect faults.
///
/// Build one with the fluent setters, or parse the CLI syntax with
/// [`FaultPlan::parse`]:
///
/// ```
/// use sparsedist_multicomputer::fault::FaultPlan;
/// let plan = FaultPlan::parse("seed=7,drop=0.2,corrupt=0.05,delay=0.1:250,dead=3,drop@0-2=0.8")
///     .unwrap();
/// assert_eq!(plan.seed(), 7);
/// assert!(plan.is_dead(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    base: LinkProbs,
    delay_us: f64,
    dead: BTreeSet<usize>,
    /// Mid-run deaths: rank → the virtual-time instant (µs) it dies.
    deaths: BTreeMap<usize, f64>,
    /// Per-link overrides, keyed by `(src, dst)`.
    links: Vec<(usize, usize, LinkProbs)>,
    /// When set, faults are only injected on sends issued inside this
    /// ledger phase (per-phase scoping; `None` = every phase).
    only_phase: Option<Phase>,
}

impl FaultPlan {
    /// A plan that injects nothing (but still routes traffic through the
    /// reliable-delivery layer: CRC framing and acks become active).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            base: LinkProbs::default(),
            delay_us: 100.0,
            dead: BTreeSet::new(),
            deaths: BTreeMap::new(),
            links: Vec::new(),
            only_phase: None,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the global drop probability.
    ///
    /// # Panics
    /// Panics if the resulting probabilities are invalid.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.base.drop = p;
        self.base.validate();
        self
    }

    /// Set the global corruption probability.
    ///
    /// # Panics
    /// Panics if the resulting probabilities are invalid.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.base.corrupt = p;
        self.base.validate();
        self
    }

    /// Set the global delay probability and the extra delivery latency (µs)
    /// a delayed frame suffers.
    ///
    /// # Panics
    /// Panics if the probabilities become invalid or `extra_us` is not a
    /// finite non-negative number.
    pub fn with_delay(mut self, p: f64, extra_us: f64) -> Self {
        assert!(
            extra_us.is_finite() && extra_us >= 0.0,
            "delay must be finite and non-negative, got {extra_us}"
        );
        self.base.delay = p;
        self.delay_us = extra_us;
        self.base.validate();
        self
    }

    /// Declare `rank` dead for the whole run: it never sends or receives.
    pub fn with_dead_rank(mut self, rank: usize) -> Self {
        self.dead.insert(rank);
        self
    }

    /// Schedule `rank` to die at virtual-time `t_us` (µs). Unlike
    /// [`FaultPlan::with_dead_rank`] the rank participates normally until
    /// then: frames that would arrive after the death instant fail with
    /// `PeerDead` at the sender, and the engine pushes a death notice so
    /// the dying receiver observes its own death deterministically. Only
    /// meaningful in virtual-time mode.
    ///
    /// # Panics
    /// Panics if `t_us` is not a finite non-negative number.
    pub fn with_death_at(mut self, rank: usize, t_us: f64) -> Self {
        assert!(
            t_us.is_finite() && t_us >= 0.0,
            "death time must be finite and non-negative, got {t_us}"
        );
        self.deaths.insert(rank, t_us);
        self
    }

    /// Override the probabilities on the directed link `src → dst`.
    ///
    /// # Panics
    /// Panics if `probs` is invalid.
    pub fn with_link(mut self, src: usize, dst: usize, probs: LinkProbs) -> Self {
        probs.validate();
        self.links.retain(|&(s, d, _)| (s, d) != (src, dst));
        self.links.push((src, dst, probs));
        self
    }

    /// Restrict injection to sends issued while the sender is inside
    /// `phase` (as set by [`crate::engine::Env::phase`]).
    pub fn only_during(mut self, phase: Phase) -> Self {
        self.only_phase = Some(phase);
        self
    }

    /// True if `rank` is declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.contains(&rank)
    }

    /// The dead ranks, ascending.
    pub fn dead_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead.iter().copied()
    }

    /// The virtual-time instant (µs) `rank` dies mid-run, if scheduled.
    pub fn death_time(&self, rank: usize) -> Option<f64> {
        self.deaths.get(&rank).copied()
    }

    /// True if any rank is scheduled to die mid-run — the signal for the
    /// pipeline driver to run its routed recovery protocol.
    pub fn has_timed_deaths(&self) -> bool {
        !self.deaths.is_empty()
    }

    /// The `(rank, death time µs)` pairs scheduled to die mid-run,
    /// ascending by rank.
    pub fn dying_ranks(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.deaths.iter().map(|(&r, &t)| (r, t))
    }

    /// Effective probabilities on `src → dst`.
    pub fn link_probs(&self, src: usize, dst: usize) -> LinkProbs {
        self.links
            .iter()
            .find(|&&(s, d, _)| (s, d) == (src, dst))
            .map(|&(_, _, p)| p)
            .unwrap_or(self.base)
    }

    /// The extra latency (µs) a delayed frame suffers.
    pub fn delay_us(&self) -> f64 {
        self.delay_us
    }

    /// Decide the fate of attempt `attempt` of the `seq`-th frame on
    /// `src → dst`, sent while the sender was in `phase`. Pure function of
    /// the plan — the cornerstone of deterministic replay.
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        phase: Phase,
    ) -> Option<FaultKind> {
        if self.only_phase.is_some_and(|ph| ph != phase) {
            return None;
        }
        let probs = self.link_probs(src, dst);
        let h = mix(&[self.seed, src as u64, dst as u64, seq, attempt as u64]);
        // 53 uniform bits → [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < probs.drop {
            Some(FaultKind::Drop)
        } else if u < probs.drop + probs.corrupt {
            Some(FaultKind::Corrupt)
        } else if u < probs.drop + probs.corrupt + probs.delay {
            Some(FaultKind::Delay(self.delay_us))
        } else {
            None
        }
    }

    /// A deterministic auxiliary roll for enacting a decided fault (e.g.
    /// picking which payload bit to flip).
    pub fn aux_roll(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> u64 {
        mix(&[!self.seed, src as u64, dst as u64, seq, attempt as u64])
    }

    /// Parse the CLI fault syntax: comma-separated `key=value` tokens.
    ///
    /// | token | meaning |
    /// |---|---|
    /// | `seed=N` | plan seed (default 0) |
    /// | `drop=P` | global drop probability |
    /// | `corrupt=P` | global corruption probability |
    /// | `delay=P` or `delay=P:US` | global delay probability (+ extra µs) |
    /// | `dead=R` or `dead=R+R+…` | dead rank(s) |
    /// | `die=R:T` or `die=R:T+R:T+…` | rank `R` dies at virtual-time `T` µs |
    /// | `drop@S-D=P` | per-link drop override on `S → D` |
    /// | `corrupt@S-D=P`, `delay@S-D=P` | other per-link overrides |
    /// | `phase=NAME` | inject only during ledger phase `NAME` |
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::new(0);
        let bad = |tok: &str, why: &str| FaultSpecError {
            token: tok.to_string(),
            reason: why.to_string(),
        };
        let prob = |tok: &str, v: &str| -> Result<f64, FaultSpecError> {
            let p: f64 = v.parse().map_err(|_| bad(tok, "expected a probability"))?;
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(bad(tok, "probability must be in [0, 1]"));
            }
            Ok(p)
        };
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| bad(tok, "expected key=value"))?;
            if let Some((fault, link)) = key.split_once('@') {
                let (s, d) = link
                    .split_once('-')
                    .ok_or_else(|| bad(tok, "link must be SRC-DST"))?;
                let src: usize = s.parse().map_err(|_| bad(tok, "bad source rank"))?;
                let dst: usize = d.parse().map_err(|_| bad(tok, "bad destination rank"))?;
                let mut probs = plan.link_probs(src, dst);
                let p = prob(tok, value)?;
                match fault {
                    "drop" => probs.drop = p,
                    "corrupt" => probs.corrupt = p,
                    "delay" => probs.delay = p,
                    _ => return Err(bad(tok, "unknown per-link fault kind")),
                }
                if probs.drop + probs.corrupt + probs.delay > 1.0 {
                    return Err(bad(tok, "link probabilities sum past 1"));
                }
                plan = plan.with_link(src, dst, probs);
                continue;
            }
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| bad(tok, "expected an integer seed"))?;
                }
                "drop" => {
                    plan.base.drop = prob(tok, value)?;
                }
                "corrupt" => {
                    plan.base.corrupt = prob(tok, value)?;
                }
                "delay" => {
                    let (p, us) = match value.split_once(':') {
                        Some((p, us)) => {
                            let us: f64 =
                                us.parse().map_err(|_| bad(tok, "bad delay microseconds"))?;
                            if !us.is_finite() || us < 0.0 {
                                return Err(bad(tok, "delay microseconds must be >= 0"));
                            }
                            (prob(tok, p)?, us)
                        }
                        None => (prob(tok, value)?, plan.delay_us),
                    };
                    plan.base.delay = p;
                    plan.delay_us = us;
                }
                "dead" => {
                    for r in value.split('+') {
                        let rank: usize = r.parse().map_err(|_| bad(tok, "bad dead rank"))?;
                        plan.dead.insert(rank);
                    }
                }
                "die" => {
                    for pair in value.split('+') {
                        let (r, t) = pair
                            .split_once(':')
                            .ok_or_else(|| bad(tok, "expected die=RANK:TIME_US"))?;
                        let rank: usize = r.parse().map_err(|_| bad(tok, "bad dying rank"))?;
                        let t_us: f64 = t
                            .parse()
                            .map_err(|_| bad(tok, "bad death time (microseconds)"))?;
                        if !t_us.is_finite() || t_us < 0.0 {
                            return Err(bad(tok, "death time must be >= 0"));
                        }
                        plan.deaths.insert(rank, t_us);
                    }
                }
                "phase" => {
                    let phase = Phase::ALL
                        .iter()
                        .copied()
                        .find(|p| p.label() == value)
                        .ok_or_else(|| bad(tok, "unknown phase name"))?;
                    plan.only_phase = Some(phase);
                }
                _ => return Err(bad(tok, "unknown fault key")),
            }
        }
        if plan.base.drop + plan.base.corrupt + plan.base.delay > 1.0 {
            return Err(FaultSpecError {
                token: spec.to_string(),
                reason: "global probabilities sum past 1".to_string(),
            });
        }
        Ok(plan)
    }

    /// A deterministic "chaos" plan for `seed` on a `nprocs`-processor
    /// machine: a randomised but fully reproducible mix of drops,
    /// corruption, sometimes delays, and (for about a third of the seeds)
    /// one mid-run rank death. The `chaos` CLI subcommand and the chaos
    /// test harness share this generator, so a failing seed reproduces
    /// identically from either entry point.
    pub fn chaos(seed: u64, nprocs: usize) -> FaultPlan {
        let roll = |salt: u64| mix(&[seed, salt]);
        // 53 uniform bits → [0, 1).
        let unit = |salt: u64| (roll(salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut plan = FaultPlan::new(seed)
            .with_drop(unit(1) * 0.2)
            .with_corrupt(unit(2) * 0.1);
        if roll(3) % 2 == 0 {
            plan = plan.with_delay(unit(4) * 0.1, 50.0 + unit(5) * 450.0);
        }
        if nprocs > 1 && roll(6) % 3 == 0 {
            // Kill one non-source rank somewhere in the distribution window.
            // lint: allow(W002) — reduced mod (nprocs - 1) first, so it fits usize
            let rank = 1 + (roll(7) % (nprocs as u64 - 1)) as usize;
            let t_us = 200.0 + unit(8) * 4_000.0;
            plan = plan.with_death_at(rank, t_us);
        }
        plan
    }
}

/// Error from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending token.
    pub token: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec token `{}`: {}", self.token, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

/// How the reliable-delivery layer recovers from injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmissions allowed per message beyond the first attempt.
    pub max_retries: u32,
    /// Initial ARQ timeout before the first retransmission (µs of virtual
    /// time, charged to `Phase::Retry`).
    pub timeout_us: f64,
    /// Multiplier applied to the timeout after every failed attempt.
    pub backoff: f64,
}

impl RetryPolicy {
    /// A policy with the given retry budget and default timing (100 µs
    /// initial timeout, doubling per attempt).
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The timeout charged for the failed `attempt` (0-based):
    /// `timeout_us × backoff^attempt`.
    pub fn timeout_for(&self, attempt: u32) -> f64 {
        self.timeout_us * self.backoff.powi(attempt as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            timeout_us: 100.0,
            backoff: 2.0,
        }
    }
}

/// splitmix64-style avalanche over a word sequence.
fn mix(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &w in words {
        h ^= w
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(9)
            .with_drop(0.3)
            .with_corrupt(0.1)
            .with_delay(0.1, 50.0);
        for seq in 0..200 {
            let a = plan.decide(0, 1, seq, 0, Phase::Send);
            let b = plan.decide(0, 1, seq, 0, Phase::Send);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(1234).with_drop(0.25);
        let drops = (0..10_000)
            .filter(|&seq| plan.decide(0, 1, seq, 0, Phase::Send) == Some(FaultKind::Drop))
            .count();
        assert!((2000..3000).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn attempts_roll_independently() {
        let plan = FaultPlan::new(5).with_drop(0.5);
        let fates: Vec<_> = (0..16)
            .map(|attempt| plan.decide(0, 1, 0, attempt, Phase::Send))
            .collect();
        // With p = 0.5 over 16 attempts it would be a 1-in-2^15 fluke for
        // all to agree; the seed is fixed so this is a stable assertion.
        assert!(fates.windows(2).any(|w| w[0] != w[1]), "{fates:?}");
    }

    #[test]
    fn link_overrides_take_precedence() {
        let plan = FaultPlan::new(0).with_drop(0.0).with_link(
            2,
            3,
            LinkProbs {
                drop: 1.0,
                ..LinkProbs::default()
            },
        );
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Send), None);
        assert_eq!(plan.decide(2, 3, 0, 0, Phase::Send), Some(FaultKind::Drop));
    }

    #[test]
    fn phase_scoping_filters_faults() {
        let plan = FaultPlan::new(0).with_drop(1.0).only_during(Phase::Send);
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Send), Some(FaultKind::Drop));
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Other), None);
    }

    #[test]
    fn dead_ranks_recorded() {
        let plan = FaultPlan::new(0).with_dead_rank(2).with_dead_rank(5);
        assert!(plan.is_dead(2) && plan.is_dead(5) && !plan.is_dead(0));
        assert_eq!(plan.dead_ranks().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42, drop=0.1, corrupt=0.05, delay=0.2:300, dead=1+4, corrupt@0-3=0.5",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.link_probs(9, 9).drop, 0.1);
        assert_eq!(plan.link_probs(9, 9).corrupt, 0.05);
        assert_eq!(plan.link_probs(9, 9).delay, 0.2);
        assert_eq!(plan.delay_us(), 300.0);
        assert!(plan.is_dead(1) && plan.is_dead(4));
        assert_eq!(plan.link_probs(0, 3).corrupt, 0.5);
        // Per-link override inherits the global drop rate as its base.
        assert_eq!(plan.link_probs(0, 3).drop, 0.1);
    }

    #[test]
    fn parse_phase_scope() {
        let plan = FaultPlan::parse("drop=1,phase=send").unwrap();
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Send), Some(FaultKind::Drop));
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Pack), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("drop=0.6,corrupt=0.6").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("drop@01=0.5").is_err());
        assert!(FaultPlan::parse("phase=no-such-phase").is_err());
        assert!(FaultPlan::parse("dead=x").is_err());
    }

    #[test]
    fn parse_timed_deaths() {
        let plan = FaultPlan::parse("die=1:500+3:900.5").unwrap();
        assert_eq!(plan.death_time(1), Some(500.0));
        assert_eq!(plan.death_time(3), Some(900.5));
        assert_eq!(plan.death_time(0), None);
        assert!(plan.has_timed_deaths());
        assert_eq!(
            plan.dying_ranks().collect::<Vec<_>>(),
            vec![(1, 500.0), (3, 900.5)]
        );
        // A timed death is not a static death: the rank starts out alive.
        assert!(!plan.is_dead(1));
    }

    #[test]
    fn parse_rejects_malformed_deaths_with_actionable_messages() {
        let err = FaultPlan::parse("die=1").unwrap_err();
        assert!(err.to_string().contains("die=RANK:TIME_US"), "{err}");
        let err = FaultPlan::parse("die=x:500").unwrap_err();
        assert!(err.to_string().contains("bad dying rank"), "{err}");
        let err = FaultPlan::parse("die=1:soon").unwrap_err();
        assert!(err.to_string().contains("bad death time"), "{err}");
        let err = FaultPlan::parse("die=1:-5").unwrap_err();
        assert!(err.to_string().contains(">= 0"), "{err}");
        let err = FaultPlan::parse("die=1:inf").unwrap_err();
        assert!(err.to_string().contains(">= 0"), "{err}");
    }

    #[test]
    fn chaos_plans_are_deterministic_and_valid() {
        for seed in 0..200 {
            let a = FaultPlan::chaos(seed, 8);
            let b = FaultPlan::chaos(seed, 8);
            assert_eq!(a, b, "seed {seed} not reproducible");
            // Probabilities validated by the builders; the death (if any)
            // must spare the source rank.
            assert_eq!(a.death_time(0), None, "seed {seed} killed the source");
        }
        // The generator actually exercises the death path on some seeds.
        assert!(
            (0..200).any(|s| FaultPlan::chaos(s, 8).has_timed_deaths()),
            "no chaos seed in 0..200 schedules a death"
        );
    }

    #[test]
    fn parse_empty_spec_is_benign() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::new(0));
        assert_eq!(plan.decide(0, 1, 0, 0, Phase::Send), None);
    }

    #[test]
    fn retry_policy_backoff_grows() {
        let rp = RetryPolicy {
            max_retries: 3,
            timeout_us: 10.0,
            backoff: 2.0,
        };
        assert_eq!(rp.timeout_for(0), 10.0);
        assert_eq!(rp.timeout_for(1), 20.0);
        assert_eq!(rp.timeout_for(3), 80.0);
    }
}
