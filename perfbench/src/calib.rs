//! A fixed probe of the host's speed, independent of the library.
//!
//! On a shared host a core's speed drifts by tens of percent over
//! minutes, as other guests load the shared caches, memory and cores.
//! The probe runs before every untraced attempt; the end-to-end host
//! metrics are medians of each attempt's CPU time divided by the probe
//! time just before it and multiplied by [`REF_S`], so they read as CPU
//! seconds on the reference host and a slow stretch of the host moves
//! them less.
//!
//! The probe does, with the standard library only, the kinds of work an
//! attempt does, so the host's drift slows both alike: it parses
//! coordinate text into freshly allocated dense arrays and compares
//! them, and moves small heap messages through ordered mailboxes.

use crate::cpu;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;

/// The probe's median CPU time on the reference host, a 2-vCPU Intel
/// Xeon (Sapphire Rapids) virtual machine.
pub const REF_S: f64 = 0.075;

/// Side of the probe's dense arrays (`N × N` doubles, 32 MiB each).
const N: usize = 2048;

/// Senders of the probe's message rounds.
const RANKS: u32 = 16384;

/// The probe's input text, built once per run.
pub struct Probe {
    text: String,
}

impl Probe {
    pub fn new() -> Probe {
        let mut text = String::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..50_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (i, j) = ((state >> 8) as usize % N, (state >> 32) as usize % N);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64;
            writeln!(text, "{} {} {v:.17e}", i + 1, j + 1).expect("writing to a String");
        }
        Probe { text }
    }

    /// Run the probe once and return the CPU seconds it took.
    pub fn time(&self) -> f64 {
        let c0 = cpu::process_s();
        let dense = || {
            let mut a = vec![0f64; N * N];
            for line in self.text.lines() {
                let mut f = line.split_whitespace();
                let mut next = || f.next().expect("three fields per line");
                let i: usize = next().parse().expect("a row index");
                let j: usize = next().parse().expect("a column index");
                let v: f64 = next().parse().expect("a value");
                a[(i - 1) * N + (j - 1)] = v;
            }
            a
        };
        let (a, b) = (dense(), dense());
        black_box(a == b);
        drop((a, b));
        let mut mailboxes: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        let mut sum = 0u64;
        for round in 0..2u32 {
            for src in 0..RANKS {
                let dst = src.wrapping_mul(2_654_435_761).wrapping_add(round) % RANKS;
                mailboxes.insert((dst, src), vec![u64::from(round ^ src); 32]);
            }
            while let Some(((dst, _), msg)) = mailboxes.pop_first() {
                sum = sum.wrapping_add(msg[0] ^ u64::from(dst));
            }
        }
        black_box(sum);
        cpu::process_s() - c0
    }
}
