//! One end-to-end attempt through the library's public entry points, in
//! the order the CLI's `load` + `distribute` path calls them, plus the
//! stages the traced run replays afterwards.

use crate::cpu;
use crate::trace::Tracer;
use crate::workload::{Workload, CODEC, KIND};
use sparsedist_core::compress::{Crs, LocalCompressed};
use sparsedist_core::dense::Dense2D;
use sparsedist_core::opcount::OpCounter;
use sparsedist_core::partition::Partition;
use sparsedist_core::schemes::{run_scheme_with, SchemeRun};
use sparsedist_core::wire::{self, WirePolicy};
use sparsedist_gen::matrixmarket;
use sparsedist_multicomputer::{
    EngineKind, MachineModel, Multicomputer, PackBuffer, Phase, PhaseLedger, VirtualTime,
};
use sparsedist_ops::spmv::{crs_spmv, distributed_spmv_ledgers};
use std::path::Path;
use std::time::Instant;

/// A distributed `y` may differ from the serial reference by at most this
/// share of the reference's largest entry.
pub const SPMV_REL_TOL: f64 = 1e-12;

/// The serial product every distributed SpMV is checked against. Built
/// once per run, before any timing starts.
pub struct Reference {
    pub global: Crs,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

impl Reference {
    pub fn load(path: &Path) -> Result<Reference, String> {
        let coo = matrixmarket::read_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        coo.validate()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let global = coo.to_crs();
        let x = vec![1.0; global.cols()];
        let y = crs_spmv(&global, &x);
        Ok(Reference { global, x, y })
    }

    /// Whether `y` matches the reference within [`SPMV_REL_TOL`].
    pub fn matches(&self, y: &[f64]) -> bool {
        let scale = self.y.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        y.len() == self.y.len()
            && y.iter()
                .zip(&self.y)
                .all(|(a, b)| (a - b).abs() <= SPMV_REL_TOL * scale)
    }
}

/// The virtual-clock figures of one attempt. Deterministic, so every
/// attempt on one input must reproduce them bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Virtual {
    pub makespan_us: f64,
    pub t_distribution_us: f64,
    pub t_compression_us: f64,
    /// Sum over the SpMV calls of the slowest rank's busy + wait time.
    pub spmv_makespan_us: f64,
}

impl Virtual {
    pub fn bits(&self) -> [u64; 4] {
        [
            self.makespan_us.to_bits(),
            self.t_distribution_us.to_bits(),
            self.t_compression_us.to_bits(),
            self.spmv_makespan_us.to_bits(),
        ]
    }
}

fn makespan(ledgers: &[PhaseLedger]) -> VirtualTime {
    ledgers
        .iter()
        .map(|l| l.busy_total() + l.get(Phase::Wait))
        .fold(VirtualTime::ZERO, VirtualTime::max)
}

/// Everything an attempt built, kept for the traced run's replays and
/// layer counts.
pub struct Attempt {
    /// Wall seconds of the whole attempt.
    pub e2e_s: f64,
    /// Process CPU seconds of the set-up (ingest, partition, machine) and
    /// of the whole attempt.
    pub setup_cpu_s: f64,
    pub e2e_cpu_s: f64,
    pub virt: Virtual,
    pub engine: EngineKind,
    /// Why the attempt's output was wrong, if it was.
    pub problem: Option<String>,
    pub a: Dense2D,
    pub part: Box<dyn Partition>,
    pub machine: Multicomputer,
    pub run: SchemeRun,
    /// The ledgers of each SpMV call.
    pub spmv: Vec<Vec<PhaseLedger>>,
}

/// `.mtx` path → verified distribution → `w.k` SpMV calls. `Err` is an
/// error the library returned; a wrong result is `Attempt::problem`.
pub fn attempt(
    w: &Workload,
    path: &Path,
    reference: &Reference,
    tr: &mut Tracer,
) -> Result<Attempt, String> {
    let t0 = Instant::now();
    let c0 = cpu::process_s();
    let coo = if tr.is_on() {
        // `read_file` is `parse(read_to_string(path))`; the traced run
        // calls the two halves so each gets a span.
        let text = tr.span("matrixmarket.read", |_| std::fs::read_to_string(path));
        let text = text.map_err(|e| format!("{}: {e}", path.display()))?;
        tr.span("matrixmarket.parse", |_| matrixmarket::parse(&text))
    } else {
        matrixmarket::read_file(path)
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    tr.span("coo.validate", |_| coo.validate())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let a = tr.span("coo.densify", |_| coo.to_dense());
    // The CLI's `load` frees the COO before distributing; so does this.
    drop(coo);
    let part = tr.span("partition.build", |_| w.partition());
    let machine = tr.span("engine.build", |_| {
        Multicomputer::virtual_machine(w.nprocs(), MachineModel::ibm_sp2())
    });
    let setup_cpu_s = cpu::process_s() - c0;

    let run = tr
        .span("schemes.distribute", |_| {
            run_scheme_with(w.scheme, &machine, &a, part.as_ref(), KIND, w.config())
        })
        .map_err(|e| e.to_string())?;
    let mut problem = None;
    if !tr.span("schemes.verify", |_| run.reassemble(part.as_ref()) == a) {
        problem = Some("distributed state does not reassemble the input".to_string());
    }
    let mut spmv = Vec::with_capacity(w.k);
    for call in 0..w.k {
        let (y, ledgers) = tr
            .span("spmv.iter", |_| {
                distributed_spmv_ledgers(&machine, &run, part.as_ref(), &reference.x)
            })
            .map_err(|e| e.to_string())?;
        if problem.is_none() && !reference.matches(&y) {
            problem = Some(format!("SpMV call {call} differs from the serial product"));
        }
        spmv.push(ledgers);
    }
    let e2e_s = t0.elapsed().as_secs_f64();
    let e2e_cpu_s = cpu::process_s() - c0;

    let virt = Virtual {
        makespan_us: run.t_makespan().as_micros(),
        t_distribution_us: run.t_distribution().as_micros(),
        t_compression_us: run.t_compression().as_micros(),
        spmv_makespan_us: spmv
            .iter()
            .map(|l| makespan(l).as_micros())
            .fold(0.0, |s, v| s + v),
    };
    Ok(Attempt {
        e2e_s,
        setup_cpu_s,
        e2e_cpu_s,
        virt,
        engine: machine.task_engine(),
        problem,
        a,
        part,
        machine,
        run,
        spmv,
    })
}

/// Re-time stages of a finished attempt that its timed path runs inside
/// the library: source compression, the wire codec and local SpMV.
/// Returns an error if a replayed stream does not decode to its input.
pub fn replay(
    w: &Workload,
    at: &Attempt,
    reference: &Reference,
    tr: &mut Tracer,
) -> Result<(), String> {
    let part = at.part.as_ref();
    let nparts = part.nparts();
    let (_, gcols) = part.global_shape();
    let policy = WirePolicy::new(w.wire, CODEC, at.machine.model());
    let parts: Vec<Crs> = tr.span("compress.crs", |_| {
        let mut ops = OpCounter::new();
        (0..nparts)
            .map(|pid| Crs::from_part_global(&at.a, part, pid, &mut ops))
            .collect()
    });
    let bufs: Vec<PackBuffer> = tr.span("wire.encode", |_| {
        parts
            .iter()
            .map(|c| {
                let mut buf = PackBuffer::new();
                wire::pack_triple_into(&mut buf, c.ro(), c.co(), c.vl(), gcols, &policy);
                buf
            })
            .collect()
    });
    let decoded = tr.span("wire.decode", |_| {
        bufs.iter()
            .zip(&parts)
            .map(|(b, c)| wire::unpack_triple(&mut b.cursor(), c.rows(), policy.format))
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| format!("replayed wire stream: {e}"))?;
    for (pid, ((ro, co, vl), c)) in decoded.iter().zip(&parts).enumerate() {
        if ro != c.ro() || co != c.co() || vl != c.vl() {
            return Err(format!(
                "replayed wire stream of part {pid} does not round-trip"
            ));
        }
    }
    tr.span("spmv.local", |_| {
        for local in &at.run.locals {
            if let LocalCompressed::Crs(c) = local {
                std::hint::black_box(crs_spmv(c, &vec![1.0; c.cols()]));
            }
        }
    });
    tr.span("spmv.serial", |_| {
        std::hint::black_box(crs_spmv(&reference.global, &reference.x));
    });
    Ok(())
}
