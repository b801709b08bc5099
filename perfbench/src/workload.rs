//! The benchmark's workloads and their seeded inputs.

use sparsedist_core::compress::{CompressKind, Coo};
use sparsedist_core::partition::{Mesh2D, Partition, RowBlock};
use sparsedist_core::schemes::{SchemeConfig, SchemeKind};
use sparsedist_core::wire::{CodecChoice, WireFormat};
use sparsedist_gen::{matrixmarket, RatioMode, SparseRandom};
use std::path::Path;

/// How the global array is split over the processors.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// Row block over `p` processors.
    Rows(usize),
    /// `pr × pc` mesh.
    Mesh(usize, usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The array is `n × n`.
    pub n: usize,
    /// Sparse ratio of the uniform random input.
    pub s: f64,
    pub layout: Layout,
    pub scheme: SchemeKind,
    pub wire: WireFormat,
    /// Distributed SpMV calls after the distribution.
    pub k: usize,
}

/// Every workload compresses to CRS: the replays rebuild CRS parts.
pub const KIND: CompressKind = CompressKind::Crs;

/// The v3 codec; v1 workloads ignore it.
pub const CODEC: CodecChoice = CodecChoice::Packed;

const BASE: Workload = Workload {
    name: "",
    n: 4096,
    s: 0.01,
    layout: Layout::Rows(16),
    scheme: SchemeKind::Ed,
    wire: WireFormat::V1,
    k: 0,
};

/// Every workload, at full size.
pub const ALL: [Workload; 3] = [
    // The CLI defaults (ED, CRS, wire v1) on a dense-ish input: ingest
    // and verification dominate, the engine share is small.
    Workload {
        name: "ingest_p16",
        s: 0.1,
        ..BASE
    },
    // 16384 ranks on the event loop: distribution dominates, ingest is a
    // few percent.
    Workload {
        name: "mesh_p16384",
        layout: Layout::Mesh(128, 128),
        ..BASE
    },
    // CFS over the v3 packed codec (`CODEC`), then k SpMV calls: codec,
    // compute and the reduce/broadcast collectives.
    Workload {
        name: "spmv_v3_p16",
        scheme: SchemeKind::Cfs,
        wire: WireFormat::V3,
        k: 100,
        ..BASE
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The same code path at n = 64: every stage runs (the mesh keeps
    /// more than 1024 ranks, so it stays on the event loop) in seconds.
    pub fn smoke(self) -> Workload {
        Workload {
            n: 64,
            s: self.s.max(0.05),
            layout: match self.layout {
                Layout::Rows(p) => Layout::Rows(p),
                Layout::Mesh(..) => Layout::Mesh(32, 64),
            },
            k: self.k.min(5),
            ..self
        }
    }

    pub fn nprocs(&self) -> usize {
        match self.layout {
            Layout::Rows(p) => p,
            Layout::Mesh(pr, pc) => pr * pc,
        }
    }

    pub fn partition(&self) -> Box<dyn Partition> {
        match self.layout {
            Layout::Rows(p) => Box::new(RowBlock::new(self.n, self.n, p)),
            Layout::Mesh(pr, pc) => Box::new(Mesh2D::new(self.n, self.n, pr, pc)),
        }
    }

    pub fn config(&self) -> SchemeConfig {
        SchemeConfig {
            wire: self.wire,
            codec: CODEC,
            parallel: false,
            ..SchemeConfig::default()
        }
    }

    /// Write this workload's input for `seed` to `path`.
    pub fn write_input(&self, seed: u64, path: &Path) -> Result<(), String> {
        let a = SparseRandom::new(self.n, self.n)
            .sparse_ratio(self.s)
            .seed(seed)
            .mode(RatioMode::Bernoulli)
            .generate();
        matrixmarket::write_file(path, &Coo::from_dense(&a))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}
