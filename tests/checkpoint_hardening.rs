//! Checkpoint reader hardening: truncation, bit-flip and forged-header
//! sweeps over one rank file, and manifests that lie about their rank
//! count.
//!
//! Every mutation must yield a typed `CkptError`, never a panic or an
//! allocator abort. The forged cases recompute the CRC footer, so the
//! structural validators and the resume-time shape checks, not the
//! checksum, are what must refuse them.

use sparsedist::array::DistributedSparseArray;
use sparsedist::core::compress::{CompressError, CompressKind};
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::partition::RowBlock;
use sparsedist::core::schemes::SchemeKind;
use sparsedist::gen::checkpoint::{self, CkptError};
use sparsedist::multicomputer::pack::crc32;
use sparsedist::multicomputer::{MachineModel, Multicomputer};
use std::fs;
use std::path::{Path, PathBuf};

fn machine() -> Multicomputer {
    Multicomputer::virtual_machine(4, MachineModel::ibm_sp2())
}

/// Checkpoint the paper's array A over 4 row blocks into a fresh
/// directory named after `name`; return it with rank 0's file bytes.
fn saved(name: &str, kind: CompressKind) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir()
        .join("sparsedist_ckpt_hardening")
        .join(format!("{name}_{kind}"));
    let _ = fs::remove_dir_all(&dir);
    let m = machine();
    let a = DistributedSparseArray::distribute(
        &m,
        &paper_array_a(),
        Box::new(RowBlock::new(10, 8, 4)),
        SchemeKind::Ed,
        kind,
    )
    .unwrap();
    a.checkpoint(&dir).unwrap();
    let bytes = fs::read(dir.join("rank_0.sdc")).unwrap();
    (dir, bytes)
}

/// Replace rank 0's file with `bytes` and resume on the machine and
/// partition the checkpoint was taken on.
fn resume_with(dir: &Path, kind: CompressKind, bytes: &[u8]) -> Result<(), CkptError> {
    fs::write(dir.join("rank_0.sdc"), bytes).unwrap();
    let m = machine();
    DistributedSparseArray::resume(&m, Box::new(RowBlock::new(10, 8, 4)), kind, dir).map(|_| ())
}

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

/// Serialise `body` words and append a CRC footer that matches them.
fn with_crc(body: &[u64]) -> Vec<u8> {
    let mut bytes: Vec<u8> = body.iter().flat_map(|w| w.to_le_bytes()).collect();
    let crc = u64::from(crc32(&bytes));
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

const KINDS: [CompressKind; 2] = [CompressKind::Crs, CompressKind::Ccs];

#[test]
fn truncation_at_every_length_is_refused() {
    for kind in KINDS {
        let (dir, bytes) = saved("truncate", kind);
        for len in 0..bytes.len() {
            let got = resume_with(&dir, kind, &bytes[..len]);
            assert!(
                matches!(got, Err(CkptError::Corrupt { rank: 0, .. })),
                "{kind} cut at {len}: {got:?}"
            );
        }
        resume_with(&dir, kind, &bytes).unwrap();
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn every_single_bit_flip_is_refused() {
    for kind in KINDS {
        let (dir, bytes) = saved("bitflip", kind);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let got = resume_with(&dir, kind, &flipped);
            assert!(
                matches!(got, Err(CkptError::Corrupt { rank: 0, .. })),
                "{kind} bit {bit}: {got:?}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn forged_header_words_are_refused() {
    for kind in KINDS {
        let (dir, bytes) = saved("forged", kind);
        let body = words(&bytes[..bytes.len() - 8]);
        // magic, version, kind, rows, cols, plen, pointer…, nnz, …
        let plen = usize::try_from(body[5]).unwrap();
        let fields = [
            ("kind", 2),
            ("rows", 3),
            ("cols", 4),
            ("plen", 5),
            ("nnz", 6 + plen),
        ];
        let lies = [0, 1, body.len() as u64, bytes.len() as u64, u64::MAX];
        for (name, at) in fields {
            for lie in lies.into_iter().filter(|&lie| lie != body[at]) {
                let mut forged = body.clone();
                forged[at] = lie;
                let got = resume_with(&dir, kind, &with_crc(&forged));
                assert!(got.is_err(), "{kind} {name} = {lie}: resumed");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn forged_segment_count_overflow_is_refused() {
    // A CRS file with rows = u64::MAX (a CCS one with cols = u64::MAX)
    // and an empty pointer array: the segment count plus one overflows.
    for (kind, tag, rows, cols) in [
        (CompressKind::Crs, 0, u64::MAX, 8),
        (CompressKind::Ccs, 1, 3, u64::MAX),
    ] {
        let (dir, bytes) = saved("overflow", kind);
        let head = words(&bytes[..16]);
        let forged = with_crc(&[head[0], head[1], tag, rows, cols, 0, 0]);
        fs::write(dir.join("rank_0.sdc"), forged).unwrap();
        let got = checkpoint::load(&dir);
        assert!(
            matches!(
                got,
                Err(CkptError::Invalid {
                    rank: 0,
                    source: CompressError::PointerLength { actual: 0, .. }
                })
            ),
            "{kind}: {got:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn manifest_rank_count_lies_are_refused() {
    let (dir, _) = saved("manifest", CompressKind::Crs);
    let manifest = dir.join("manifest.txt");
    let max = usize::MAX.to_string();
    for (ranks, want) in [("0", "BadManifest"), ("5", "Io"), (max.as_str(), "Io")] {
        fs::write(
            &manifest,
            format!("sparsedist-checkpoint v1\nranks {ranks}\n"),
        )
        .unwrap();
        let got = checkpoint::load(&dir);
        let variant = match &got {
            Err(CkptError::BadManifest(_)) => "BadManifest",
            Err(CkptError::Io(_)) => "Io",
            _ => "other",
        };
        assert_eq!(variant, want, "ranks {ranks}: {got:?}");
        if want == "Io" {
            // The checkpoint holds rank files 0..4: the error names the
            // first missing one.
            let msg = got.unwrap_err().to_string();
            assert!(msg.contains("rank_4.sdc"), "ranks {ranks}: {msg}");
            assert!(msg.contains("rank 4"), "ranks {ranks}: {msg}");
        }
    }
    // A manifest naming fewer ranks than the machine has loads, but does
    // not fit the machine it is resumed on.
    fs::write(&manifest, "sparsedist-checkpoint v1\nranks 3\n").unwrap();
    let m = machine();
    let got = DistributedSparseArray::resume(
        &m,
        Box::new(RowBlock::new(10, 8, 4)),
        CompressKind::Crs,
        &dir,
    );
    assert!(matches!(got, Err(CkptError::Mismatch(_))), "ranks 3");
    fs::remove_dir_all(&dir).ok();
}
