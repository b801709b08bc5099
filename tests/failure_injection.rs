//! Failure injection through the public API: corrupted wire buffers,
//! malformed compressed arrays, bad MatrixMarket input, misconfigured
//! machines.

use sparsedist::core::compress::{Ccs, CompressError, Crs};
use sparsedist::core::dense::paper_array_a;
use sparsedist::core::encode::{decode_part_wire, encode_part_into};
use sparsedist::core::opcount::OpCounter;
use sparsedist::core::wire::WireFormat::V1;
use sparsedist::gen::matrixmarket;
use sparsedist::multicomputer::PackBuffer;
use sparsedist::prelude::*;

/// ED-encode part `pid` of `a` in the v1 wire layout (CRS).
fn encode_v1(a: &Dense2D, part: &RowBlock, pid: usize) -> PackBuffer {
    let (mut buf, mut ops) = (PackBuffer::new(), OpCounter::new());
    encode_part_into(
        &mut buf,
        a,
        part,
        pid,
        CompressKind::Crs,
        &WirePolicy::of(V1),
        &mut ops,
    );
    buf
}

#[test]
fn truncated_ed_buffer_reports_error_not_panic() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let full = encode_v1(&a, &part, 2);
    // Rebuild progressively truncated buffers; every prefix must fail
    // cleanly (or, for the full buffer, succeed).
    let words = full.byte_len() / 8;
    for keep in 0..words {
        let mut t = PackBuffer::new();
        let mut cursor = full.cursor();
        for _ in 0..keep {
            t.push_u64(cursor.read_u64());
        }
        let r = decode_part_wire(&t, &part, 2, CompressKind::Crs, V1, &mut OpCounter::new());
        assert!(r.is_err(), "prefix of {keep}/{words} words must fail");
    }
    let ok = decode_part_wire(
        &full,
        &part,
        2,
        CompressKind::Crs,
        V1,
        &mut OpCounter::new(),
    );
    assert!(ok.is_ok());
}

#[test]
fn corrupted_counts_detected() {
    let a = paper_array_a();
    let part = RowBlock::new(10, 8, 4);
    let mut buf = encode_v1(&a, &part, 0);
    buf.patch_u64(0, u64::MAX / 16).unwrap(); // absurd R_0
    let r = decode_part_wire(&buf, &part, 0, CompressKind::Crs, V1, &mut OpCounter::new());
    assert!(r.is_err());
}

#[test]
fn from_raw_rejects_each_invariant_violation() {
    // Pointer array too short.
    assert!(matches!(
        Crs::from_raw(3, 4, vec![0, 1], vec![0], vec![1.0]),
        Err(CompressError::PointerLength { .. })
    ));
    // Pointer does not start at zero.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![1, 1], vec![], vec![]),
        Err(CompressError::PointerStart)
    ));
    // Decreasing pointer.
    assert!(matches!(
        Crs::from_raw(2, 4, vec![0, 2, 1], vec![0, 1], vec![1., 2.]),
        Err(CompressError::PointerNotMonotone { .. })
    ));
    // Index past the bound.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![0, 1], vec![4], vec![1.]),
        Err(CompressError::IndexOutOfBounds { .. })
    ));
    // Unsorted within a row.
    assert!(matches!(
        Crs::from_raw(1, 4, vec![0, 2], vec![2, 1], vec![1., 2.]),
        Err(CompressError::IndicesNotSorted { .. })
    ));
    // Value/index length mismatch.
    assert!(matches!(
        Ccs::from_raw(4, 1, vec![0, 2], vec![0, 1], vec![1.]),
        Err(CompressError::LengthMismatch { .. })
    ));
}

#[test]
fn matrixmarket_rejects_malformed_documents() {
    for bad in [
        "",                                                                // empty
        "%%MatrixMarket matrix coordinate real general\n",                 // no size
        "%%MatrixMarket matrix coordinate real general\nx y z\n",          // bad size
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",     // short entry
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n", // 0-based index
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n", // count mismatch
    ] {
        assert!(matrixmarket::parse(bad).is_err(), "should reject: {bad:?}");
    }
}

#[test]
fn unpack_cursor_survives_any_byte_prefix() {
    // Reading any truncated prefix via try_* never panics.
    let mut b = PackBuffer::new();
    b.push_u64_slice(&[1, 2, 3]);
    b.push_f64_slice(&[1.5, 2.5]);
    let mut cursor = b.cursor();
    let mut reads = 0;
    while cursor.try_read_u64().is_ok() {
        reads += 1;
    }
    assert_eq!(reads, 5);
    assert!(cursor.try_read_f64().is_err());
}

#[test]
#[should_panic(expected = "parts but the machine")]
fn scheme_refuses_wrong_machine_size() {
    let a = paper_array_a();
    let machine = Multicomputer::virtual_machine(3, MachineModel::ibm_sp2());
    let part = RowBlock::new(10, 8, 4);
    let _ = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs);
}

#[test]
#[should_panic(expected = "does not match the array")]
fn scheme_refuses_wrong_partition_shape() {
    let a = paper_array_a();
    let machine = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let part = RowBlock::new(8, 10, 4); // transposed shape
    let _ = run_scheme(SchemeKind::Ed, &machine, &a, &part, CompressKind::Crs);
}
