//! Property-based tests over the core invariants.

use proptest::prelude::*;
use sparsedist::core::compress::{Ccs, Crs};
use sparsedist::core::encode::{decode_part_wire, encode_part_into};
use sparsedist::core::opcount::OpCounter;
use sparsedist::core::wire::WireFormat::V1;
use sparsedist::multicomputer::PackBuffer;
use sparsedist::ops::spmv::{crs_spmv, dense_spmv};
use sparsedist::ops::transpose::{crs_to_ccs, transpose};
use sparsedist::prelude::*;

/// An arbitrary small sparse array: shape up to 24×24, each cell nonzero
/// with probability ~1/6.
fn arb_dense() -> impl Strategy<Value = Dense2D> {
    (1usize..24, 1usize..24)
        .prop_flat_map(|(r, c)| {
            (
                Just(r),
                Just(c),
                proptest::collection::vec(
                    prop_oneof![4 => Just(0.0f64), 1 => -100.0f64..100.0],
                    r * c,
                ),
            )
        })
        .prop_map(|(r, c, data)| {
            // Reject exact-zero draws from the nonzero branch so nnz is
            // well-defined under the `v != 0.0` convention.
            let data = data
                .into_iter()
                .map(|v| if v.abs() < 1e-9 { 0.0 } else { v })
                .collect();
            Dense2D::from_vec(r, c, data)
        })
}

fn arb_partition(rows: usize, cols: usize) -> impl Strategy<Value = (Box<dyn Partition>, usize)> {
    (1usize..6, 0usize..6).prop_map(move |(p, which)| {
        let part: Box<dyn Partition> = match which {
            0 => Box::new(RowBlock::new(rows, cols, p)),
            1 => Box::new(ColBlock::new(rows, cols, p)),
            2 => Box::new(RowCyclic::new(rows, cols, p)),
            3 => Box::new(ColCyclic::new(rows, cols, p)),
            4 => Box::new(Mesh2D::new(rows, cols, p, 2)),
            _ => Box::new(BlockCyclic::new(rows, cols, 2, 3, p, 2)),
        };
        let n = part.nparts();
        (part, n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crs_round_trips_exactly(a in arb_dense()) {
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        prop_assert_eq!(crs.to_dense(), a);
        prop_assert!(crs.validate().is_ok());
    }

    #[test]
    fn ccs_round_trips_exactly(a in arb_dense()) {
        let ccs = Ccs::from_dense(&a, &mut OpCounter::new());
        prop_assert_eq!(ccs.to_dense(), a);
        prop_assert!(ccs.validate().is_ok());
    }

    #[test]
    fn compression_op_count_is_cells_plus_3nnz(a in arb_dense()) {
        let mut ops = OpCounter::new();
        let _ = Crs::from_dense(&a, &mut ops);
        prop_assert_eq!(ops.get(), (a.len() + 3 * a.nnz()) as u64);
    }

    #[test]
    fn partition_tiles_cells((a, pp) in arb_dense().prop_flat_map(|a| {
        let (r, c) = (a.rows(), a.cols());
        (Just(a), arb_partition(r, c))
    })) {
        let (part, p) = pp;
        // Every part's extracted nonzeros sum to the global count.
        let total: usize = (0..p)
            .map(|pid| part.extract_dense(&a, pid).nnz())
            .sum();
        prop_assert_eq!(total, a.nnz());
    }

    #[test]
    fn encode_decode_round_trips((a, pp) in arb_dense().prop_flat_map(|a| {
        let (r, c) = (a.rows(), a.cols());
        (Just(a), arb_partition(r, c))
    }), kind in prop_oneof![Just(CompressKind::Crs), Just(CompressKind::Ccs)]) {
        let (part, p) = pp;
        for pid in 0..p {
            let (mut buf, mut ops) = (PackBuffer::new(), OpCounter::new());
            encode_part_into(&mut buf, &a, part.as_ref(), pid, kind, &WirePolicy::of(V1), &mut ops);
            let got = decode_part_wire(&buf, part.as_ref(), pid, kind, V1, &mut ops).unwrap();
            prop_assert_eq!(got.to_dense(), part.extract_dense(&a, pid));
        }
    }

    #[test]
    fn schemes_agree_pairwise((a, pp) in arb_dense().prop_flat_map(|a| {
        let (r, c) = (a.rows(), a.cols());
        (Just(a), arb_partition(r, c))
    }), kind in prop_oneof![Just(CompressKind::Crs), Just(CompressKind::Ccs)]) {
        let (part, p) = pp;
        let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let sfc = run_scheme(SchemeKind::Sfc, &machine, &a, part.as_ref(), kind).unwrap();
        let cfs = run_scheme(SchemeKind::Cfs, &machine, &a, part.as_ref(), kind).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine, &a, part.as_ref(), kind).unwrap();
        prop_assert_eq!(&sfc.locals, &cfs.locals);
        prop_assert_eq!(&cfs.locals, &ed.locals);
        prop_assert_eq!(ed.reassemble(part.as_ref()), a);
    }

    #[test]
    fn ed_distribution_never_slower_than_cfs((a, pp) in arb_dense().prop_flat_map(|a| {
        let (r, c) = (a.rows(), a.cols());
        (Just(a), arb_partition(r, c))
    })) {
        // Remark 1 as an invariant: ED ships strictly fewer elements with
        // zero pack/unpack ops, so its T_Distribution can never exceed
        // CFS's on the same input.
        let (part, p) = pp;
        let machine = Multicomputer::virtual_machine(p, MachineModel::ibm_sp2());
        let cfs = run_scheme(SchemeKind::Cfs, &machine, &a, part.as_ref(), CompressKind::Crs).unwrap();
        let ed = run_scheme(SchemeKind::Ed, &machine, &a, part.as_ref(), CompressKind::Crs).unwrap();
        prop_assert!(ed.t_distribution() <= cfs.t_distribution());
    }

    #[test]
    fn spmv_linear_in_x(a in arb_dense(), alpha in -4.0f64..4.0) {
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.7).cos()).collect();
        let ax: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let y1 = crs_spmv(&crs, &ax);
        let y0 = crs_spmv(&crs, &x);
        for (u, v) in y1.iter().zip(&y0) {
            prop_assert!((u - alpha * v).abs() < 1e-9 * (1.0 + v.abs()));
        }
        // And it matches the dense baseline.
        let want = dense_spmv(&a, &x);
        for (u, v) in y0.iter().zip(&want) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn transpose_involution(a in arb_dense()) {
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        prop_assert_eq!(transpose(&transpose(&crs)), crs);
    }

    #[test]
    fn crs_ccs_conversion_preserves_content(a in arb_dense()) {
        let crs = Crs::from_dense(&a, &mut OpCounter::new());
        let ccs = crs_to_ccs(&crs);
        prop_assert_eq!(ccs.to_dense(), a);
    }
}
