//! Property-based tests for the evaluation stack.

use proptest::prelude::*;
use uhscm_eval::{mean_average_precision, pr_curve, precision_at_n, BitCodes, HammingRanker};
use uhscm_linalg::Matrix;

/// Random ±1 code matrices: (db, queries) with matching bit width.
fn code_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (2usize..40, 1usize..8, 1usize..96).prop_flat_map(|(ndb, nq, bits)| {
        let db = prop::collection::vec(prop::bool::ANY, ndb * bits)
            .prop_map(move |v| sign_matrix(ndb, bits, &v));
        let q = prop::collection::vec(prop::bool::ANY, nq * bits)
            .prop_map(move |v| sign_matrix(nq, bits, &v));
        (db, q)
    })
}

fn sign_matrix(rows: usize, cols: usize, bools: &[bool]) -> Matrix {
    Matrix::from_vec(rows, cols, bools.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect())
}

proptest! {
    #[test]
    fn scan_matches_pairwise_hamming((db, q) in code_pair()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        let mut out = vec![0u32; dbc.len()];
        for qi in 0..qc.len() {
            uhscm_eval::bitcode::hamming_scan::scan_into(&qc, qi, &dbc, &mut out);
            for (j, &d) in out.iter().enumerate() {
                prop_assert_eq!(d, qc.hamming(qi, &dbc, j));
            }
        }
    }

    #[test]
    fn hamming_is_a_metric((db, q) in code_pair()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        // Symmetry and identity on the db set.
        for i in 0..dbc.len().min(6) {
            prop_assert_eq!(dbc.hamming(i, &dbc, i), 0);
            for j in 0..dbc.len().min(6) {
                prop_assert_eq!(dbc.hamming(i, &dbc, j), dbc.hamming(j, &dbc, i));
                // Triangle inequality through the first query code.
                let via = dbc.hamming(i, &qc, 0) + qc.hamming(0, &dbc, j);
                prop_assert!(dbc.hamming(i, &dbc, j) <= via);
            }
        }
    }

    #[test]
    fn hamming_bounded_by_bits((db, q) in code_pair()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        for i in 0..qc.len() {
            for j in 0..dbc.len() {
                prop_assert!(qc.hamming(i, &dbc, j) as usize <= dbc.bits());
            }
        }
    }

    #[test]
    fn pack_unpack_round_trip((db, _q) in code_pair()) {
        let codes = BitCodes::from_real(&db);
        let again = BitCodes::from_real(&codes.unpack_all());
        prop_assert_eq!(codes, again);
    }

    #[test]
    fn ranking_is_sorted_permutation((db, q) in code_pair()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        let ranker = HammingRanker::new(dbc);
        for qi in 0..qc.len() {
            let ranked = ranker.rank(&qc, qi);
            // Permutation.
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..ranker.database().len() as u32).collect::<Vec<_>>());
            // Non-decreasing distances.
            let dists: Vec<u32> = ranked
                .iter()
                .map(|&j| qc.hamming(qi, ranker.database(), j as usize))
                .collect();
            prop_assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn map_in_unit_interval((db, q) in code_pair(), mask in any::<u64>()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        let ranker = HammingRanker::new(dbc);
        let rel = move |qi: usize, di: usize| (mask >> ((qi * 7 + di) % 64)) & 1 == 1;
        let map = mean_average_precision(&ranker, &qc, &rel, ranker.database().len());
        prop_assert!((0.0..=1.0 + 1e-12).contains(&map));
    }

    #[test]
    fn all_relevant_gives_perfect_metrics((db, q) in code_pair()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        let n = dbc.len();
        let ranker = HammingRanker::new(dbc);
        let rel = |_: usize, _: usize| true;
        let map = mean_average_precision(&ranker, &qc, &rel, n);
        prop_assert!((map - 1.0).abs() < 1e-12);
        for p in precision_at_n(&ranker, &qc, &rel, &[1, n]) {
            prop_assert!((p - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pr_curve_recall_monotone_and_terminal((db, q) in code_pair(), mask in any::<u64>()) {
        let dbc = BitCodes::from_real(&db);
        let qc = BitCodes::from_real(&q);
        let bits = dbc.bits();
        let ranker = HammingRanker::new(dbc);
        let rel = move |qi: usize, di: usize| (mask >> ((qi * 11 + di * 3) % 64)) & 1 == 1;
        let pr = pr_curve(&ranker, &qc, &rel);
        prop_assert_eq!(pr.len(), bits + 1);
        prop_assert!(pr.windows(2).all(|w| w[0].recall <= w[1].recall + 1e-12));
        // At the maximal radius everything is retrieved.
        let any_relevant = (0..qc.len()).any(|qi| (0..ranker.database().len()).any(|di| rel(qi, di)));
        if any_relevant {
            prop_assert!((pr[bits].recall - 1.0).abs() < 1e-12);
        }
    }
}

proptest! {
    #[test]
    fn map_parallel_matches_serial_bitwise((db, q) in code_pair(), top_n in 1usize..12) {
        use uhscm_linalg::par;
        let ranker = HammingRanker::new(BitCodes::from_real(&db));
        let qc = BitCodes::from_real(&q);
        let rel = |qi: usize, dj: usize| (qi + dj) % 3 == 0;
        let serial = par::with_threads(1, || mean_average_precision(&ranker, &qc, &rel, top_n));
        for threads in [2usize, 3, 8] {
            let parallel =
                par::with_threads(threads, || mean_average_precision(&ranker, &qc, &rel, top_n));
            prop_assert_eq!(serial.to_bits(), parallel.to_bits());
        }
    }

    #[test]
    fn precision_at_n_parallel_matches_serial_bitwise((db, q) in code_pair()) {
        use uhscm_linalg::par;
        let ranker = HammingRanker::new(BitCodes::from_real(&db));
        let qc = BitCodes::from_real(&q);
        let rel = |qi: usize, dj: usize| (qi * 7 + dj) % 2 == 0;
        let ns = [1usize, 3, 10];
        let serial = par::with_threads(1, || precision_at_n(&ranker, &qc, &rel, &ns));
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || precision_at_n(&ranker, &qc, &rel, &ns));
            prop_assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn pr_curve_parallel_matches_serial_bitwise((db, q) in code_pair()) {
        use uhscm_linalg::par;
        let ranker = HammingRanker::new(BitCodes::from_real(&db));
        let qc = BitCodes::from_real(&q);
        let rel = |qi: usize, dj: usize| (qi + dj) % 2 == 1;
        let serial = par::with_threads(1, || pr_curve(&ranker, &qc, &rel));
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || pr_curve(&ranker, &qc, &rel));
            prop_assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                prop_assert_eq!(s.radius, p.radius);
                prop_assert_eq!(s.precision.to_bits(), p.precision.to_bits());
                prop_assert_eq!(s.recall.to_bits(), p.recall.to_bits());
            }
        }
    }

    #[test]
    fn top_n_is_prefix_of_full_rank((db, q) in code_pair(), n in 0usize..50) {
        let ranker = HammingRanker::new(BitCodes::from_real(&db));
        let qc = BitCodes::from_real(&q);
        for qi in 0..qc.len() {
            let full = ranker.rank(&qc, qi);
            let top = ranker.rank_top_n(&qc, qi, n);
            prop_assert_eq!(&full[..n.min(full.len())], top.as_slice());
        }
    }
}
