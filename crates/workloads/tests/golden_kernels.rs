//! Golden outputs of the real kernels, recorded from the original
//! (straightforward) implementations.
//!
//! The LULESH workload already checks its chunked run against
//! `step_sequential`, but both use the same kernels, so a kernel change that
//! moved both the same way would pass that check. These tests pin the
//! kernels' outputs themselves: every bit of every `Domain` field, the
//! element adjacency order the force gather sums in, the sort order, and
//! the n-queens subtree counts.

use maestro_workloads::lulesh::{kernels, Domain};
use maestro_workloads::micro::mergesort::merge_sort;
use maestro_workloads::micro::nqueens::count_with_prefix;

/// FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(v: &[f64]) -> u64 {
    fnv(v.iter().map(|x| x.to_bits()))
}

/// One fingerprint per `Domain` field, named so a mismatch says which.
fn fingerprint(d: &Domain) -> Vec<(&'static str, u64)> {
    vec![
        ("edge", d.edge as u64),
        ("x", bits(&d.x)),
        ("y", bits(&d.y)),
        ("z", bits(&d.z)),
        ("xd", bits(&d.xd)),
        ("yd", bits(&d.yd)),
        ("zd", bits(&d.zd)),
        ("xdd", bits(&d.xdd)),
        ("ydd", bits(&d.ydd)),
        ("zdd", bits(&d.zdd)),
        ("fx", bits(&d.fx)),
        ("fy", bits(&d.fy)),
        ("fz", bits(&d.fz)),
        ("nodal_mass", bits(&d.nodal_mass)),
        ("e", bits(&d.e)),
        ("p", bits(&d.p)),
        ("q", bits(&d.q)),
        ("v", bits(&d.v)),
        ("volo", bits(&d.volo)),
        ("delv", bits(&d.delv)),
        ("vdov", bits(&d.vdov)),
        ("arealg", bits(&d.arealg)),
        ("ss", bits(&d.ss)),
        ("dt", d.dt.to_bits()),
        ("time", d.time.to_bits()),
        ("cycle", d.cycle),
    ]
}

fn assert_lulesh_golden(edge: usize, cycles: u64, golden: &[(&str, u64)]) {
    let mut d = Domain::sedov(edge);
    for _ in 0..cycles {
        kernels::step_sequential(&mut d);
    }
    let got = fingerprint(&d);
    let diverged: Vec<String> = got
        .iter()
        .zip(golden)
        .filter(|(g, want)| g != want)
        .map(|((name, g), (_, want))| format!("{name}: got {g:#018x}, want {want:#018x}"))
        .collect();
    assert_eq!(got.len(), golden.len(), "field list changed: {got:#x?}");
    assert!(diverged.is_empty(), "edge {edge}, {cycles} cycles:\n{}", diverged.join("\n"));
}

#[test]
fn lulesh_edge6_fields_are_bit_identical() {
    assert_lulesh_golden(
        6,
        30,
        &[
            ("edge", 6),
            ("x", 0x5bd0_6dc3_e535_eb57),
            ("y", 0x4acb_fcab_e58c_11ba),
            ("z", 0x65fa_0c4f_730d_7dbb),
            ("xd", 0xb2c0_9114_d11d_ab40),
            ("yd", 0x7b08_0de3_bd7e_0707),
            ("zd", 0x4847_c846_614f_dbee),
            ("xdd", 0xb31b_5a4d_6f87_fc38),
            ("ydd", 0x323c_0d5b_eb1c_566e),
            ("zdd", 0x3014_bd36_b10c_e9a7),
            ("fx", 0x4634_9c23_5547_06aa),
            ("fy", 0x716f_030f_98f0_e241),
            ("fz", 0xe6a3_736c_c04c_246a),
            ("nodal_mass", 0xb59c_fc6d_0241_93fb),
            ("e", 0x4039_43b7_49ed_baeb),
            ("p", 0xde93_a5ee_9e10_de9a),
            ("q", 0xaada_f3d5_c0c8_94aa),
            ("v", 0x94d6_036d_1836_9ac4),
            ("volo", 0x2e61_90c5_ca3b_0db5),
            ("delv", 0x2970_4596_8916_e3a6),
            ("vdov", 0xaefa_abbf_b5c5_32ca),
            ("arealg", 0x11d1_41da_265e_218f),
            ("ss", 0x2ec6_2f49_e29f_31b6),
            ("dt", 0x3f63_7224_617a_107b),
            ("time", 0x3f88_3476_96ed_7858),
            ("cycle", 30),
        ],
    );
}

#[test]
fn lulesh_edge14_fields_are_bit_identical() {
    assert_lulesh_golden(
        14,
        4,
        &[
            ("edge", 14),
            ("x", 0x7b31_3ba0_791d_1a2a),
            ("y", 0x3fa2_0b35_a7e7_58f6),
            ("z", 0x202c_4d8f_85a0_7e36),
            ("xd", 0x677e_0cc9_6a44_f0cf),
            ("yd", 0xabbf_dcd8_52f2_e345),
            ("zd", 0x6216_19df_c55f_e603),
            ("xdd", 0x1ac4_8204_b960_16b7),
            ("ydd", 0x2851_d8f5_f91d_6a90),
            ("zdd", 0x5bd2_7f3d_bc81_2f13),
            ("fx", 0xfd5b_1438_74cd_09f6),
            ("fy", 0xa145_4426_2432_40f9),
            ("fz", 0x0ea2_6544_164f_ed43),
            ("nodal_mass", 0x77cd_e0bd_4351_aadb),
            ("e", 0x1099_8830_ccc2_c269),
            ("p", 0x32c8_c18e_a512_5c08),
            ("q", 0x7424_6bb4_671f_1da0),
            ("v", 0x574d_239e_46fe_8096),
            ("volo", 0xb3b3_79cd_3626_a179),
            ("delv", 0xe108_3a56_1081_3794),
            ("vdov", 0xbd88_aff5_541a_c8e7),
            ("arealg", 0xb815_81b9_8bbc_a323),
            ("ss", 0x5106_8b7c_39d1_6d09),
            ("dt", 0x3ef5_be47_11d1_2793),
            ("time", 0x3f0c_24ce_c16e_9fc5),
            ("cycle", 4),
        ],
    );
}

/// The elements around a node, in the order the force gather sums them:
/// the (k, j, i) lattice offsets 0 then −1, innermost first, which lists
/// the element indices in descending order.
#[test]
fn node_elems_lists_are_unchanged() {
    for edge in [2, 3, 5] {
        let d = Domain::sedov(edge);
        let mut golden = vec![Vec::new(); d.num_nodes()];
        for e in (0..d.num_elems()).rev() {
            for n in d.elem_nodes(e) {
                golden[n].push(e);
            }
        }
        for (n, want) in golden.iter().enumerate() {
            let mut got = Vec::new();
            got.extend(d.node_elems(n));
            assert_eq!(&got, want, "edge {edge}, node {n}");
        }
    }
    // Spot values on the edge-3 mesh: a corner, an edge, a face and an
    // interior node.
    let d = Domain::sedov(3);
    let at = |i, j, k| {
        let mut elems = Vec::new();
        elems.extend(d.node_elems(d.node_index(i, j, k)));
        elems
    };
    assert_eq!(at(0, 0, 0), vec![0]);
    assert_eq!(at(3, 3, 3), vec![26]);
    assert_eq!(at(1, 0, 0), vec![1, 0]);
    assert_eq!(at(1, 1, 0), vec![4, 3, 1, 0]);
    assert_eq!(at(1, 1, 1), vec![13, 12, 10, 9, 4, 3, 1, 0]);
}

fn xorshift(len: usize, seed: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

#[test]
fn merge_sort_matches_sort_unstable() {
    for len in [0, 1, 31, 32, 33, 1000, 65_537] {
        let random = xorshift(len, 0x9E37_79B9_7F4A_7C15);
        // Few distinct keys: long runs of equal values.
        let dups: Vec<u64> = random.iter().map(|x| x % 7).collect();
        let descending: Vec<u64> = (0..len as u64).rev().collect();
        let ascending: Vec<u64> = (0..len as u64).collect();
        let extremes: Vec<u64> =
            (0..len).map(|i| if i % 3 == 0 { u64::MAX } else { i as u64 % 2 }).collect();
        for input in [random, dups, descending, ascending, extremes] {
            let mut want = input.clone();
            want.sort_unstable();
            let mut got = input;
            merge_sort(&mut got);
            assert_eq!(got, want, "length {len}");
        }
    }
}

/// Solution counts of the n-queens problem, n = 4..=12.
const QUEENS: [u64; 9] = [2, 10, 4, 40, 92, 352, 724, 2680, 14_200];

#[test]
fn count_with_prefix_counts_are_unchanged() {
    for (n, &total) in (4..=12).zip(&QUEENS) {
        assert_eq!(count_with_prefix(n, &[]), total, "n = {n}");
        // The first-row prefixes partition the search space; by mirror
        // symmetry column c and column n-1-c hold equal counts.
        let by_col: Vec<u64> = (0..n).map(|c| count_with_prefix(n, &[c])).collect();
        assert_eq!(by_col.iter().sum::<u64>(), total, "n = {n}");
        for c in 0..n {
            assert_eq!(by_col[c], by_col[n - 1 - c], "n = {n}, column {c}");
        }
        // Prefixes that are inconsistent in their own rows count nothing:
        // same column, adjacent diagonal, a diagonal two rows apart, and a
        // clash behind a consistent pair.
        assert_eq!(count_with_prefix(n, &[0, 0]), 0, "n = {n}");
        assert_eq!(count_with_prefix(n, &[1, 2]), 0, "n = {n}");
        assert_eq!(count_with_prefix(n, &[0, 3, 2]), 0, "n = {n}");
        assert_eq!(count_with_prefix(n, &[1, 3, 0, 2, 3]), 0, "n = {n}");
    }
    // Recorded per-column counts, and deeper prefixes, for n = 8 and 12.
    let by_col = |n: usize| (0..n).map(|c| count_with_prefix(n, &[c])).collect::<Vec<u64>>();
    assert_eq!(by_col(8), vec![4, 8, 16, 18, 18, 16, 8, 4]);
    assert_eq!(
        by_col(12),
        vec![500, 806, 1165, 1359, 1631, 1639, 1639, 1631, 1359, 1165, 806, 500]
    );
    assert_eq!(count_with_prefix(8, &[0, 4, 7, 5, 2, 6, 1, 3]), 1, "a full solution");
    assert_eq!(count_with_prefix(8, &[0, 4, 7, 5, 2, 6, 3, 1]), 0, "a full non-solution");
    assert_eq!(count_with_prefix(12, &[0, 2]), 34);
    assert_eq!(count_with_prefix(12, &[0, 2, 4]), 4);
    assert_eq!(count_with_prefix(12, &[5, 0, 3]), 0);
}
