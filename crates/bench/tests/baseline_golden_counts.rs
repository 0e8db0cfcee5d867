//! Exact-count pins of the two comparison systems: every vertex- and
//! block-centric `comm_mb`, `messages` and `supersteps` value that
//! `paper_shapes` reads, at each Table 1 / Fig 6 / Fig 8 / Fig 9 point at
//! `Scale::Small`, must equal the literal goldens below.  Fig 8 is the
//! communication view of the Fig 6 runs, so its points are Fig 6's rows.
//!
//! The block-centric CF model is pinned too, by a digest of every factor
//! vector's bits: its SGD trajectory is the answer, so a change to how
//! block messages are ordered or delivered moves it.
//!
//! The baselines run BSP in both engine modes, so the same goldens hold
//! under `GRAPE_ENGINE_MODE=sync` and `=async`.

use grape_algorithms::cf::CfQuery;
use grape_baselines::block_centric::{run_block, BlockCf};
use grape_bench::experiments;
use grape_bench::runner::{partition, RunRow};
use grape_bench::workloads::{self, Scale};

/// One baseline row as the goldens spell it.
fn line(r: &RunRow) -> String {
    format!(
        "{} {} n={} {}: comm_mb {} messages {} supersteps {}",
        r.query, r.workload, r.workers, r.system, r.comm_mb, r.messages, r.supersteps
    )
}

/// The baseline rows of every figure `paper_shapes` checks, in print order.
fn baseline_lines() -> Vec<String> {
    let figures = [
        experiments::table1(Scale::Small),
        experiments::fig6_sssp(Scale::Small),
        experiments::fig6_cc(Scale::Small),
        experiments::fig6_sim(Scale::Small),
        experiments::fig6_subiso(Scale::Small),
        experiments::fig6_cf(Scale::Small),
        experiments::fig9_scalability(Scale::Small),
    ];
    figures
        .iter()
        .flatten()
        .filter(|r| r.system != "GRAPE")
        .map(line)
        .collect()
}

/// The baseline rows, in `baseline_lines` order.
const GOLDEN: &[&str] = &[
    "sssp traffic n=4 vertex-centric: comm_mb 0.1824798583984375 messages 11959 supersteps 96",
    "sssp traffic n=4 block-centric: comm_mb 0.0066070556640625 messages 433 supersteps 10",
    "sssp traffic n=2 vertex-centric: comm_mb 0.12054443359375 messages 7900 supersteps 96",
    "sssp traffic n=2 block-centric: comm_mb 0.00274658203125 messages 180 supersteps 5",
    "sssp traffic n=4 vertex-centric: comm_mb 0.1824798583984375 messages 11959 supersteps 96",
    "sssp traffic n=4 block-centric: comm_mb 0.0066070556640625 messages 433 supersteps 10",
    "sssp livejournal n=2 vertex-centric: comm_mb 0.1638031005859375 messages 10735 supersteps 8",
    "sssp livejournal n=2 block-centric: comm_mb 0.0323944091796875 messages 2123 supersteps 5",
    "sssp livejournal n=4 vertex-centric: comm_mb 0.2471771240234375 messages 16199 supersteps 8",
    "sssp livejournal n=4 block-centric: comm_mb 0.111114501953125 messages 7282 supersteps 5",
    "sssp dbpedia n=2 vertex-centric: comm_mb 0.1373748779296875 messages 9003 supersteps 15",
    "sssp dbpedia n=2 block-centric: comm_mb 0.100738525390625 messages 6602 supersteps 10",
    "sssp dbpedia n=4 vertex-centric: comm_mb 0.2062225341796875 messages 13515 supersteps 15",
    "sssp dbpedia n=4 block-centric: comm_mb 0.257171630859375 messages 16854 supersteps 11",
    "cc traffic n=2 vertex-centric: comm_mb 6.46533203125 messages 423712 supersteps 96",
    "cc traffic n=2 block-centric: comm_mb 0.0050048828125 messages 328 supersteps 4",
    "cc traffic n=4 vertex-centric: comm_mb 9.79962158203125 messages 642228 supersteps 96",
    "cc traffic n=4 block-centric: comm_mb 0.009033203125 messages 592 supersteps 4",
    "cc livejournal n=2 vertex-centric: comm_mb 1.0235595703125 messages 67080 supersteps 6",
    "cc livejournal n=2 block-centric: comm_mb 0.06488037109375 messages 4252 supersteps 3",
    "cc livejournal n=4 vertex-centric: comm_mb 1.5421142578125 messages 101064 supersteps 6",
    "cc livejournal n=4 block-centric: comm_mb 0.209075927734375 messages 13702 supersteps 3",
    "cc dbpedia n=2 vertex-centric: comm_mb 1.184478759765625 messages 77626 supersteps 6",
    "cc dbpedia n=2 block-centric: comm_mb 0.1066131591796875 messages 6987 supersteps 2",
    "cc dbpedia n=4 vertex-centric: comm_mb 1.78302001953125 messages 116852 supersteps 6",
    "cc dbpedia n=4 block-centric: comm_mb 0.178619384765625 messages 11706 supersteps 2",
    "sim livejournal n=2 vertex-centric: comm_mb 0.1432037353515625 messages 7508 supersteps 2",
    "sim livejournal n=2 block-centric: comm_mb 0.0002727508544921875 messages 22 supersteps 2",
    "sim livejournal n=4 vertex-centric: comm_mb 0.21551132202148438 messages 11299 supersteps 2",
    "sim livejournal n=4 block-centric: comm_mb 0.0008554458618164063 messages 69 supersteps 2",
    "sim dbpedia n=2 vertex-centric: comm_mb 0.114288330078125 messages 5992 supersteps 2",
    "sim dbpedia n=2 block-centric: comm_mb 0.0001239776611328125 messages 10 supersteps 2",
    "sim dbpedia n=4 vertex-centric: comm_mb 0.17194747924804688 messages 9015 supersteps 2",
    "sim dbpedia n=4 block-centric: comm_mb 0.0001983642578125 messages 16 supersteps 2",
    "subiso livejournal n=2 vertex-centric: comm_mb 0.0018157958984375 messages 119 supersteps 2",
    "subiso livejournal n=2 block-centric: comm_mb 0.36994171142578125 messages 0 supersteps 2",
    "subiso livejournal n=4 vertex-centric: comm_mb 0.0027618408203125 messages 181 supersteps 2",
    "subiso livejournal n=4 block-centric: comm_mb 1.09222412109375 messages 0 supersteps 2",
    "subiso dbpedia n=2 vertex-centric: comm_mb 0.0029296875 messages 192 supersteps 2",
    "subiso dbpedia n=2 block-centric: comm_mb 0.30095672607421875 messages 0 supersteps 2",
    "subiso dbpedia n=4 vertex-centric: comm_mb 0.0046234130859375 messages 303 supersteps 2",
    "subiso dbpedia n=4 block-centric: comm_mb 0.9269027709960938 messages 0 supersteps 2",
    "cf movielens-90 n=2 vertex-centric: comm_mb 2.449951171875 messages 32112 supersteps 13",
    "cf movielens-90 n=2 block-centric: comm_mb 1.85394287109375 messages 27000 supersteps 6",
    "cf movielens-90 n=4 vertex-centric: comm_mb 3.695068359375 messages 48432 supersteps 13",
    "cf movielens-90 n=4 block-centric: comm_mb 5.555992126464844 messages 80915 supersteps 6",
    "cf movielens-50 n=2 vertex-centric: comm_mb 1.34490966796875 messages 17628 supersteps 13",
    "cf movielens-50 n=2 block-centric: comm_mb 1.021728515625 messages 14880 supersteps 6",
    "cf movielens-50 n=4 vertex-centric: comm_mb 2.04437255859375 messages 26796 supersteps 13",
    "cf movielens-50 n=4 block-centric: comm_mb 3.0260467529296875 messages 44070 supersteps 6",
    "sssp synthetic-1 n=4 vertex-centric: comm_mb 0.0652313232421875 messages 4275 supersteps 7",
    "cc synthetic-1 n=4 vertex-centric: comm_mb 0.39776611328125 messages 26068 supersteps 5",
    "sssp synthetic-1 n=4 block-centric: comm_mb 0.025238037109375 messages 1654 supersteps 5",
    "cc synthetic-1 n=4 block-centric: comm_mb 0.0507965087890625 messages 3329 supersteps 3",
    "sim synthetic-1 n=4 vertex-centric: comm_mb 0.05809783935546875 messages 3046 supersteps 3",
    "subiso synthetic-1 n=4 vertex-centric: comm_mb 0.01595306396484375 messages 752 supersteps 3",
    "sim synthetic-1 n=4 block-centric: comm_mb 0.0006570816040039063 messages 53 supersteps 2",
    "subiso synthetic-1 n=4 block-centric: comm_mb 0.29207611083984375 messages 0 supersteps 2",
    "sssp synthetic-2 n=4 vertex-centric: comm_mb 0.129669189453125 messages 8498 supersteps 8",
    "cc synthetic-2 n=4 vertex-centric: comm_mb 0.81591796875 messages 53472 supersteps 6",
    "sssp synthetic-2 n=4 block-centric: comm_mb 0.0489654541015625 messages 3209 supersteps 5",
    "cc synthetic-2 n=4 block-centric: comm_mb 0.0973052978515625 messages 6377 supersteps 3",
    "sim synthetic-2 n=4 vertex-centric: comm_mb 0.1155853271484375 messages 6060 supersteps 3",
    "subiso synthetic-2 n=4 vertex-centric: comm_mb 0.0032958984375 messages 216 supersteps 2",
    "sim synthetic-2 n=4 block-centric: comm_mb 0.0008306503295898438 messages 67 supersteps 3",
    "subiso synthetic-2 n=4 block-centric: comm_mb 0.61724853515625 messages 0 supersteps 2",
    "sssp synthetic-3 n=4 vertex-centric: comm_mb 0.19989013671875 messages 13100 supersteps 8",
    "cc synthetic-3 n=4 vertex-centric: comm_mb 1.245147705078125 messages 81602 supersteps 6",
    "sssp synthetic-3 n=4 block-centric: comm_mb 0.07598876953125 messages 4980 supersteps 5",
    "cc synthetic-3 n=4 block-centric: comm_mb 0.1497344970703125 messages 9813 supersteps 3",
    "sim synthetic-3 n=4 vertex-centric: comm_mb 0.17246246337890625 messages 9042 supersteps 4",
    "subiso synthetic-3 n=4 vertex-centric: comm_mb 0.01044464111328125 messages 585 supersteps 3",
    "sim synthetic-3 n=4 block-centric: comm_mb 0.0014133453369140625 messages 114 supersteps 3",
    "subiso synthetic-3 n=4 block-centric: comm_mb 0.871673583984375 messages 0 supersteps 2",
    "sssp synthetic-4 n=4 vertex-centric: comm_mb 0.265655517578125 messages 17410 supersteps 8",
    "cc synthetic-4 n=4 vertex-centric: comm_mb 1.665802001953125 messages 109170 supersteps 6",
    "sssp synthetic-4 n=4 block-centric: comm_mb 0.0925750732421875 messages 6067 supersteps 5",
    "cc synthetic-4 n=4 block-centric: comm_mb 0.1793670654296875 messages 11755 supersteps 3",
    "sim synthetic-4 n=4 vertex-centric: comm_mb 0.233306884765625 messages 12232 supersteps 4",
    "subiso synthetic-4 n=4 vertex-centric: comm_mb 0.0133514404296875 messages 771 supersteps 3",
    "sim synthetic-4 n=4 block-centric: comm_mb 0.001338958740234375 messages 108 supersteps 3",
    "subiso synthetic-4 n=4 block-centric: comm_mb 1.155029296875 messages 0 supersteps 2",
    "sssp synthetic-5 n=4 vertex-centric: comm_mb 0.3399505615234375 messages 22279 supersteps 8",
    "cc synthetic-5 n=4 vertex-centric: comm_mb 2.151702880859375 messages 141014 supersteps 6",
    "sssp synthetic-5 n=4 block-centric: comm_mb 0.1389923095703125 messages 9109 supersteps 6",
    "cc synthetic-5 n=4 block-centric: comm_mb 0.257476806640625 messages 16874 supersteps 3",
    "sim synthetic-5 n=4 vertex-centric: comm_mb 0.2928733825683594 messages 15355 supersteps 4",
    "subiso synthetic-5 n=4 vertex-centric: comm_mb 0.0063934326171875 messages 419 supersteps 2",
    "sim synthetic-5 n=4 block-centric: comm_mb 0.001735687255859375 messages 140 supersteps 3",
    "subiso synthetic-5 n=4 block-centric: comm_mb 1.5462799072265625 messages 0 supersteps 2",
];

#[test]
fn baseline_counts_match_the_goldens() {
    let got = baseline_lines();
    assert_eq!(got.len(), GOLDEN.len(), "row count");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}

/// FNV-1a over every `(vertex, factor bits)` of a model, in vertex order.
fn digest(factors: &std::collections::HashMap<u64, Vec<f64>>) -> u64 {
    let mut entries: Vec<_> = factors.iter().collect();
    entries.sort_unstable_by_key(|(v, _)| **v);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (v, f) in entries {
        eat(*v);
        for x in f {
            eat(x.to_bits());
        }
    }
    h
}

/// The block-centric CF model of Fig 6's `movielens-90` points.
const GOLDEN_CF: &[(usize, u64)] = &[(2, 0x9986_ee28_f707_bd36), (4, 0x320f_c029_afc3_8e9b)];

#[test]
fn block_centric_cf_model_matches_its_digest() {
    let data = workloads::movielens(Scale::Small, 0.9);
    let query = CfQuery {
        epochs: 6,
        num_factors: 8,
        ..Default::default()
    };
    let mut got = Vec::new();
    for n in experiments::worker_counts(Scale::Small) {
        let frag = partition(&data.graph, n);
        let model = run_block(&frag, &BlockCf, &query, n).unwrap().output;
        got.push((n, digest(model.factors())));
    }
    assert_eq!(got, GOLDEN_CF);
}
