//! Pins the generated GAP inputs byte for byte.
//!
//! `Graph::kronecker` and `Graph::from_edges` are checked against the
//! straightforward reference implementations below (a float-comparison
//! RMAT sampler and a per-vertex sort), and FNV-1a digests pin
//! `Graph::uniform` and the traces of every kernel at 1 and 8 cores on a
//! Kronecker and a uniform graph, all above the quick figure scale.

use dramstack::cpu::Instr;
use dramstack::workloads::{GapConfig, GapKernel, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Symmetrizes `edges` (dropping self loops) into CSR and sorts every
/// adjacency list on its own.
fn reference_from_edges(n: u32, edges: &[(u32, u32)]) -> Graph {
    let mut deg = vec![0u32; n as usize + 1];
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        deg[u as usize + 1] += 1;
        deg[v as usize + 1] += 1;
    }
    let mut offsets = deg;
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; offsets[n as usize] as usize];
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        targets[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
        targets[cursor[v as usize] as usize] = u;
        cursor[v as usize] += 1;
    }
    for v in 0..n as usize {
        targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    Graph {
        n,
        offsets,
        targets,
    }
}

/// RMAT with (A,B,C) = (0.57, 0.19, 0.19), one uniform `f64` per level.
fn reference_kronecker(scale: u32, degree: u32, seed: u64) -> Graph {
    let n = 1u32 << scale;
    let m = u64::from(n) * u64::from(degree);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < 0.57 {
                // quadrant A: (0,0)
            } else if r < 0.76 {
                v |= 1; // B
            } else if r < 0.95 {
                u |= 1; // C
            } else {
                u |= 1;
                v |= 1; // D
            }
        }
        edges.push((u, v));
    }
    reference_from_edges(n, &edges)
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.u64(u64::from(g.n));
    for &x in g.offsets.iter().chain(&g.targets) {
        h.bytes(&x.to_le_bytes());
    }
    h.0
}

fn trace_digest(traces: &[Vec<Instr>]) -> u64 {
    let mut h = Fnv::new();
    for t in traces {
        h.u64(t.len() as u64);
        for i in t {
            let (tag, a, b) = match *i {
                Instr::Load { addr } => (0, addr, 0),
                Instr::Store { addr } => (1, addr, 0),
                Instr::ChainLoad { addr, chain } => (2, addr, u64::from(chain)),
                Instr::Compute { count } => (3, u64::from(count), 0),
                Instr::Branch { mispredict } => (4, u64::from(mispredict), 0),
                Instr::Barrier { id } => (5, u64::from(id), 0),
            };
            h.bytes(&[tag]);
            h.u64(a);
            h.u64(b);
        }
    }
    h.0
}

#[test]
fn kronecker_equals_the_float_comparison_reference() {
    // refbench's gap_pr_8c graphs at seeds 1 and 7, the quick and tc
    // figure shapes, and the degenerate edges of the table.
    for (scale, degree, seed) in [
        (0, 3, 5),
        (1, 1, 0),
        (2, 7, 2),
        (5, 1, 9),
        (8, 4, 42),
        (9, 8, 0x6A9_2022),
        (11, 3, u64::MAX),
        (14, 16, 1),
        (14, 16, 7),
    ] {
        assert!(
            Graph::kronecker(scale, degree, seed) == reference_kronecker(scale, degree, seed),
            "kronecker({scale}, {degree}, {seed}) differs from the reference"
        );
    }
}

#[test]
fn from_edges_equals_the_per_vertex_sort_reference() {
    let mut rng = SmallRng::seed_from_u64(3);
    for (n, m) in [
        (1u32, 4usize),
        (2, 9),
        (17, 40),
        (300, 5000),
        (4096, 70_000),
    ] {
        // Small vertex ranges force duplicate edges and self loops.
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        assert_eq!(
            Graph::from_edges(n, &edges),
            reference_from_edges(n, &edges),
            "n={n} m={m}"
        );
    }
    assert_eq!(Graph::from_edges(5, &[]), reference_from_edges(5, &[]));
}

#[test]
fn uniform_graphs_match_their_digests() {
    let got: Vec<_> = [(1u32, 1u32, 0u64), (1000, 3, 9), (4096, 8, 7)]
        .iter()
        .map(|&(n, d, s)| ((n, d, s), graph_digest(&Graph::uniform(n, d, s))))
        .collect();
    let want = [
        ((1, 1, 0), 0x392209f14dea4c24),
        ((1000, 3, 9), 0xcc2558e607031389),
        ((4096, 8, 7), 0xcd7d22c4ae535802),
    ];
    assert_eq!(got, want);
}

fn kernel_digests(g: &Graph) -> Vec<(GapKernel, usize, u64)> {
    let mut out = Vec::new();
    for k in GapKernel::ALL {
        for cores in [1usize, 8] {
            out.push((
                k,
                cores,
                trace_digest(&k.trace(g, cores, &GapConfig::default())),
            ));
        }
    }
    out
}

#[test]
fn kernel_traces_on_a_kronecker_graph_match_their_digests() {
    let g = Graph::kronecker(11, 8, 0x6A9_2022);
    assert_eq!(graph_digest(&g), 0xbdf062e85a8b92fd);
    let want = [
        (GapKernel::Bc, 1, 0x142eefde39399c72),
        (GapKernel::Bc, 8, 0x369cad207b98d82c),
        (GapKernel::Bfs, 1, 0xcab22e3cb6f82c1a),
        (GapKernel::Bfs, 8, 0xd1018083bbd2decd),
        (GapKernel::Cc, 1, 0x780a1f08b896aeb8),
        (GapKernel::Cc, 8, 0x673619af2dbc8e0e),
        (GapKernel::Pr, 1, 0x56e8e47d16b50701),
        (GapKernel::Pr, 8, 0xbc3fa6b914957a66),
        (GapKernel::Sssp, 1, 0x6880b37c9f2633ad),
        (GapKernel::Sssp, 8, 0x38c7656ed192c4f6),
        (GapKernel::Tc, 1, 0x5513da3acbf239ef),
        (GapKernel::Tc, 8, 0xaddfc59f790da56f),
    ];
    assert_eq!(kernel_digests(&g), want);
}

#[test]
fn kernel_traces_on_a_uniform_graph_match_their_digests() {
    let g = Graph::uniform(2048, 8, 5);
    let want = [
        (GapKernel::Bc, 1, 0xd67d389142ae3516),
        (GapKernel::Bc, 8, 0x02ab036aa45f574a),
        (GapKernel::Bfs, 1, 0x485492a01e176093),
        (GapKernel::Bfs, 8, 0x4c39a5fde2cf8e05),
        (GapKernel::Cc, 1, 0xa2c89d556e629829),
        (GapKernel::Cc, 8, 0x2341f36ff51ca490),
        (GapKernel::Pr, 1, 0x0c092ac0bb16c03b),
        (GapKernel::Pr, 8, 0x8c1ba737a195f49b),
        (GapKernel::Sssp, 1, 0xb5da619baaebb02f),
        (GapKernel::Sssp, 8, 0xd876d850e90b55b4),
        (GapKernel::Tc, 1, 0x2154953a1f70a561),
        (GapKernel::Tc, 8, 0x5dee8eeb21a619ce),
    ];
    assert_eq!(kernel_digests(&g), want);
}
