//! Synthetic graphs in CSR form for the GAP-style kernels.
//!
//! The GAP benchmark suite evaluates on Kronecker (RMAT) and uniform
//! random graphs; we generate scaled-down versions of both. Graphs are
//! symmetrized (each edge stored in both directions) and adjacency lists
//! are sorted, as GAP's builder does.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// An undirected graph in compressed-sparse-row form.
///
/// # Example
///
/// ```
/// use dramstack_workloads::Graph;
///
/// let g = Graph::kronecker(8, 4, 42); // 256 vertices, RMAT-skewed
/// assert_eq!(g.n, 256);
/// let hub = g.max_degree_vertex();
/// assert!(g.degree(hub) as usize >= g.edge_count() / g.n as usize);
/// for &u in g.neighbors(hub) {
///     assert!(u < g.n);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// Number of vertices.
    pub n: u32,
    /// CSR offsets, `n + 1` entries.
    pub offsets: Vec<u32>,
    /// Sorted neighbor lists, concatenated.
    pub targets: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list, symmetrizing and sorting.
    ///
    /// Two stable counting passes, by target and then by source, leave
    /// every adjacency list sorted without a sort.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n` or if the `2 × edges.len()`
    /// directed copies overflow the `u32` CSR offsets.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Self {
        assert_offsets_fit(edges.len() as u64);
        let mut offsets = vec![0u32; n as usize + 1];
        for &(u, v) in edges {
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Symmetric, so the source degrees also size the target buckets.
        let mut cursor = offsets.clone();
        let mut sources = vec![0u32; offsets[n as usize] as usize];
        for &(u, v) in edges {
            if u != v {
                sources[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
                sources[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
            }
        }
        cursor.copy_from_slice(&offsets);
        let mut targets = vec![0u32; sources.len()];
        for t in 0..n {
            for &s in &sources[offsets[t as usize] as usize..offsets[t as usize + 1] as usize] {
                targets[cursor[s as usize] as usize] = t;
                cursor[s as usize] += 1;
            }
        }
        Graph {
            n,
            offsets,
            targets,
        }
    }

    /// A Kronecker (RMAT) graph with `2^scale` vertices and
    /// `degree × 2^scale` directed edges before symmetrization, using
    /// GAP's (A,B,C) = (0.57, 0.19, 0.19).
    ///
    /// # Panics
    ///
    /// Panics unless `scale < 32` and the `2 × degree × 2^scale` directed
    /// copies fit the `u32` CSR offsets.
    pub fn kronecker(scale: u32, degree: u32, seed: u64) -> Self {
        assert!(scale < 32, "kronecker scale {scale} must be below 32");
        let n = 1u32 << scale;
        let m = u64::from(n) * u64::from(degree);
        assert_offsets_fit(m);
        // A uniform draw `(x >> 11) · 2^-53` is below p exactly when
        // `x >> 11 < ceil(p · 2^53)`: pick each quadrant without a branch.
        let [a, b, c] = [0.57, 0.76, 0.95].map(|p: f64| (p * (1u64 << 53) as f64).ceil() as u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges: Vec<_> = (0..m)
            .map(|_| {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..scale {
                    let r = rng.next_u64() >> 11;
                    let (ra, rb, rc) = (u32::from(r >= a), u32::from(r >= b), u32::from(r >= c));
                    // A = (0,0), B = (0,1), C = (1,0), D = (1,1).
                    u = (u << 1) | rb;
                    v = (v << 1) | (ra ^ rb ^ rc);
                }
                (u, v)
            })
            .collect();
        Self::from_edges(n, &edges)
    }

    /// A uniform random graph with `n` vertices and `n × degree` edges.
    ///
    /// # Panics
    ///
    /// Panics if the `2 × degree × n` directed copies do not fit the `u32`
    /// CSR offsets.
    pub fn uniform(n: u32, degree: u32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = u64::from(n) * u64::from(degree);
        assert_offsets_fit(m);
        let edges: Vec<_> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        Self::from_edges(n, &edges)
    }

    /// Number of directed edges stored (twice the undirected edge count).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The vertex with the highest degree — GAP's BFS source heuristic
    /// favors well-connected sources.
    pub fn max_degree_vertex(&self) -> u32 {
        (0..self.n).max_by_key(|&v| self.degree(v)).unwrap_or(0)
    }
}

/// Panics unless `m` edges, stored in both directions, fit the `u32` offsets.
fn assert_offsets_fit(m: u64) {
    assert!(
        m <= u64::from(u32::MAX / 2),
        "{m} edges overflow the u32 CSR offsets"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_edges_symmetrizes_and_sorts() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (3, 3)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.neighbors(3), &[] as &[u32], "self loop dropped");
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn kronecker_is_skewed() {
        let g = Graph::kronecker(10, 8, 42);
        assert_eq!(g.n, 1024);
        let max_deg = g.degree(g.max_degree_vertex());
        let avg = g.edge_count() as f64 / f64::from(g.n);
        assert!(
            f64::from(max_deg) > 4.0 * avg,
            "RMAT should be skewed: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn uniform_is_not_too_skewed() {
        let g = Graph::uniform(1024, 8, 7);
        let max_deg = g.degree(g.max_degree_vertex());
        let avg = g.edge_count() as f64 / f64::from(g.n);
        assert!(
            f64::from(max_deg) < 4.0 * avg,
            "uniform: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "must be below 32")]
    fn kronecker_rejects_scale_32() {
        Graph::kronecker(32, 1, 0);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 CSR offsets")]
    fn kronecker_rejects_edges_past_the_u32_offsets() {
        Graph::kronecker(30, 2, 0);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 CSR offsets")]
    fn uniform_rejects_edges_past_the_u32_offsets() {
        Graph::uniform(1 << 20, 2048, 0);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(Graph::kronecker(8, 4, 1), Graph::kronecker(8, 4, 1));
        assert_ne!(Graph::kronecker(8, 4, 1), Graph::kronecker(8, 4, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn csr_is_well_formed(scale in 4u32..9, degree in 1u32..8, seed in 0u64..100) {
            let g = Graph::kronecker(scale, degree, seed);
            prop_assert_eq!(g.offsets.len(), g.n as usize + 1);
            prop_assert_eq!(g.offsets[0], 0);
            prop_assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(*g.offsets.last().unwrap() as usize, g.targets.len());
            for v in 0..g.n {
                for &t in g.neighbors(v) {
                    prop_assert!(t < g.n);
                }
            }
        }

        #[test]
        fn symmetry_holds(seed in 0u64..50) {
            let g = Graph::kronecker(6, 3, seed);
            for v in 0..g.n {
                for &t in g.neighbors(v) {
                    prop_assert!(
                        g.neighbors(t).binary_search(&v).is_ok(),
                        "edge {}->{} missing reverse", v, t
                    );
                }
            }
        }
    }
}
