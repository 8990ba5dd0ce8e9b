//! GAP-style graph kernels as trace-generating programs.
//!
//! Each kernel is a real implementation of the algorithm (direction-
//! optimizing BFS, pull PageRank, label-propagation CC, Brandes BC,
//! Bellman-Ford SSSP, sorted-intersection TC) that executes on an actual
//! [`Graph`] while emitting, per simulated core, the loads/stores/compute
//! the parallel version would perform. Work is partitioned with OpenMP-
//! style static chunks and synchronized with barriers, which produces the
//! phase behaviour the paper analyzes in Fig. 7.

mod bc;
mod bfs;
mod cc;
mod pr;
mod sssp;
mod tc;

use serde::{Deserialize, Serialize};

use dramstack_cpu::Instr;

use crate::alloc::{AddressSpace, ArrayRef};
use crate::graph::Graph;
use crate::trace::TraceBuilder;

/// The six GAP kernels of the paper's Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GapKernel {
    /// Betweenness centrality (Brandes, sampled sources).
    Bc,
    /// Breadth-first search (direction-optimizing).
    Bfs,
    /// Connected components (label propagation + pointer jumping).
    Cc,
    /// PageRank (pull).
    Pr,
    /// Single-source shortest paths (Bellman-Ford rounds).
    Sssp,
    /// Triangle counting (sorted adjacency intersection).
    Tc,
}

impl GapKernel {
    /// All kernels, in the paper's Fig. 9 order.
    pub const ALL: [GapKernel; 6] = [
        GapKernel::Bc,
        GapKernel::Bfs,
        GapKernel::Cc,
        GapKernel::Pr,
        GapKernel::Sssp,
        GapKernel::Tc,
    ];

    /// GAP's short name.
    pub fn name(self) -> &'static str {
        match self {
            GapKernel::Bc => "bc",
            GapKernel::Bfs => "bfs",
            GapKernel::Cc => "cc",
            GapKernel::Pr => "pr",
            GapKernel::Sssp => "sssp",
            GapKernel::Tc => "tc",
        }
    }

    /// Generates the per-core instruction traces for this kernel.
    pub fn trace(self, g: &Graph, n_cores: usize, cfg: &GapConfig) -> Vec<Vec<Instr>> {
        let mut ctx = KernelCtx::new(g, n_cores);
        match self {
            GapKernel::Bc => bc::run(&mut ctx, cfg),
            GapKernel::Bfs => bfs::run(&mut ctx, cfg),
            GapKernel::Cc => cc::run(&mut ctx, cfg),
            GapKernel::Pr => pr::run(&mut ctx, cfg),
            GapKernel::Sssp => sssp::run(&mut ctx, cfg),
            GapKernel::Tc => tc::run(&mut ctx, cfg),
        }
        ctx.t.into_traces()
    }
}

impl std::fmt::Display for GapKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel-size knobs (bounded so full cycle simulation stays fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapConfig {
    /// PageRank iterations.
    pub pr_iterations: u32,
    /// Maximum Bellman-Ford rounds.
    pub sssp_rounds: u32,
    /// Maximum label-propagation rounds.
    pub cc_rounds: u32,
    /// BC source vertices.
    pub bc_sources: u32,
    /// Probability (numerator over 100) that a data-dependent branch
    /// mispredicts.
    pub mispredict_pct: u64,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            pr_iterations: 3,
            sssp_rounds: 4,
            cc_rounds: 4,
            bc_sources: 1,
            mispredict_pct: 8,
        }
    }
}

/// Shared state for kernel trace generation: the graph, the trace builder
/// and the simulated addresses of the CSR arrays.
pub(crate) struct KernelCtx<'g> {
    pub g: &'g Graph,
    pub t: TraceBuilder,
    pub space: AddressSpace,
    pub offs: ArrayRef,
    pub tgts: ArrayRef,
}

impl<'g> KernelCtx<'g> {
    fn new(g: &'g Graph, n_cores: usize) -> Self {
        let mut space = AddressSpace::default();
        let offs = space.alloc(g.offsets.len() as u64, 4);
        let tgts = space.alloc(g.targets.len().max(1) as u64, 4);
        KernelCtx {
            g,
            t: TraceBuilder::new(n_cores),
            space,
            offs,
            tgts,
        }
    }

    /// Allocates a property array of `len` `elem_bytes`-sized elements.
    pub fn alloc(&mut self, len: u64, elem_bytes: u32) -> ArrayRef {
        self.space.alloc(len, elem_bytes)
    }

    /// Emits the CSR offset loads for vertex `v` and returns its neighbor
    /// slice bounds.
    pub fn load_offsets(&mut self, core: usize, v: u32) -> (u32, u32) {
        self.t.load(core, self.offs.addr(u64::from(v)));
        self.t.load(core, self.offs.addr(u64::from(v) + 1));
        (self.g.offsets[v as usize], self.g.offsets[v as usize + 1])
    }

    /// Emits the loads scanning `v`'s adjacency list and returns the
    /// neighbors.
    pub fn scan_neighbors(&mut self, core: usize, v: u32) -> &'g [u32] {
        let (lo, hi) = self.load_offsets(core, v);
        for idx in lo..hi {
            self.t.load(core, self.tgts.addr(u64::from(idx)));
        }
        self.g.neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_cpu::Instr;

    fn small_graph() -> Graph {
        Graph::kronecker(8, 4, 11)
    }

    fn count_kinds(traces: &[Vec<Instr>]) -> (u64, u64, u64, u64) {
        let (mut loads, mut stores, mut computes, mut barriers) = (0, 0, 0, 0);
        for t in traces {
            for i in t {
                match i {
                    Instr::Load { .. } | Instr::ChainLoad { .. } => loads += 1,
                    Instr::Store { .. } => stores += 1,
                    Instr::Compute { .. } => computes += 1,
                    Instr::Barrier { .. } => barriers += 1,
                    Instr::Branch { .. } => {}
                }
            }
        }
        (loads, stores, computes, barriers)
    }

    #[test]
    fn every_kernel_produces_nonempty_traces_per_core() {
        let g = small_graph();
        for k in GapKernel::ALL {
            for cores in [1usize, 4] {
                let traces = k.trace(&g, cores, &GapConfig::default());
                assert_eq!(traces.len(), cores, "{k}");
                let (loads, _, _, _) = count_kinds(&traces);
                assert!(loads > 0, "{k} must load something");
            }
        }
    }

    #[test]
    fn barriers_match_across_cores() {
        let g = small_graph();
        for k in GapKernel::ALL {
            let traces = k.trace(&g, 4, &GapConfig::default());
            let barrier_seq = |t: &Vec<Instr>| -> Vec<u32> {
                t.iter()
                    .filter_map(|i| match i {
                        Instr::Barrier { id } => Some(*id),
                        _ => None,
                    })
                    .collect()
            };
            let first = barrier_seq(&traces[0]);
            for t in &traces[1..] {
                assert_eq!(
                    barrier_seq(t),
                    first,
                    "{k}: all cores see the same barriers"
                );
            }
            assert!(!first.is_empty(), "{k} should synchronize at least once");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let g = small_graph();
        let a = GapKernel::Bfs.trace(&g, 2, &GapConfig::default());
        let b = GapKernel::Bfs.trace(&g, 2, &GapConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn mutating_kernels_emit_stores() {
        let g = small_graph();
        for k in [
            GapKernel::Bfs,
            GapKernel::Pr,
            GapKernel::Cc,
            GapKernel::Sssp,
            GapKernel::Bc,
        ] {
            let traces = k.trace(&g, 2, &GapConfig::default());
            let (_, stores, _, _) = count_kinds(&traces);
            assert!(stores > 0, "{k} must store results");
        }
    }

    #[test]
    fn tc_is_read_only_and_sequential_heavy() {
        let g = small_graph();
        let traces = GapKernel::Tc.trace(&g, 1, &GapConfig::default());
        let (loads, stores, computes, _) = count_kinds(&traces);
        assert_eq!(stores, 0, "tc writes nothing");
        assert!(loads > 1000);
        assert!(computes > 0);
    }
}
