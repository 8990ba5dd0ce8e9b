//! Pull-based PageRank: each vertex gathers the scaled scores of its
//! neighbors — mostly-random reads of the score array plus a sequential
//! CSR scan, the classic memory-bound graph kernel.

use dramstack_cpu::Instr;

use crate::gap::{GapConfig, KernelCtx};

const DAMPING: f64 = 0.85;

pub(crate) fn run(ctx: &mut KernelCtx<'_>, cfg: &GapConfig) {
    let n = u64::from(ctx.g.n);
    let cores = ctx.t.cores();
    let scores_arr = ctx.alloc(n, 8);
    let scores_new_arr = ctx.alloc(n, 8);
    let (g, offs, tgts, t) = (ctx.g, ctx.offs, ctx.tgts, &mut ctx.t);

    // Each vertex emits 4 + 4·degree instructions; every iteration ends in
    // two barriers around core 0's convergence check.
    for core in 0..cores {
        let r = t.chunk(n, core);
        let edges = u64::from(g.offsets[r.end as usize] - g.offsets[r.start as usize]);
        let per_iter = 4 * (r.end - r.start + edges) + 2 + u64::from(core == 0);
        let len = per_iter * u64::from(cfg.pr_iterations);
        t.core_mut(core).reserve_exact(len as usize);
    }

    let mut scores = vec![1.0 / n as f64; n as usize];
    let base = (1.0 - DAMPING) / n as f64;

    for _iter in 0..cfg.pr_iterations {
        let mut scores_new = vec![0.0f64; n as usize];
        for core in 0..cores {
            let r = t.chunk(n, core);
            let out = t.core_mut(core);
            let load = |addr| Instr::Load { addr };
            for v in r {
                let (lo, hi) = (g.offsets[v as usize], g.offsets[v as usize + 1]);
                out.push(load(offs.addr(v)));
                out.push(load(offs.addr(v + 1)));
                out.extend((lo..hi).map(|idx| load(tgts.addr(u64::from(idx)))));
                let mut sum = 0.0;
                for &u in g.neighbors(v as u32) {
                    // Contribution needs the neighbor's score and degree.
                    out.push(load(scores_arr.addr(u64::from(u))));
                    out.push(load(offs.addr(u64::from(u))));
                    sum += scores[u as usize] / f64::from(g.degree(u).max(1));
                    out.push(Instr::Compute { count: 2 });
                }
                scores_new[v as usize] = base + DAMPING * sum;
                out.push(Instr::Store {
                    addr: scores_new_arr.addr(v),
                });
                out.push(Instr::Compute { count: 2 });
            }
        }
        scores = scores_new;
        t.barrier();
        // Core 0: swap buffers / convergence check.
        t.compute(0, 16);
        t.barrier();
    }
}

#[cfg(test)]
mod tests {
    use crate::gap::{GapConfig, GapKernel};
    use crate::graph::Graph;
    use dramstack_cpu::Instr;

    #[test]
    fn pr_stores_once_per_vertex_per_iteration() {
        let g = Graph::kronecker(8, 4, 5);
        let cfg = GapConfig {
            pr_iterations: 2,
            ..GapConfig::default()
        };
        let traces = GapKernel::Pr.trace(&g, 1, &cfg);
        let stores = traces[0]
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count() as u32;
        assert_eq!(stores, 2 * g.n);
    }

    #[test]
    fn pr_traces_are_sized_exactly() {
        let g = Graph::kronecker(9, 6, 2);
        for cores in [1, 3, 8] {
            for t in GapKernel::Pr.trace(&g, cores, &GapConfig::default()) {
                assert_eq!(t.capacity(), t.len(), "{cores} cores");
            }
        }
    }

    #[test]
    fn pr_load_volume_scales_with_edges_and_iterations() {
        let g = Graph::kronecker(8, 4, 5);
        let one = GapKernel::Pr.trace(
            &g,
            1,
            &GapConfig {
                pr_iterations: 1,
                ..Default::default()
            },
        );
        let two = GapKernel::Pr.trace(
            &g,
            1,
            &GapConfig {
                pr_iterations: 2,
                ..Default::default()
            },
        );
        let loads = |t: &Vec<Instr>| t.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert!(
            loads(&two[0]) > 19 * loads(&one[0]) / 10,
            "two iterations ≈ 2× loads"
        );
    }
}
