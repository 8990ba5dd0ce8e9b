//! Betweenness centrality (Brandes): a forward BFS accumulating shortest-
//! path counts, then a backward sweep over the BFS levels accumulating
//! dependencies. Two phases with very different traffic, as in GAP.

use crate::gap::{GapConfig, KernelCtx};
use crate::trace::hash_bit;

pub(crate) fn run(ctx: &mut KernelCtx<'_>, cfg: &GapConfig) {
    let n = u64::from(ctx.g.n);
    let cores = ctx.t.cores();
    let depth_arr = ctx.alloc(n, 4);
    let sigma_arr = ctx.alloc(n, 8);
    let delta_arr = ctx.alloc(n, 8);
    let bc_arr = ctx.alloc(n, 8);
    let queue_arr = ctx.alloc(n, 4);

    for s in 0..cfg.bc_sources {
        // A different well-connected source per round.
        let src = if s == 0 {
            ctx.g.max_degree_vertex()
        } else {
            (u64::from(s).wrapping_mul(0x9E37_79B9) % n) as u32
        };

        let mut depth = vec![u32::MAX; n as usize];
        let mut sigma = vec![0u64; n as usize];
        depth[src as usize] = 0;
        sigma[src as usize] = 1;
        let mut levels: Vec<Vec<u32>> = vec![vec![src]];

        // Forward: BFS levels with path counting.
        while let Some(frontier) = levels.last() {
            if frontier.is_empty() {
                levels.pop();
                break;
            }
            let d = (levels.len() - 1) as u32;
            let frontier = frontier.clone();
            let mut next = Vec::new();
            for core in 0..cores {
                let r = ctx.t.chunk(frontier.len() as u64, core);
                for i in r {
                    let v = frontier[i as usize];
                    ctx.t.load(core, queue_arr.addr(i));
                    let neigh = ctx.scan_neighbors(core, v);
                    for &u in neigh {
                        ctx.t.load(core, depth_arr.addr(u64::from(u)));
                        if depth[u as usize] == u32::MAX {
                            depth[u as usize] = d + 1;
                            ctx.t.store(core, depth_arr.addr(u64::from(u)));
                            next.push(u);
                        }
                        if depth[u as usize] == d + 1 {
                            sigma[u as usize] += sigma[v as usize];
                            ctx.t.load(core, sigma_arr.addr(u64::from(u)));
                            ctx.t.store(core, sigma_arr.addr(u64::from(u)));
                        }
                        ctx.t.branch(
                            core,
                            hash_bit(u64::from(u) ^ (u64::from(d) << 20), cfg.mispredict_pct, 100),
                        );
                    }
                }
            }
            ctx.t.barrier();
            levels.push(next);
        }

        // Backward: dependency accumulation per level, deepest first.
        let mut delta = vec![0.0f64; n as usize];
        for d in (0..levels.len().saturating_sub(1)).rev() {
            let level = levels[d].clone();
            for core in 0..cores {
                let r = ctx.t.chunk(level.len() as u64, core);
                for i in r {
                    let v = level[i as usize];
                    ctx.t.load(core, queue_arr.addr(i));
                    let neigh = ctx.scan_neighbors(core, v);
                    let mut acc = 0.0;
                    for &u in neigh {
                        ctx.t.load(core, depth_arr.addr(u64::from(u)));
                        if depth[u as usize] == d as u32 + 1 {
                            ctx.t.load(core, sigma_arr.addr(u64::from(u)));
                            ctx.t.load(core, delta_arr.addr(u64::from(u)));
                            acc += sigma[v as usize] as f64 / sigma[u as usize].max(1) as f64
                                * (1.0 + delta[u as usize]);
                            ctx.t.compute(core, 3);
                        }
                    }
                    delta[v as usize] += acc;
                    ctx.t.store(core, delta_arr.addr(u64::from(v)));
                    ctx.t.load(core, bc_arr.addr(u64::from(v)));
                    ctx.t.store(core, bc_arr.addr(u64::from(v)));
                }
            }
            ctx.t.barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gap::{GapConfig, GapKernel};
    use crate::graph::Graph;
    use dramstack_cpu::Instr;

    #[test]
    fn bc_has_forward_and_backward_phases() {
        let g = Graph::uniform(256, 8, 21);
        let traces = GapKernel::Bc.trace(&g, 2, &GapConfig::default());
        let barriers = traces[0]
            .iter()
            .filter(|i| matches!(i, Instr::Barrier { .. }))
            .count();
        // Forward levels + backward levels.
        assert!(barriers >= 4, "got {barriers}");
    }

    #[test]
    fn more_sources_mean_more_work() {
        let g = Graph::uniform(128, 6, 2);
        let one = GapKernel::Bc.trace(
            &g,
            1,
            &GapConfig {
                bc_sources: 1,
                ..Default::default()
            },
        );
        let two = GapKernel::Bc.trace(
            &g,
            1,
            &GapConfig {
                bc_sources: 2,
                ..Default::default()
            },
        );
        assert!(two[0].len() > 3 * one[0].len() / 2);
    }
}
