//! Direction-optimizing breadth-first search (Beamer's algorithm, as in
//! GAP): top-down steps while the frontier is small, bottom-up steps once
//! it covers a significant fraction of the graph. The switch produces the
//! forward/backward phase behaviour visible in the paper's Fig. 7.

use crate::gap::{GapConfig, KernelCtx};
use crate::trace::hash_bit;

/// Frontier-size fraction above which BFS switches to bottom-up.
const BOTTOM_UP_DIVISOR: u64 = 16;

pub(crate) fn run(ctx: &mut KernelCtx<'_>, cfg: &GapConfig) {
    let n = u64::from(ctx.g.n);
    let cores = ctx.t.cores();
    let parent_arr = ctx.alloc(n, 4);
    let front_arr = ctx.alloc(n, 4);
    let next_arr = ctx.alloc(n, 4);
    let bitmap_arr = ctx.alloc(n.div_ceil(64), 8);

    let src = ctx.g.max_degree_vertex();
    let mut parent = vec![u32::MAX; n as usize];
    parent[src as usize] = src;
    let mut frontier = vec![src];
    let mut iter: u64 = 0;

    while !frontier.is_empty() {
        let bottom_up = frontier.len() as u64 > n / BOTTOM_UP_DIVISOR;
        let mut next: Vec<u32> = Vec::new();

        if !bottom_up {
            // Top-down: cores split the frontier queue.
            for core in 0..cores {
                let r = ctx.t.chunk(frontier.len() as u64, core);
                for i in r {
                    let v = frontier[i as usize];
                    ctx.t.load(core, front_arr.addr(i));
                    let neigh = ctx.scan_neighbors(core, v);
                    for &u in neigh {
                        ctx.t.load(core, parent_arr.addr(u64::from(u)));
                        let claim = parent[u as usize] == u32::MAX;
                        ctx.t.branch(
                            core,
                            hash_bit(u64::from(u) ^ (iter << 32), cfg.mispredict_pct, 100),
                        );
                        if claim {
                            parent[u as usize] = v;
                            ctx.t.store(core, parent_arr.addr(u64::from(u)));
                            ctx.t.store(core, next_arr.addr(next.len() as u64));
                            next.push(u);
                        }
                    }
                    ctx.t.compute(core, 2);
                }
            }
        } else {
            // Bottom-up: cores split all vertices; unvisited vertices look
            // for any parent in the current frontier (early exit).
            let in_front: Vec<bool> = {
                let mut b = vec![false; n as usize];
                for &v in &frontier {
                    b[v as usize] = true;
                }
                b
            };
            for core in 0..cores {
                let r = ctx.t.chunk(n, core);
                for v in r {
                    ctx.t.load(core, parent_arr.addr(v));
                    if parent[v as usize] != u32::MAX {
                        continue;
                    }
                    let (lo, hi) = ctx.load_offsets(core, v as u32);
                    let mut claimed = false;
                    for idx in lo..hi {
                        let u = ctx.g.targets[idx as usize];
                        ctx.t.load(core, ctx.tgts.addr(u64::from(idx)));
                        ctx.t.load(core, bitmap_arr.addr(u64::from(u) / 64));
                        if in_front[u as usize] {
                            parent[v as usize] = u;
                            ctx.t.store(core, parent_arr.addr(v));
                            ctx.t.store(core, bitmap_arr.addr(v / 64));
                            next.push(v as u32);
                            claimed = true;
                            break; // early exit: found a parent
                        }
                    }
                    ctx.t
                        .branch(core, hash_bit(v ^ (iter << 24), cfg.mispredict_pct, 100));
                    if claimed {
                        ctx.t.compute(core, 1);
                    }
                }
            }
        }

        ctx.t.barrier();
        // Core 0 housekeeping: swap frontier buffers, update counters.
        ctx.t.compute(0, 16);
        ctx.t.barrier();
        frontier = next;
        iter += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::gap::{GapConfig, GapKernel};
    use crate::graph::Graph;

    #[test]
    fn bfs_has_multiple_synchronized_iterations() {
        let g = Graph::kronecker(9, 6, 3);
        let traces = GapKernel::Bfs.trace(&g, 2, &GapConfig::default());
        let barriers = traces[0]
            .iter()
            .filter(|i| matches!(i, dramstack_cpu::Instr::Barrier { .. }))
            .count();
        // ≥ 2 barriers per BFS level, several levels.
        assert!(barriers >= 6, "got {barriers} barriers");
    }

    #[test]
    fn bfs_visits_the_whole_component() {
        // Every vertex reachable from the max-degree source gets exactly
        // one parent store (top-down) or one parent store (bottom-up):
        // stores to parent_arr ≥ component size − 1. We check indirectly:
        // the trace mentions a store for most vertices of a well-connected
        // graph.
        let g = Graph::uniform(512, 8, 9);
        let traces = GapKernel::Bfs.trace(&g, 1, &GapConfig::default());
        let stores = traces[0]
            .iter()
            .filter(|i| matches!(i, dramstack_cpu::Instr::Store { .. }))
            .count();
        assert!(
            stores > 400,
            "most of the graph should be claimed: {stores}"
        );
    }
}
