//! Connected components by label propagation with a pointer-jumping
//! compression pass (Shiloach–Vishkin flavour). The compression pass is a
//! chain of dependent loads — genuine pointer chasing.

use crate::gap::{GapConfig, KernelCtx};
use crate::trace::hash_bit;

pub(crate) fn run(ctx: &mut KernelCtx<'_>, cfg: &GapConfig) {
    let n = u64::from(ctx.g.n);
    let cores = ctx.t.cores();
    let comp_arr = ctx.alloc(n, 4);

    let mut comp: Vec<u32> = (0..ctx.g.n).collect();

    for round in 0..cfg.cc_rounds {
        let mut changed = false;
        // Hook: adopt the smallest label among neighbors.
        for core in 0..cores {
            let r = ctx.t.chunk(n, core);
            for v in r {
                ctx.t.load(core, comp_arr.addr(v));
                let neigh = ctx.scan_neighbors(core, v as u32);
                for &u in neigh {
                    ctx.t.load(core, comp_arr.addr(u64::from(u)));
                    if comp[u as usize] < comp[v as usize] {
                        comp[v as usize] = comp[u as usize];
                        ctx.t.store(core, comp_arr.addr(v));
                        changed = true;
                    }
                    ctx.t.compute(core, 1);
                }
                ctx.t.branch(
                    core,
                    hash_bit(v ^ (u64::from(round) << 40), cfg.mispredict_pct, 100),
                );
            }
        }
        ctx.t.barrier();

        // Compress: comp[v] = comp[comp[v]] — dependent loads.
        for core in 0..cores {
            let r = ctx.t.chunk(n, core);
            for v in r {
                ctx.t.load(core, comp_arr.addr(v));
                let c = comp[v as usize];
                ctx.t
                    .chain_load(core, comp_arr.addr(u64::from(c)), (v % 8) as u8);
                if comp[c as usize] != comp[v as usize] {
                    comp[v as usize] = comp[c as usize];
                    ctx.t.store(core, comp_arr.addr(v));
                }
                ctx.t.compute(core, 1);
            }
        }
        ctx.t.barrier();
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gap::{GapConfig, GapKernel};
    use crate::graph::Graph;
    use dramstack_cpu::Instr;

    #[test]
    fn cc_uses_dependent_loads_in_compression() {
        let g = Graph::kronecker(8, 4, 17);
        let traces = GapKernel::Cc.trace(&g, 2, &GapConfig::default());
        let chains = traces[0]
            .iter()
            .filter(|i| matches!(i, Instr::ChainLoad { .. }))
            .count();
        assert!(chains > 0, "pointer jumping must chain loads");
    }

    #[test]
    fn cc_converges_early_on_a_clique() {
        // A tiny complete graph converges in one round; the trace must not
        // contain cc_rounds × per-round barrier pairs.
        let edges: Vec<(u32, u32)> = (0..8u32)
            .flat_map(|u| (u + 1..8).map(move |v| (u, v)))
            .collect();
        let g = Graph::from_edges(8, &edges);
        let cfg = GapConfig {
            cc_rounds: 8,
            ..GapConfig::default()
        };
        let traces = GapKernel::Cc.trace(&g, 1, &cfg);
        let barriers = traces[0]
            .iter()
            .filter(|i| matches!(i, Instr::Barrier { .. }))
            .count();
        assert!(
            barriers <= 4,
            "clique converges in ≤ 2 rounds, got {barriers} barriers"
        );
    }
}
