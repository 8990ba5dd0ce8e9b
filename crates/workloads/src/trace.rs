//! Per-core instruction trace construction with barriers.
//!
//! The GAP kernels execute their algorithm once, emitting per-core
//! instruction traces through this builder. Parallel regions follow the
//! OpenMP static-schedule model: vertices are split into contiguous
//! chunks, one per core, with a global barrier at region end.

use dramstack_cpu::Instr;

/// Builds one instruction trace per core.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    cores: Vec<Vec<Instr>>,
    next_barrier: u32,
}

impl TraceBuilder {
    /// A builder for `n_cores` traces.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0);
        TraceBuilder {
            cores: vec![Vec::new(); n_cores],
            next_barrier: 0,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Emits a load on `core`.
    pub fn load(&mut self, core: usize, addr: u64) {
        self.cores[core].push(Instr::Load { addr });
    }

    /// Emits a dependent (chained) load on `core`.
    pub fn chain_load(&mut self, core: usize, addr: u64, chain: u8) {
        self.cores[core].push(Instr::ChainLoad { addr, chain });
    }

    /// Emits a store on `core`.
    pub fn store(&mut self, core: usize, addr: u64) {
        self.cores[core].push(Instr::Store { addr });
    }

    /// Emits `n` ALU operations on `core`.
    pub fn compute(&mut self, core: usize, n: u32) {
        if n > 0 {
            self.cores[core].push(Instr::Compute { count: n });
        }
    }

    /// Emits a branch on `core`; mispredicted with the given flag.
    pub fn branch(&mut self, core: usize, mispredict: bool) {
        self.cores[core].push(Instr::Branch { mispredict });
    }

    /// The trace of `core`, for a kernel that emits or reserves in bulk.
    pub fn core_mut(&mut self, core: usize) -> &mut Vec<Instr> {
        &mut self.cores[core]
    }

    /// Emits a global barrier across all cores.
    pub fn barrier(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for c in &mut self.cores {
            c.push(Instr::Barrier { id });
        }
    }

    /// Splits `0..total` into the contiguous chunk handled by `core` —
    /// OpenMP static scheduling.
    pub fn chunk(&self, total: u64, core: usize) -> std::ops::Range<u64> {
        chunk_of(total, self.cores(), core)
    }

    /// Finishes the build, returning the raw instruction vectors.
    pub fn into_traces(self) -> Vec<Vec<Instr>> {
        self.cores
    }
}

/// The contiguous chunk of `0..total` that `core` of `n_cores` handles.
pub fn chunk_of(total: u64, n_cores: usize, core: usize) -> std::ops::Range<u64> {
    let n = n_cores as u64;
    let c = core as u64;
    let per = total / n;
    let rem = total % n;
    let start = c * per + c.min(rem);
    let len = per + u64::from(c < rem);
    start..start + len
}

/// Deterministic pseudo-random bit from a value — used for branch
/// mispredict decisions so traces stay reproducible.
pub fn hash_bit(v: u64, p_num: u64, p_den: u64) -> bool {
    // SplitMix64 finalizer.
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % p_den) < p_num
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_cpu::{InstrStream, VecStream};

    #[test]
    fn chunks_partition_exactly() {
        for total in [0u64, 1, 7, 100, 101, 103] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut expected_start = 0;
                for c in 0..n {
                    let r = chunk_of(total, n, c);
                    assert_eq!(r.start, expected_start, "total={total} n={n} core={c}");
                    expected_start = r.end;
                    covered += r.end - r.start;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn barrier_ids_are_global_and_increasing() {
        let mut t = TraceBuilder::new(2);
        t.load(0, 64);
        t.barrier();
        t.store(1, 128);
        t.barrier();
        let traces = t.into_traces();
        assert_eq!(traces[0][1], Instr::Barrier { id: 0 });
        assert_eq!(traces[1][0], Instr::Barrier { id: 0 });
        assert_eq!(*traces[0].last().unwrap(), Instr::Barrier { id: 1 });
    }

    #[test]
    fn streams_replay_in_order() {
        let mut t = TraceBuilder::new(1);
        t.load(0, 64);
        t.compute(0, 3);
        t.compute(0, 0); // elided
        t.branch(0, false);
        let mut s = VecStream::new(t.into_traces().remove(0));
        assert_eq!(s.next_instr(), Some(Instr::Load { addr: 64 }));
        assert_eq!(s.next_instr(), Some(Instr::Compute { count: 3 }));
        assert_eq!(s.next_instr(), Some(Instr::Branch { mispredict: false }));
        assert_eq!(s.next_instr(), None);
    }

    #[test]
    fn hash_bit_is_deterministic_and_roughly_proportional() {
        let hits = (0..10_000).filter(|&v| hash_bit(v, 1, 10)).count();
        assert!((800..1200).contains(&hits), "got {hits} / 10000 at p=0.1");
        assert_eq!(hash_bit(42, 1, 10), hash_bit(42, 1, 10));
    }
}
