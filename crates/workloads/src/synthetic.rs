//! The paper's synthetic validation workloads: sequential and random
//! memory streams with a configurable store fraction (Section VI).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dramstack_cpu::{Instr, InstrStream};

/// Access-pattern shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternKind {
    /// Consecutive 8-byte words walking a private region — perfect spatial
    /// locality, prefetcher-friendly, ~99 % page hits.
    Sequential,
    /// Uniformly random cache lines in a private region — no locality,
    /// ~0 % page hits, MLP bounded by dependence chains.
    Random,
}

/// A synthetic per-core memory stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticPattern {
    /// Sequential or random.
    pub kind: PatternKind,
    /// Fraction of memory operations that are stores, in `[0, 1]`.
    pub store_fraction: f64,
    /// Bytes of private footprint per core.
    pub footprint_bytes: u64,
    /// ALU operations between consecutive memory operations.
    pub compute_per_op: u32,
    /// Independent dependence chains for the random pattern (its
    /// memory-level parallelism).
    pub chains: u8,
    /// RNG seed (streams are deterministic given the seed and core id).
    pub seed: u64,
}

impl SyntheticPattern {
    /// The paper's sequential pattern with the given store fraction.
    /// Ten ALU ops per memory op make a single core request-limited (the
    /// paper's 1-core stream reaches a third of peak), while 2+ cores
    /// approach the channel limit.
    pub fn sequential(store_fraction: f64) -> Self {
        SyntheticPattern {
            kind: PatternKind::Sequential,
            store_fraction,
            footprint_bytes: 256 << 20,
            compute_per_op: 10,
            chains: 2,
            seed: 0xD5A7,
        }
    }

    /// The paper's random pattern with the given store fraction. Its
    /// request rate is bounded by the dependence chains, not the compute
    /// mix.
    pub fn random(store_fraction: f64) -> Self {
        SyntheticPattern {
            kind: PatternKind::Random,
            compute_per_op: 1,
            ..Self::sequential(store_fraction)
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a store fraction outside `[0, 1]` or a zero footprint.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.store_fraction),
            "store fraction out of range"
        );
        assert!(self.footprint_bytes >= 4096, "footprint too small");
        assert!(self.chains > 0, "need at least one chain");
    }

    /// Base physical address of `core`'s private region.
    fn region_base(&self, core: usize) -> u64 {
        0x1000_0000 + core as u64 * self.footprint_bytes.next_power_of_two()
    }

    /// Starting offset of `core`'s sequential walk within its region.
    /// Cores start 17 DRAM rows apart so concurrent streams land on
    /// different banks *and* rows — lockstep streams on the same bank
    /// would serialize unrealistically.
    fn start_offset(&self, core: usize) -> u64 {
        (core as u64 * 17 * 8192) % self.footprint_bytes
    }

    /// Lines (with dirtiness) to functionally pre-fill into the LLC so a
    /// steady-state measurement starts with a realistically warm cache:
    /// the lines the stream would have touched just *before* its starting
    /// position, oldest first (so LRU evicts them in stream order).
    ///
    /// A line is dirty when any of its words was stored: probability
    /// `1 − (1 − f)^8` for the sequential pattern (8 words per line) and
    /// `f` for the random one (one touch per line).
    pub fn warm_lines(&self, core: usize, count: u64) -> Vec<(u64, bool)> {
        self.validate();
        let base = self.region_base(core);
        let lines = self.footprint_bytes / 64;
        let count = count.min(lines);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xBEEF ^ (core as u64) << 17);
        match self.kind {
            PatternKind::Sequential => {
                let touches_per_line = 8u32;
                let p_dirty = 1.0 - (1.0 - self.store_fraction).powi(touches_per_line as i32);
                let start_line = self.start_offset(core) / 64;
                (0..count)
                    .map(|i| {
                        // k = count − i steps behind the start, wrapping.
                        let k = count - i;
                        let line = base + ((start_line + lines - k) % lines) * 64;
                        (line, rng.gen::<f64>() < p_dirty)
                    })
                    .collect()
            }
            PatternKind::Random => (0..count)
                .map(|_| {
                    let line = base + rng.gen_range(0..lines) * 64;
                    (line, rng.gen::<f64>() < self.store_fraction)
                })
                .collect(),
        }
    }

    /// Builds the endless instruction stream for `core` (of `n_cores`).
    /// Each core walks a disjoint region, as in the paper's setup where
    /// "each core accesses different parts of the sequential pattern".
    pub fn stream_for_core(&self, core: usize, _n_cores: usize) -> SyntheticStream {
        self.validate();
        SyntheticStream {
            cfg: *self,
            base: self.region_base(core),
            rng: SmallRng::seed_from_u64(self.seed ^ (core as u64).wrapping_mul(0x9E37)),
            pos: self.start_offset(core),
            op_idx: 0,
            lines: self.footprint_bytes / 64,
            emit_compute: false,
        }
    }
}

/// The endless per-core instruction stream of a [`SyntheticPattern`].
///
/// Fully checkpointable: [`InstrStream::checkpoint`] captures the RNG state
/// and walk position, and restoring those words into a freshly built stream
/// of the same pattern/core continues the exact instruction sequence.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    cfg: SyntheticPattern,
    base: u64,
    rng: SmallRng,
    pos: u64,
    op_idx: u64,
    lines: u64,
    emit_compute: bool,
}

impl InstrStream for SyntheticStream {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.emit_compute && self.cfg.compute_per_op > 0 {
            self.emit_compute = false;
            return Some(Instr::Compute {
                count: self.cfg.compute_per_op,
            });
        }
        self.emit_compute = true;
        let is_store = self.rng.gen::<f64>() < self.cfg.store_fraction;
        self.op_idx += 1;
        let instr = match self.cfg.kind {
            PatternKind::Sequential => {
                let addr = self.base + self.pos;
                self.pos = (self.pos + 8) % self.cfg.footprint_bytes;
                if is_store {
                    Instr::Store { addr }
                } else {
                    Instr::Load { addr }
                }
            }
            PatternKind::Random => {
                let line = self.rng.gen_range(0..self.lines);
                let addr = self.base + line * 64 + self.rng.gen_range(0..8) * 8;
                if is_store {
                    Instr::Store { addr }
                } else {
                    Instr::ChainLoad {
                        addr,
                        chain: (self.op_idx % self.cfg.chains as u64) as u8,
                    }
                }
            }
        };
        Some(instr)
    }

    fn checkpoint(&self) -> Option<Vec<u64>> {
        let s = self.rng.state();
        Some(vec![
            s[0],
            s[1],
            s[2],
            s[3],
            self.pos,
            self.op_idx,
            u64::from(self.emit_compute),
        ])
    }

    fn restore_checkpoint(&mut self, state: &[u64]) -> bool {
        match state {
            [s0, s1, s2, s3, pos, op_idx, emit]
                if *emit <= 1 && *pos < self.cfg.footprint_bytes =>
            {
                self.rng = SmallRng::from_state([*s0, *s1, *s2, *s3]);
                self.pos = *pos;
                self.op_idx = *op_idx;
                self.emit_compute = *emit == 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(p: &SyntheticPattern, core: usize, n: usize) -> Vec<Instr> {
        let mut s = p.stream_for_core(core, 8);
        (0..n).map(|_| s.next_instr().expect("endless")).collect()
    }

    fn mem_addrs(instrs: &[Instr]) -> Vec<u64> {
        instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Load { addr } | Instr::Store { addr } | Instr::ChainLoad { addr, .. } => {
                    Some(*addr)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequential_walks_consecutive_words() {
        let p = SyntheticPattern::sequential(0.0);
        let addrs = mem_addrs(&collect(&p, 0, 64));
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn random_addresses_are_scattered_lines() {
        let p = SyntheticPattern::random(0.0);
        let addrs = mem_addrs(&collect(&p, 0, 200));
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        lines.sort();
        lines.dedup();
        assert!(
            lines.len() > 90,
            "random lines should rarely repeat: {}",
            lines.len()
        );
    }

    #[test]
    fn store_fraction_is_respected() {
        let p = SyntheticPattern::sequential(0.5);
        let instrs = collect(&p, 0, 4000);
        let (mut loads, mut stores) = (0u32, 0u32);
        for i in &instrs {
            match i {
                Instr::Load { .. } | Instr::ChainLoad { .. } => loads += 1,
                Instr::Store { .. } => stores += 1,
                _ => {}
            }
        }
        let frac = f64::from(stores) / f64::from(loads + stores);
        assert!((frac - 0.5).abs() < 0.05, "store fraction {frac}");
    }

    #[test]
    fn cores_use_disjoint_regions() {
        let p = SyntheticPattern::sequential(0.0);
        let a0 = mem_addrs(&collect(&p, 0, 50));
        let a1 = mem_addrs(&collect(&p, 1, 50));
        let max0 = a0.iter().max().unwrap();
        let min1 = a1.iter().min().unwrap();
        assert!(max0 < min1, "core regions must not overlap");
    }

    #[test]
    fn random_loads_are_chained_for_bounded_mlp() {
        let p = SyntheticPattern::random(0.0);
        let instrs = collect(&p, 0, 100);
        let chains: std::collections::HashSet<u8> = instrs
            .iter()
            .filter_map(|i| match i {
                Instr::ChainLoad { chain, .. } => Some(*chain),
                _ => None,
            })
            .collect();
        assert_eq!(chains.len(), usize::from(p.chains));
    }

    #[test]
    fn streams_are_deterministic() {
        let p = SyntheticPattern::random(0.3);
        assert_eq!(collect(&p, 2, 100), collect(&p, 2, 100));
    }

    #[test]
    fn warm_lines_sit_just_behind_the_start() {
        let p = SyntheticPattern::sequential(0.0);
        let warm = p.warm_lines(0, 100);
        assert_eq!(warm.len(), 100);
        let base = p.region_base(0);
        let end = base + p.footprint_bytes;
        // Oldest first, newest (closest to the region end) last.
        assert_eq!(warm.last().unwrap().0, end - 64);
        assert_eq!(warm[0].0, end - 100 * 64);
        assert!(
            warm.iter().all(|(_, d)| !d),
            "read-only stream has no dirty lines"
        );
    }

    #[test]
    fn warm_lines_dirtiness_follows_store_fraction() {
        let p = SyntheticPattern::sequential(0.5);
        let warm = p.warm_lines(0, 10_000);
        let dirty = warm.iter().filter(|(_, d)| *d).count();
        // 1 − 0.5^8 ≈ 0.996.
        assert!(
            dirty > 9_800,
            "sequential w50: nearly every line dirty, got {dirty}"
        );
        let p = SyntheticPattern::random(0.3);
        let warm = p.warm_lines(0, 10_000);
        let dirty = warm.iter().filter(|(_, d)| *d).count() as f64 / 10_000.0;
        assert!((dirty - 0.3).abs() < 0.03, "random w30 dirtiness {dirty}");
    }

    #[test]
    fn checkpoint_resumes_exact_sequence() {
        for p in [
            SyntheticPattern::sequential(0.3),
            SyntheticPattern::random(0.2),
        ] {
            let mut s = p.stream_for_core(1, 4);
            // Odd prefix so the compute/memory interleave is mid-pair.
            let prefix: Vec<_> = (0..77).map(|_| s.next_instr().unwrap()).collect();
            let words = s.checkpoint().expect("synthetic streams checkpoint");
            let tail: Vec<_> = (0..200).map(|_| s.next_instr().unwrap()).collect();

            let mut r = p.stream_for_core(1, 4);
            assert!(
                r.restore_checkpoint(&words),
                "restore must accept {words:?}"
            );
            let resumed: Vec<_> = (0..200).map(|_| r.next_instr().unwrap()).collect();
            assert_eq!(resumed, tail, "resumed stream diverged after {prefix:?}");
        }
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let p = SyntheticPattern::sequential(0.0);
        let mut s = p.stream_for_core(0, 1);
        assert!(!s.restore_checkpoint(&[1, 2, 3]));
        assert!(!s.restore_checkpoint(&[0, 0, 0, 0, u64::MAX, 0, 0]));
        assert!(!s.restore_checkpoint(&[0, 0, 0, 0, 0, 0, 2]));
    }

    #[test]
    #[should_panic(expected = "store fraction")]
    fn invalid_store_fraction_panics() {
        let mut p = SyntheticPattern::sequential(0.0);
        p.store_fraction = 1.5;
        let _ = p.stream_for_core(0, 1);
    }
}
