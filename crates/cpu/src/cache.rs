//! A set-associative, write-back, write-allocate cache with LRU
//! replacement.
//!
//! Addresses are handled at line granularity (the caller strips the
//! offset). The cache returns evicted dirty lines so the hierarchy can
//! cascade writebacks.

use serde::{Deserialize, Serialize, Sink, Value};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes) / u64::from(self.ways)
    }

    /// 32 KB, 8-way L1 data cache, 4-cycle hit (the paper's setup).
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        }
    }

    /// 1 MB, 16-way private L2, 14-cycle hit.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            ways: 16,
            line_bytes: 64,
            latency: 14,
        }
    }

    /// 11 MB, 11-way shared LLC, 44-cycle hit (8 NUCA slices averaged).
    pub fn llc() -> Self {
        CacheConfig {
            size_bytes: 11 << 20,
            ways: 11,
            line_bytes: 64,
            latency: 44,
        }
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; `writeback` carries the
    /// evicted dirty line's address, if any.
    Miss {
        /// Dirty victim line address that must be written to the next
        /// level.
        writeback: Option<u64>,
    },
}

/// Per-cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated).
    pub misses: u64,
    /// Dirty evictions produced.
    pub writebacks: u64,
}

/// One cache level.
///
/// # Example
///
/// ```
/// use dramstack_cpu::{Cache, CacheConfig, CacheOutcome};
///
/// let mut l1 = Cache::new(CacheConfig::l1d());
/// assert_eq!(l1.access(0x1000, false), CacheOutcome::Miss { writeback: None });
/// assert_eq!(l1.access(0x1000, true), CacheOutcome::Hit); // now dirty
/// assert!(l1.probe(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tags and LRU stamps, set-major: way `w` of set `s` at `s * ways + w`.
    tags: Vec<u64>,
    lru: Vec<u64>,
    /// Valid and dirty bits, one word per set, way `w` in bit `w`.
    valid: Vec<u64>,
    dirty: Vec<u64>,
    ways: usize,
    set_shift: u32,
    set_mask: u64,
    clock: u64,
    stats: CacheStats,
    // Checkpoint dirty tracking: a set is dirty iff `set_gen[set] == gen`.
    // Bumping `gen` marks every set clean in O(1). Excluded from
    // `PartialEq` and serialization so tracker state can never perturb
    // determinism or the on-disk format.
    gen: u64,
    set_gen: Vec<u64>,
}

// Tracker fields (`gen`, `set_gen`) are deliberately ignored: two caches
// holding the same lines are equal regardless of checkpoint bookkeeping.
impl PartialEq for Cache {
    fn eq(&self, other: &Self) -> bool {
        self.cfg == other.cfg
            && self.tags == other.tags
            && self.lru == other.lru
            && self.valid == other.valid
            && self.dirty == other.dirty
            && self.set_shift == other.set_shift
            && self.set_mask == other.set_mask
            && self.clock == other.clock
            && self.stats == other.stats
    }
}

/// Columnar serialization: four flat columns — `tags`/`lru` as integer
/// sequences and `valid`/`dirty` as u64 bitset words over a flattened
/// index.
///
/// The columns are *way-major* (`column[w * sets + s]`), not set-major
/// like the arrays in memory: under streaming traffic, neighbouring sets
/// hold the same tag in the same way (the tag excludes the set-index
/// bits), so way-major order produces long constant runs that the binary
/// codec's run-length encoding collapses to a few bytes. Set-major order
/// interleaves the ways and destroys those runs.
impl Serialize for Cache {
    fn serialize(&self, out: &mut dyn Sink) {
        let sets = self.valid.len();
        let n = self.tags.len();
        // Way-major column of one per-slot array.
        let column = |out: &mut dyn Sink, slots: &[u64]| {
            out.seq(n);
            for w in 0..self.ways {
                for s in 0..sets {
                    slots[s * self.ways + w].serialize(out);
                }
            }
            out.end();
        };
        // Way-major bitset words of one per-set bit mask array.
        let bits = |out: &mut dyn Sink, masks: &[u64]| {
            out.seq(n.div_ceil(64));
            for first in (0..n).step_by(64) {
                let mut word = 0u64;
                for j in first..n.min(first + 64) {
                    word |= (masks[j % sets] >> (j / sets) & 1) << (j % 64);
                }
                word.serialize(out);
            }
            out.end();
        };
        out.map(9);
        out.key("cfg");
        self.cfg.serialize(out);
        out.key("set_shift");
        self.set_shift.serialize(out);
        out.key("set_mask");
        self.set_mask.serialize(out);
        out.key("clock");
        self.clock.serialize(out);
        out.key("stats");
        self.stats.serialize(out);
        out.key("tags");
        column(out, &self.tags);
        out.key("lru");
        column(out, &self.lru);
        out.key("valid");
        bits(out, &self.valid);
        out.key("dirty");
        bits(out, &self.dirty);
        out.end();
    }
}

impl Deserialize for Cache {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let cfg = CacheConfig::from_value(serde::get_field(v, "cfg")?)?;
        let set_shift = u32::from_value(serde::get_field(v, "set_shift")?)?;
        let set_mask = u64::from_value(serde::get_field(v, "set_mask")?)?;
        let clock = u64::from_value(serde::get_field(v, "clock")?)?;
        let stats = CacheStats::from_value(serde::get_field(v, "stats")?)?;
        let col_tags = Vec::<u64>::from_value(serde::get_field(v, "tags")?)?;
        let col_lru = Vec::<u64>::from_value(serde::get_field(v, "lru")?)?;
        let col_valid = Vec::<u64>::from_value(serde::get_field(v, "valid")?)?;
        let col_dirty = Vec::<u64>::from_value(serde::get_field(v, "dirty")?)?;
        let n = col_tags.len();
        if col_lru.len() != n {
            return Err(serde::Error::custom(format!(
                "cache columns disagree: {n} tags vs {} lru stamps",
                col_lru.len()
            )));
        }
        let words = n.div_ceil(64);
        if col_valid.len() != words || col_dirty.len() != words {
            return Err(serde::Error::custom(format!(
                "cache bitsets need {words} words for {n} ways, got {}/{}",
                col_valid.len(),
                col_dirty.len()
            )));
        }
        let ways = cfg.ways as usize;
        if ways == 0 || ways > 64 || n % ways != 0 {
            return Err(serde::Error::custom(format!(
                "{n} ways do not tile {ways}-way sets (1 to 64 ways supported)"
            )));
        }
        // Undo the way-major column order: column index `w * sets + s`
        // lands back at in-memory slot `s * ways + w`.
        let sets = n / ways;
        let mut tags = vec![0; n];
        let mut lru = vec![0; n];
        let mut valid = vec![0u64; sets];
        let mut dirty = vec![0u64; sets];
        for w in 0..ways {
            for s in 0..sets {
                let j = w * sets + s;
                tags[s * ways + w] = col_tags[j];
                lru[s * ways + w] = col_lru[j];
                valid[s] |= (col_valid[j / 64] >> (j % 64) & 1) << w;
                dirty[s] |= (col_dirty[j / 64] >> (j % 64) & 1) << w;
            }
        }
        Ok(Cache {
            cfg,
            tags,
            lru,
            valid,
            dirty,
            ways,
            set_shift,
            set_mask,
            clock,
            stats,
            gen: 1,
            set_gen: vec![0; sets],
        })
    }
}

/// Dirty-state patch for one cache: the full contents of every set
/// touched since the last [`mark_clean`](Cache::mark_clean), plus the
/// (always-captured) clock and counters. Checkpoints write it straight
/// from the live cache through [`Cache::dirty_sets`]; this owned form is
/// what a decoded delta holds.
///
/// Serialized columnar like [`Cache`] itself — one flat way-major
/// column per field across all patched sets, not one map per patch —
/// so a streaming-traffic delta (thousands of contiguous dirty sets
/// repeating the same tag) run-length encodes instead of paying per-set
/// map overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheDelta {
    /// LRU clock at capture time.
    pub clock: u64,
    /// Hit/miss counters at capture time.
    pub stats: CacheStats,
    /// Dirtied sets, ascending by set index.
    pub sets: Vec<SetPatch>,
}

/// One patched set as the cache-delta layout reads it, borrowed from a
/// [`SetPatch`] or from the live cache's arrays.
#[derive(Clone, Copy)]
struct PatchRef<'a> {
    set: u64,
    tags: &'a [u64],
    lru: &'a [u64],
    valid: u64,
    dirty: u64,
}

/// Writes the cache-delta layout, the one body behind both
/// [`CacheDelta`] and [`DirtySets`]: the clock, the counters, the ways
/// per patched set (0 when no set is patched), then one column per
/// field. `patches` is walked once per column.
fn serialize_patches<'a>(
    out: &mut dyn Sink,
    clock: u64,
    stats: &CacheStats,
    patches: impl Iterator<Item = PatchRef<'a>> + Clone,
) {
    let per_set = patches.clone().next().map_or(0, |p| p.tags.len());
    let n = patches.clone().count();
    // One entry per patch.
    let per_patch = |out: &mut dyn Sink, field: fn(&PatchRef<'a>) -> u64| {
        out.seq(n);
        for p in patches.clone() {
            field(&p).serialize(out);
        }
        out.end();
    };
    // Way-major column of one per-way array.
    let column = |out: &mut dyn Sink, field: fn(&PatchRef<'a>) -> &'a [u64]| {
        out.seq(n * per_set);
        for w in 0..per_set {
            for p in patches.clone() {
                debug_assert_eq!(field(&p).len(), per_set, "ragged patch in a cache delta");
                field(&p)[w].serialize(out);
            }
        }
        out.end();
    };
    out.map(8);
    out.key("clock");
    clock.serialize(out);
    out.key("stats");
    stats.serialize(out);
    out.key("ways");
    (per_set as u64).serialize(out);
    out.key("sets");
    per_patch(out, |p| p.set);
    out.key("tags");
    column(out, |p| p.tags);
    out.key("lru");
    column(out, |p| p.lru);
    out.key("valid");
    per_patch(out, |p| p.valid);
    out.key("dirty");
    per_patch(out, |p| p.dirty);
    out.end();
}

impl Serialize for CacheDelta {
    fn serialize(&self, out: &mut dyn Sink) {
        let patches = self.sets.iter().map(|p| PatchRef {
            set: p.set,
            tags: &p.tags,
            lru: &p.lru,
            valid: p.valid,
            dirty: p.dirty,
        });
        serialize_patches(out, self.clock, &self.stats, patches);
    }
}

/// The sets of a live [`Cache`] touched since its last
/// [`mark_clean`](Cache::mark_clean), serialized as the [`CacheDelta`]
/// they amount to, straight from the cache's arrays.
#[derive(Debug, Clone, Copy)]
pub struct DirtySets<'a>(&'a Cache);

impl Serialize for DirtySets<'_> {
    fn serialize(&self, out: &mut dyn Sink) {
        let c = self.0;
        let ways = c.ways;
        let patches = (0..c.set_gen.len())
            .filter(|&set| c.set_gen[set] == c.gen)
            .map(|set| PatchRef {
                set: set as u64,
                tags: &c.tags[set * ways..][..ways],
                lru: &c.lru[set * ways..][..ways],
                valid: c.valid[set],
                dirty: c.dirty[set],
            });
        serialize_patches(out, c.clock, &c.stats, patches);
    }
}

impl Deserialize for CacheDelta {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let clock = u64::from_value(serde::get_field(v, "clock")?)?;
        let stats = CacheStats::from_value(serde::get_field(v, "stats")?)?;
        let per_set = u64::from_value(serde::get_field(v, "ways")?)? as usize;
        let sets = Vec::<u64>::from_value(serde::get_field(v, "sets")?)?;
        let tags = Vec::<u64>::from_value(serde::get_field(v, "tags")?)?;
        let lru = Vec::<u64>::from_value(serde::get_field(v, "lru")?)?;
        let valid = Vec::<u64>::from_value(serde::get_field(v, "valid")?)?;
        let dirty = Vec::<u64>::from_value(serde::get_field(v, "dirty")?)?;
        let n = sets.len();
        if valid.len() != n || dirty.len() != n {
            return Err(serde::Error::custom(format!(
                "delta columns disagree: {n} sets vs {}/{} bit masks",
                valid.len(),
                dirty.len()
            )));
        }
        if tags.len() != n * per_set || lru.len() != n * per_set {
            return Err(serde::Error::custom(format!(
                "delta columns disagree: {n} sets x {per_set} ways vs {}/{} tags/lru",
                tags.len(),
                lru.len()
            )));
        }
        let patches = sets
            .iter()
            .enumerate()
            .map(|(p, &set)| SetPatch {
                set,
                tags: (0..per_set).map(|w| tags[w * n + p]).collect(),
                lru: (0..per_set).map(|w| lru[w * n + p]).collect(),
                valid: valid[p],
                dirty: dirty[p],
            })
            .collect();
        Ok(CacheDelta {
            clock,
            stats,
            sets: patches,
        })
    }
}

impl CacheDelta {
    /// True when no set was dirtied (clock/stats may still have moved).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Replacement contents for one cache set inside a decoded
/// [`CacheDelta`] (it is written only as part of the delta's columns).
#[derive(Debug, Clone, PartialEq)]
pub struct SetPatch {
    /// Set index.
    pub set: u64,
    /// One tag per way.
    pub tags: Vec<u64>,
    /// One LRU stamp per way.
    pub lru: Vec<u64>,
    /// Valid bits, way `i` in bit `i`.
    pub valid: u64,
    /// Dirty bits, way `i` in bit `i`.
    pub dirty: u64,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count or has
    /// zero or more than 64 ways (a set's valid/dirty bits are one word).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            (1..=64).contains(&cfg.ways),
            "cache needs 1 to 64 ways: {}",
            cfg.ways
        );
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a power of two: {sets}"
        );
        let ways = cfg.ways as usize;
        let sets = sets as usize;
        Cache {
            cfg,
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            ways,
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            clock: 0,
            stats: CacheStats::default(),
            gen: 1,
            set_gen: vec![0; sets],
        }
    }

    /// Stamps `set` as dirtied in the current checkpoint generation.
    fn touch(&mut self, set: usize) {
        self.set_gen[set] = self.gen;
    }

    /// Marks every set clean (O(1)); [`dirty_sets`](Self::dirty_sets)
    /// then names only sets mutated after this call.
    pub fn mark_clean(&mut self) {
        self.gen += 1;
    }

    /// The sets touched since the last [`mark_clean`](Self::mark_clean),
    /// serialized as a [`CacheDelta`] without copying them.
    pub fn dirty_sets(&self) -> DirtySets<'_> {
        DirtySets(self)
    }

    /// Applies a [`CacheDelta`] captured from an identically configured
    /// cache, overwriting every patched set plus the clock and counters.
    ///
    /// # Errors
    ///
    /// Returns a message when a patch does not fit this geometry.
    pub fn apply_delta(&mut self, delta: &CacheDelta) -> Result<(), String> {
        let ways = self.ways;
        let sets = self.valid.len();
        let way_bits = u64::MAX >> (64 - ways);
        for p in &delta.sets {
            let set = p.set as usize;
            if set >= sets {
                return Err(format!("set patch {set} outside {sets}-set cache"));
            }
            if p.tags.len() != ways || p.lru.len() != ways {
                return Err(format!(
                    "set patch {set} carries {}/{} ways, cache has {ways}",
                    p.tags.len(),
                    p.lru.len()
                ));
            }
            let base = set * ways;
            self.tags[base..base + ways].copy_from_slice(&p.tags);
            self.lru[base..base + ways].copy_from_slice(&p.lru);
            self.valid[set] = p.valid & way_bits;
            self.dirty[set] = p.dirty & way_bits;
        }
        self.clock = delta.clock;
        self.stats = delta.stats;
        Ok(())
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the counters (e.g. after a functional warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `(set, tag)` of `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// The way of `set` holding `tag`, if any.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let valid = self.valid[set];
        let tags = &self.tags[set * self.ways..][..self.ways];
        (0..self.ways).find(|&w| tags[w] == tag && valid >> w & 1 == 1)
    }

    /// Stamps a hit on way `w` of `set`.
    fn hit(&mut self, set: usize, w: usize, is_write: bool) {
        self.lru[set * self.ways + w] = self.clock;
        if is_write {
            self.dirty[set] |= 1 << w;
        }
        self.touch(set);
    }

    /// Looks up `addr` without allocating or touching LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.find(set, tag).is_some()
    }

    /// Looks up `addr` *without* allocating: updates LRU and dirtiness and
    /// counts a hit or miss. Use together with [`fill`](Self::fill) for
    /// fill-on-completion hierarchies where allocation happens only when
    /// the data actually arrives.
    pub fn lookup(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        if let Some(w) = self.find(set, tag) {
            self.hit(set, w, is_write);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Accesses `addr`, allocating on miss. `is_write` marks the line
    /// dirty on hit or after allocation.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        if let Some(w) = self.find(set, tag) {
            self.hit(set, w, is_write);
            self.stats.hits += 1;
            return CacheOutcome::Hit;
        }
        self.stats.misses += 1;
        let writeback = self.replace(set, tag, is_write);
        CacheOutcome::Miss { writeback }
    }

    /// Picks a victim in `set` (lowest invalid way first, else LRU),
    /// installs `tag`, and returns the dirty victim's address, if any.
    fn replace(&mut self, set: usize, tag: u64, is_write: bool) -> Option<u64> {
        self.touch(set);
        let base = set * self.ways;
        let invalid = !self.valid[set] & (u64::MAX >> (64 - self.ways));
        let w = if invalid != 0 {
            invalid.trailing_zeros() as usize
        } else {
            // First way with the oldest stamp.
            let stamps = &self.lru[base..base + self.ways];
            (1..self.ways).fold(0, |old, w| if stamps[w] < stamps[old] { w } else { old })
        };
        let bit = 1u64 << w;
        let victim = (self.valid[set] & self.dirty[set] & bit != 0).then(|| {
            self.stats.writebacks += 1;
            ((self.tags[base + w] << self.set_mask.count_ones()) | set as u64) << self.set_shift
        });
        self.tags[base + w] = tag;
        self.lru[base + w] = self.clock;
        self.valid[set] |= bit;
        if is_write {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        victim
    }

    /// Fills `addr` without counting a demand access (prefetch fill); marks
    /// dirty if `is_write`. Returns the dirty victim, if any.
    pub fn fill(&mut self, addr: u64, is_write: bool) -> Option<u64> {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        if let Some(w) = self.find(set, tag) {
            self.hit(set, w, is_write);
            return None;
        }
        self.replace(set, tag, is_write)
    }

    /// Invalidates `addr` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(addr);
        let w = self.find(set, tag)?;
        self.valid[set] &= !(1 << w);
        self.touch(set);
        Some(self.dirty[set] >> w & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a delta checkpoint writes of `c`, decoded; `c` is clean
    /// afterwards, as a checkpoint leaves it.
    fn take_delta(c: &mut Cache) -> CacheDelta {
        let delta = CacheDelta::from_value(&c.dirty_sets().to_value()).expect("dirty sets decode");
        c.mark_clean();
        delta
    }

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 1024);
        assert_eq!(CacheConfig::llc().sets(), 16384);
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = tiny();
        assert_eq!(
            c.access(0x1000, false),
            CacheOutcome::Miss { writeback: None }
        );
        assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
        assert!(c.probe(0x1000));
        assert!(!c.probe(0x2000));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines in the same set (set 0): 0x000, 0x100, 0x200.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000 again
        c.access(0x200, false); // evicts 0x100
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(
            out,
            CacheOutcome::Miss {
                writeback: Some(0x000)
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn writeback_address_reconstruction_across_sets() {
        let mut c = tiny();
        // Set index bits are addr[7:6]; line 0x2C0 is set 3.
        c.access(0x2C0, true);
        c.access(0x6C0, false);
        let out = c.access(0xAC0, false);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                writeback: Some(0x2C0)
            }
        );
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                writeback: Some(0x000)
            }
        );
    }

    #[test]
    fn fill_does_not_count_demand_stats() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.probe(0x000));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(0x000, true);
        assert_eq!(c.invalidate(0x000), Some(true));
        assert_eq!(c.invalidate(0x000), None);
        assert!(!c.probe(0x000));
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x080, false);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 3));
    }

    #[test]
    fn columnar_serde_roundtrip() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x100, false);
        c.access(0x2C0, true);
        c.lookup(0x040, false);
        let back = Cache::from_value(&c.to_value()).expect("columnar value parses back");
        assert_eq!(back, c);
        assert!(back.probe(0x000) && back.probe(0x100) && back.probe(0x2C0));
    }

    #[test]
    fn columnar_deserialize_rejects_ragged_columns() {
        let mut v = tiny().to_value();
        if let Value::Map(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "lru" {
                    if let Value::Seq(s) = val {
                        s.pop();
                    }
                }
            }
        }
        assert!(Cache::from_value(&v).is_err());
    }

    #[test]
    fn delta_replays_onto_base_copy() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x100, false);
        c.mark_clean();
        let base = c.clone();

        c.access(0x2C0, true); // new set
        c.access(0x200, false); // evicts in set 0
        c.lookup(0x100, true); // dirties a line in place
        let written = c.dirty_sets().to_value();
        let delta = take_delta(&mut c);
        assert!(!delta.is_empty());
        assert_eq!(delta.to_value(), written, "owned and live patches differ");

        let mut replayed = base.clone();
        replayed
            .apply_delta(&delta)
            .expect("delta fits the geometry");
        assert_eq!(replayed, c);

        // The columnar delta encoding roundtrips patch-exactly.
        let back = CacheDelta::from_value(&delta.to_value()).expect("delta roundtrips");
        assert_eq!(back, delta);
    }

    #[test]
    fn clean_cache_yields_empty_delta() {
        let mut c = tiny();
        c.access(0x000, true);
        c.mark_clean();
        assert!(take_delta(&mut c).is_empty());
        // Probes and misses without allocation do not dirty sets …
        c.probe(0x000);
        c.lookup(0x500, false);
        let d = take_delta(&mut c);
        assert!(d.is_empty());
        // … but the clock/stats they move are still carried.
        assert_eq!(d.clock, c.clock);
        assert_eq!(d.stats, c.stats());
    }

    #[test]
    fn delta_rejects_foreign_geometry() {
        let mut big = Cache::new(CacheConfig::l1d());
        big.access(0x4000_0000, true);
        let delta = take_delta(&mut big);
        let mut small = tiny();
        assert!(small.apply_delta(&delta).is_err());
    }

    #[test]
    fn equality_ignores_dirty_trackers() {
        let mut a = tiny();
        a.access(0x000, true);
        let mut b = a.clone();
        b.mark_clean();
        b.mark_clean();
        assert_eq!(a, b);
        take_delta(&mut a);
        assert_eq!(a, b);
    }
}
