//! Encoding: its memory, and its bytes against the tree encoders.
//!
//! `Snapshot::to_binary` and `SnapshotDelta::to_binary` stream the
//! serialization events straight into the `.dsnp` container, and
//! `serde_json::to_string{,_pretty}` write JSON text as the same events
//! arrive. A counting allocator checks that the heap they need stays
//! within a small multiple of the bytes they produce: an encoder that
//! first lowers the state into a `serde::Value` tree needs about 13 times
//! the encoded length for `.dsnp`, because the tree spends 32 bytes on
//! every integer of the cache columns, and over 3.5 times the text length
//! for JSON.
//!
//! [`reference`] is that tree encoder, the one the container format was
//! defined by. The streamed bytes must equal its bytes on snapshots and
//! deltas of random configurations and on arbitrary `Value` trees, and
//! `decode` must give each tree back.
//!
//! [`json_reference`] is the JSON tree writer `serde_json` printed through
//! before it streamed. `serde_json::to_string` and `to_string_pretty` must
//! give its bytes on the same arbitrary trees, on a fixed set of edge
//! cases, on snapshots and on reports.
//!
//! A `CheckpointChain` encodes the live machine without copying it
//! first. Its files are checked against the machine they checkpoint:
//! each base is its `snapshot()`, each delta replays the previous
//! checkpoint into the next and carries only what moved, and on three
//! fixed machines every file's digest is pinned. One chain step holds
//! at most 3x its encoded bytes + 1 MB of heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};

use dramstack::cpu::{Cache, CacheDelta, CacheStats};
use dramstack::sim::binary::{self, KIND_DELTA, KIND_FULL};
use dramstack::sim::ckpt::REBASE_EVERY;
use dramstack::sim::{
    CheckpointChain, Simulator, Snapshot, SnapshotDelta, SystemConfig, SNAPSHOT_FORMAT_VERSION,
};
use dramstack::workloads::SyntheticPattern;

/// The tree encoder the container was defined by: lower everything to a
/// `Value`, then write the tree.
mod reference {
    use std::collections::HashMap;

    use serde::Value;

    struct StringTable {
        strings: Vec<String>,
        ids: HashMap<String, u64>,
    }

    impl StringTable {
        fn intern(&mut self, s: &str) -> u64 {
            if let Some(&id) = self.ids.get(s) {
                return id;
            }
            let id = self.strings.len() as u64;
            self.strings.push(s.to_string());
            self.ids.insert(s.to_string(), id);
            id
        }
    }

    fn put_varint(out: &mut Vec<u8>, mut v: u128) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn zigzag(v: i128) -> u128 {
        ((v << 1) ^ (v >> 127)) as u128
    }

    fn run_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        }
    }

    fn encode_value(v: &Value, out: &mut Vec<u8>, table: &mut StringTable) {
        match v {
            Value::Null => out.push(0),
            Value::Bool(false) => out.push(1),
            Value::Bool(true) => out.push(2),
            Value::Int(i) => {
                out.push(3);
                put_varint(out, zigzag(*i));
            }
            Value::Float(f) => {
                out.push(4);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(5);
                let id = table.intern(s);
                put_varint(out, u128::from(id));
            }
            Value::Seq(items) => {
                out.push(6);
                put_varint(out, items.len() as u128);
                let mut i = 0;
                while i < items.len() {
                    let mut run = 1;
                    while i + run < items.len() && run_eq(&items[i], &items[i + run]) {
                        run += 1;
                    }
                    put_varint(out, run as u128);
                    encode_value(&items[i], out, table);
                    i += run;
                }
            }
            Value::Map(entries) => {
                out.push(7);
                put_varint(out, entries.len() as u128);
                for (k, val) in entries {
                    let id = table.intern(k);
                    put_varint(out, u128::from(id));
                    encode_value(val, out, table);
                }
            }
        }
    }

    pub fn encode(value: &Value, kind: u8, format_version: u32) -> Vec<u8> {
        let Value::Map(fields) = value else {
            panic!("binary container encodes struct maps only");
        };
        let mut table = StringTable {
            strings: Vec::new(),
            ids: HashMap::new(),
        };
        let sections: Vec<(u64, Vec<u8>)> = fields
            .iter()
            .map(|(name, v)| {
                let id = table.intern(name);
                let mut payload = Vec::new();
                encode_value(v, &mut payload, &mut table);
                (id, payload)
            })
            .collect();
        let mut out = Vec::new();
        out.extend_from_slice(b"DSNP");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&format_version.to_le_bytes());
        put_varint(&mut out, table.strings.len() as u128);
        for s in &table.strings {
            put_varint(&mut out, s.len() as u128);
            out.extend_from_slice(s.as_bytes());
        }
        put_varint(&mut out, sections.len() as u128);
        for (id, payload) in &sections {
            put_varint(&mut out, u128::from(*id));
            put_varint(&mut out, payload.len() as u128);
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// The JSON writer `serde_json` printed through while it lowered every
/// value to a `Value` tree first: write the tree.
mod json_reference {
    use serde::Value;

    fn escape_into(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_float(f: f64, out: &mut String) {
        if !f.is_finite() {
            out.push_str("null");
        } else if f == f.trunc() {
            out.push_str(&format!("{f:.1}"));
        } else {
            out.push_str(&format!("{f}"));
        }
    }

    fn write_value(v: &Value, out: &mut String, pretty: bool, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => write_float(*f, out),
            Value::Str(s) => escape_into(s, out),
            Value::Seq(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    write_value(item, out, pretty, depth + 1);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push(']');
            }
            Value::Map(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    escape_into(k, out);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    write_value(item, out, pretty, depth + 1);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }

    pub fn to_string(value: &Value, pretty: bool) -> String {
        let mut out = String::new();
        write_value(value, &mut out, pretty, 0);
        out
    }
}

/// Tree equality with floats compared by bit pattern (so NaN equals
/// itself and `-0.0` differs from `0.0`).
fn same_tree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_tree(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_tree(va, vb))
        }
        _ => a == b,
    }
}

/// Streams `value` and checks the bytes against the reference encoder and
/// the decoded tree against `value`'s own.
fn assert_streams_like_the_tree<T: Serialize + ?Sized>(value: &T, kind: u8, what: &str) {
    let streamed = binary::encode(value, kind, SNAPSHOT_FORMAT_VERSION);
    let tree = value.to_value();
    let expected = reference::encode(&tree, kind, SNAPSHOT_FORMAT_VERSION);
    assert!(
        streamed == expected,
        "{what}: streamed {} bytes differ from the tree encoder's {}",
        streamed.len(),
        expected.len()
    );
    let decoded = binary::decode(&streamed).expect("streamed container decodes");
    assert_eq!(
        (decoded.kind, decoded.format_version),
        (kind, SNAPSHOT_FORMAT_VERSION)
    );
    assert!(
        same_tree(&decoded.value, &tree),
        "{what}: decode does not give the tree back"
    );
}

/// Checks `serde_json`'s compact and pretty text of `value` against the
/// tree writer's text of `value`'s tree.
fn assert_json_like_the_tree<T: Serialize + ?Sized>(value: &T, what: &str) {
    let tree = value.to_value();
    for pretty in [false, true] {
        let written = if pretty {
            serde_json::to_string_pretty(value)
        } else {
            serde_json::to_string(value)
        }
        .expect("the vendored serializer is infallible");
        let expected = json_reference::to_string(&tree, pretty);
        if written != expected {
            let at = written
                .bytes()
                .zip(expected.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            let near = |s: &str| {
                String::from_utf8_lossy(&s.as_bytes()[at..s.len().min(at + 60)]).into_owned()
            };
            panic!(
                "{what} (pretty: {pretty}): serde_json wrote {} bytes, the tree writer {}; \
                 they differ from byte {at}: {:?} against {:?}",
                written.len(),
                expected.len(),
                near(&written),
                near(&expected)
            );
        }
    }
}

// -- heap accounting ---------------------------------------------------------

thread_local! {
    /// Bytes this thread has allocated and not freed, and the most that
    /// were live since the last reset (the tests of this file run on
    /// threads of their own, so one test never counts another's).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    LIVE.with(|live| {
        let now = live.get() + by;
        live.set(now);
        PEAK.with(|peak| peak.set(peak.get().max(now)));
    });
}

struct Counting;

// SAFETY: defers to `System` for every operation; the counters are
// const-initialised thread-local `Cell`s without destructors, so touching
// them from the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the most heap it held live at
/// once beyond what was live before it started.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - before) as usize)
}

fn assert_heap_near_length(what: &str, bytes: &[u8], peak: usize) {
    let bound = 3 * bytes.len() + (1 << 20);
    assert!(
        peak <= bound,
        "{what}: encoding {} bytes held {peak} heap bytes at its peak, over 3x + 1 MB = {bound}",
        bytes.len()
    );
}

/// The benchmark's checkpoint workload in miniature: two cores streaming
/// with 30 % stores over the paper's full-size caches, a base snapshot and
/// a delta taken after more traffic.
#[test]
fn to_binary_heap_peak_stays_near_the_encoded_length() {
    let cfg = SystemConfig::paper_default(2);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.3));
    sim.advance_for_us(10.0);
    let base = sim.snapshot().expect("synthetic streams checkpoint");
    let (bytes, peak) = peak_growth(|| base.to_binary());
    assert!(
        bytes.len() > 100_000,
        "a paper-scale snapshot, not {} bytes",
        bytes.len()
    );
    assert_heap_near_length("full snapshot", &bytes, peak);

    sim.checkpoint_base().expect("base checkpoint");
    sim.advance_for_us(10.0);
    let (_, written) = sim.checkpoint_delta().expect("delta checkpoint");
    let delta = SnapshotDelta::from_binary(&written).expect("delta decodes");
    let (bytes, peak) = peak_growth(|| delta.to_binary());
    assert!(
        bytes.len() > 10_000,
        "a delta with dirtied sets, not {} bytes",
        bytes.len()
    );
    assert_heap_near_length("delta", &bytes, peak);
}

/// One step of the production chain on the same machine: capture and
/// encode together, for a base and for a delta. The chain encodes the
/// live machine, so neither step holds a copy of its caches.
#[test]
fn chain_step_heap_peak_stays_near_the_encoded_length() {
    let dir = std::env::temp_dir().join(format!("dramstack-chain-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SystemConfig::paper_default(2);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.3));
    let mut chain = CheckpointChain::new(&dir, "heap").expect("chain directory");
    for (what, at_least) in [("base", 100_000), ("delta", 10_000)] {
        sim.advance_for_us(10.0);
        let (bytes, peak) = peak_growth(|| chain.checkpoint(&mut sim).expect("checkpoint"));
        assert!(bytes > at_least, "a paper-scale {what}, not {bytes} bytes");
        let bound = 3 * bytes + (1 << 20);
        assert!(
            peak <= bound,
            "{what}: a chain step of {bytes} bytes held {peak} heap bytes at its peak, \
             over 3x + 1 MB = {bound}"
        );
    }
    chain.finish().expect("the writer lands every file");
    std::fs::remove_dir_all(&dir).expect("remove chain directory");
}

fn assert_json_heap_near_length(what: &str, json: &str, peak: usize) {
    let bound = 2 * json.len() + (64 << 10);
    assert!(
        peak <= bound,
        "{what}: writing {} bytes of JSON held {peak} heap bytes at its peak ({:.2}x), \
         over 2x + 64 KiB = {bound}",
        json.len(),
        peak as f64 / json.len() as f64
    );
}

/// The base snapshot above as JSON text: the cache columns make it
/// several megabytes, and printing it must not need a tree of them.
#[test]
fn snapshot_to_json_heap_peak_stays_near_the_text_length() {
    let cfg = SystemConfig::paper_default(2);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::sequential(0.3));
    sim.advance_for_us(10.0);
    let base = sim.snapshot().expect("synthetic streams checkpoint");
    let (json, peak) = peak_growth(|| base.to_json());
    assert!(
        json.len() > 1_000_000,
        "a paper-scale snapshot, not {} bytes",
        json.len()
    );
    assert_json_heap_near_length("snapshot", &json, peak);
}

/// A report's JSON grows with the run: one bandwidth stack, latency stack
/// and cycle stack per sample window.
#[test]
fn report_to_json_heap_peak_stays_near_the_text_length() {
    let mut cfg = SystemConfig::paper_default(1);
    cfg.sample_period = cfg.us_to_cycles(0.1);
    let mut sim = Simulator::with_synthetic(cfg, SyntheticPattern::random(0.2));
    sim.advance_for_us(24.0);
    let report = sim.report();
    assert!(
        report.samples.len() >= 200,
        "a report of 200 windows or more, not {}",
        report.samples.len()
    );
    let (json, peak) = peak_growth(|| report.to_json().expect("reports serialize"));
    assert_json_heap_near_length("report", &json, peak);
}

// -- streamed bytes against the tree encoder ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full snapshots, bases and deltas of random machines, with the
    /// auditor armed so its state is in the stream too.
    #[test]
    fn snapshots_stream_the_tree_encoders_bytes(
        cores in 1usize..=4,
        channels in prop_oneof![Just(1usize), Just(2usize)],
        random in any::<bool>(),
        store_pct in 0u32..=100,
        seed in any::<u64>(),
        us in 1u32..=4,
    ) {
        let cfg = small_caches(cores, channels);
        let mut sim = armed(&cfg, pattern(random, f64::from(store_pct) / 100.0, seed));
        sim.advance_for_us(f64::from(us));
        let base = sim.snapshot().expect("synthetic streams checkpoint");
        assert_streams_like_the_tree(&base, KIND_FULL, "base");
        let written = sim.checkpoint_base().expect("base checkpoint");
        assert!(written == base.to_binary(), "the base checkpoint is not the snapshot");
        for _ in 0..2 {
            sim.advance_for_us(0.5);
            let (_, written) = sim.checkpoint_delta().expect("delta checkpoint");
            let delta = SnapshotDelta::from_binary(&written).expect("delta decodes");
            assert_streams_like_the_tree(&delta, KIND_DELTA, "delta");
            let tree = reference::encode(&delta.to_value(), KIND_DELTA, SNAPSHOT_FORMAT_VERSION);
            assert!(written == tree, "the delta checkpoint is not its tree's bytes");
        }
        let full = sim.snapshot().expect("synthetic streams checkpoint");
        assert_streams_like_the_tree(&full, KIND_FULL, "full snapshot");
        assert_json_like_the_tree(&full, "full snapshot");
        assert_json_like_the_tree(&sim.report(), "report");
    }
}

// -- the checkpoint chain against the machine it checkpoints -----------------

/// Checkpoints per chain: a base, eight deltas, a rebase and two deltas.
const CHAIN_CHECKPOINTS: usize = 12;

/// `cores` cores on `channels` channels over caches small enough that a
/// dozen checkpoints of a random machine stay quick in a debug build.
fn small_caches(cores: usize, channels: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(cores);
    cfg.channels = channels;
    cfg.hierarchy.l2.size_bytes = 64 << 10;
    cfg.hierarchy.llc.size_bytes = 256 << 10;
    cfg.hierarchy.llc.ways = 16;
    cfg
}

fn pattern(random: bool, stores: f64, seed: u64) -> SyntheticPattern {
    let mut p = if random {
        SyntheticPattern::random(stores)
    } else {
        SyntheticPattern::sequential(stores)
    };
    p.seed = seed;
    p
}

/// A fresh machine of `cfg` running `pattern` with the auditor armed.
fn armed(cfg: &SystemConfig, pattern: SyntheticPattern) -> Simulator {
    let mut sim = Simulator::with_synthetic(cfg.clone(), pattern);
    sim.set_audit(true);
    sim
}

/// Drives a fresh machine through `n` checkpoints of a [`CheckpointChain`]
/// (the first after `first_us`, then one every `step_us`) and returns the
/// chain's files as the writer left them, base first. Fails if anything
/// else of the chain's key is on disk, such as a delta of an older base.
fn chain_on_disk(
    cfg: &SystemConfig,
    pattern: SyntheticPattern,
    first_us: f64,
    step_us: f64,
    n: usize,
) -> Vec<Vec<u8>> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dramstack-chain-bytes-{}-{run}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sim = armed(cfg, pattern);
    let mut chain = CheckpointChain::new(&dir, "k").expect("chain directory");
    for i in 0..n {
        sim.advance_for_us(if i == 0 { first_us } else { step_us });
        chain.checkpoint(&mut sim).expect("checkpoint");
    }
    chain.finish().expect("the writer lands every file");
    let mut names = vec!["ckpt-k.base.dsnp".to_string()];
    names.extend((1..).map_while(|seq| {
        let name = format!("ckpt-k.d{seq}.dsnp");
        dir.join(&name).exists().then_some(name)
    }));
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("chain directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .collect();
    on_disk.sort();
    let mut expected = names.clone();
    expected.sort();
    assert_eq!(on_disk, expected, "files beside the chain");
    let files = names
        .iter()
        .map(|name| std::fs::read(dir.join(name)).expect("chain file"))
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove chain directory");
    files
}

/// The bytes of every checkpoint a chain writes over
/// [`CHAIN_CHECKPOINTS`] checkpoints, in order. A rebase replaces the
/// first base's files, so the first nine are read from a chain stopped
/// before it and the last three from the full chain.
fn chain_checkpoints(
    cfg: &SystemConfig,
    pattern: SyntheticPattern,
    first_us: f64,
    step_us: f64,
) -> Vec<Vec<u8>> {
    let before_rebase = 1 + REBASE_EVERY as usize;
    let mut all = chain_on_disk(cfg, pattern, first_us, step_us, before_rebase);
    assert_eq!(all.len(), before_rebase, "a base and its deltas");
    let after = chain_on_disk(cfg, pattern, first_us, step_us, CHAIN_CHECKPOINTS);
    assert_eq!(
        after.len(),
        CHAIN_CHECKPOINTS - before_rebase,
        "the rebase leaves its base and its own deltas only"
    );
    all.extend(after);
    all
}

/// The caches of a serialized hierarchy, L1s, then L2s, then the LLC.
fn caches(hierarchy: &Value) -> Vec<&Value> {
    let level = |name: &str| {
        let v = hierarchy.get(name).expect("cache level");
        v.as_seq()
            .map_or_else(|| vec![v], |caches| caches.iter().collect())
    };
    [level("l1"), level("l2"), level("llc")].concat()
}

/// Checks what a chain wrote against the machine it checkpointed: each
/// base is that machine's full snapshot, and each delta re-encodes to
/// its own bytes, replays the previous checkpoint into the next one and
/// patches only cache sets that moved. Returns the number of patched
/// sets.
fn assert_chain_rebuilds(files: &[Vec<u8>], states: &[Snapshot], what: &str) -> usize {
    let mut chained: Option<Snapshot> = None;
    let mut patched = 0;
    for (k, (bytes, state)) in files.iter().zip(states).enumerate() {
        let at = format!("{what}, checkpoint {}", k + 1);
        if k % (1 + REBASE_EVERY as usize) == 0 {
            assert!(
                bytes == &state.to_binary(),
                "{at}: the base is not the snapshot"
            );
            chained = Some(Snapshot::from_binary(bytes).expect("base decodes"));
            continue;
        }
        let prev = chained.as_mut().expect("a base first");
        let delta = SnapshotDelta::from_binary(bytes).expect("delta decodes");
        assert!(
            delta.to_binary() == *bytes,
            "{at}: the decoded delta encodes to other bytes"
        );
        let before = prev.hierarchy.to_value();
        let patch = binary::decode(bytes).expect("delta decodes").value;
        let patch = patch.get("hierarchy").expect("hierarchy section");
        for (i, (cache, patch)) in caches(&before).into_iter().zip(caches(patch)).enumerate() {
            let cache = Cache::from_value(cache).expect("cache");
            let patch = CacheDelta::from_value(patch).expect("cache delta");
            let clock = u64::from_value(before_field(&before, i, "clock")).expect("clock");
            let stats = CacheStats::from_value(before_field(&before, i, "stats")).expect("stats");
            patched += patch.sets.len();
            for set in &patch.sets {
                let mut one = cache.clone();
                let only = CacheDelta {
                    clock,
                    stats,
                    sets: vec![set.clone()],
                };
                one.apply_delta(&only).expect("the patch fits");
                assert!(one != cache, "{at}: cache {i} set {} did not move", set.set);
            }
        }
        prev.apply_delta(&delta).expect("the delta applies");
        assert!(prev == state, "{at}: the chain replays to another machine");
    }
    patched
}

/// Field `name` of cache `i` (in [`caches`] order) of a hierarchy tree.
fn before_field<'v>(hierarchy: &'v Value, i: usize, name: &str) -> &'v Value {
    caches(hierarchy)[i].get(name).expect("cache field")
}

/// The full snapshots of the machine a chain checkpoints, at every
/// checkpoint of [`chain_checkpoints`].
fn checkpoint_states(
    cfg: &SystemConfig,
    pattern: SyntheticPattern,
    first_us: f64,
    step_us: f64,
) -> Vec<Snapshot> {
    let mut sim = armed(cfg, pattern);
    (0..CHAIN_CHECKPOINTS)
        .map(|i| {
            sim.advance_for_us(if i == 0 { first_us } else { step_us });
            sim.snapshot().expect("synthetic streams checkpoint")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A dozen checkpoints of a random machine through the production
    /// chain, a rebase included, with the auditor armed.
    #[test]
    fn chain_checkpoints_rebuild_the_machine(
        cores in 1usize..=4,
        channels in prop_oneof![Just(1usize), Just(2usize)],
        random in any::<bool>(),
        store_pct in 0u32..=100,
        seed in any::<u64>(),
        us in 1u32..=4,
    ) {
        let cfg = small_caches(cores, channels);
        let pattern = pattern(random, f64::from(store_pct) / 100.0, seed);
        let first = f64::from(us);
        let files = chain_checkpoints(&cfg, pattern, first, 0.5);
        let states = checkpoint_states(&cfg, pattern, first, 0.5);
        assert_chain_rebuilds(&files, &states, "random machine");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The chain's bytes on three fixed machines, pinned as FNV-1a digests of
/// every checkpoint (base, eight deltas, rebase, two deltas). The format
/// v4 digests were taken while the chain still wrote each checkpoint
/// through an owned copy of the machine; the v5 ones are those v4 files
/// mapped to v5 as `crash_resume.rs` maps its fixtures (EXPERIMENTS,
/// "Snapshot v5").
#[test]
fn chain_bytes_are_pinned_on_three_machines() {
    let machines: [(&str, SystemConfig, SyntheticPattern); 3] = [
        ("2c/1ch seq w30", small_caches(2, 1), pattern(false, 0.3, 1)),
        ("4c/2ch rand w50", small_caches(4, 2), pattern(true, 0.5, 7)),
        ("8c/1ch seq w0", small_caches(8, 1), pattern(false, 0.0, 3)),
    ];
    let got: Vec<[u64; CHAIN_CHECKPOINTS]> = machines
        .iter()
        .map(|(what, cfg, pattern)| {
            let files = chain_checkpoints(cfg, *pattern, 2.0, 0.5);
            let states = checkpoint_states(cfg, *pattern, 2.0, 0.5);
            let patched = assert_chain_rebuilds(&files, &states, what);
            assert!(patched > 0, "{what}: the deltas patch no cache set");
            let digests: Vec<u64> = files.iter().map(|f| fnv1a(f)).collect();
            digests.try_into().expect("a dozen checkpoints")
        })
        .collect();
    assert!(
        got == PINNED_CHAIN_DIGESTS,
        "chain bytes moved; the digests now read {got:#018x?}"
    );
}

/// [`chain_bytes_are_pinned_on_three_machines`]'s digests.
const PINNED_CHAIN_DIGESTS: [[u64; CHAIN_CHECKPOINTS]; 3] = [
    [
        0x7d1daccc03cd2342,
        0xc7e7cbf9e9d7215a,
        0x0b68dce6ee10d660,
        0xefd7470e8cbd64bf,
        0x353d9cc3ffe2989d,
        0x4072c56862a78e8e,
        0xe32271bc2625ac60,
        0x15dc16052ad46b0d,
        0x884f880a76e183f7,
        0xac0048c0ac895a10,
        0x1490bdd598718ccd,
        0x0043bf007eb8cd5a,
    ],
    [
        0x857c62a04067d1e5,
        0x34e9cc492865bc58,
        0xfd8aeb3105d43e56,
        0xd35350040feb8be3,
        0x9872e78bc39c99b4,
        0x018172b623a141b6,
        0x575b37d0229b579b,
        0xa0ade09a743ad88c,
        0x2f3a235f63fd95fd,
        0xb401eca002458db6,
        0x31128dacd534cc58,
        0x6298e7f22e7bba45,
    ],
    [
        0x286ba4309c39e524,
        0x8bd0565a920b6f20,
        0x67448e30e98d5d6b,
        0x7e7a312276aa2367,
        0xa19e151bed3fcf87,
        0x3b5db1af5bbf12b6,
        0xd9ba60d72c967a47,
        0xe0a8880f46c84bee,
        0x49a6265ef93f22f7,
        0xf0fe6041a3f23343,
        0xf51d8be81d3e756b,
        0xcdd37fec7c83d6b8,
    ],
];

/// Arbitrary `Value` trees under a top-level map: few distinct scalars so
/// that sequences hold runs, floats that equality would confuse (`-0.0`,
/// NaNs with different payloads), empty and nested seqs and maps.
struct ArbTree;

fn scalar(rng: &mut TestRng) -> Value {
    const FLOATS: [f64; 6] = [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN, -f64::NAN];
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.below(4) as i128 - 1),
        3 => Value::Int(i128::MIN + rng.below(2) as i128),
        4 => Value::Float(FLOATS[rng.below(FLOATS.len() as u128) as usize]),
        _ => Value::Str(["", "a", "b", "snapshot"][rng.below(4) as usize].to_string()),
    }
}

fn tree(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 1 } else { 4 }) {
        0 => scalar(rng),
        1 => {
            let len = rng.below(5) as usize;
            let entries = (0..len)
                .map(|_| {
                    let key = ["a", "b", "key", ""][rng.below(4) as usize].to_string();
                    (key, tree(rng, depth - 1))
                })
                .collect();
            Value::Map(entries)
        }
        _ => {
            let mut items = Vec::new();
            for _ in 0..rng.below(6) {
                let item = tree(rng, depth - 1);
                for _ in 0..=rng.below(4) {
                    items.push(item.clone());
                }
            }
            Value::Seq(items)
        }
    }
}

impl Strategy for ArbTree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let sections = rng.below(5) as usize;
        let fields = (0..sections)
            .map(|i| (format!("s{}", i % 3), tree(rng, 4)))
            .collect();
        Value::Map(fields)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn value_trees_stream_the_tree_encoders_bytes(v in ArbTree, delta in any::<bool>()) {
        let kind = if delta { KIND_DELTA } else { KIND_FULL };
        assert_streams_like_the_tree(&v, kind, "value tree");
    }
}

// -- JSON text against the tree writer ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn value_trees_print_the_tree_writers_json(v in ArbTree) {
        assert_json_like_the_tree(&v, "value tree");
    }
}

/// Edge cases the random trees do not reach: nesting that is all empty
/// containers, the float forms (signed zero, huge, non-finite, integral),
/// the widest integers, every escaped character and non-ASCII keys, and
/// typed values that are not `Value`s.
#[test]
fn edge_cases_print_the_tree_writers_json() {
    let empty = || vec![Value::Seq(vec![]), Value::Map(vec![])];
    let rows = [
        Value::Seq(vec![]),
        Value::Map(vec![]),
        Value::Seq(vec![
            Value::Seq(empty()),
            Value::Map(vec![("".into(), Value::Map(vec![]))]),
            Value::Seq(vec![Value::Seq(vec![Value::Seq(vec![])])]),
        ]),
        Value::Map(vec![
            ("a".into(), Value::Seq(empty())),
            (
                "b".into(),
                Value::Map(vec![("c".into(), Value::Seq(vec![]))]),
            ),
        ]),
        Value::Seq(
            [
                0.0,
                -0.0,
                1.0,
                -2.0,
                0.1,
                1e300,
                -1e300,
                1e-300,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ]
            .map(Value::Float)
            .to_vec(),
        ),
        Value::Seq(
            [i128::MIN, i128::MIN + 1, -1, 0, 1, i128::MAX]
                .map(Value::Int)
                .to_vec(),
        ),
        Value::Str((0u8..0x20).map(char::from).collect()),
        Value::Str("quote \" backslash \\ slash / del \u{7f} nbsp \u{a0}".into()),
        Value::Map(vec![
            ("ключ".into(), Value::Str("значение".into())),
            ("鍵".into(), Value::Int(1)),
            ("🙂\n".into(), Value::Str("\u{1F600}\u{2028}".into())),
            ("\"".into(), Value::Null),
        ]),
        Value::Null,
        Value::Bool(true),
        Value::Float(-0.0),
        Value::Str(String::new()),
    ];
    for (i, row) in rows.iter().enumerate() {
        assert_json_like_the_tree(row, &format!("row {i}"));
    }
    assert_json_like_the_tree(&vec![(1u8, 'x', Some(2.0f32), None::<u64>)], "typed tuple");
    let mut map = std::collections::HashMap::new();
    map.insert("b".to_string(), vec![u64::MAX]);
    map.insert("a".to_string(), vec![]);
    assert_json_like_the_tree(&map, "hash map");
    assert_json_like_the_tree("str \u{1}", "str");
}
