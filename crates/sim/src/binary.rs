//! Compact binary snapshot container (the `.dsnp` format).
//!
//! The encoder is a [`Sink`] fed the same serialization events the JSON
//! path turns into a [`Value`] tree, so both formats describe
//! byte-for-byte identical machine state; only the wire shape differs.
//! It writes the container while the events arrive and never builds the
//! tree. The decoder still reassembles one. Layout (all integers
//! varint/LEB128 unless noted):
//!
//! ```text
//! magic      "DSNP"                       4 bytes
//! container  SNAPSHOT_BINARY_VERSION      u32 LE
//! kind       0 = full snapshot, 1 = delta u8
//! format     SNAPSHOT_FORMAT_VERSION      u32 LE (of the embedded tree)
//! strings    count, then per string: byte length + UTF-8 bytes
//! sections   count, then per section: name string-id + payload length
//! payloads   section payloads, concatenated in table order
//! ```
//!
//! Every string (map keys and string values) is interned in the string
//! table and referenced by id, so the hundreds of thousands of repeated
//! field names in a snapshot cost one varint each. Each top-level field
//! of the snapshot map becomes its own section, which lets a truncated
//! file name the section it died in. Values are tagged:
//!
//! ```text
//! 0 Null   1 false   2 true
//! 3 Int    zigzag varint (i128)
//! 4 Float  8-byte LE IEEE-754 bit pattern (exact, NaN-safe)
//! 5 Str    string-table id
//! 6 Seq    element count, then RLE runs: run length + one encoded value
//! 7 Map    entry count, then per entry: key string-id + encoded value
//! ```
//!
//! Sequence runs group *scalars* only, with floats compared by bit
//! pattern (so `-0.0` and `0.0` never collapse); nested seqs/maps are
//! emitted as runs of one. The big regular columns in a snapshot — cache
//! tag/LRU/valid/dirty arrays, sampler series — are exactly the shapes
//! RLE and varints compress well.
//!
//! Streaming changes nothing on the wire: inside a sequence, equal
//! scalars extend a pending run, and the next different scalar, a nested
//! container or the sequence's end writes it out. Every section payload
//! goes into one buffer; the header and tables are put in front of it
//! once the events end, so the encoder holds about the encoded length.
//! The decoder refuses seqs and maps nested deeper than 64 inside a
//! section with [`SnapshotError::Corrupt`].

use std::collections::HashMap;

use serde::{Serialize, Sink, Value};

use crate::snapshot::{SnapshotError, SNAPSHOT_BINARY_VERSION};

const MAGIC: &[u8; 4] = b"DSNP";

/// `kind` byte of a full snapshot file.
pub const KIND_FULL: u8 = 0;
/// `kind` byte of a delta snapshot file.
pub const KIND_DELTA: u8 = 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

#[derive(Default)]
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

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// [`put_varint`] for the integers that do not fit 64 bits.
fn put_wide_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag of an integer that fits 64 bits: the same number, and so the
/// same varint bytes, as [`zigzag`] of it widened.
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// A scalar event, strings already interned. Floats are held as their
/// bit pattern, so run grouping can never rewrite `-0.0` as `0.0` (or
/// collapse distinct NaNs). An integer is [`Scalar::Int`] exactly when it
/// fits 64 bits, so equal integers always compare equal; nearly all do,
/// and they compare and encode on 64-bit paths.
#[derive(Clone, Copy, PartialEq)]
enum Scalar {
    Null,
    Bool(bool),
    Int(i64),
    /// An integer outside `i64`.
    Wide(i128),
    Float(u64),
    Str(u64),
}

impl Scalar {
    fn int(v: i128) -> Self {
        i64::try_from(v).map_or(Scalar::Wide(v), Scalar::Int)
    }

    fn write(self, out: &mut Vec<u8>) {
        match self {
            Scalar::Null => out.push(0),
            Scalar::Bool(false) => out.push(1),
            Scalar::Bool(true) => out.push(2),
            Scalar::Int(i) => {
                out.push(3);
                put_varint(out, zigzag64(i));
            }
            Scalar::Wide(i) => {
                out.push(3);
                put_wide_varint(out, zigzag(i));
            }
            Scalar::Float(bits) => {
                out.push(4);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Scalar::Str(id) => {
                out.push(5);
                put_varint(out, id);
            }
        }
    }
}

/// Writes a run: its length, then the one encoded value.
fn put_run(out: &mut Vec<u8>, (s, n): (Scalar, u64)) {
    put_varint(out, n);
    s.write(out);
}

/// An open container below the top-level map, with the number of
/// elements (or entries) it still expects.
enum Frame {
    /// A sequence, and the run of equal scalars not yet written.
    Seq {
        left: usize,
        run: Option<(Scalar, u64)>,
    },
    Map {
        left: usize,
    },
}

/// The [`Sink`] that writes the container while the events arrive: the
/// top-level map's keys open sections, every payload lands in one buffer
/// in section order, and the header, string table and section table are
/// put in front of it at the end.
struct Encoder {
    kind: u8,
    format_version: u32,
    table: StringTable,
    /// Section payloads, concatenated in table order.
    payload: Vec<u8>,
    /// Name id and payload offset of every section opened so far.
    sections: Vec<(u64, usize)>,
    /// Whether the top-level map is open.
    root_open: bool,
    /// Containers open inside the current section, innermost last.
    open: Vec<Frame>,
}

impl Encoder {
    /// Counts one element of the innermost container.
    fn take_slot(&mut self) {
        match self.open.last_mut() {
            Some(Frame::Seq { left, .. }) => {
                *left = left
                    .checked_sub(1)
                    .expect("sequence longer than its declared length");
            }
            Some(Frame::Map { .. }) => {}
            None => assert!(
                self.root_open && !self.sections.is_empty(),
                "binary container encodes struct maps only"
            ),
        }
    }

    /// A scalar joins the pending run inside a sequence, or is written
    /// at once as a map value or a section's whole payload.
    fn scalar(&mut self, s: Scalar) {
        self.take_slot();
        match self.open.last_mut() {
            Some(Frame::Seq { run, .. }) => match run {
                Some((pending, n)) if *pending == s => *n += 1,
                _ => {
                    if let Some(done) = run.replace((s, 1)) {
                        put_run(&mut self.payload, done);
                    }
                }
            },
            _ => s.write(&mut self.payload),
        }
    }

    /// Opens a sequence (tag 6) or map (tag 7). Inside a sequence the
    /// pending run is flushed first and the container is a run of one.
    fn open(&mut self, tag: u8, len: usize, frame: Frame) {
        if !self.root_open {
            assert!(tag == 7, "binary container encodes struct maps only");
            self.root_open = true;
            return;
        }
        self.take_slot();
        if let Some(Frame::Seq { run, .. }) = self.open.last_mut() {
            if let Some(done) = run.take() {
                put_run(&mut self.payload, done);
            }
            put_varint(&mut self.payload, 1);
        }
        self.payload.push(tag);
        put_varint(&mut self.payload, len as u64);
        self.open.push(frame);
    }

    fn finish(mut self) -> Vec<u8> {
        assert!(
            !self.root_open && self.open.is_empty(),
            "serialize left the top-level map open"
        );
        let mut head = Vec::with_capacity(64 + self.sections.len() * 8);
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&SNAPSHOT_BINARY_VERSION.to_le_bytes());
        head.push(self.kind);
        head.extend_from_slice(&self.format_version.to_le_bytes());
        put_varint(&mut head, self.table.strings.len() as u64);
        for s in &self.table.strings {
            put_varint(&mut head, s.len() as u64);
            head.extend_from_slice(s.as_bytes());
        }
        put_varint(&mut head, self.sections.len() as u64);
        let ends = self.sections.iter().skip(1).map(|&(_, start)| start);
        for (&(id, start), end) in self.sections.iter().zip(ends.chain([self.payload.len()])) {
            put_varint(&mut head, id);
            put_varint(&mut head, (end - start) as u64);
        }
        // The header goes in front of the payload in place, so the
        // payload is never held twice.
        self.payload.reserve_exact(head.len());
        self.payload.splice(0..0, head);
        self.payload
    }
}

impl Sink for Encoder {
    fn null(&mut self) {
        self.scalar(Scalar::Null);
    }
    fn bool(&mut self, v: bool) {
        self.scalar(Scalar::Bool(v));
    }
    fn int(&mut self, v: i128) {
        self.scalar(Scalar::int(v));
    }
    fn float(&mut self, v: f64) {
        self.scalar(Scalar::Float(v.to_bits()));
    }
    fn str(&mut self, v: &str) {
        let id = self.table.intern(v);
        self.scalar(Scalar::Str(id));
    }
    fn seq(&mut self, len: usize) {
        self.open(
            6,
            len,
            Frame::Seq {
                left: len,
                run: None,
            },
        );
    }
    fn map(&mut self, len: usize) {
        self.open(7, len, Frame::Map { left: len });
    }
    fn key(&mut self, k: &str) {
        let id = self.table.intern(k);
        match self.open.last_mut() {
            Some(Frame::Map { left }) => {
                *left = left
                    .checked_sub(1)
                    .expect("map longer than its declared length");
                put_varint(&mut self.payload, id);
            }
            Some(Frame::Seq { .. }) => panic!("key `{k}` inside a sequence"),
            None => {
                assert!(self.root_open, "binary container encodes struct maps only");
                self.sections.push((id, self.payload.len()));
            }
        }
    }
    fn end(&mut self) {
        match self.open.pop() {
            Some(Frame::Seq { left, run }) => {
                if let Some(done) = run {
                    put_run(&mut self.payload, done);
                }
                assert_eq!(left, 0, "sequence shorter than its declared length");
            }
            Some(Frame::Map { left }) => {
                assert_eq!(left, 0, "map shorter than its declared length");
            }
            None => {
                assert!(self.root_open, "end without an open seq or map");
                self.root_open = false;
            }
        }
    }
}

/// Encodes a snapshot or delta into the binary container, straight from
/// its serialization events (no [`Value`] tree is built).
///
/// # Panics
///
/// Panics if `value` does not serialize as a map — snapshots and deltas
/// are structs.
pub fn encode<T: Serialize + ?Sized>(value: &T, kind: u8, format_version: u32) -> Vec<u8> {
    let mut enc = Encoder {
        kind,
        format_version,
        table: StringTable::default(),
        payload: Vec::new(),
        sections: Vec::new(),
        root_open: false,
        open: Vec::new(),
    };
    value.serialize(&mut enc);
    enc.finish()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decoded binary container: the header fields plus the reassembled
/// [`Value`] tree (one top-level map field per section, in table order).
#[derive(Debug)]
pub struct Decoded {
    /// [`KIND_FULL`] or [`KIND_DELTA`].
    pub kind: u8,
    /// `SNAPSHOT_FORMAT_VERSION` of the embedded tree.
    pub format_version: u32,
    /// The reassembled snapshot/delta map.
    pub value: Value,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
    /// Remaining decoded-element allowance. RLE means a few corrupt
    /// bytes can claim billions of elements; charging every materialized
    /// element against this budget turns that into a typed `Corrupt`
    /// instead of an allocation blow-up. Real snapshots sit far below it.
    budget: usize,
    /// Seqs and maps open around the cursor.
    depth: usize,
}

const ELEMENT_BUDGET: usize = 1 << 24;

/// Deepest seq/map nesting inside one section the decoder accepts. It
/// recurses once per level, so without a cap a few hundred KB of `6 1 1`
/// bytes overflow the stack. Real sections nest at most 7 deep (the
/// snapshot itself, one level up, at 8).
const MAX_DEPTH: usize = 64;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'a str) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
            budget: ELEMENT_BUDGET,
            depth: 0,
        }
    }

    fn charge(&mut self, n: usize) -> Result<(), SnapshotError> {
        if n > self.budget {
            return Err(self.corrupt(format!(
                "container claims more than {ELEMENT_BUDGET} elements"
            )));
        }
        self.budget -= n;
        Ok(())
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated {
            section: self.section.to_string(),
        }
    }

    fn corrupt(&self, msg: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            msg: format!("{} (in section `{}`)", msg.into(), self.section),
        }
    }

    fn byte(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u128, SnapshotError> {
        let mut v: u128 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 128 {
                return Err(self.corrupt("varint overflows 128 bits"));
            }
            v |= u128::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn len(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("{what} count {v} overflows")))
    }

    fn string_id(&mut self, table: &[String]) -> Result<String, SnapshotError> {
        let id = self.varint()?;
        let idx = usize::try_from(id).ok().filter(|&i| i < table.len());
        match idx {
            Some(i) => Ok(table[i].clone()),
            None => Err(self.corrupt(format!("string id {id} outside table of {}", table.len()))),
        }
    }

    fn value(&mut self, table: &[String]) -> Result<Value, SnapshotError> {
        match self.byte()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(false)),
            2 => Ok(Value::Bool(true)),
            3 => Ok(Value::Int(unzigzag(self.varint()?))),
            4 => {
                let raw = self.bytes(8)?;
                let bits = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                Ok(Value::Float(f64::from_bits(bits)))
            }
            5 => Ok(Value::Str(self.string_id(table)?)),
            6 => self.nested(table, Self::seq),
            7 => self.nested(table, Self::map),
            t => Err(self.corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Decodes one seq or map at the next nesting level, refusing to go
    /// deeper than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        table: &[String],
        decode: fn(&mut Self, &[String]) -> Result<Value, SnapshotError>,
    ) -> Result<Value, SnapshotError> {
        if self.depth == MAX_DEPTH {
            return Err(self.corrupt(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = decode(self, table);
        self.depth -= 1;
        v
    }

    fn seq(&mut self, table: &[String]) -> Result<Value, SnapshotError> {
        let total = self.len("sequence")?;
        self.charge(total)?;
        let mut items = Vec::with_capacity(total.min(1 << 20));
        while items.len() < total {
            let run = self.len("run")?;
            if run == 0 || run > total - items.len() {
                return Err(self.corrupt(format!("run of {run} overflows sequence of {total}")));
            }
            let v = self.value(table)?;
            for _ in 1..run {
                items.push(v.clone());
            }
            items.push(v);
        }
        Ok(Value::Seq(items))
    }

    fn map(&mut self, table: &[String]) -> Result<Value, SnapshotError> {
        let total = self.len("map")?;
        self.charge(total)?;
        let mut entries = Vec::with_capacity(total.min(1 << 20));
        for _ in 0..total {
            let key = self.string_id(table)?;
            let v = self.value(table)?;
            entries.push((key, v));
        }
        Ok(Value::Map(entries))
    }
}

/// Decodes a binary container produced by [`encode`].
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] when the file is not a `.dsnp` container,
/// [`SnapshotError::BinaryVersionMismatch`] for a foreign container
/// version, [`SnapshotError::Truncated`] naming the section the data ran
/// out in, and [`SnapshotError::Corrupt`] for structural damage. The
/// embedded tree's *format* version is returned for the caller to check.
pub fn decode(bytes: &[u8]) -> Result<Decoded, SnapshotError> {
    let mut r = Reader::new(bytes, "header");
    let magic = r.bytes(4).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let container = u32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes"));
    if container != SNAPSHOT_BINARY_VERSION {
        return Err(SnapshotError::BinaryVersionMismatch {
            expected: SNAPSHOT_BINARY_VERSION,
            got: container,
        });
    }
    let kind = r.byte()?;
    if kind != KIND_FULL && kind != KIND_DELTA {
        return Err(r.corrupt(format!("unknown snapshot kind {kind}")));
    }
    let format_version = u32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes"));

    let n_strings = r.len("string table")?;
    let mut table = Vec::with_capacity(n_strings.min(1 << 20));
    for _ in 0..n_strings {
        let len = r.len("string")?;
        let raw = r.bytes(len)?;
        let s =
            std::str::from_utf8(raw).map_err(|_| r.corrupt("string table entry is not UTF-8"))?;
        table.push(s.to_string());
    }

    let n_sections = r.len("section table")?;
    let mut sections = Vec::with_capacity(n_sections.min(1 << 16));
    for _ in 0..n_sections {
        let name = r.string_id(&table)?;
        let len = r.len("section")?;
        sections.push((name, len));
    }

    let mut offset = r.pos;
    let mut fields = Vec::with_capacity(sections.len());
    for (name, len) in &sections {
        let end = offset.checked_add(*len).ok_or(SnapshotError::Truncated {
            section: name.clone(),
        })?;
        let payload = bytes.get(offset..end).ok_or(SnapshotError::Truncated {
            section: name.clone(),
        })?;
        let mut pr = Reader::new(payload, name);
        let v = pr.value(&table)?;
        if pr.pos != payload.len() {
            return Err(pr.corrupt(format!(
                "{} trailing bytes after section value",
                payload.len() - pr.pos
            )));
        }
        fields.push((name.clone(), v));
        offset = end;
    }
    if offset != bytes.len() {
        return Err(SnapshotError::Corrupt {
            msg: format!("{} trailing bytes after last section", bytes.len() - offset),
        });
    }

    Ok(Decoded {
        kind,
        format_version,
        value: Value::Map(fields),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Map(vec![
            ("version".into(), Value::Int(2)),
            (
                "stats".into(),
                Value::Map(vec![
                    ("hits".into(), Value::Int(10)),
                    ("rate".into(), Value::Float(0.25)),
                    ("label".into(), Value::Str("open".into())),
                    ("extra".into(), Value::Null),
                ]),
            ),
            (
                "tags".into(),
                Value::Seq(
                    std::iter::repeat_n(Value::Int(0), 100)
                        .chain((0..10).map(Value::Int))
                        .collect(),
                ),
            ),
            (
                "flags".into(),
                Value::Seq(vec![
                    Value::Bool(true),
                    Value::Bool(true),
                    Value::Bool(false),
                ]),
            ),
        ])
    }

    #[test]
    fn roundtrip_preserves_tree_and_header() {
        let v = sample();
        let bytes = encode(&v, KIND_FULL, 2);
        let d = decode(&bytes).expect("container decodes");
        assert_eq!(d.kind, KIND_FULL);
        assert_eq!(d.format_version, 2);
        assert_eq!(d.value, v);
    }

    #[test]
    fn rle_compresses_constant_runs() {
        let constant = Value::Map(vec![("xs".into(), Value::Seq(vec![Value::Int(7); 10_000]))]);
        let varied = Value::Map(vec![(
            "xs".into(),
            Value::Seq((0..10_000).map(|i| Value::Int(i * 1000)).collect()),
        )]);
        let c = encode(&constant, KIND_FULL, 2).len();
        let v = encode(&varied, KIND_FULL, 2).len();
        assert!(c < 64, "constant run should collapse, got {c} bytes");
        assert!(v > 10_000, "varied run cannot collapse, got {v} bytes");
        assert_eq!(
            decode(&encode(&varied, KIND_FULL, 2)).unwrap().value,
            varied
        );
    }

    #[test]
    fn integers_on_both_sides_of_64_bits_keep_the_wide_encoding() {
        let edges = [
            0,
            -1,
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::from(i64::MAX) + 1,
            i128::from(i64::MIN) - 1,
            i128::from(u64::MAX),
            i128::MIN,
            i128::MAX,
        ];
        for v in edges {
            let mut fast = Vec::new();
            Scalar::int(v).write(&mut fast);
            let mut wide = vec![3];
            put_wide_varint(&mut wide, zigzag(v));
            assert_eq!(fast, wide, "{v}");
        }
        let tree = Value::Map(vec![(
            "xs".into(),
            Value::Seq(
                edges
                    .iter()
                    .flat_map(|&v| [Value::Int(v), Value::Int(v)])
                    .collect(),
            ),
        )]);
        assert_eq!(decode(&encode(&tree, KIND_FULL, 2)).unwrap().value, tree);
    }

    #[test]
    fn floats_roundtrip_by_bit_pattern() {
        let v = Value::Map(vec![(
            "fs".into(),
            Value::Seq(vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Float(1.0 / 3.0),
            ]),
        )]);
        let d = decode(&encode(&v, KIND_FULL, 2)).unwrap();
        let Value::Map(fields) = &d.value else {
            panic!()
        };
        let Value::Seq(fs) = &fields[0].1 else {
            panic!()
        };
        let bits: Vec<u64> = fs
            .iter()
            .map(|f| match f {
                Value::Float(x) => x.to_bits(),
                other => panic!("expected float, got {other:?}"),
            })
            .collect();
        assert_eq!(bits[0], 0.0f64.to_bits());
        assert_eq!(
            bits[1],
            (-0.0f64).to_bits(),
            "-0.0 must not collapse into 0.0"
        );
        assert_eq!(bits[2], f64::NAN.to_bits());
        assert_eq!(bits[3], (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn bad_magic_is_typed() {
        assert!(matches!(decode(b"JSON{}"), Err(SnapshotError::BadMagic)));
        assert!(matches!(decode(b""), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn container_version_mismatch_is_typed() {
        let mut bytes = encode(&sample(), KIND_FULL, 2);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        match decode(&bytes) {
            Err(SnapshotError::BinaryVersionMismatch { expected, got }) => {
                assert_eq!(expected, SNAPSHOT_BINARY_VERSION);
                assert_eq!(got, 99);
            }
            other => panic!("expected BinaryVersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_names_the_dying_section() {
        let bytes = encode(&sample(), KIND_FULL, 2);
        // Chop mid-payload: the error must name a real section, and no
        // prefix length may panic.
        let mut seen_section = false;
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(_) => panic!("decoded a {cut}-byte prefix of {}", bytes.len()),
                Err(SnapshotError::Truncated { section }) => {
                    if section != "header" {
                        assert!(
                            ["version", "stats", "tags", "flags"].contains(&section.as_str()),
                            "unknown section `{section}`"
                        );
                        seen_section = true;
                    }
                }
                Err(
                    SnapshotError::BadMagic
                    | SnapshotError::BinaryVersionMismatch { .. }
                    | SnapshotError::Corrupt { .. },
                ) => {}
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(seen_section, "no cut point ever blamed a payload section");
    }

    /// A full container with one section `s` holding `depth` nested
    /// one-element seqs around a `null`.
    fn nested_container(depth: usize) -> Vec<u8> {
        let mut payload = [6u8, 1, 1].repeat(depth);
        payload.push(0);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_BINARY_VERSION.to_le_bytes());
        bytes.push(KIND_FULL);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 1, b's', 1, 0]);
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let d = decode(&nested_container(MAX_DEPTH)).expect("the cap itself decodes");
        let again = encode(&d.value, KIND_FULL, 2);
        assert_eq!(
            again,
            nested_container(MAX_DEPTH),
            "the encoder writes the same bytes"
        );
        for depth in [MAX_DEPTH + 1, 200_000] {
            match decode(&nested_container(depth)) {
                Err(SnapshotError::Corrupt { msg }) => {
                    assert!(msg.contains("nesting deeper than"), "{msg}")
                }
                other => panic!("{depth} levels: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_tag_is_typed_not_a_panic() {
        let mut bytes = encode(&sample(), KIND_FULL, 2);
        let n = bytes.len();
        bytes[n - 1] = 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::Corrupt { .. } | SnapshotError::Truncated { .. })
        ));
    }
}
