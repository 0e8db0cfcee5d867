//! Per-fragment binary snapshots: persisting [`Fragment`]s with the same
//! tagged little-endian value encoding as `grape_graph::io`'s graph
//! snapshots — the second half of the persistent-storage roadmap item.
//!
//! A prepared query that has been **evicted** from memory must come back
//! without re-partitioning the graph or re-running PEval.  That needs the
//! fragments themselves (local subgraph, global-id mapping, inner/outer
//! split, border sets) to round-trip through disk:
//!
//! * [`write_fragment_snapshot`] / [`read_fragment_snapshot`] persist **one**
//!   fragment as a self-delimiting record (magic header + value tree), so
//!   records can be *concatenated* into a single spill file and read back
//!   one at a time;
//! * [`write_fragments_file`] / [`read_fragments_file`] store a whole
//!   fragment set as a count-prefixed concatenation, rejecting trailing
//!   bytes after the last record;
//! * [`rehydrate_fragmentation`] reassembles a [`Fragmentation`] from
//!   reloaded fragments plus the retained source graph and vertex
//!   assignment, re-deriving the fragmentation graph `G_P` from the border
//!   sets exactly like fresh partitioning does;
//! * [`write_fragment_records`] / [`read_fragment_records`] are the dense
//!   fixed-width encoding the worker pipes ship fragments in: the local
//!   graph travels as its edge list alone and the CSR indexes are rebuilt
//!   on decode.
//!
//! The codec is strict: every record is validated with
//! [`Fragment::check_invariants`] on read, and malformed or truncated input
//! surfaces as [`SnapshotError`] instead of a half-built fragment.
//!
//! On top of the per-fragment codec sits the **tiered spill store**
//! ([`QuerySpillStore`]): one LSM-lite store per evicted query.  The first
//! spill writes a **base snapshot** (full fragments, partials, the
//! fragmentation graph `G_P` and the derived quotient routing tables);
//! every later spill appends a **delta-encoded increment** carrying only
//! the fragments and partials whose serialized records changed since the
//! previous spill, plus the `G_P` border patch and fresh quotient tables.
//! [`QuerySpillStore::load`] folds base ⊕ increments back into one state,
//! and [`QuerySpillStore::compact`] rewrites the folded state as a new base
//! (a new *generation*), atomically.  Every file is staged with
//! `grape_graph::io::atomic_write_file` (tmp + fsync + rename), so a crash
//! mid-spill leaves the previous on-disk state fully readable and at worst
//! an orphaned `.tmp` that [`QuerySpillStore::recover`] cleans up.

use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use grape_graph::graph::{Directedness, Graph};
use grape_graph::io::{
    atomic_write_file, ensure_fully_consumed, read_value_tree, write_value_tree, IoError,
};
use grape_graph::types::{Edge, Label, VertexId};
use serde::{Deserialize, Serialize, Value};

use crate::delta::QuotientTables;
use crate::fragment::{assemble_edge_cut, from_persisted_parts, Fragment, Fragmentation, LocalId};
use crate::fragmentation_graph::FragmentationGraph;

/// Magic header of one fragment snapshot record: "GRPF" + format version 1.
const FRAGMENT_MAGIC: &[u8; 5] = b"GRPF\x01";

/// Errors produced by the fragment snapshot codec.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O or value-tree failure.
    Io(IoError),
    /// A record that decodes but does not describe a valid fragment.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "fragment snapshot i/o: {e}"),
            SnapshotError::Malformed(reason) => {
                write!(f, "malformed fragment snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<IoError> for SnapshotError {
    fn from(e: IoError) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(IoError::Io(e))
    }
}

/// Converts a fragment into its persistable value tree (the spill-store
/// record).
fn fragment_to_value(frag: &Fragment) -> Value {
    let globals: Vec<VertexId> = frag.all_locals().map(|l| frag.global_of(l)).collect();
    Value::Map(vec![
        ("id".to_string(), (frag.id() as u64).to_value()),
        (
            "num_inner".to_string(),
            (frag.num_inner() as u64).to_value(),
        ),
        ("globals".to_string(), globals.to_value()),
        ("in_border".to_string(), frag.in_border_locals().to_value()),
        (
            "out_border".to_string(),
            frag.out_border_locals().to_value(),
        ),
        ("local".to_string(), frag.local_graph().to_value()),
    ])
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, SnapshotError> {
    v.get_field(name)
        .ok_or_else(|| SnapshotError::Malformed(format!("missing field `{name}`")))
}

/// Rebuilds a fragment from its value tree, validating the invariants.
fn fragment_from_value(v: &Value) -> Result<Fragment, SnapshotError> {
    let shape = |e: serde::Error| SnapshotError::Malformed(e.to_string());
    let id = u64::from_value(field(v, "id")?).map_err(shape)? as usize;
    let num_inner = u64::from_value(field(v, "num_inner")?).map_err(shape)? as usize;
    let globals = Vec::<VertexId>::from_value(field(v, "globals")?).map_err(shape)?;
    let in_border = Vec::<LocalId>::from_value(field(v, "in_border")?).map_err(shape)?;
    let out_border = Vec::<LocalId>::from_value(field(v, "out_border")?).map_err(shape)?;
    let local = Graph::from_value(field(v, "local")?).map_err(shape)?;
    if num_inner > globals.len() || local.num_vertices() != globals.len() {
        return Err(SnapshotError::Malformed(format!(
            "inner/local counts disagree: {num_inner} inner, {} globals, {} local vertices",
            globals.len(),
            local.num_vertices()
        )));
    }
    if in_border
        .iter()
        .chain(out_border.iter())
        .any(|&l| (l as usize) >= globals.len())
    {
        return Err(SnapshotError::Malformed(
            "border local id out of range".to_string(),
        ));
    }
    let frag = Fragment::from_raw_parts(id, local, globals, num_inner, in_border, out_border);
    if !frag.check_invariants() {
        return Err(SnapshotError::Malformed(
            "fragment invariants do not hold (duplicate globals or inconsistent borders)"
                .to_string(),
        ));
    }
    Ok(frag)
}

/// Writes **one** fragment as a self-delimiting record (magic header +
/// value tree).  Records written back to back form a valid concatenated
/// stream for [`read_fragment_snapshot`].
pub fn write_fragment_snapshot<W: Write>(
    frag: &Fragment,
    writer: &mut W,
) -> Result<(), SnapshotError> {
    writer.write_all(FRAGMENT_MAGIC)?;
    write_value_tree(writer, &fragment_to_value(frag))?;
    Ok(())
}

/// Reads exactly one fragment record, leaving the reader positioned at the
/// first byte after it (no lookahead, so concatenated records read back one
/// at a time).
pub fn read_fragment_snapshot<R: Read>(reader: &mut R) -> Result<Fragment, SnapshotError> {
    let mut magic = [0u8; 5];
    reader
        .read_exact(&mut magic)
        .map_err(|e| SnapshotError::Io(IoError::Io(e)))?;
    if &magic != FRAGMENT_MAGIC {
        return Err(SnapshotError::Malformed(
            "bad magic header (not a grape fragment snapshot, or wrong version)".to_string(),
        ));
    }
    let value = read_value_tree(reader)?;
    fragment_from_value(&value)
}

/// Writes a fragment set to a writer: a `u64` little-endian count prefix
/// followed by the concatenated per-fragment records.  Composable — e.g.
/// the prepared-query spill files embed this block followed by the
/// partials.
pub fn write_fragments<W: Write>(
    fragments: &[Arc<Fragment>],
    writer: &mut W,
) -> Result<(), SnapshotError> {
    writer.write_all(&(fragments.len() as u64).to_le_bytes())?;
    for frag in fragments {
        write_fragment_snapshot(frag, writer)?;
    }
    Ok(())
}

/// Reads a count-prefixed fragment block back, leaving the reader
/// positioned after the last declared record (no end-of-input check — the
/// caller of a composed format decides when the stream must end).
pub fn read_fragments<R: Read>(reader: &mut R) -> Result<Vec<Fragment>, SnapshotError> {
    let mut count = [0u8; 8];
    reader.read_exact(&mut count)?;
    let n = u64::from_le_bytes(count) as usize;
    let mut fragments = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        fragments.push(read_fragment_snapshot(reader)?);
    }
    Ok(fragments)
}

/// Writes a whole fragment set to `path` ([`write_fragments`] as the entire
/// file).
pub fn write_fragments_file<P: AsRef<Path>>(
    fragments: &[Arc<Fragment>],
    path: P,
) -> Result<(), SnapshotError> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_fragments(fragments, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Reads a fragment set back from `path`, rejecting trailing bytes after
/// the last declared record (concatenation gone out of sync with the count
/// prefix must not read back silently).
pub fn read_fragments_file<P: AsRef<Path>>(path: P) -> Result<Vec<Fragment>, SnapshotError> {
    let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
    let fragments = read_fragments(&mut r)?;
    ensure_fully_consumed(&mut r)?;
    Ok(fragments)
}

/// Reassembles a [`Fragmentation`] from reloaded fragments: `G_P` is
/// re-derived from the fragments' border sets, exactly as fresh edge-cut
/// partitioning does.  `assignment` must map every vertex of `source` to
/// its owning fragment (the evolving-graph timeline retains it) and the
/// fragments must be the complete set, in fragment-id order.
pub fn rehydrate_fragmentation(
    fragments: Vec<Fragment>,
    assignment: Vec<u32>,
    source: Arc<Graph>,
    strategy_name: &str,
) -> Result<Fragmentation, SnapshotError> {
    if assignment.len() != source.num_vertices() {
        return Err(SnapshotError::Malformed(format!(
            "assignment covers {} vertices, source has {}",
            assignment.len(),
            source.num_vertices()
        )));
    }
    for (i, frag) in fragments.iter().enumerate() {
        if frag.id() != i {
            return Err(SnapshotError::Malformed(format!(
                "fragment {} found at position {i}: snapshots out of order",
                frag.id()
            )));
        }
    }
    Ok(assemble_edge_cut(
        fragments.into_iter().map(Arc::new).collect(),
        assignment,
        source,
        strategy_name.to_string(),
    ))
}

/// Reassembles a [`Fragmentation`] around a **persisted** `G_P` — the tiered
/// store's rehydration path, which must not re-derive anything from border
/// sets.  Counts are validated against the retained source graph; the tests
/// additionally pin the persisted `G_P` equal to a freshly derived one.
pub fn rehydrate_fragmentation_persisted(
    fragments: Vec<Fragment>,
    gp: FragmentationGraph,
    source: Arc<Graph>,
    strategy_name: &str,
) -> Result<Fragmentation, SnapshotError> {
    if gp.num_vertices() != source.num_vertices() {
        return Err(SnapshotError::Malformed(format!(
            "persisted G_P covers {} vertices, source has {}",
            gp.num_vertices(),
            source.num_vertices()
        )));
    }
    if gp.num_fragments() != fragments.len() {
        return Err(SnapshotError::Malformed(format!(
            "persisted G_P has {} fragments, snapshot has {}",
            gp.num_fragments(),
            fragments.len()
        )));
    }
    for (i, frag) in fragments.iter().enumerate() {
        if frag.id() != i {
            return Err(SnapshotError::Malformed(format!(
                "fragment {} found at position {i}: snapshots out of order",
                frag.id()
            )));
        }
    }
    Ok(from_persisted_parts(
        fragments.into_iter().map(Arc::new).collect(),
        gp,
        source,
        strategy_name.to_string(),
    ))
}

// ---------------------------------------------------------------------------
// Dense fragment records
// ---------------------------------------------------------------------------

/// Smallest possible dense record: id, `num_inner`, directedness byte and
/// the four `u64` count prefixes of an empty fragment.
const MIN_RECORD_BYTES: usize = 8 + 8 + 1 + 4 * 8;

/// Appends a **dense fragment block** to `out`: a `u64` count, then one
/// fixed-layout little-endian record per fragment —
///
/// ```text
/// u64 id | u64 num_inner | u8 directedness (0 directed, 1 undirected)
/// u64 |L| | |L| × u64 global id | |L| × u32 vertex label
/// u64 |I| | |I| × u32 in-border local id
/// u64 |O| | |O| × u32 out-border local id
/// u64 |E| | |E| × (u32 src, u32 dst, f64 weight bits, u32 label)
/// ```
///
/// so one record is `49 + 12·|L| + 4·(|I| + |O|) + 20·|E|` bytes.  The
/// local graph ships as its edge list only: [`read_fragment_records`]
/// rebuilds both CSR indexes with the same `Graph::from_parts` call the
/// edge-cut builder makes, so the decoded fragment is structurally
/// identical to the encoded one.  This is the worker-pipe handshake
/// format; the spill store keeps the value-tree records above.
pub fn write_fragment_records(fragments: &[&Fragment], out: &mut Vec<u8>) {
    let size: usize = fragments
        .iter()
        .map(|f| {
            MIN_RECORD_BYTES
                + 12 * f.num_local()
                + 4 * (f.in_border_locals().len() + f.out_border_locals().len())
                + 20 * f.num_local_edges()
        })
        .sum();
    out.reserve(8 + size);
    out.extend_from_slice(&(fragments.len() as u64).to_le_bytes());
    for frag in fragments {
        let put_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        let put_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        let local = frag.local_graph();
        put_u64(out, frag.id() as u64);
        put_u64(out, frag.num_inner() as u64);
        out.push(match local.directedness() {
            Directedness::Directed => 0,
            Directedness::Undirected => 1,
        });
        put_u64(out, frag.num_local() as u64);
        for l in frag.all_locals() {
            put_u64(out, frag.global_of(l));
        }
        for l in frag.all_locals() {
            put_u32(out, frag.label(l));
        }
        for border in [frag.in_border_locals(), frag.out_border_locals()] {
            put_u64(out, border.len() as u64);
            for &l in border {
                put_u32(out, l);
            }
        }
        put_u64(out, local.num_edges() as u64);
        for e in local.edges() {
            put_u32(out, e.src as u32);
            put_u32(out, e.dst as u32);
            put_u64(out, e.weight.to_bits());
            put_u32(out, e.label);
        }
    }
}

/// A bounds-checked little-endian cursor over one dense block.
struct RecordReader<'a> {
    bytes: &'a [u8],
}

impl<'a> RecordReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.bytes.len() {
            return Err(SnapshotError::Malformed(format!(
                "fragment record truncated: {n} bytes needed, {} left",
                self.bytes.len()
            )));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A count prefix of items at least `width` bytes each, rejected unless
    /// that many items fit in the bytes still present — so a corrupt count
    /// can never size an allocation.
    fn count(&mut self, width: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n > (self.bytes.len() / width) as u64 {
            return Err(SnapshotError::Malformed(format!(
                "{what} count {n} exceeds the {} bytes left in the record",
                self.bytes.len()
            )));
        }
        Ok(n as usize)
    }

    /// A count-prefixed run of local ids, each below `num_local`.
    fn local_ids(&mut self, num_local: usize, what: &str) -> Result<Vec<LocalId>, SnapshotError> {
        let n = self.count(4, what)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let l = self.u32()?;
            if l as usize >= num_local {
                return Err(SnapshotError::Malformed(format!(
                    "{what} local id {l} out of range ({num_local} local vertices)"
                )));
            }
            ids.push(l);
        }
        Ok(ids)
    }

    fn fragment(&mut self) -> Result<Fragment, SnapshotError> {
        let overflow = |_| SnapshotError::Malformed("fragment header overflows usize".to_string());
        let id = usize::try_from(self.u64()?).map_err(overflow)?;
        let num_inner = usize::try_from(self.u64()?).map_err(overflow)?;
        let directedness = match self.u8()? {
            0 => Directedness::Directed,
            1 => Directedness::Undirected,
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown directedness byte {other}"
                )))
            }
        };
        let n = self.count(8 + 4, "vertex")?;
        if num_inner > n {
            return Err(SnapshotError::Malformed(format!(
                "{num_inner} inner vertices of {n} local ones"
            )));
        }
        let globals = (0..n)
            .map(|_| self.u64())
            .collect::<Result<Vec<VertexId>, _>>()?;
        let labels = (0..n)
            .map(|_| self.u32())
            .collect::<Result<Vec<Label>, _>>()?;
        let in_border = self.local_ids(n, "in-border")?;
        let out_border = self.local_ids(n, "out-border")?;
        let m = self.count(20, "edge")?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let src = self.u32()?;
            let dst = self.u32()?;
            let weight = f64::from_bits(self.u64()?);
            let label = self.u32()?;
            if src as usize >= n || dst as usize >= n {
                return Err(SnapshotError::Malformed(format!(
                    "edge {src} -> {dst} out of range ({n} local vertices)"
                )));
            }
            edges.push(Edge::new(src as VertexId, dst as VertexId, weight, label));
        }
        let local = Graph::from_parts(directedness, n, edges, labels);
        let frag = Fragment::from_raw_parts(id, local, globals, num_inner, in_border, out_border);
        if !frag.check_invariants() {
            return Err(SnapshotError::Malformed(
                "fragment invariants do not hold (duplicate globals or inconsistent borders)"
                    .to_string(),
            ));
        }
        Ok(frag)
    }
}

/// Decodes a dense fragment block written by [`write_fragment_records`].
/// `bytes` must hold exactly the block: a trailing byte is an error, as is
/// any count prefix larger than the bytes left, any border or edge id out
/// of range, and any fragment failing [`Fragment::check_invariants`].
pub fn read_fragment_records(bytes: &[u8]) -> Result<Vec<Fragment>, SnapshotError> {
    let mut r = RecordReader { bytes };
    let n = r.count(MIN_RECORD_BYTES, "fragment")?;
    let mut fragments = Vec::with_capacity(n);
    for _ in 0..n {
        fragments.push(r.fragment()?);
    }
    if !r.bytes.is_empty() {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after the fragment block",
            r.bytes.len()
        )));
    }
    Ok(fragments)
}

// ---------------------------------------------------------------------------
// The tiered spill store
// ---------------------------------------------------------------------------

/// Magic prefix of every query spill file; the byte after it is the format
/// version.
const SPILL_MAGIC: &[u8; 4] = b"GRQS";
/// Version 1: the legacy wholesale format (full fragments + partials, no
/// `G_P`, no increments).  Still readable as a base snapshot.
const SPILL_VERSION_V1: u8 = 1;
/// Version 2: the tiered format (base + increment records).
const SPILL_VERSION_V2: u8 = 2;
/// Record kind byte of a version-2 base snapshot.
const RECORD_BASE: u8 = b'B';
/// Record kind byte of a version-2 increment.
const RECORD_INCREMENT: u8 = b'I';

/// FNV-1a, the change detector of the increment encoder: a fragment or
/// partial whose serialized record hashes identically to the previous spill
/// is byte-identical (the codec is deterministic) and is not rewritten.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads the 4-byte magic + 1-byte version, splitting "not a spill file"
/// from "a spill file of an unsupported version" (the latter names the
/// found and supported versions so the operator knows what to do).
fn read_spill_version<R: Read>(r: &mut R) -> Result<u8, SnapshotError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| SnapshotError::Io(IoError::Io(e)))?;
    if &magic != SPILL_MAGIC {
        return Err(SnapshotError::Malformed(
            "not a grape query spill file (bad magic header)".to_string(),
        ));
    }
    let mut ver = [0u8; 1];
    r.read_exact(&mut ver)
        .map_err(|e| SnapshotError::Io(IoError::Io(e)))?;
    match ver[0] {
        SPILL_VERSION_V1 | SPILL_VERSION_V2 => Ok(ver[0]),
        other => Err(SnapshotError::Malformed(format!(
            "unsupported query spill format version {other}: this build reads versions \
             {SPILL_VERSION_V1} (wholesale) and {SPILL_VERSION_V2} (tiered) — \
             rewrite the spill with a matching build or clear the spill directory"
        ))),
    }
}

fn header_u64(v: &Value, name: &str) -> Result<u64, SnapshotError> {
    match field(v, name)? {
        Value::UInt(n) => Ok(*n),
        _ => Err(SnapshotError::Malformed(format!(
            "header field `{name}` is not an unsigned integer"
        ))),
    }
}

fn header_str(v: &Value, name: &str) -> Result<String, SnapshotError> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(SnapshotError::Malformed(format!(
            "header field `{name}` is not a string"
        ))),
    }
}

fn read_count<R: Read>(r: &mut R) -> Result<usize, SnapshotError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf) as usize)
}

/// Reads a `u64`-count-prefixed run of partial value trees.
fn read_partials<R: Read>(r: &mut R) -> Result<Vec<Value>, SnapshotError> {
    let n = read_count(r)?;
    let mut partials = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        partials.push(read_value_tree(r)?);
    }
    Ok(partials)
}

/// The folded on-disk state of one query: base ⊕ all increments.
#[derive(Debug)]
pub struct LoadedSpill {
    /// The complete fragment set, in fragment-id order.
    pub fragments: Vec<Fragment>,
    /// The persisted fragmentation graph; `None` for a legacy (v1) base,
    /// whose reader falls back to re-deriving it.
    pub gp: Option<FragmentationGraph>,
    /// The persisted quotient routing tables (newest record wins); `None`
    /// for a legacy base.
    pub quotient: Option<Arc<QuotientTables>>,
    /// One partial-result value tree per fragment.
    pub partials: Vec<Value>,
    /// Compaction generation of the base this state was folded from.
    pub generation: u64,
    /// Partition strategy recorded in the base (`None` for legacy bases).
    pub strategy: Option<String>,
}

/// Point-in-time counters of one query's spill store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SpillStoreStats {
    /// Number of increments currently chained on the base.
    pub chain_len: usize,
    /// On-disk size of the current base snapshot.
    pub base_bytes: u64,
    /// Combined on-disk size of the chained increments.
    pub increment_bytes: u64,
    /// Bytes written by the most recent spill (base or increment).
    pub last_spill_bytes: u64,
    /// Completed compactions (chain folds) over the store's lifetime.
    pub compactions: u64,
}

/// An LSM-lite, crash-safe spill store for **one** evicted query.
///
/// File set inside the spill directory, all staged via tmp + fsync + rename:
///
/// | file                    | content                                          |
/// |-------------------------|--------------------------------------------------|
/// | `query-{id}.base`       | v2 base: header, `G_P`, quotient tables, all fragments, all partials |
/// | `query-{id}.inc-{seq}`  | v2 increment: header, owner suffix, changed fragments, fresh quotient tables, changed partials |
/// | `query-{id}.spill`      | legacy v1 wholesale snapshot, accepted as a base |
/// | `*.tmp`                 | staging leftovers of a crashed write — never read, cleaned up |
///
/// Increments carry the base's *generation*; compaction writes a new base
/// with generation + 1, so increments orphaned by a crash mid-compaction
/// are recognisably stale and ignored.
#[derive(Debug)]
pub struct QuerySpillStore {
    dir: PathBuf,
    query_id: usize,
    generation: u64,
    chain_len: usize,
    has_base: bool,
    legacy_base: bool,
    /// FNV-1a over each fragment's serialized record as of the last spill.
    frag_hashes: Vec<u64>,
    /// FNV-1a over each partial's serialized value tree as of the last spill.
    partial_hashes: Vec<u64>,
    /// `G_P` owner-map length as of the last spill (vertex ids are dense and
    /// never reassigned, so the delta is a pure suffix).
    owner_len: usize,
    base_bytes: u64,
    increment_bytes: u64,
    last_spill_bytes: u64,
    compactions: u64,
}

impl QuerySpillStore {
    fn empty(dir: &Path, query_id: usize) -> QuerySpillStore {
        QuerySpillStore {
            dir: dir.to_path_buf(),
            query_id,
            generation: 0,
            chain_len: 0,
            has_base: false,
            legacy_base: false,
            frag_hashes: Vec::new(),
            partial_hashes: Vec::new(),
            owner_len: 0,
            base_bytes: 0,
            increment_bytes: 0,
            last_spill_bytes: 0,
            compactions: 0,
        }
    }

    /// Creates a fresh store for `query_id`, removing any stale files a
    /// previous incarnation of the id left behind (including orphaned
    /// `.tmp` staging files).
    pub fn create(dir: &Path, query_id: usize) -> Result<QuerySpillStore, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let store = Self::empty(dir, query_id);
        store.remove_query_files()?;
        Ok(store)
    }

    /// Recovers a store from whatever a previous process left on disk:
    /// reads the base (v2 or legacy v1), accepts the longest valid
    /// increment chain of the base's generation, and deletes everything
    /// else — stale-generation increments from a crashed compaction,
    /// increments past a corrupt link, and orphaned `.tmp` files.  Returns
    /// `None` when no base exists.
    pub fn recover(dir: &Path, query_id: usize) -> Result<Option<QuerySpillStore>, SnapshotError> {
        let mut store = Self::empty(dir, query_id);
        store.clean_temps();
        let legacy = if store.base_path().exists() {
            false
        } else if store.legacy_path().exists() {
            true
        } else {
            store.remove_query_files()?;
            return Ok(None);
        };
        store.has_base = true;
        store.legacy_base = legacy;
        let mut folded = read_base_file(&store.active_base_path())?;
        store.generation = folded.generation;

        let mut chain = 0usize;
        if !legacy {
            loop {
                let path = store.increment_path(chain);
                if !path.exists() {
                    break;
                }
                if apply_increment_file(&path, &mut folded, store.generation, chain as u64).is_err()
                {
                    break;
                }
                chain += 1;
            }
        }
        store.chain_len = chain;
        // Increments past the accepted chain are stale or corrupt.
        for (seq, path) in store.increment_files()? {
            if seq >= chain {
                let _ = std::fs::remove_file(path);
            }
        }
        store.install_manifest(&folded)?;
        store.base_bytes = std::fs::metadata(store.active_base_path())?.len();
        store.increment_bytes = 0;
        for seq in 0..chain {
            store.increment_bytes += std::fs::metadata(store.increment_path(seq))?.len();
        }
        Ok(Some(store))
    }

    /// The spill directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the current base snapshot (`.base`, or the legacy
    /// `.spill` while the store still sits on a v1 file).
    pub fn active_base_path(&self) -> PathBuf {
        if self.legacy_base {
            self.legacy_path()
        } else {
            self.base_path()
        }
    }

    /// The path of increment `seq` of the current chain.
    pub fn increment_path(&self, seq: usize) -> PathBuf {
        self.dir.join(format!("query-{}.inc-{seq}", self.query_id))
    }

    fn base_path(&self) -> PathBuf {
        self.dir.join(format!("query-{}.base", self.query_id))
    }

    fn legacy_path(&self) -> PathBuf {
        self.dir.join(format!("query-{}.spill", self.query_id))
    }

    /// Number of increments chained on the current base.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Whether a base snapshot has been written.
    pub fn has_base(&self) -> bool {
        self.has_base
    }

    /// Point-in-time store counters.
    pub fn stats(&self) -> SpillStoreStats {
        SpillStoreStats {
            chain_len: self.chain_len,
            base_bytes: self.base_bytes,
            increment_bytes: self.increment_bytes,
            last_spill_bytes: self.last_spill_bytes,
            compactions: self.compactions,
        }
    }

    /// Spills the query's current state: the first call (or any call while
    /// the base is a legacy v1 file) writes a full base snapshot; later
    /// calls append an increment holding only what changed since the
    /// previous spill.  Returns the path of the file written.
    pub fn spill(
        &mut self,
        frag: &Fragmentation,
        partials: &[Value],
    ) -> Result<PathBuf, SnapshotError> {
        let m = frag.num_fragments();
        if partials.len() != m {
            return Err(SnapshotError::Malformed(format!(
                "{} partials for {m} fragments",
                partials.len()
            )));
        }
        let frag_records = serialize_fragment_records(frag.fragments())?;
        let partial_records = serialize_partial_records(partials)?;
        let frag_hashes: Vec<u64> = frag_records.iter().map(|b| fnv1a(b)).collect();
        let partial_hashes: Vec<u64> = partial_records.iter().map(|b| fnv1a(b)).collect();
        let owner_total = frag.gp().num_vertices();

        let path = if !self.has_base || self.legacy_base {
            self.write_base(
                &frag.gp().to_value(),
                &frag.quotient_tables().to_value(),
                frag.strategy_name(),
                &frag_records,
                &partial_records,
            )?
        } else {
            if self.frag_hashes.len() != m || self.partial_hashes.len() != partials.len() {
                return Err(SnapshotError::Malformed(format!(
                    "fragment count changed across spills ({} -> {m})",
                    self.frag_hashes.len()
                )));
            }
            let changed_frags: Vec<usize> = (0..m)
                .filter(|&i| frag_hashes[i] != self.frag_hashes[i])
                .collect();
            let changed_partials: Vec<usize> = (0..m)
                .filter(|&i| partial_hashes[i] != self.partial_hashes[i])
                .collect();
            let owner_suffix: Vec<u64> = (self.owner_len..owner_total)
                .map(|v| frag.gp().owner(v as VertexId) as u64)
                .collect();
            self.write_increment(
                &owner_suffix,
                &changed_frags,
                &frag_records,
                &frag.quotient_tables().to_value(),
                &changed_partials,
                &partial_records,
            )?
        };
        self.frag_hashes = frag_hashes;
        self.partial_hashes = partial_hashes;
        self.owner_len = owner_total;
        Ok(path)
    }

    /// Folds base ⊕ increments back into one state.
    pub fn load(&self) -> Result<LoadedSpill, SnapshotError> {
        if !self.has_base {
            return Err(SnapshotError::Malformed(
                "spill store has no base snapshot".to_string(),
            ));
        }
        let mut folded = read_base_file(&self.active_base_path())?;
        if folded.generation != self.generation {
            return Err(SnapshotError::Malformed(format!(
                "base snapshot generation {} does not match the store's {}",
                folded.generation, self.generation
            )));
        }
        for seq in 0..self.chain_len {
            apply_increment_file(
                &self.increment_path(seq),
                &mut folded,
                self.generation,
                seq as u64,
            )?;
        }
        Ok(folded)
    }

    /// Folds the increment chain into a new base snapshot of the next
    /// generation, atomically: the new base is staged and renamed first;
    /// only then are the old increments deleted.  A crash in between leaves
    /// stale-generation increments that [`QuerySpillStore::recover`]
    /// recognises and removes.  Returns `false` when there is nothing to
    /// fold.
    pub fn compact(&mut self) -> Result<bool, SnapshotError> {
        if self.chain_len == 0 {
            return Ok(false);
        }
        let folded = self.load()?;
        let gp = folded.gp.as_ref().ok_or_else(|| {
            SnapshotError::Malformed("cannot compact a legacy chain without G_P".to_string())
        })?;
        let quotient = folded.quotient.as_ref().ok_or_else(|| {
            SnapshotError::Malformed("cannot compact a chain without quotient tables".to_string())
        })?;
        let frag_arcs: Vec<Arc<Fragment>> =
            folded.fragments.iter().cloned().map(Arc::new).collect();
        let frag_records = serialize_fragment_records(&frag_arcs)?;
        let partial_records = serialize_partial_records(&folded.partials)?;
        let strategy = folded.strategy.clone().unwrap_or_default();
        self.write_base(
            &gp.to_value(),
            &quotient.to_value(),
            &strategy,
            &frag_records,
            &partial_records,
        )?;
        self.compactions += 1;
        Ok(true)
    }

    /// Deletes every file of this store.
    pub fn remove(&mut self) -> Result<(), SnapshotError> {
        self.remove_query_files()?;
        *self = Self::empty(&self.dir, self.query_id);
        Ok(())
    }

    /// Writes a base snapshot (generation + 1), then retires the previous
    /// generation's files.
    fn write_base(
        &mut self,
        gp: &Value,
        quotient: &Value,
        strategy: &str,
        frag_records: &[Vec<u8>],
        partial_records: &[Vec<u8>],
    ) -> Result<PathBuf, SnapshotError> {
        let path = self.base_path();
        let generation = self.generation + 1;
        let header = Value::Map(vec![
            ("generation".to_string(), Value::UInt(generation)),
            ("query".to_string(), Value::UInt(self.query_id as u64)),
            ("strategy".to_string(), Value::Str(strategy.to_string())),
        ]);
        atomic_write_file::<SnapshotError, _>(&path, |w| {
            w.write_all(SPILL_MAGIC)?;
            w.write_all(&[SPILL_VERSION_V2, RECORD_BASE])?;
            write_value_tree(w, &header)?;
            write_value_tree(w, gp)?;
            write_value_tree(w, quotient)?;
            w.write_all(&(frag_records.len() as u64).to_le_bytes())?;
            for record in frag_records {
                w.write_all(record)?;
            }
            w.write_all(&(partial_records.len() as u64).to_le_bytes())?;
            for record in partial_records {
                w.write_all(record)?;
            }
            Ok(())
        })?;
        for seq in 0..self.chain_len {
            let _ = std::fs::remove_file(self.increment_path(seq));
        }
        if self.legacy_base {
            let _ = std::fs::remove_file(self.legacy_path());
        }
        self.generation = generation;
        self.chain_len = 0;
        self.has_base = true;
        self.legacy_base = false;
        self.base_bytes = std::fs::metadata(&path)?.len();
        self.increment_bytes = 0;
        self.last_spill_bytes = self.base_bytes;
        Ok(path)
    }

    fn write_increment(
        &mut self,
        owner_suffix: &[u64],
        changed_frags: &[usize],
        frag_records: &[Vec<u8>],
        quotient: &Value,
        changed_partials: &[usize],
        partial_records: &[Vec<u8>],
    ) -> Result<PathBuf, SnapshotError> {
        let seq = self.chain_len;
        let path = self.increment_path(seq);
        let header = Value::Map(vec![
            ("generation".to_string(), Value::UInt(self.generation)),
            ("seq".to_string(), Value::UInt(seq as u64)),
            ("query".to_string(), Value::UInt(self.query_id as u64)),
        ]);
        let suffix = Value::Seq(owner_suffix.iter().map(|&o| Value::UInt(o)).collect());
        atomic_write_file::<SnapshotError, _>(&path, |w| {
            w.write_all(SPILL_MAGIC)?;
            w.write_all(&[SPILL_VERSION_V2, RECORD_INCREMENT])?;
            write_value_tree(w, &header)?;
            write_value_tree(w, &suffix)?;
            w.write_all(&(changed_frags.len() as u64).to_le_bytes())?;
            for &i in changed_frags {
                w.write_all(&frag_records[i])?;
            }
            write_value_tree(w, quotient)?;
            w.write_all(&(changed_partials.len() as u64).to_le_bytes())?;
            for &i in changed_partials {
                w.write_all(&(i as u64).to_le_bytes())?;
                w.write_all(&partial_records[i])?;
            }
            Ok(())
        })?;
        self.chain_len += 1;
        let bytes = std::fs::metadata(&path)?.len();
        self.increment_bytes += bytes;
        self.last_spill_bytes = bytes;
        Ok(path)
    }

    /// Rebuilds the change-detection manifest from a folded state (the
    /// recovery path — an in-process store maintains it incrementally).
    fn install_manifest(&mut self, folded: &LoadedSpill) -> Result<(), SnapshotError> {
        let mut frag_hashes = Vec::with_capacity(folded.fragments.len());
        for frag in &folded.fragments {
            let mut buf = Vec::new();
            write_fragment_snapshot(frag, &mut buf)?;
            frag_hashes.push(fnv1a(&buf));
        }
        let mut partial_hashes = Vec::with_capacity(folded.partials.len());
        for partial in &folded.partials {
            let mut buf = Vec::new();
            write_value_tree(&mut buf, partial)?;
            partial_hashes.push(fnv1a(&buf));
        }
        self.frag_hashes = frag_hashes;
        self.partial_hashes = partial_hashes;
        self.owner_len = folded.gp.as_ref().map_or(0, |gp| gp.num_vertices());
        Ok(())
    }

    /// All `query-{id}.inc-{seq}` files on disk, with their parsed seq.
    fn increment_files(&self) -> Result<Vec<(usize, PathBuf)>, SnapshotError> {
        let prefix = format!("query-{}.inc-", self.query_id);
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name.strip_prefix(&prefix) {
                if let Ok(seq) = seq.parse::<usize>() {
                    found.push((seq, entry.path()));
                }
            }
        }
        Ok(found)
    }

    /// Removes orphaned `.tmp` staging files of this query (a crashed write
    /// never reaches the final name, so temps are always garbage).
    fn clean_temps(&self) {
        let prefix = format!("query-{}.", self.query_id);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(&prefix) && name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Removes every `query-{id}.*` file (spills, increments, temps).
    fn remove_query_files(&self) -> Result<(), SnapshotError> {
        let prefix = format!("query-{}.", self.query_id);
        if !self.dir.exists() {
            return Ok(());
        }
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

fn serialize_fragment_records(fragments: &[Arc<Fragment>]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    fragments
        .iter()
        .map(|frag| {
            let mut buf = Vec::new();
            write_fragment_snapshot(frag, &mut buf)?;
            Ok(buf)
        })
        .collect()
}

fn serialize_partial_records(partials: &[Value]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    partials
        .iter()
        .map(|partial| {
            let mut buf = Vec::new();
            write_value_tree(&mut buf, partial)?;
            Ok(buf)
        })
        .collect()
}

/// Reads one base file — v2 (`G_P` + quotient tables included) or legacy v1
/// wholesale (accepted, with `gp`/`quotient` left `None`).
fn read_base_file(path: &Path) -> Result<LoadedSpill, SnapshotError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let version = read_spill_version(&mut r)?;
    if version == SPILL_VERSION_V1 {
        let fragments = read_fragments(&mut r)?;
        let partials = read_partials(&mut r)?;
        ensure_fully_consumed(&mut r)?;
        validate_folded(&fragments, &partials)?;
        return Ok(LoadedSpill {
            fragments,
            gp: None,
            quotient: None,
            partials,
            generation: 0,
            strategy: None,
        });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    if kind[0] != RECORD_BASE {
        return Err(SnapshotError::Malformed(format!(
            "expected a base record, found kind {:?}",
            kind[0] as char
        )));
    }
    let header = read_value_tree(&mut r)?;
    let generation = header_u64(&header, "generation")?;
    let strategy = header_str(&header, "strategy")?;
    let gp = FragmentationGraph::from_value(&read_value_tree(&mut r)?)
        .map_err(|e| SnapshotError::Malformed(format!("persisted G_P: {e}")))?;
    let quotient = QuotientTables::from_value(&read_value_tree(&mut r)?, gp.num_fragments())
        .map_err(SnapshotError::Malformed)?;
    let fragments = read_fragments(&mut r)?;
    let partials = read_partials(&mut r)?;
    ensure_fully_consumed(&mut r)?;
    validate_folded(&fragments, &partials)?;
    if gp.num_fragments() != fragments.len() {
        return Err(SnapshotError::Malformed(format!(
            "persisted G_P has {} fragments, base has {}",
            gp.num_fragments(),
            fragments.len()
        )));
    }
    Ok(LoadedSpill {
        fragments,
        gp: Some(gp),
        quotient: Some(Arc::new(quotient)),
        partials,
        generation,
        strategy: Some(strategy),
    })
}

fn validate_folded(fragments: &[Fragment], partials: &[Value]) -> Result<(), SnapshotError> {
    for (i, frag) in fragments.iter().enumerate() {
        if frag.id() != i {
            return Err(SnapshotError::Malformed(format!(
                "fragment {} found at position {i}: records out of order",
                frag.id()
            )));
        }
    }
    if partials.len() != fragments.len() {
        return Err(SnapshotError::Malformed(format!(
            "{} partials for {} fragments",
            partials.len(),
            fragments.len()
        )));
    }
    Ok(())
}

/// Reads increment `expect_seq` and folds it into `folded`.  The file is
/// parsed and validated **completely before** any mutation, so a corrupt
/// increment never leaves `folded` half-patched.
fn apply_increment_file(
    path: &Path,
    folded: &mut LoadedSpill,
    expect_generation: u64,
    expect_seq: u64,
) -> Result<(), SnapshotError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let version = read_spill_version(&mut r)?;
    if version != SPILL_VERSION_V2 {
        return Err(SnapshotError::Malformed(format!(
            "spill increment must be format version {SPILL_VERSION_V2}, found {version}"
        )));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    if kind[0] != RECORD_INCREMENT {
        return Err(SnapshotError::Malformed(format!(
            "expected an increment record, found kind {:?}",
            kind[0] as char
        )));
    }
    let header = read_value_tree(&mut r)?;
    let generation = header_u64(&header, "generation")?;
    let seq = header_u64(&header, "seq")?;
    if generation != expect_generation {
        return Err(SnapshotError::Malformed(format!(
            "increment generation {generation} does not match base generation \
             {expect_generation} (stale leftover of a compacted chain)"
        )));
    }
    if seq != expect_seq {
        return Err(SnapshotError::Malformed(format!(
            "increment declares seq {seq}, expected {expect_seq}"
        )));
    }
    let suffix_tree = read_value_tree(&mut r)?;
    let Value::Seq(suffix_items) = &suffix_tree else {
        return Err(SnapshotError::Malformed(
            "owner suffix is not a sequence".to_string(),
        ));
    };
    let mut owner_suffix = Vec::with_capacity(suffix_items.len());
    for item in suffix_items {
        match item {
            Value::UInt(o) => owner_suffix.push(*o as u32),
            _ => {
                return Err(SnapshotError::Malformed(
                    "owner suffix entry is not an unsigned integer".to_string(),
                ))
            }
        }
    }
    let changed_count = read_count(&mut r)?;
    let mut changed = Vec::with_capacity(changed_count.min(1 << 16));
    for _ in 0..changed_count {
        let frag = read_fragment_snapshot(&mut r)?;
        if frag.id() >= folded.fragments.len() {
            return Err(SnapshotError::Malformed(format!(
                "increment patches fragment {}, base has {}",
                frag.id(),
                folded.fragments.len()
            )));
        }
        changed.push(frag);
    }
    let gp = folded.gp.as_mut().ok_or_else(|| {
        SnapshotError::Malformed("increments cannot extend a legacy (v1) base".to_string())
    })?;
    let quotient = QuotientTables::from_value(&read_value_tree(&mut r)?, folded.fragments.len())
        .map_err(SnapshotError::Malformed)?;
    let patched_count = read_count(&mut r)?;
    let mut patched_partials = Vec::with_capacity(patched_count.min(1 << 16));
    for _ in 0..patched_count {
        let index = read_count(&mut r)?;
        if index >= folded.partials.len() {
            return Err(SnapshotError::Malformed(format!(
                "increment patches partial {index}, base has {}",
                folded.partials.len()
            )));
        }
        patched_partials.push((index, read_value_tree(&mut r)?));
    }
    ensure_fully_consumed(&mut r)?;

    // Everything parsed and validated — fold.
    let borders: Vec<(usize, Vec<VertexId>, Vec<VertexId>)> = changed
        .iter()
        .map(|f| (f.id(), f.out_border_globals(), f.in_border_globals()))
        .collect();
    gp.apply_border_patch(&owner_suffix, &borders);
    for frag in changed {
        let id = frag.id();
        folded.fragments[id] = frag;
    }
    folded.quotient = Some(Arc::new(quotient));
    for (index, partial) in patched_partials {
        folded.partials[index] = partial;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use crate::metis_like::MetisLike;
    use crate::strategy::PartitionStrategy;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::delta::GraphDelta;
    use grape_graph::generators::erdos_renyi;
    use std::io::Cursor;

    fn chain_fragmentation() -> Fragmentation {
        let mut b = GraphBuilder::directed();
        for v in 0..8u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0 + v as f64));
        }
        RangeEdgeCut::new(3).partition(&b.build()).unwrap()
    }

    fn assert_same_fragment(a: &Fragment, b: &Fragment) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.num_inner(), b.num_inner());
        assert_eq!(a.num_local(), b.num_local());
        assert_eq!(a.in_border_locals(), b.in_border_locals());
        assert_eq!(a.out_border_locals(), b.out_border_locals());
        assert_eq!(a.local_graph().edges(), b.local_graph().edges());
        for l in a.all_locals() {
            assert_eq!(a.global_of(l), b.global_of(l));
        }
    }

    #[test]
    fn single_fragment_round_trip() {
        let frag = chain_fragmentation();
        for i in 0..frag.num_fragments() {
            let mut buf = Vec::new();
            write_fragment_snapshot(frag.fragment(i), &mut buf).unwrap();
            let back = read_fragment_snapshot(&mut Cursor::new(buf)).unwrap();
            assert_same_fragment(frag.fragment(i), &back);
            assert!(back.check_invariants());
        }
    }

    #[test]
    fn concatenated_records_read_back_in_order() {
        let frag = chain_fragmentation();
        let mut buf = Vec::new();
        for f in frag.fragments() {
            write_fragment_snapshot(f, &mut buf).unwrap();
        }
        let mut r = Cursor::new(buf);
        for i in 0..frag.num_fragments() {
            let back = read_fragment_snapshot(&mut r).unwrap();
            assert_same_fragment(frag.fragment(i), &back);
        }
        ensure_fully_consumed(&mut r).unwrap();
    }

    #[test]
    fn fragments_file_round_trip_and_rehydration() {
        let frag = chain_fragmentation();
        let path = std::env::temp_dir().join("grape_fragments_roundtrip.bin");
        write_fragments_file(frag.fragments(), &path).unwrap();
        let back = read_fragments_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.len(), frag.num_fragments());

        let assignment: Vec<u32> = (0..frag.gp().num_vertices() as VertexId)
            .map(|v| frag.gp().owner(v) as u32)
            .collect();
        let rehydrated = rehydrate_fragmentation(
            back,
            assignment,
            frag.source().clone(),
            frag.strategy_name(),
        )
        .unwrap();
        assert_eq!(rehydrated.num_fragments(), frag.num_fragments());
        for i in 0..frag.num_fragments() {
            assert_same_fragment(frag.fragment(i), rehydrated.fragment(i));
        }
        // G_P is re-derived, not persisted: routing must agree.
        for v in frag.gp().border_vertices() {
            assert_eq!(frag.gp().owner(v), rehydrated.gp().owner(v));
        }
        assert_eq!(rehydrated.num_border_vertices(), frag.num_border_vertices());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let frag = chain_fragmentation();
        let mut buf = Vec::new();
        write_fragment_snapshot(frag.fragment(0), &mut buf).unwrap();
        let mut wrong = buf.clone();
        wrong[0] = b'X';
        assert!(read_fragment_snapshot(&mut Cursor::new(wrong)).is_err());
        buf.truncate(buf.len() - 2);
        assert!(read_fragment_snapshot(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn fragments_file_rejects_trailing_garbage() {
        let frag = chain_fragmentation();
        let path = std::env::temp_dir().join("grape_fragments_trailing.bin");
        write_fragments_file(frag.fragments(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0x7f);
        std::fs::write(&path, bytes).unwrap();
        let err = read_fragments_file(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            err.to_string().contains("trailing"),
            "expected trailing-bytes rejection, got {err}"
        );
    }

    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grape_spill_store_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn partials_of(frag: &Fragmentation, tag: u64) -> Vec<Value> {
        (0..frag.num_fragments())
            .map(|i| Value::UInt(tag * 100 + i as u64))
            .collect()
    }

    fn assert_folded_matches(folded: &LoadedSpill, frag: &Fragmentation, partials: &[Value]) {
        assert_eq!(folded.fragments.len(), frag.num_fragments());
        for i in 0..frag.num_fragments() {
            assert_same_fragment(&folded.fragments[i], frag.fragment(i));
        }
        assert_eq!(folded.gp.as_ref().unwrap(), frag.gp());
        assert_eq!(
            folded.quotient.as_deref().unwrap(),
            &*frag.quotient_tables()
        );
        assert_eq!(folded.partials, partials);
    }

    #[test]
    fn tiered_chain_folds_back_to_the_latest_state() {
        let dir = store_dir("fold");
        let mut store = QuerySpillStore::create(&dir, 7).unwrap();
        let f0 = chain_fragmentation();
        let base = store.spill(&f0, &partials_of(&f0, 0)).unwrap();
        assert!(base.to_string_lossy().ends_with("query-7.base"), "{base:?}");
        assert_eq!(store.chain_len(), 0);

        let delta = grape_graph::delta::GraphDelta::new().add_edge(8, 9);
        let f1 = f0.apply_delta(&delta).unwrap().fragmentation;
        let inc = store.spill(&f1, &partials_of(&f1, 1)).unwrap();
        assert!(inc.to_string_lossy().ends_with("query-7.inc-0"), "{inc:?}");
        assert_eq!(store.chain_len(), 1);

        let folded = store.load().unwrap();
        assert_folded_matches(&folded, &f1, &partials_of(&f1, 1));
        assert_eq!(folded.strategy.as_deref(), Some(f0.strategy_name()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn increments_stay_small_and_compaction_folds_the_chain() {
        let dir = store_dir("compact");
        let mut store = QuerySpillStore::create(&dir, 2).unwrap();
        let frag = chain_fragmentation();
        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let base_bytes = store.stats().base_bytes;
        for tag in 1..=2 {
            store.spill(&frag, &partials_of(&frag, tag)).unwrap();
            assert!(
                store.stats().last_spill_bytes < base_bytes / 2,
                "increment ({} bytes) should be far smaller than the base ({base_bytes} bytes)",
                store.stats().last_spill_bytes
            );
        }
        assert_eq!(store.chain_len(), 2);

        assert!(store.compact().unwrap());
        assert_eq!(store.chain_len(), 0);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().increment_bytes, 0);
        assert!(!store.increment_path(0).exists());
        assert!(!store.increment_path(1).exists());
        let folded = store.load().unwrap();
        assert_folded_matches(&folded, &frag, &partials_of(&frag, 2));

        // Nothing left to fold.
        assert!(!store.compact().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resumes_the_chain_and_cleans_debris() {
        let dir = store_dir("recover");
        let mut store = QuerySpillStore::create(&dir, 7).unwrap();
        let frag = chain_fragmentation();
        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        store.spill(&frag, &partials_of(&frag, 1)).unwrap();
        store.spill(&frag, &partials_of(&frag, 2)).unwrap();

        // Simulated crash debris: a staging orphan, a truncated second
        // increment, and an out-of-chain increment file.
        let orphan = dir.join("query-7.base.tmp");
        std::fs::write(&orphan, b"half-written").unwrap();
        let inc1 = store.increment_path(1);
        let bytes = std::fs::read(&inc1).unwrap();
        std::fs::write(&inc1, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::copy(store.increment_path(0), dir.join("query-7.inc-5")).unwrap();

        let recovered = QuerySpillStore::recover(&dir, 7).unwrap().unwrap();
        assert_eq!(recovered.chain_len(), 1);
        assert!(!orphan.exists());
        assert!(!inc1.exists());
        assert!(!dir.join("query-7.inc-5").exists());
        let folded = recovered.load().unwrap();
        assert_folded_matches(&folded, &frag, &partials_of(&frag, 1));

        // The recovered store keeps appending where the accepted chain ends.
        let mut recovered = recovered;
        let path = recovered.spill(&frag, &partials_of(&frag, 3)).unwrap();
        assert!(path.to_string_lossy().ends_with("query-7.inc-1"));
        let folded = recovered.load().unwrap();
        assert_folded_matches(&folded, &frag, &partials_of(&frag, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_generation_increments_are_dropped_on_recover() {
        let dir = store_dir("stale_gen");
        let mut store = QuerySpillStore::create(&dir, 4).unwrap();
        let frag = chain_fragmentation();
        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        store.spill(&frag, &partials_of(&frag, 1)).unwrap();
        let old_inc = std::fs::read(store.increment_path(0)).unwrap();
        assert!(store.compact().unwrap());

        // A crash between the base rename and the increment deletion would
        // leave the previous generation's increments behind.
        std::fs::write(store.increment_path(0), &old_inc).unwrap();
        let recovered = QuerySpillStore::recover(&dir, 4).unwrap().unwrap();
        assert_eq!(recovered.chain_len(), 0);
        assert!(!recovered.increment_path(0).exists());
        let folded = recovered.load().unwrap();
        assert_folded_matches(&folded, &frag, &partials_of(&frag, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v1_spill_is_accepted_and_upgraded() {
        let dir = store_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let frag = chain_fragmentation();
        let partials = partials_of(&frag, 0);

        // Hand-write the v1 wholesale format the previous release produced.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"GRQS\x01");
        write_fragments(frag.fragments(), &mut buf).unwrap();
        buf.extend_from_slice(&(partials.len() as u64).to_le_bytes());
        for p in &partials {
            write_value_tree(&mut buf, p).unwrap();
        }
        std::fs::write(dir.join("query-3.spill"), &buf).unwrap();

        let mut store = QuerySpillStore::recover(&dir, 3).unwrap().unwrap();
        assert_eq!(store.chain_len(), 0);
        let folded = store.load().unwrap();
        assert!(folded.gp.is_none());
        assert!(folded.quotient.is_none());
        assert_eq!(folded.partials, partials);
        assert_eq!(folded.fragments.len(), frag.num_fragments());

        // The next spill upgrades in place: a fresh v2 base replaces the
        // legacy file, and increments chain from there.
        let path = store.spill(&frag, &partials_of(&frag, 1)).unwrap();
        assert!(path.to_string_lossy().ends_with("query-3.base"));
        assert!(!dir.join("query-3.spill").exists());
        let path = store.spill(&frag, &partials_of(&frag, 2)).unwrap();
        assert!(path.to_string_lossy().ends_with("query-3.inc-0"));
        let folded = store.load().unwrap();
        assert_folded_matches(&folded, &frag, &partials_of(&frag, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_unsupported_version_are_distinct_errors() {
        let dir = store_dir("versions");
        std::fs::create_dir_all(&dir).unwrap();
        let not_a_spill = dir.join("junk");
        std::fs::write(&not_a_spill, b"GRXXjunk").unwrap();
        let err = read_base_file(&not_a_spill).unwrap_err();
        assert!(
            err.to_string().contains("not a grape query spill file"),
            "{err}"
        );

        let future = dir.join("future");
        std::fs::write(&future, b"GRQS\x09rest").unwrap();
        let err = read_base_file(&future).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unsupported query spill format version 9"),
            "{msg}"
        );
        assert!(
            msg.contains('2'),
            "should name the supported versions: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_rehydration_rejects_mismatched_counts() {
        let frag = chain_fragmentation();
        let fragments: Vec<Fragment> = frag
            .fragments()
            .iter()
            .map(|f| f.as_ref().clone())
            .collect();
        let gp = frag.gp().clone();
        let ok = rehydrate_fragmentation_persisted(
            fragments.clone(),
            gp.clone(),
            frag.source().clone(),
            frag.strategy_name(),
        )
        .unwrap();
        assert_eq!(ok.gp(), frag.gp());

        let err = rehydrate_fragmentation_persisted(
            fragments[..2].to_vec(),
            gp,
            frag.source().clone(),
            frag.strategy_name(),
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }

    #[test]
    fn malformed_borders_are_rejected() {
        let frag = chain_fragmentation();
        let mut v = fragment_to_value(frag.fragment(1));
        if let Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "out_border" {
                    *val = Value::Seq(vec![Value::UInt(10_000)]);
                }
            }
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(FRAGMENT_MAGIC);
        write_value_tree(&mut buf, &v).unwrap();
        let err = read_fragment_snapshot(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }

    // -- dense fragment records ---------------------------------------------

    fn dense_block(fragments: &[&Fragment]) -> Vec<u8> {
        let mut out = Vec::new();
        write_fragment_records(fragments, &mut out);
        out
    }

    /// `same_structure` plus the parts it leaves to the decoder: the
    /// rebuilt out-/in-CSR, the vertex labels, and the invariants.
    fn assert_record_identical(a: &Fragment, b: &Fragment) {
        assert!(a.same_structure(b), "fragment {} changed shape", a.id());
        let (ga, gb) = (a.local_graph(), b.local_graph());
        assert_eq!(ga.directedness(), gb.directedness());
        assert_eq!(ga.vertex_labels(), gb.vertex_labels());
        for v in ga.vertices() {
            assert_eq!(ga.out_neighbors(v), gb.out_neighbors(v), "out-CSR of {v}");
            assert_eq!(ga.in_neighbors(v), gb.in_neighbors(v), "in-CSR of {v}");
        }
        assert!(b.check_invariants());
    }

    /// Every fragment survives the dense block alone and all together.
    fn assert_records_round_trip(fragments: &[&Fragment]) {
        for frag in fragments {
            let back = read_fragment_records(&dense_block(&[frag])).unwrap();
            assert_eq!(back.len(), 1);
            assert_record_identical(frag, &back[0]);
        }
        let back = read_fragment_records(&dense_block(fragments)).unwrap();
        assert_eq!(back.len(), fragments.len());
        for (a, b) in fragments.iter().zip(&back) {
            assert_record_identical(a, b);
        }
    }

    fn refs(frag: &Fragmentation) -> Vec<&Fragment> {
        frag.fragments().iter().map(|f| f.as_ref()).collect()
    }

    fn seeded_graphs() -> Vec<Graph> {
        vec![
            erdos_renyi(60, 240, 4, Directedness::Directed, 0x5EED_0001),
            erdos_renyi(50, 150, 0, Directedness::Undirected, 0x5EED_0002),
        ]
    }

    #[test]
    fn dense_records_round_trip_edge_cuts() {
        for g in seeded_graphs() {
            for k in [1, 3, 4] {
                assert_records_round_trip(&refs(&HashEdgeCut::new(k).partition(&g).unwrap()));
                assert_records_round_trip(&refs(&MetisLike::new(k).partition(&g).unwrap()));
            }
        }
    }

    #[test]
    fn dense_records_round_trip_after_delta_chains() {
        let g = erdos_renyi(40, 160, 3, Directedness::Directed, 0x5EED_0003);
        let n = g.num_vertices() as VertexId;
        let some_edge = g.edges()[0];
        let chain = [
            // Edge removal.
            GraphDelta::new().remove_edge(some_edge.src, some_edge.dst),
            // Vertex detach: the id stays, every edge on it goes.
            GraphDelta::new().remove_vertex(7).remove_vertex(19),
            // New vertices past the old id range, leaving an id gap, and a
            // labelled edge into one of them.
            GraphDelta::new()
                .add_vertex(n + 3, 9)
                .add_edge_record(Edge::new(2, n + 3, 4.5, 6))
                .add_weighted_edge(n + 3, 11, 0.25),
        ];
        for mut frag in [
            HashEdgeCut::new(4).partition(&g).unwrap(),
            MetisLike::new(3).partition(&g).unwrap(),
        ] {
            for delta in &chain {
                frag = frag.apply_delta(delta).unwrap().fragmentation;
                assert_records_round_trip(&refs(&frag));
            }
        }
    }

    #[test]
    fn dense_records_round_trip_expanded_fragments() {
        let g = erdos_renyi(50, 140, 3, Directedness::Directed, 0x5EED_0004);
        let frag = HashEdgeCut::new(3).partition(&g).unwrap();
        for hops in [1, 2] {
            let expanded: Vec<Fragment> = (0..frag.num_fragments())
                .map(|i| frag.expand_fragment(i, hops).0)
                .collect();
            assert_records_round_trip(&expanded.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn dense_records_round_trip_spilled_fragments() {
        let dir = store_dir("dense_records");
        let g = erdos_renyi(40, 120, 2, Directedness::Directed, 0x5EED_0005);
        let frag = HashEdgeCut::new(3).partition(&g).unwrap();
        let mut store = QuerySpillStore::create(&dir, 0).unwrap();
        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let loaded = store.load().unwrap();
        assert_records_round_trip(&loaded.fragments.iter().collect::<Vec<_>>());
        for (a, b) in frag.fragments().iter().zip(&loaded.fragments) {
            assert_record_identical(a, b);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The record width is part of the wire: `49 + 12·|V_i| + 4·|I_i| +
    /// 16·|O_i| + 20·|E_i|` bytes per edge-cut fragment (each outer copy is
    /// a local vertex *and* an out-border id), plus the 8-byte block count.
    #[test]
    fn dense_record_length_is_closed_form() {
        for g in seeded_graphs() {
            let frag = HashEdgeCut::new(4).partition(&g).unwrap();
            let mut total = 8;
            for f in frag.fragments() {
                let expect = 49
                    + 12 * f.num_inner()
                    + 4 * f.in_border_locals().len()
                    + 16 * f.out_border_locals().len()
                    + 20 * f.num_local_edges();
                assert_eq!(dense_block(&[f]).len(), 8 + expect, "fragment {}", f.id());
                total += expect;
            }
            assert_eq!(dense_block(&refs(&frag)).len(), total);
        }
    }

    /// The `spill_crash.rs` discipline on the dense block: truncation at
    /// every byte, absurd count prefixes, out-of-range ids and one trailing
    /// byte are all clean `SnapshotError`s — no panic, and no allocation
    /// sized by a count the bytes cannot back.
    #[test]
    fn corrupt_dense_blocks_are_clean_errors() {
        let g = erdos_renyi(30, 90, 2, Directedness::Directed, 0x5EED_0006);
        let frag = HashEdgeCut::new(2).partition(&g).unwrap();
        let block = dense_block(&refs(&frag));
        for cut in 0..block.len() {
            assert!(
                read_fragment_records(&block[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }

        let mut trailing = block.clone();
        trailing.push(0);
        let err = read_fragment_records(&trailing).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");

        let f0 = frag.fragment(0);
        let patched = |offset: usize, bytes: &[u8]| {
            let mut b = block.clone();
            b[offset..offset + bytes.len()].copy_from_slice(bytes);
            read_fragment_records(&b)
        };
        // Offsets inside fragment 0's record (after the block count).
        let vertices_at = 8 + 17;
        let in_border_at = vertices_at + 8 + 12 * f0.num_local();
        let out_border_at = in_border_at + 8 + 4 * f0.in_border_locals().len();
        let edges_at = out_border_at + 8 + 4 * f0.out_border_locals().len();
        for (offset, what) in [
            (0, "fragment"),
            (vertices_at, "vertex"),
            (in_border_at, "in-border"),
            (edges_at, "edge"),
        ] {
            for absurd in [u64::MAX, 1 << 40, (block.len() as u64) + 1] {
                let err = patched(offset, &absurd.to_le_bytes()).unwrap_err();
                assert!(
                    err.to_string().contains(what),
                    "{what} count {absurd}: {err}"
                );
            }
        }
        assert!(patched(8 + 16, &[7]).is_err(), "unknown directedness byte");
        assert!(
            patched(8 + 8, &u64::MAX.to_le_bytes()).is_err(),
            "num_inner > |L|"
        );
        let out_of_range = (f0.num_local() as u32).to_le_bytes();
        assert!(patched(edges_at + 8, &out_of_range).is_err(), "edge source");
        assert!(
            patched(edges_at + 12, &out_of_range).is_err(),
            "edge target"
        );
        if !f0.out_border_locals().is_empty() {
            assert!(
                patched(out_border_at + 8, &out_of_range).is_err(),
                "border id"
            );
            // An outer copy declared as in-border breaks the invariants.
            let inner = 0u32.to_le_bytes();
            assert!(
                patched(out_border_at + 8, &inner).is_err(),
                "inner id in F.O"
            );
        }
    }
}
