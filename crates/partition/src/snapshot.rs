//! Fragment records for the worker pipes, and the per-query spill store.
//!
//! * [`write_fragment_records`] / [`read_fragment_records`] are the dense
//!   fixed-width encoding the worker pipes ship fragments in: the local
//!   graph travels as its edge list alone and the CSR indexes are rebuilt
//!   on decode.  The reader is strict: every record is validated with
//!   [`Fragment::check_invariants`], and malformed or truncated input
//!   surfaces as [`SnapshotError`] instead of a half-built fragment.
//! * [`QuerySpillStore`] is the **partial log** of one evicted query.  In
//!   the paper's terms the state that belongs to a query is its partial
//!   results `Q(F_i)`; the fragments `F_i` and `G_P` are shared structure,
//!   which the serving layer keeps in its fragmentation timeline (an
//!   evicted query pins the version it was spilled at).  So the store
//!   writes partials and nothing else.  The first spill writes a **base**
//!   (one value-tree record per partial); every later spill appends an
//!   **increment** holding only the partials whose record changed since
//!   the previous spill.  [`QuerySpillStore::load`] folds base ⊕ increments
//!   back, and [`QuerySpillStore::compact`] rewrites the fold as a new base
//!   (a new *generation*).  Every file is staged with
//!   `grape_graph::io::atomic_write_file` (tmp + fsync + rename, then a
//!   parent-directory fsync), so a crash mid-spill leaves the previous
//!   on-disk state fully readable.
//!
//! Spill files are process scratch: [`QuerySpillStore::create`] wipes
//! whatever an earlier incarnation of the query id left behind, and no
//! store is read across processes.

use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

use grape_graph::graph::{Directedness, Graph};
use grape_graph::io::{
    atomic_write_file, ensure_fully_consumed, read_value_tree, write_value_tree, IoError,
};
use grape_graph::types::{Edge, Label, VertexId};
use serde::{Deserialize, Serialize, Value};

use crate::fragment::{Fragment, Fragmentation, LocalId};

/// Errors produced by the fragment-record codec and the spill store.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O or value-tree failure.
    Io(IoError),
    /// Input that decodes but does not describe a valid record.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Malformed(reason) => write!(f, "malformed snapshot: {reason}"),
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
/// format.
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
// The per-query partial log
// ---------------------------------------------------------------------------

/// Magic prefix of every query spill file; the byte after it is the format
/// version and the byte after that the record kind.
const SPILL_MAGIC: &[u8; 4] = b"GRQS";
/// Version 3: partials only.  Versions 1 and 2 also carried fragments,
/// `G_P` and quotient tables; they are rejected as unsupported.
const SPILL_VERSION: u8 = 3;
/// Record kind byte of a base.
const RECORD_BASE: u8 = b'B';
/// Record kind byte of an increment.
const RECORD_INCREMENT: u8 = b'I';

/// FNV-1a, the change detector of the increment encoder: a partial whose
/// serialized record hashes identically to the previous spill is
/// byte-identical (the codec is deterministic) and is not rewritten.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads the 6-byte preamble (magic, version, record kind), splitting "not
/// a spill file" from "a spill file of an unsupported version" (the latter
/// names the found and supported versions).
fn read_preamble<R: Read>(r: &mut R, kind: u8) -> Result<(), SnapshotError> {
    let mut preamble = [0u8; 6];
    r.read_exact(&mut preamble)?;
    if &preamble[..4] != SPILL_MAGIC {
        return Err(SnapshotError::Malformed(
            "not a grape query spill file (bad magic header)".to_string(),
        ));
    }
    if preamble[4] != SPILL_VERSION {
        return Err(SnapshotError::Malformed(format!(
            "unsupported query spill format version {}: this build reads version \
             {SPILL_VERSION} (partials only); spill files are process scratch, so \
             clear the spill directory",
            preamble[4]
        )));
    }
    if preamble[5] != kind {
        return Err(SnapshotError::Malformed(format!(
            "expected a {:?} record, found kind {:?}",
            kind as char, preamble[5] as char
        )));
    }
    Ok(())
}

fn header_u64(header: &Value, name: &str) -> Result<u64, SnapshotError> {
    match header.get_field(name) {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(SnapshotError::Malformed(format!(
            "header field `{name}` is missing or not an unsigned integer"
        ))),
    }
}

fn read_count<R: Read>(r: &mut R) -> Result<usize, SnapshotError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf) as usize)
}

/// The folded on-disk state of one query: base ⊕ all increments.
#[derive(Debug)]
pub struct LoadedSpill {
    /// One partial-result value tree per fragment, in fragment-id order.
    pub partials: Vec<Value>,
    /// Compaction generation of the base this state was folded from.
    pub generation: u64,
}

/// Point-in-time counters of one query's spill store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SpillStoreStats {
    /// Number of increments currently chained on the base.
    pub chain_len: usize,
    /// On-disk size of the current base.
    pub base_bytes: u64,
    /// Combined on-disk size of the chained increments.
    pub increment_bytes: u64,
    /// Bytes written by the most recent spill (base or increment).
    pub last_spill_bytes: u64,
    /// Completed compactions (chain folds) over the store's lifetime.
    pub compactions: u64,
}

/// The crash-safe partial log of **one** evicted query.
///
/// File set inside the spill directory, all staged via tmp + fsync + rename:
///
/// | file                    | content                                                   |
/// |-------------------------|-----------------------------------------------------------|
/// | `query-{id}.base`       | preamble, header `{generation, query}`, `u64` count, one value tree per partial |
/// | `query-{id}.inc-{seq}`  | preamble, header `{generation, seq, query}`, `u64` count, `(u64 index, value tree)` per changed partial |
/// | `*.tmp`                 | staging leftovers of a crashed write — never read, cleaned up |
///
/// The preamble is `GRQS`, the format version and the record kind byte.
/// Increments carry the base's *generation*; compaction writes a new base
/// with generation + 1, so increments orphaned by a crash mid-compaction
/// are recognisably stale and ignored.  Every increment is parsed and
/// validated completely before it is folded.
#[derive(Debug)]
pub struct QuerySpillStore {
    dir: PathBuf,
    query_id: usize,
    generation: u64,
    chain_len: usize,
    has_base: bool,
    /// FNV-1a over each partial's serialized value tree as of the last spill.
    partial_hashes: Vec<u64>,
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
            partial_hashes: Vec::new(),
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

    /// Re-reads a store from disk: reads the base, accepts the longest valid
    /// increment chain of the base's generation, and deletes everything
    /// else — stale-generation increments from a crashed compaction,
    /// increments past a corrupt link, and orphaned `.tmp` files.  Returns
    /// `None` when no base exists.  The serving layer never calls this —
    /// its stores do not outlive the process; it exists so a harness can
    /// re-read a live store that a server wrote.
    pub fn recover(dir: &Path, query_id: usize) -> Result<Option<QuerySpillStore>, SnapshotError> {
        let mut store = Self::empty(dir, query_id);
        store.clean_temps();
        if !store.base_path().exists() {
            store.remove_query_files()?;
            return Ok(None);
        }
        store.has_base = true;
        let mut folded = read_base_file(&store.base_path())?;
        store.generation = folded.generation;
        let mut chain = 0usize;
        loop {
            let path = store.increment_path(chain);
            if !path.exists()
                || apply_increment_file(&path, &mut folded, store.generation, chain as u64).is_err()
            {
                break;
            }
            chain += 1;
        }
        store.chain_len = chain;
        // Increments past the accepted chain are stale or corrupt.
        for (seq, path) in store.increment_files()? {
            if seq >= chain {
                let _ = std::fs::remove_file(path);
            }
        }
        store.partial_hashes = serialize_partial_records(&folded.partials)?
            .iter()
            .map(|b| fnv1a(b))
            .collect();
        store.base_bytes = std::fs::metadata(store.base_path())?.len();
        for seq in 0..chain {
            store.increment_bytes += std::fs::metadata(store.increment_path(seq))?.len();
        }
        Ok(Some(store))
    }

    /// The path of the current base.
    pub fn base_path(&self) -> PathBuf {
        self.dir.join(format!("query-{}.base", self.query_id))
    }

    /// The path of increment `seq` of the current chain.
    pub fn increment_path(&self, seq: usize) -> PathBuf {
        self.dir.join(format!("query-{}.inc-{seq}", self.query_id))
    }

    /// Number of increments chained on the current base.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Whether a base has been written.
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

    /// Spills the query's partials, one per fragment of `frag` (the
    /// fragmentation itself is not written — only its fragment count is
    /// checked).  The first call writes a base; later calls append an
    /// increment holding only the partials that changed since the previous
    /// spill.  Returns the path of the file written.
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
        let records = serialize_partial_records(partials)?;
        let hashes: Vec<u64> = records.iter().map(|b| fnv1a(b)).collect();
        let path = if !self.has_base {
            self.write_base(&records)?
        } else {
            if self.partial_hashes.len() != m {
                return Err(SnapshotError::Malformed(format!(
                    "fragment count changed across spills ({} -> {m})",
                    self.partial_hashes.len()
                )));
            }
            let changed: Vec<usize> = (0..m)
                .filter(|&i| hashes[i] != self.partial_hashes[i])
                .collect();
            self.write_increment(&changed, &records)?
        };
        self.partial_hashes = hashes;
        Ok(path)
    }

    /// Folds base ⊕ increments back into one state.
    pub fn load(&self) -> Result<LoadedSpill, SnapshotError> {
        if !self.has_base {
            return Err(SnapshotError::Malformed(
                "spill store has no base".to_string(),
            ));
        }
        let mut folded = read_base_file(&self.base_path())?;
        if folded.generation != self.generation {
            return Err(SnapshotError::Malformed(format!(
                "base generation {} does not match the store's {}",
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

    /// Folds the increment chain into a new base of the next generation,
    /// atomically: the new base is staged and renamed first; only then are
    /// the old increments deleted.  A crash in between leaves
    /// stale-generation increments that no later load accepts.  Returns
    /// `false` when there is nothing to fold.
    pub fn compact(&mut self) -> Result<bool, SnapshotError> {
        if self.chain_len == 0 {
            return Ok(false);
        }
        let folded = self.load()?;
        self.write_base(&serialize_partial_records(&folded.partials)?)?;
        self.compactions += 1;
        Ok(true)
    }

    /// Writes a base (generation + 1), then retires the previous
    /// generation's increments.
    fn write_base(&mut self, records: &[Vec<u8>]) -> Result<PathBuf, SnapshotError> {
        let path = self.base_path();
        let generation = self.generation + 1;
        let header = Value::Map(vec![
            ("generation".to_string(), Value::UInt(generation)),
            ("query".to_string(), Value::UInt(self.query_id as u64)),
        ]);
        atomic_write_file::<SnapshotError, _>(&path, |w| {
            w.write_all(SPILL_MAGIC)?;
            w.write_all(&[SPILL_VERSION, RECORD_BASE])?;
            write_value_tree(w, &header)?;
            w.write_all(&(records.len() as u64).to_le_bytes())?;
            for record in records {
                w.write_all(record)?;
            }
            Ok(())
        })?;
        for seq in 0..self.chain_len {
            let _ = std::fs::remove_file(self.increment_path(seq));
        }
        self.generation = generation;
        self.chain_len = 0;
        self.has_base = true;
        self.base_bytes = std::fs::metadata(&path)?.len();
        self.increment_bytes = 0;
        self.last_spill_bytes = self.base_bytes;
        Ok(path)
    }

    fn write_increment(
        &mut self,
        changed: &[usize],
        records: &[Vec<u8>],
    ) -> Result<PathBuf, SnapshotError> {
        let seq = self.chain_len;
        let path = self.increment_path(seq);
        let header = Value::Map(vec![
            ("generation".to_string(), Value::UInt(self.generation)),
            ("seq".to_string(), Value::UInt(seq as u64)),
            ("query".to_string(), Value::UInt(self.query_id as u64)),
        ]);
        atomic_write_file::<SnapshotError, _>(&path, |w| {
            w.write_all(SPILL_MAGIC)?;
            w.write_all(&[SPILL_VERSION, RECORD_INCREMENT])?;
            write_value_tree(w, &header)?;
            w.write_all(&(changed.len() as u64).to_le_bytes())?;
            for &i in changed {
                w.write_all(&(i as u64).to_le_bytes())?;
                w.write_all(&records[i])?;
            }
            Ok(())
        })?;
        self.chain_len += 1;
        let bytes = std::fs::metadata(&path)?.len();
        self.increment_bytes += bytes;
        self.last_spill_bytes = bytes;
        Ok(path)
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

    /// Removes every `query-{id}.*` file (bases, increments, temps, and any
    /// file an older format left under the query's name).
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

/// Reads one base file.
fn read_base_file(path: &Path) -> Result<LoadedSpill, SnapshotError> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    read_preamble(&mut r, RECORD_BASE)?;
    let generation = header_u64(&read_value_tree(&mut r)?, "generation")?;
    let n = read_count(&mut r)?;
    let mut partials = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        partials.push(read_value_tree(&mut r)?);
    }
    ensure_fully_consumed(&mut r)?;
    Ok(LoadedSpill {
        partials,
        generation,
    })
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
    read_preamble(&mut r, RECORD_INCREMENT)?;
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
    let n = read_count(&mut r)?;
    let mut patched = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let index = read_count(&mut r)?;
        if index >= folded.partials.len() {
            return Err(SnapshotError::Malformed(format!(
                "increment patches partial {index}, base has {}",
                folded.partials.len()
            )));
        }
        patched.push((index, read_value_tree(&mut r)?));
    }
    ensure_fully_consumed(&mut r)?;
    for (index, partial) in patched {
        folded.partials[index] = partial;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use crate::fragment::Expansion;
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

    fn store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grape_spill_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One 64-entry partial per fragment, every entry depending on `tag`.
    fn partials_of(frag: &Fragmentation, tag: u64) -> Vec<Value> {
        (0..frag.num_fragments() as u64)
            .map(|i| {
                Value::Seq(
                    (0..64)
                        .map(|j| Value::UInt(tag * 10_000 + i * 100 + j))
                        .collect(),
                )
            })
            .collect()
    }

    /// `partials_of(frag, 0)` with only partial `i` retagged.
    fn one_changed(frag: &Fragmentation, i: usize, tag: u64) -> Vec<Value> {
        let mut partials = partials_of(frag, 0);
        partials[i] = partials_of(frag, tag).swap_remove(i);
        partials
    }

    /// Length of the value tree starting at `bytes[offset..]`.
    fn tree_len(bytes: &[u8], offset: usize) -> usize {
        let mut cursor = Cursor::new(&bytes[offset..]);
        read_value_tree(&mut cursor).unwrap();
        cursor.position() as usize
    }

    fn record_len(partial: &Value) -> usize {
        let mut buf = Vec::new();
        write_value_tree(&mut buf, partial).unwrap();
        buf.len()
    }

    #[test]
    fn tiered_chain_folds_back_to_the_latest_state() {
        let dir = store_dir("fold");
        let mut store = QuerySpillStore::create(&dir, 7).unwrap();
        let f0 = chain_fragmentation();
        let base = store.spill(&f0, &partials_of(&f0, 0)).unwrap();
        assert!(base.to_string_lossy().ends_with("query-7.base"), "{base:?}");
        assert_eq!(store.chain_len(), 0);

        let f1 = f0
            .apply_delta(&GraphDelta::new().add_edge(8, 9))
            .unwrap()
            .fragmentation;
        let inc = store.spill(&f1, &partials_of(&f1, 1)).unwrap();
        assert!(inc.to_string_lossy().ends_with("query-7.inc-0"), "{inc:?}");
        assert_eq!(store.chain_len(), 1);

        let folded = store.load().unwrap();
        assert_eq!(folded.partials, partials_of(&f1, 1));
        assert_eq!(folded.generation, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The format pin: a base is the preamble, the header tree, the count
    /// and the partial records — and nothing else, so no fragment, `G_P`,
    /// quotient or owner byte is ever written.  An increment is the same
    /// with an index before each changed record.
    #[test]
    fn spill_files_hold_only_the_header_and_partial_records() {
        let dir = store_dir("sizes");
        let mut store = QuerySpillStore::create(&dir, 5).unwrap();
        let frag = chain_fragmentation();
        let partials = partials_of(&frag, 0);
        let base = store.spill(&frag, &partials).unwrap();
        let bytes = std::fs::read(&base).unwrap();
        let records: usize = partials.iter().map(record_len).sum();
        assert_eq!(bytes.len(), 6 + tree_len(&bytes, 6) + 8 + records);
        assert_eq!(store.stats().base_bytes, bytes.len() as u64);

        let changed = one_changed(&frag, 1, 3);
        let inc = store.spill(&frag, &changed).unwrap();
        let bytes = std::fs::read(&inc).unwrap();
        assert_eq!(
            bytes.len(),
            6 + tree_len(&bytes, 6) + 8 + 8 + record_len(&changed[1])
        );
        assert_eq!(store.stats().last_spill_bytes, bytes.len() as u64);
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
            store.spill(&frag, &one_changed(&frag, 0, tag)).unwrap();
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
        assert_eq!(folded.partials, one_changed(&frag, 0, 2));
        assert_eq!(folded.generation, 2);

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
        assert_eq!(recovered.load().unwrap().partials, partials_of(&frag, 1));

        // The recovered store keeps appending where the accepted chain ends.
        let mut recovered = recovered;
        let path = recovered.spill(&frag, &partials_of(&frag, 3)).unwrap();
        assert!(path.to_string_lossy().ends_with("query-7.inc-1"));
        assert_eq!(recovered.load().unwrap().partials, partials_of(&frag, 3));
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
        assert_eq!(recovered.load().unwrap().partials, partials_of(&frag, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Versions 1 and 2 (which carried fragments, `G_P` and quotient
    /// tables) are named as unsupported, as is any future version; a
    /// foreign file is "not a spill file".
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

        for version in [1u8, 2, 9] {
            let path = dir.join(format!("v{version}"));
            let mut bytes = b"GRQS".to_vec();
            bytes.extend_from_slice(&[version, RECORD_BASE]);
            bytes.extend_from_slice(b"rest");
            std::fs::write(&path, bytes).unwrap();
            let msg = read_base_file(&path).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("unsupported query spill format version {version}")),
                "{msg}"
            );
            assert!(
                msg.contains('3'),
                "should name the supported version: {msg}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The v1 wholesale file (`query-{id}.spill`) is no longer read: a
    /// leftover one is cleared by `recover` (no base, so `None`) and by
    /// `create`, and the next spill writes a current base.  A v1 record
    /// found under a base name is an unsupported version, not misread.
    #[test]
    fn legacy_v1_spill_is_cleared_not_read() {
        let dir = store_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let frag = chain_fragmentation();
        let mut v1 = b"GRQS\x01".to_vec();
        v1.extend_from_slice(&(frag.num_fragments() as u64).to_le_bytes());
        let legacy = dir.join("query-3.spill");

        std::fs::write(&legacy, &v1).unwrap();
        assert!(QuerySpillStore::recover(&dir, 3).unwrap().is_none());
        assert!(!legacy.exists(), "recover clears the v1 file");

        std::fs::write(&legacy, &v1).unwrap();
        let mut store = QuerySpillStore::create(&dir, 3).unwrap();
        assert!(!legacy.exists(), "create clears the v1 file");
        let path = store.spill(&frag, &partials_of(&frag, 1)).unwrap();
        assert!(path.to_string_lossy().ends_with("query-3.base"));
        assert_eq!(store.load().unwrap().partials, partials_of(&frag, 1));

        std::fs::write(store.base_path(), &v1).unwrap();
        let err = QuerySpillStore::recover(&dir, 3).unwrap_err().to_string();
        assert!(
            err.contains("unsupported query spill format version 1"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let dir = store_dir("magic");
        let mut store = QuerySpillStore::create(&dir, 0).unwrap();
        let frag = chain_fragmentation();
        let base = store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let bytes = std::fs::read(&base).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        std::fs::write(&base, &wrong).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::write(&base, &bytes[..bytes.len() - 2]).unwrap();
        assert!(store.load().is_err(), "a truncated base must not load");
        std::fs::write(&base, &bytes).unwrap();
        assert_eq!(store.load().unwrap().partials, partials_of(&frag, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store holds exactly one partial per fragment, and that count is
    /// fixed for the store's lifetime.
    #[test]
    fn spills_reject_mismatched_partial_counts() {
        let dir = store_dir("counts");
        let mut store = QuerySpillStore::create(&dir, 1).unwrap();
        let frag = chain_fragmentation();
        let mut short = partials_of(&frag, 0);
        short.pop();
        let err = store.spill(&frag, &short).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(!store.has_base(), "a rejected spill writes nothing");

        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let wider = RangeEdgeCut::new(4).partition(frag.source()).unwrap();
        let err = store.spill(&wider, &partials_of(&wider, 1)).unwrap_err();
        assert!(err.to_string().contains("fragment count changed"), "{err}");
        assert_eq!(store.chain_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn single_fragment_round_trip() {
        let frag = chain_fragmentation();
        for f in frag.fragments() {
            let back = read_fragment_records(&dense_block(&[f])).unwrap();
            assert_eq!(back.len(), 1);
            assert_record_identical(f, &back[0]);
        }
    }

    #[test]
    fn concatenated_records_read_back_in_order() {
        let frag = chain_fragmentation();
        let back = read_fragment_records(&dense_block(&refs(&frag))).unwrap();
        let ids: Vec<usize> = back.iter().map(|f| f.id()).collect();
        assert_eq!(ids, (0..frag.num_fragments()).collect::<Vec<_>>());
        for (a, b) in frag.fragments().iter().zip(&back) {
            assert_record_identical(a, b);
        }
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
                .map(|i| {
                    let exchange = Expansion { hops, labels: None };
                    frag.expand_fragment(i, &exchange).0
                })
                .collect();
            assert_records_round_trip(&expanded.iter().collect::<Vec<_>>());
        }
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
    }

    /// A border id outside the fragment, or an inner vertex listed in
    /// `F.O`, is a malformed record — never a fragment with a dangling or
    /// inconsistent border.
    #[test]
    fn malformed_borders_are_rejected() {
        let frag = chain_fragmentation();
        let f1 = frag.fragment(1);
        assert!(!f1.out_border_locals().is_empty());
        let block = dense_block(&[f1]);
        // Block count, record header, vertices, in-border, out-border count.
        let first_out_border =
            8 + 17 + 8 + 12 * f1.num_local() + 8 + 4 * f1.in_border_locals().len() + 8;
        for (id, what) in [
            (f1.num_local() as u32, "out of range"),
            (0, "inner id in F.O"),
        ] {
            let mut bytes = block.clone();
            bytes[first_out_border..first_out_border + 4].copy_from_slice(&id.to_le_bytes());
            let err = read_fragment_records(&bytes).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "{what}: {err}");
        }
    }
}
