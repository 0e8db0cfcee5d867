//! Fragment records for the worker pipes, and the per-query spill store.
//!
//! * [`write_fragment_records`] / [`read_fragment_records`] are the dense
//!   fixed-width encoding the worker pipes ship fragments in: the local
//!   graph travels as its edge list alone and the CSR indexes are rebuilt
//!   on decode.  The reader is strict: every record is validated with
//!   [`Fragment::check_invariants`], and malformed or truncated input
//!   surfaces as [`SnapshotError`] instead of a half-built fragment.
//! * [`QuerySpillStore`] is the **spill file** of one evicted query.  In
//!   the paper's terms the state that belongs to a query is its partial
//!   results `Q(F_i)`; the fragments `F_i` and `G_P` are shared structure,
//!   which the serving layer keeps in its fragmentation timeline (an
//!   evicted query pins the version it was spilled at).  A partial holds
//!   values in its fragment's local order and no vertex ids, so that pinned
//!   version is also what names them.  The file holds partials and nothing
//!   else: each eviction writes all of them as one
//!   file, replacing the previous one, and [`QuerySpillStore::load`] reads
//!   that file back, strictly.
//!
//! Spill files are process scratch: [`QuerySpillStore::create`] wipes
//! whatever an earlier incarnation of the query id left behind, and no
//! process reads a file another one wrote.  So they are written plainly,
//! without fsync or a staging rename.

use std::io::{BufWriter, Cursor, Read, Write};
use std::path::{Path, PathBuf};

use grape_graph::graph::{Directedness, Graph};
use grape_graph::io::{ensure_fully_consumed, read_value_tree, write_value_tree, IoError};
use grape_graph::types::{Edge, Label, VertexId};
use serde::Value;

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
// The per-query spill file
// ---------------------------------------------------------------------------

/// Magic prefix of every query spill file; the byte after it is the format
/// version.
const SPILL_MAGIC: &[u8; 4] = b"GRQS";
/// Version 5: one file of partials per eviction, each partial holding values
/// in its fragment's local order and no vertex ids.  Versions 1 and 2 also
/// carried fragments, `G_P` and quotient tables, version 3 was a base with
/// an increment chain, and version 4 partials carried their fragment's
/// local → global id map; all are rejected as unsupported.
const SPILL_VERSION: u8 = 5;

/// The partials read back from one spill file.
#[derive(Debug)]
pub struct LoadedSpill {
    /// One partial-result value tree per fragment, in fragment-id order.
    pub partials: Vec<Value>,
}

/// Point-in-time counters of one query's spill store.  Both fields are the
/// spill file's size.  Kept only for the benchmark harness's replay, until
/// ROADMAP item 11b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillStoreStats {
    /// Size of the spill file.
    pub base_bytes: u64,
    /// Size of the spill file (the last spill wrote all of it).
    pub last_spill_bytes: u64,
}

/// The spill file of **one** evicted query, `query-{id}.spill`:
///
/// ```text
/// "GRQS" | u8 version (5) | u64 count | count × partial value tree
/// ```
///
/// Every spill replaces the file plainly: unlink, create, one buffered
/// write, flush.  There is no fsync, no staging file and no rename, because
/// nothing needs them.  The serving layer reads the file only while its
/// query is evicted, marks a query evicted only after the whole file is
/// written and flushed, and writes it again only once the query is
/// reloaded, so no reader can meet a torn file; after a crash nothing reads
/// it at all.  The reader is strict: bad magic, an unsupported version, a
/// count larger than the bytes left, a truncated tree or a trailing byte is
/// a [`SnapshotError`].
#[derive(Debug)]
pub struct QuerySpillStore {
    path: PathBuf,
    /// Size of the file the last spill wrote (`0` before the first spill,
    /// or after a failed one).
    bytes: u64,
}

impl QuerySpillStore {
    /// Creates the store for `query_id` in `dir`, removing every
    /// `query-{id}.*` file that an earlier incarnation of the id, or an
    /// older format, left behind.
    pub fn create(dir: &Path, query_id: usize) -> Result<QuerySpillStore, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let prefix = format!("query-{query_id}.");
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(QuerySpillStore {
            path: spill_path(dir, query_id),
            bytes: 0,
        })
    }

    /// The store over the spill file a live server wrote for `query_id`,
    /// or `None` when there is none; [`QuerySpillStore::load`] decodes it.
    /// Kept only for the benchmark harness's replay, until ROADMAP item 11b.
    pub fn recover(dir: &Path, query_id: usize) -> Result<Option<QuerySpillStore>, SnapshotError> {
        let path = spill_path(dir, query_id);
        match std::fs::metadata(&path) {
            Ok(meta) => Ok(Some(QuerySpillStore {
                path,
                bytes: meta.len(),
            })),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The path of the spill file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Size of the spill file in bytes (`0` before the first spill).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a spill file has been written.  Kept only for the benchmark
    /// harness's replay, until ROADMAP item 11b.
    pub fn has_base(&self) -> bool {
        self.bytes > 0
    }

    /// Always `0`: there is no increment chain.  Kept only for the
    /// benchmark harness's replay, until ROADMAP item 11b.
    pub fn chain_len(&self) -> usize {
        0
    }

    /// Always `Ok(false)`: there is nothing to fold.  Kept only for the
    /// benchmark harness's replay, until ROADMAP item 11b.
    pub fn compact(&mut self) -> Result<bool, SnapshotError> {
        Ok(false)
    }

    /// The file's size, as [`SpillStoreStats`].  Kept only for the
    /// benchmark harness's replay, until ROADMAP item 11b.
    pub fn stats(&self) -> SpillStoreStats {
        SpillStoreStats {
            base_bytes: self.bytes,
            last_spill_bytes: self.bytes,
        }
    }

    /// Writes the query's partials, one per fragment of `frag` (the
    /// fragmentation itself is not written, only its fragment count is
    /// checked), as the spill file, replacing the previous one.  Returns
    /// the file's path.
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
        // Unlink, then create: a fresh file is cheaper than truncating the
        // old one in place.  A missing file is fine; anything else in the
        // way fails the create.
        let _ = std::fs::remove_file(&self.path);
        self.bytes = 0;
        let mut w = BufWriter::new(std::fs::File::create(&self.path)?);
        w.write_all(SPILL_MAGIC)?;
        w.write_all(&[SPILL_VERSION])?;
        w.write_all(&(m as u64).to_le_bytes())?;
        for partial in partials {
            write_value_tree(&mut w, partial)?;
        }
        w.flush()?;
        self.bytes = w.get_ref().metadata()?.len();
        Ok(self.path.clone())
    }

    /// Reads the spill file back.
    pub fn load(&self) -> Result<LoadedSpill, SnapshotError> {
        read_spill_file(&self.path)
    }
}

fn spill_path(dir: &Path, query_id: usize) -> PathBuf {
    dir.join(format!("query-{query_id}.spill"))
}

/// Reads one spill file, splitting "not a spill file" from "a spill file of
/// an unsupported version" (the latter names the found and supported
/// versions).
fn read_spill_file(path: &Path) -> Result<LoadedSpill, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let mut r = Cursor::new(bytes.as_slice());
    let mut preamble = [0u8; 5];
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
    let mut count = [0u8; 8];
    r.read_exact(&mut count)?;
    let n = u64::from_le_bytes(count);
    // Every value tree is at least one byte long.
    let left = bytes.len() as u64 - r.position();
    if n > left {
        return Err(SnapshotError::Malformed(format!(
            "partial count {n} exceeds the {left} bytes left in the spill file"
        )));
    }
    let partials = (0..n)
        .map(|_| read_value_tree(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    ensure_fully_consumed(&mut r)?;
    Ok(LoadedSpill { partials })
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

    fn record_len(partial: &Value) -> usize {
        let mut buf = Vec::new();
        write_value_tree(&mut buf, partial).unwrap();
        buf.len()
    }

    /// The format pin: a spill file is the magic, the version byte, the
    /// count and the partial records, and nothing else, so no fragment,
    /// `G_P`, quotient or owner byte is ever written.  A second spill
    /// replaces the file whole.
    #[test]
    fn spill_files_hold_only_the_header_and_partial_records() {
        let dir = store_dir("sizes");
        let mut store = QuerySpillStore::create(&dir, 5).unwrap();
        let frag = chain_fragmentation();
        for tag in [0, 3] {
            let partials = partials_of(&frag, tag);
            let path = store.spill(&frag, &partials).unwrap();
            assert!(path.ends_with("query-5.spill"), "{path:?}");
            let bytes = std::fs::read(&path).unwrap();
            let records: usize = partials.iter().map(record_len).sum();
            assert_eq!(bytes.len(), 5 + 8 + records);
            assert_eq!(store.bytes(), bytes.len() as u64);
            assert_eq!(store.stats().last_spill_bytes, bytes.len() as u64);
            assert_eq!(store.load().unwrap().partials, partials);
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "one file per query, whatever the spill count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Versions 1 and 2 (which carried fragments, `G_P` and quotient
    /// tables), 3 (a base with an increment chain) and 4 (partials that
    /// carried vertex ids) are named as unsupported, as is any future
    /// version; a foreign file is "not a spill file".
    #[test]
    fn bad_magic_and_unsupported_version_are_distinct_errors() {
        let dir = store_dir("versions");
        std::fs::create_dir_all(&dir).unwrap();
        let not_a_spill = dir.join("junk");
        std::fs::write(&not_a_spill, b"GRXXjunk").unwrap();
        let err = read_spill_file(&not_a_spill).unwrap_err();
        assert!(
            err.to_string().contains("not a grape query spill file"),
            "{err}"
        );

        for version in [1u8, 2, 3, 4, 9] {
            let path = dir.join(format!("v{version}"));
            let mut bytes = b"GRQS".to_vec();
            bytes.push(version);
            bytes.extend_from_slice(b"rest");
            std::fs::write(&path, bytes).unwrap();
            let msg = read_spill_file(&path).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("unsupported query spill format version {version}")),
                "{msg}"
            );
            assert!(
                msg.contains("reads version 5"),
                "should name the supported version: {msg}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Files of older formats are cleared by `create`, not read: the v1
    /// wholesale file (which had the current file's name) and the v3
    /// base, increments and staging leftovers.  `recover` finds no store
    /// among v3 leftovers, and a v1 record under the current name is an
    /// unsupported version, not misread.
    #[test]
    fn legacy_v1_spill_is_cleared_not_read() {
        let dir = store_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let frag = chain_fragmentation();
        let mut v1 = b"GRQS\x01".to_vec();
        v1.extend_from_slice(&(frag.num_fragments() as u64).to_le_bytes());
        let legacy = dir.join("query-3.spill");
        let v3_leftovers = [
            "query-3.base",
            "query-3.inc-0",
            "query-3.inc-1",
            "query-3.base.tmp",
        ]
        .map(|name| dir.join(name));
        for path in &v3_leftovers {
            std::fs::write(path, b"GRQS\x03B").unwrap();
        }
        assert!(QuerySpillStore::recover(&dir, 3).unwrap().is_none());

        std::fs::write(&legacy, &v1).unwrap();
        let mut store = QuerySpillStore::create(&dir, 3).unwrap();
        assert!(!legacy.exists(), "create clears the v1 file");
        for path in &v3_leftovers {
            assert!(!path.exists(), "create clears {path:?}");
        }
        let path = store.spill(&frag, &partials_of(&frag, 1)).unwrap();
        assert_eq!(path, legacy);
        assert_eq!(store.load().unwrap().partials, partials_of(&frag, 1));

        std::fs::write(&legacy, &v1).unwrap();
        let recovered = QuerySpillStore::recover(&dir, 3).unwrap().unwrap();
        let err = recovered.load().unwrap_err().to_string();
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
        let path = store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        std::fs::write(&path, &wrong).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(
            store.load().is_err(),
            "a truncated spill file must not load"
        );
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load().unwrap().partials, partials_of(&frag, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spill holds exactly one partial per fragment: a mismatched count
    /// is rejected before anything is written, and the previous file stays.
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
        assert!(!store.path().exists(), "a rejected spill writes nothing");

        store.spill(&frag, &partials_of(&frag, 0)).unwrap();
        let wider = RangeEdgeCut::new(4).partition(frag.source()).unwrap();
        let err = store.spill(&wider, &partials_of(&frag, 1)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert_eq!(store.load().unwrap().partials, partials_of(&frag, 0));
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
