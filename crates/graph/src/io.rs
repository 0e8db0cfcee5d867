//! Graph readers and writers: plain-text edge lists and binary snapshots.
//!
//! The text format is whitespace separated, one edge per line:
//!
//! ```text
//! # comment lines start with '#' or '%'
//! <src> <dst> [weight] [label]
//! ```
//!
//! which is compatible with the SNAP-style edge lists the paper's datasets
//! (liveJournal, traffic) are distributed in.  [`Graph`] additionally
//! implements `serde::{Serialize, Deserialize}`, and
//! [`write_binary_snapshot`] / [`read_binary_snapshot`] persist that serde
//! tree in a compact length-prefixed binary envelope — the first step of the
//! persistent fragment storage roadmap (graphs no longer need to be re-parsed
//! or re-generated per process).

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::graph::{Directedness, Graph};
use crate::types::{Edge, Label, VertexId, Weight, NO_LABEL, UNIT_WEIGHT};

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that could not be parsed, with its 1-based line number.
    Parse { line: usize, content: String },
    /// A binary snapshot that is malformed or from an unknown format version.
    Snapshot(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "cannot parse edge list line {line}: {content:?}")
            }
            IoError::Snapshot(reason) => write!(f, "invalid binary snapshot: {reason}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an edge list from any reader.
pub fn read_edge_list<R: BufRead>(reader: R, directedness: Directedness) -> Result<Graph, IoError> {
    let mut edges = Vec::new();
    let mut max_vertex: Option<VertexId> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_err = || IoError::Parse {
            line: idx + 1,
            content: trimmed.to_string(),
        };
        let src: VertexId = parts
            .next()
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let dst: VertexId = parts
            .next()
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let weight: Weight = match parts.next() {
            Some(w) => w.parse().map_err(|_| parse_err())?,
            None => UNIT_WEIGHT,
        };
        let label: Label = match parts.next() {
            Some(l) => l.parse().map_err(|_| parse_err())?,
            None => NO_LABEL,
        };
        max_vertex = Some(max_vertex.map_or(src.max(dst), |m| m.max(src).max(dst)));
        edges.push(Edge::new(src, dst, weight, label));
    }
    let n = max_vertex.map_or(0, |m| m as usize + 1);
    let labels = vec![NO_LABEL; n];
    Ok(Graph::from_parts(directedness, n, edges, labels))
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(
    path: P,
    directedness: Directedness,
) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(file), directedness)
}

/// Writes the graph's edge list (weight and label included) to a writer.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# grape edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.edges() {
        writeln!(w, "{} {} {} {}", e.src, e.dst, e.weight, e.label)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the graph's edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

// ---------------------------------------------------------------------------
// Binary snapshots
// ---------------------------------------------------------------------------

/// Magic header of a binary graph snapshot: "GRPS" + format version 1.
const SNAPSHOT_MAGIC: &[u8; 5] = b"GRPS\x01";

// One-byte tags of the binary `Value` encoding.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_UINT: u8 = 3;
const TAG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn write_len<W: Write>(w: &mut W, len: usize) -> io::Result<()> {
    w.write_all(&(len as u64).to_le_bytes())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_len(w, s.len())?;
    w.write_all(s.as_bytes())
}

/// Encodes one serde `Value` tree: a tag byte, then a fixed-width payload
/// (integers and floats little-endian) or a length-prefixed body.
fn write_value<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(&[TAG_NULL]),
        Value::Bool(false) => w.write_all(&[TAG_FALSE]),
        Value::Bool(true) => w.write_all(&[TAG_TRUE]),
        Value::UInt(n) => {
            w.write_all(&[TAG_UINT])?;
            w.write_all(&n.to_le_bytes())
        }
        Value::Int(n) => {
            w.write_all(&[TAG_INT])?;
            w.write_all(&n.to_le_bytes())
        }
        Value::Float(f) => {
            w.write_all(&[TAG_FLOAT])?;
            w.write_all(&f.to_bits().to_le_bytes())
        }
        Value::Str(s) => {
            w.write_all(&[TAG_STR])?;
            write_str(w, s)
        }
        Value::Seq(items) => {
            w.write_all(&[TAG_SEQ])?;
            write_len(w, items.len())?;
            for item in items {
                write_value(w, item)?;
            }
            Ok(())
        }
        Value::Map(entries) => {
            w.write_all(&[TAG_MAP])?;
            write_len(w, entries.len())?;
            for (k, v) in entries {
                write_str(w, k)?;
                write_value(w, v)?;
            }
            Ok(())
        }
    }
}

/// Encodes one serde [`Value`] tree to a writer in the tagged
/// little-endian format of the binary snapshots.  Public building block of
/// the persistent-storage stack: the prepared-query spill files compose
/// their partial records out of these trees.
/// The encoding is self-delimiting, so records can be concatenated into one
/// stream and read back one at a time with [`read_value_tree`].
pub fn write_value_tree<W: Write>(writer: &mut W, value: &Value) -> Result<(), IoError> {
    write_value(writer, value)?;
    Ok(())
}

/// Decodes exactly one [`Value`] tree from a reader, leaving the reader
/// positioned at the first byte after it (concatenation-friendly: no
/// internal buffering, no lookahead).  Counterpart of [`write_value_tree`].
pub fn read_value_tree<R: Read>(reader: &mut R) -> Result<Value, IoError> {
    read_value(reader)
}

/// Asserts that a reader is exhausted: one more readable byte is a format
/// error.  Whole-file readers call this after decoding their value tree so
/// that trailing garbage — e.g. a spill file whose concatenated records got
/// out of sync with its declared count — is rejected instead of silently
/// ignored.
pub fn ensure_fully_consumed<R: Read>(reader: &mut R) -> Result<(), IoError> {
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => Ok(()),
        Ok(_) => Err(IoError::Snapshot(
            "trailing bytes after the encoded value tree".to_string(),
        )),
        Err(e) => Err(IoError::Io(e)),
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_len<R: Read>(r: &mut R) -> Result<usize, IoError> {
    usize::try_from(read_u64(r)?).map_err(|_| IoError::Snapshot("length overflow".to_string()))
}

/// Reads a length-prefixed string.  The prefix comes from a file or a pipe,
/// so it only bounds the read (`take`); the buffer grows with the bytes that
/// actually arrive, and a corrupt length is an error, not an allocation.
fn read_str<R: Read>(r: &mut R) -> Result<String, IoError> {
    let len = read_u64(r)?;
    let mut bytes = Vec::with_capacity(len.min(1 << 16) as usize);
    r.by_ref().take(len).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < len {
        return Err(IoError::Snapshot(format!(
            "string of {len} bytes ends after {}",
            bytes.len()
        )));
    }
    String::from_utf8(bytes).map_err(|_| IoError::Snapshot("non-UTF-8 string".to_string()))
}

fn read_value<R: Read>(r: &mut R) -> Result<Value, IoError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_UINT => Ok(Value::UInt(read_u64(r)?)),
        TAG_INT => Ok(Value::Int(read_u64(r)? as i64)),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(read_u64(r)?))),
        TAG_STR => Ok(Value::Str(read_str(r)?)),
        TAG_SEQ => {
            let len = read_len(r)?;
            let mut items = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                items.push(read_value(r)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = read_len(r)?;
            let mut entries = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let k = read_str(r)?;
                let v = read_value(r)?;
                entries.push((k, v));
            }
            Ok(Value::Map(entries))
        }
        other => Err(IoError::Snapshot(format!("unknown value tag {other}"))),
    }
}

/// Writes a binary snapshot of the graph (magic header + the serde `Value`
/// tree in a tagged, length-prefixed little-endian encoding).
pub fn write_binary_snapshot<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(SNAPSHOT_MAGIC)?;
    write_value(&mut w, &graph.to_value())?;
    w.flush()?;
    Ok(())
}

/// Reads a graph back from a binary snapshot produced by
/// [`write_binary_snapshot`].
///
/// The snapshot must cover the whole input: unconsumed bytes after the
/// encoded value tree are rejected as corruption (a truncated *next* record
/// glued to a valid one would otherwise read back silently).
pub fn read_binary_snapshot<R: Read>(reader: R) -> Result<Graph, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(IoError::Snapshot(
            "bad magic header (not a grape binary snapshot, or wrong version)".to_string(),
        ));
    }
    let value = read_value(&mut r)?;
    ensure_fully_consumed(&mut r)?;
    Graph::from_value(&value).map_err(|e| IoError::Snapshot(e.to_string()))
}

/// Writes a binary snapshot to a file path.
pub fn write_binary_snapshot_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    write_binary_snapshot(graph, file)
}

/// Reads a binary snapshot from a file path.
pub fn read_binary_snapshot_file<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_binary_snapshot(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use std::io::Cursor;

    #[test]
    fn parses_basic_edge_list_with_comments() {
        let text = "# header\n0 1\n1 2 3.5\n% another comment\n2 0 1.0 7\n\n";
        let g = read_edge_list(Cursor::new(text), Directedness::Directed).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(1)[0].weight, 3.5);
        assert_eq!(g.out_neighbors(2)[0].label, 7);
    }

    #[test]
    fn rejects_malformed_lines_with_location() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(Cursor::new(text), Directedness::Directed).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n"), Directedness::Undirected).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let g = GraphBuilder::directed()
            .add_labeled_edge(0, 1, 2.0, 3)
            .add_labeled_edge(1, 4, 0.5, 9)
            .build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf), Directedness::Directed).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.out_neighbors(1)[0].label, 9);
        assert_eq!(back.out_neighbors(0)[0].weight, 2.0);
    }

    #[test]
    fn file_roundtrip() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        let dir = std::env::temp_dir();
        let path = dir.join("grape_io_test_edges.txt");
        write_edge_list_file(&g, &path).unwrap();
        let back = read_edge_list_file(&path, Directedness::Undirected).unwrap();
        assert_eq!(back.num_edges(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn binary_snapshot_roundtrip_preserves_everything() {
        let g = GraphBuilder::directed()
            .add_labeled_edge(0, 1, 2.5, 3)
            .add_labeled_edge(1, 4, 0.125, 9)
            .set_vertex_label(4, 7)
            .ensure_vertices(6)
            .build();
        let mut buf = Vec::new();
        write_binary_snapshot(&g, &mut buf).unwrap();
        let back = read_binary_snapshot(Cursor::new(buf)).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.is_directed(), g.is_directed());
        assert_eq!(back.vertex_label(4), 7);
        assert_eq!(back.out_neighbors(0)[0].weight, 2.5);
        assert_eq!(back.out_neighbors(1)[0].label, 9);
        assert!(back.check_invariants());
    }

    #[test]
    fn binary_snapshot_file_roundtrip() {
        let g = GraphBuilder::undirected()
            .add_weighted_edge(0, 1, 4.0)
            .add_edge(1, 2)
            .build();
        let path = std::env::temp_dir().join("grape_io_test_snapshot.bin");
        write_binary_snapshot_file(&g, &path).unwrap();
        let back = read_binary_snapshot_file(&path).unwrap();
        assert_eq!(back.num_edges(), 2);
        assert!(!back.is_directed());
        assert_eq!(back.out_neighbors(0)[0].weight, 4.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn binary_snapshot_rejects_wrong_magic() {
        let err = read_binary_snapshot(Cursor::new(b"NOPE\x01garbage".to_vec())).unwrap_err();
        assert!(matches!(err, IoError::Snapshot(_)), "got {err:?}");
    }

    #[test]
    fn binary_snapshot_rejects_truncation() {
        let g = GraphBuilder::directed().add_edge(0, 1).build();
        let mut buf = Vec::new();
        write_binary_snapshot(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary_snapshot(Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, IoError::Io(_) | IoError::Snapshot(_)));
    }

    #[test]
    fn binary_snapshot_rejects_trailing_garbage() {
        let g = GraphBuilder::directed().add_edge(0, 1).build();
        let mut buf = Vec::new();
        write_binary_snapshot(&g, &mut buf).unwrap();
        buf.push(0x42);
        let err = read_binary_snapshot(Cursor::new(buf)).unwrap_err();
        match err {
            IoError::Snapshot(reason) => assert!(reason.contains("trailing"), "{reason}"),
            other => panic!("expected snapshot error, got {other}"),
        }
    }

    /// A string length prefix larger than the input must come back as an
    /// error: the reader never allocates what a corrupt prefix claims.
    #[test]
    fn corrupt_string_lengths_are_errors_not_allocations() {
        for (len, tail) in [(u64::MAX >> 1, &b""[..]), (1 << 40, &b"abc"[..])] {
            let mut buf = vec![TAG_STR];
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(tail);
            let err = read_value_tree(&mut Cursor::new(buf)).unwrap_err();
            assert!(matches!(err, IoError::Snapshot(_)), "length {len}: {err:?}");
        }
    }

    #[test]
    fn value_trees_concatenate_and_read_back_one_at_a_time() {
        let a = GraphBuilder::directed().add_edge(0, 1).build();
        let b = GraphBuilder::directed()
            .add_edge(1, 2)
            .add_edge(2, 3)
            .build();
        let mut buf = Vec::new();
        write_value_tree(&mut buf, &a.to_value()).unwrap();
        write_value_tree(&mut buf, &b.to_value()).unwrap();
        let mut r = Cursor::new(buf);
        let a2 = Graph::from_value(&read_value_tree(&mut r).unwrap()).unwrap();
        let b2 = Graph::from_value(&read_value_tree(&mut r).unwrap()).unwrap();
        ensure_fully_consumed(&mut r).unwrap();
        assert_eq!(a2.num_edges(), 1);
        assert_eq!(b2.num_edges(), 2);
    }
}
