//! Corruption tests for the spill file (one per evicted query), driven
//! through the public serving API.
//!
//! The reader's contract: a damaged spill file is rejected with
//! [`ServeError::Snapshot`] — never a panic, never a half-rehydrated query.
//! These tests truncate the file at every byte prefix, flip its count
//! prefix to absurd values, corrupt a string length inside a partial, and
//! replace its magic or version, then assert the query stays evicted and
//! retryable, and that restoring the original bytes recovers the exact
//! pre-eviction answer.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use grape_core::config::EngineMode;
use grape_core::serve::{GrapeServer, QueryHandle, ServeError};
use grape_core::test_support::{path_graph, session, MinForward};
use grape_graph::delta::GraphDelta;
use grape_graph::types::VertexId;
use grape_partition::edge_cut::RangeEdgeCut;
use grape_partition::strategy::PartitionStrategy;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grape-spill-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn server_with_store(mode: EngineMode, dir: &Path) -> (GrapeServer, QueryHandle<MinForward>) {
    let g = path_graph(12);
    let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
    let mut server = GrapeServer::with_spill_dir(session(mode), frag, dir.to_path_buf());
    let h = server.register(MinForward, ()).expect("register");
    (server, h)
}

/// A fresh-vertex edge, so every delta in a stream is valid.
fn nth_delta(i: u64) -> GraphDelta {
    GraphDelta::new().add_edge(12 + i, (i * 5) % 12)
}

fn expect_snapshot_error(server: &mut GrapeServer, h: &QueryHandle<MinForward>, context: &str) {
    match server.rehydrate(h) {
        Err(ServeError::Snapshot(_)) => {}
        other => panic!("{context}: expected ServeError::Snapshot, got {other:?}"),
    }
    assert!(
        server.query_statuses()[h.id()].evicted,
        "{context}: a failed rehydration must leave the query evicted and retryable"
    );
}

/// Asserts that after restoring `bytes` at `path` the query rehydrates and
/// answers exactly `expected`.
fn expect_recovery(
    server: &mut GrapeServer,
    h: &QueryHandle<MinForward>,
    path: &Path,
    bytes: &[u8],
    expected: &HashMap<VertexId, u64>,
) {
    fs::write(path, bytes).expect("restore spill bytes");
    server.rehydrate(h).expect("rehydrate from restored bytes");
    assert_eq!(&server.output(h).expect("output"), expected);
}

#[test]
fn every_truncated_base_prefix_is_a_clean_snapshot_error() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let dir = scratch_dir(&format!("prefix-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        server.apply(&nth_delta(0)).expect("apply");
        let expected = server.output(&h).expect("output before evict");
        let spill = server.evict(&h).expect("evict");
        let bytes = fs::read(&spill).expect("read spill file");
        assert!(bytes.len() > 16, "a spill file is never this small");
        for len in 0..bytes.len() {
            fs::write(&spill, &bytes[..len]).expect("truncate");
            expect_snapshot_error(&mut server, &h, &format!("{mode:?} prefix {len}"));
        }
        expect_recovery(&mut server, &h, &spill, &bytes, &expected);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Byte offset of the `u64` partial count in a spill file: after the
/// 4-byte magic and the version byte.
const COUNT_OFFSET: usize = 5;

fn with_count(bytes: &[u8], offset: usize, count: u64) -> Vec<u8> {
    let mut corrupted = bytes.to_vec();
    corrupted[offset..offset + 8].copy_from_slice(&count.to_le_bytes());
    corrupted
}

/// The first spill file, and the one a later eviction writes over it.
#[test]
fn flipped_count_prefixes_are_clean_snapshot_errors() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let dir = scratch_dir(&format!("counts-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        for round in 0..2 {
            server.apply(&nth_delta(2 + round)).expect("apply");
            let expected = server.output(&h).expect("output before evict");
            let spill = server.evict(&h).expect("evict");
            let bytes = fs::read(&spill).expect("read spill file");
            let original =
                u64::from_le_bytes(bytes[COUNT_OFFSET..COUNT_OFFSET + 8].try_into().unwrap());
            assert_eq!(original, 3, "the count is the fragment count");
            for flipped in [u64::MAX, original + 1, original - 1, 0] {
                fs::write(&spill, with_count(&bytes, COUNT_OFFSET, flipped)).expect("corrupt");
                expect_snapshot_error(
                    &mut server,
                    &h,
                    &format!("{mode:?} round {round} count {flipped}"),
                );
            }
            expect_recovery(&mut server, &h, &spill, &bytes, &expected);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A corrupt string length inside a spill file (here the first key of the
/// first partial's map) is a clean snapshot error: the reader bounds it by
/// the bytes present instead of allocating what the prefix claims.
#[test]
fn corrupted_string_lengths_are_clean_snapshot_errors() {
    let dir = scratch_dir("strlen");
    let (mut server, h) = server_with_store(EngineMode::Sync, &dir);
    let expected = server.output(&h).expect("output before evict");
    let spill = server.evict(&h).expect("evict");
    let bytes = fs::read(&spill).expect("read spill file");
    // Magic, version and count (13 bytes), the map tag, its entry count,
    // then the first key's length.
    let offset = 13 + 1 + 8;
    assert_eq!(&bytes[offset..offset + 8], &1u64.to_le_bytes());
    assert_eq!(bytes[offset + 8], b'0', "the first key is vertex 0");
    for len in [u64::MAX >> 1, 1 << 40] {
        fs::write(&spill, with_count(&bytes, offset, len)).expect("corrupt");
        expect_snapshot_error(&mut server, &h, &format!("string length {len}"));
    }
    expect_recovery(&mut server, &h, &spill, &bytes, &expected);
    let _ = fs::remove_dir_all(&dir);
}

/// A foreign file under the spill path is rejected, not half-read; so is a
/// file of an earlier format (versions 1 and 2 also carried fragments,
/// `G_P` and quotient tables, version 3 was a base with an increment
/// chain) or of a future one.
#[test]
fn bad_magic_and_unsupported_versions_are_clean_snapshot_errors() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let dir = scratch_dir(&format!("magic-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        let expected = server.output(&h).expect("output before evict");
        let spill = server.evict(&h).expect("evict");
        let bytes = fs::read(&spill).expect("read spill file");

        fs::write(&spill, b"GRPX\x04 not a spill").expect("overwrite");
        expect_snapshot_error(&mut server, &h, &format!("{mode:?} bad magic"));
        for version in [1u8, 2, 3, 9] {
            let mut other = bytes.clone();
            other[4] = version;
            fs::write(&spill, &other).expect("rewrite version byte");
            expect_snapshot_error(&mut server, &h, &format!("{mode:?} version {version}"));
        }
        expect_recovery(&mut server, &h, &spill, &bytes, &expected);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeated_evict_apply_rehydrate_chains_match_a_never_evicted_twin() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let dir = scratch_dir(&format!("fuzz-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        let (mut twin, th) = {
            let g = path_graph(12);
            let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
            let mut twin = GrapeServer::new(session(mode), frag);
            let th = twin.register(MinForward, ()).expect("register twin");
            (twin, th)
        };
        let mut next = 10u64;
        for round in 0..6 {
            server.evict(&h).expect("evict");
            // A varying number of deltas lands while the query is cold.
            for _ in 0..(round % 3) + 1 {
                let delta = nth_delta(next);
                next += 1;
                server.apply(&delta).expect("apply cold");
                twin.apply(&delta).expect("twin apply");
            }
            server.rehydrate(&h).expect("rehydrate");
            assert_eq!(
                server.output(&h).expect("output"),
                twin.output(&th).expect("twin output"),
                "round {round} diverged from the never-evicted twin in {mode:?}"
            );
        }
        let stats = &server.query_statuses()[h.id()];
        assert_eq!(
            stats.spill_bytes,
            fs::metadata(dir.join(format!("query-{}.spill", h.id())))
                .expect("the last spill file")
                .len(),
            "the status row reports the spill file's size"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
