//! Crash-injection tests for the spill store (the per-query partial log),
//! driven through the public serving API.
//!
//! The store's contract: every write is atomic (tmp + fsync + rename), so
//! a crash at ANY byte boundary leaves either the previous complete state
//! or a file the reader rejects with [`ServeError::Snapshot`] — never a
//! panic, never a half-rehydrated query.  These tests simulate the crash
//! by truncating the on-disk base/increment at every byte prefix and by
//! flipping the record-count prefixes to absurd values, then assert the
//! query stays evicted and retryable, and that restoring the original
//! bytes recovers the exact pre-eviction answer.

use std::collections::HashMap;
use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};

use grape_core::config::EngineMode;
use grape_core::serve::{GrapeServer, QueryHandle, ServeError};
use grape_core::test_support::{path_graph, session, MinForward};
use grape_graph::delta::GraphDelta;
use grape_graph::io::read_value_tree;
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
        let dir = scratch_dir(&format!("base-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        server.apply(&nth_delta(0)).expect("apply");
        let expected = server.output(&h).expect("output before evict");
        let spill = server.evict(&h).expect("evict");
        let bytes = fs::read(&spill).expect("read base");
        assert!(bytes.len() > 16, "a base snapshot is never this small");
        for len in 0..bytes.len() {
            fs::write(&spill, &bytes[..len]).expect("truncate");
            expect_snapshot_error(&mut server, &h, &format!("{mode:?} base prefix {len}"));
        }
        expect_recovery(&mut server, &h, &spill, &bytes, &expected);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_truncated_increment_prefix_is_a_clean_snapshot_error() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let dir = scratch_dir(&format!("inc-{mode:?}"));
        let (mut server, h) = server_with_store(mode, &dir);
        server.evict(&h).expect("first evict writes the base");
        server.rehydrate(&h).expect("rehydrate");
        server.apply(&nth_delta(1)).expect("apply while resident");
        let expected = server.output(&h).expect("output before second evict");
        let inc = server.evict(&h).expect("second evict appends an increment");
        assert!(
            inc.to_string_lossy().contains(".inc-"),
            "the second eviction must write an increment, wrote {}",
            inc.display()
        );
        let bytes = fs::read(&inc).expect("read increment");
        for len in 0..bytes.len() {
            fs::write(&inc, &bytes[..len]).expect("truncate");
            expect_snapshot_error(&mut server, &h, &format!("{mode:?} increment prefix {len}"));
        }
        expect_recovery(&mut server, &h, &inc, &bytes, &expected);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Byte offset of the `u64` partial count in a spill file: after the
/// 6-byte magic/version/kind preamble, base and increment alike carry one
/// value tree (the header) before their count.
fn count_offset(bytes: &[u8]) -> usize {
    let mut cursor = Cursor::new(&bytes[6..]);
    read_value_tree(&mut cursor).expect("well-formed header tree");
    6 + cursor.position() as usize
}

fn with_count(bytes: &[u8], offset: usize, count: u64) -> Vec<u8> {
    let mut corrupted = bytes.to_vec();
    corrupted[offset..offset + 8].copy_from_slice(&count.to_le_bytes());
    corrupted
}

#[test]
fn flipped_count_prefixes_are_clean_snapshot_errors() {
    let dir = scratch_dir("counts");
    let (mut server, h) = server_with_store(EngineMode::Sync, &dir);
    server.apply(&nth_delta(2)).expect("apply");
    let expected = server.output(&h).expect("output before evict");

    // Base: one partial per fragment.
    let base = server.evict(&h).expect("evict");
    let bytes = fs::read(&base).expect("read base");
    let offset = count_offset(&bytes);
    let original = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
    assert_eq!(
        original, 3,
        "the count at the computed offset is not the fragment count"
    );
    for flipped in [u64::MAX, original + 1, original - 1, 0] {
        fs::write(&base, with_count(&bytes, offset, flipped)).expect("corrupt");
        expect_snapshot_error(&mut server, &h, &format!("base count {flipped}"));
    }
    expect_recovery(&mut server, &h, &base, &bytes, &expected);

    // Increment: the changed-partial count.
    server.apply(&nth_delta(3)).expect("apply");
    let expected = server.output(&h).expect("output before second evict");
    let inc = server.evict(&h).expect("second evict");
    assert!(inc.to_string_lossy().contains(".inc-"), "{}", inc.display());
    let bytes = fs::read(&inc).expect("read increment");
    let offset = count_offset(&bytes);
    let original = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
    assert!(original >= 1, "the delta changed at least one partial");
    for flipped in [u64::MAX, original + 1, original.saturating_sub(1)] {
        if flipped == original {
            continue;
        }
        fs::write(&inc, with_count(&bytes, offset, flipped)).expect("corrupt");
        expect_snapshot_error(&mut server, &h, &format!("increment count {flipped}"));
    }
    expect_recovery(&mut server, &h, &inc, &bytes, &expected);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_and_orphan_tmp_debris_do_not_break_rehydration() {
    let dir = scratch_dir("debris");
    let (mut server, h) = server_with_store(EngineMode::Sync, &dir);
    let expected = server.output(&h).expect("output before evict");
    let base = server.evict(&h).expect("evict");
    let bytes = fs::read(&base).expect("read base");

    // A foreign file under the spill path is rejected, not half-read.
    fs::write(&base, b"GRPX\x02 not a spill").expect("overwrite");
    expect_snapshot_error(&mut server, &h, "bad magic");

    // So is a file of the previous format (version 2, which also carried
    // fragments, G_P and quotient tables): unsupported, not misread.
    let mut v2 = bytes.clone();
    v2[4] = 2;
    fs::write(&base, &v2).expect("downgrade version byte");
    expect_snapshot_error(&mut server, &h, "version 2");

    // A kill-9 mid-spill leaves a half-written `.tmp` NEXT TO the intact
    // previous state (the rename never happened).  The orphan must be
    // ignored and the base must still rehydrate.
    fs::write(&base, &bytes).expect("restore");
    let orphan = dir.join("query-0.inc-0.tmp");
    fs::write(&orphan, &bytes[..bytes.len() / 2]).expect("orphan tmp");
    server.rehydrate(&h).expect("rehydrate despite orphan tmp");
    assert_eq!(server.output(&h).expect("output"), expected);
    let _ = fs::remove_dir_all(&dir);
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
        assert!(
            stats.spill_bytes > 0,
            "the store persisted across the whole chain"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
