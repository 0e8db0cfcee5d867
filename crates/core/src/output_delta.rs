//! Answer deltas: **what changed in `Q(G)`**, not just that it changed.
//!
//! The serving layer's polling contract makes every watcher re-read the
//! whole answer after every `ΔG` — `O(|answer|)` per watcher per delta.
//! This module gives queries a push contract instead: after a refresh the
//! engine reports the *changed rows* of the answer, with size proportional
//! to the change (the delay-proportional-to-change contract of
//! first-order-incremental view maintenance).
//!
//! Three layers:
//!
//! * [`OutputDelta`] — a typed, key-sorted diff between two canonical
//!   answers: upserted `(key, value)` rows plus removed keys.
//! * [`DeltaOutput`] — the per-program extension of
//!   [`IncrementalPie`]: a canonical row form for the program's output
//!   ([`DeltaOutput::canonical`]) and an optional fast path
//!   ([`DeltaOutput::diff_output`]) that derives the diff straight from
//!   the partials the engine already maintains.  Correctness never
//!   depends on the fast path — the engine falls back to
//!   assemble-and-diff ([`diff_sorted`]) whenever `diff_output` declines.
//! * [`WireOutputDelta`] / [`OutputEvent`] / [`QueryDelta`] — the
//!   type-erased form the serving layer buffers and the daemon pushes:
//!   keys and values as serde [`Value`] trees, so subscriptions over
//!   heterogeneous query types share one stream type.
//!
//! The invariant everything downstream leans on (pinned by the replay
//! relation of `tests/equivalence/`): folding a query's delta stream over
//! its initial answer reproduces `output()` **byte-for-byte** in canonical
//! JSON, across algorithms, engine modes, fan-out widths and
//! evict/rehydrate interleavings.

use std::cmp::Ordering;

use grape_partition::fragment::Fragmentation;
use serde::{Deserialize, Serialize, Value};

use crate::pie::IncrementalPie;

/// A typed diff between two canonical answers: rows whose value changed
/// (or appeared), and keys that disappeared.  Both vectors are sorted by
/// key and disjoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputDelta<K, V> {
    /// Upserted rows, key-sorted: the key now maps to this value.
    pub changed: Vec<(K, V)>,
    /// Removed keys, sorted: the key no longer appears in the answer.
    pub removed: Vec<K>,
}

impl<K, V> OutputDelta<K, V> {
    /// A delta that changes nothing.
    pub fn empty() -> Self {
        OutputDelta {
            changed: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }

    /// Number of changed plus removed rows — the `O(|change|)` the push
    /// contract is sized by.
    pub fn len(&self) -> usize {
        self.changed.len() + self.removed.len()
    }

    /// Type-erases the delta into its wire form.
    pub fn to_wire(&self) -> WireOutputDelta
    where
        K: Serialize,
        V: Serialize,
    {
        WireOutputDelta {
            changed: self
                .changed
                .iter()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
            removed: self.removed.iter().map(Serialize::to_value).collect(),
        }
    }
}

/// Diffs two key-sorted row sets: `apply_sorted(previous, diff) == next`,
/// exactly.  The full-recompute fallback behind every
/// [`DeltaOutput::diff_output`] fast path.
pub fn diff_sorted<K: Ord + Clone, V: PartialEq + Clone>(
    previous: &[(K, V)],
    next: &[(K, V)],
) -> OutputDelta<K, V> {
    let mut delta = OutputDelta::empty();
    let (mut i, mut j) = (0, 0);
    while i < previous.len() && j < next.len() {
        match previous[i].0.cmp(&next[j].0) {
            Ordering::Less => {
                delta.removed.push(previous[i].0.clone());
                i += 1;
            }
            Ordering::Greater => {
                delta.changed.push(next[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                if previous[i].1 != next[j].1 {
                    delta.changed.push(next[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    for row in &previous[i..] {
        delta.removed.push(row.0.clone());
    }
    delta.changed.extend_from_slice(&next[j..]);
    delta
}

/// Applies a delta to key-sorted rows (the replay direction of the
/// equivalence pin) by merging — `O(|rows| + |delta|)` however many keys
/// appear or vanish.
pub fn apply_sorted<K: Ord + Clone, V: Clone>(rows: &mut Vec<(K, V)>, delta: &OutputDelta<K, V>) {
    merge_apply(rows, &delta.changed, &delta.removed, K::cmp);
}

/// `rows ⊕ (changed, removed)` as ordered merges; all three must be sorted
/// by `cmp`, with `changed` and `removed` disjoint.  Removed keys that are
/// not in `rows` are ignored.
///
/// One pass over `rows` in place rewrites the values that changed and
/// drops the keys that vanished — the whole job for a delta that adds no
/// key, which then allocates nothing.  Keys new to `rows` are set aside
/// and merged in by a second pass, so any number of them costs one
/// rebuild, not one shift of the tail each.
fn merge_apply<K: Clone, V: Clone>(
    rows: &mut Vec<(K, V)>,
    changed: &[(K, V)],
    removed: &[K],
    cmp: impl Fn(&K, &K) -> Ordering,
) {
    debug_assert!(changed
        .windows(2)
        .all(|w| cmp(&w[0].0, &w[1].0) == Ordering::Less));
    debug_assert!(removed
        .windows(2)
        .all(|w| cmp(&w[0], &w[1]) == Ordering::Less));
    let mut changed = changed.iter().peekable();
    let mut removed = removed.iter().peekable();
    let mut added: Vec<&(K, V)> = Vec::new();
    rows.retain_mut(|row| {
        while let Some(new) = changed.next_if(|(k, _)| cmp(k, &row.0) == Ordering::Less) {
            added.push(new);
        }
        while removed
            .next_if(|k| cmp(k, &row.0) == Ordering::Less)
            .is_some()
        {}
        if removed
            .next_if(|k| cmp(k, &row.0) == Ordering::Equal)
            .is_some()
        {
            return false;
        }
        if let Some((_, v)) = changed.next_if(|(k, _)| cmp(k, &row.0) == Ordering::Equal) {
            row.1 = v.clone();
        }
        true
    });
    added.extend(changed);
    if added.is_empty() {
        return;
    }
    let kept = std::mem::take(rows);
    rows.reserve(kept.len() + added.len());
    let mut added = added.into_iter().peekable();
    for row in kept {
        while let Some(new) = added.next_if(|(k, _)| cmp(k, &row.0) == Ordering::Less) {
            rows.push(new.clone());
        }
        rows.push(row);
    }
    rows.extend(added.cloned());
}

/// The per-program answer-delta contract: an extension of
/// [`IncrementalPie`] served queries must implement to be subscribable.
///
/// A program declares a *canonical row form* for its output — SSSP and CC
/// report `(vertex, value)` rows, graph simulation `((query node, vertex),
/// matched)` pairs, SubIso `(match tuple, present)` rows, CF `(vertex,
/// factor vector)` rows — and may implement [`DeltaOutput::diff_output`]
/// to derive the diff straight from the partials the refresh already
/// rebuilt, skipping the `O(|answer|)` assemble.
pub trait DeltaOutput: IncrementalPie {
    /// Key of one answer row.  `Ord` fixes the canonical order.
    type OutKey: Ord + Clone + Send + Serialize + 'static;
    /// Value of one answer row.
    type OutVal: Clone + PartialEq + Send + Serialize + 'static;

    /// The canonical, key-sorted row form of an assembled output.  Must be
    /// a bijection on answers: two outputs are equal iff their canonical
    /// rows are.
    fn canonical(
        &self,
        query: &Self::Query,
        output: &Self::Output,
    ) -> Vec<(Self::OutKey, Self::OutVal)>;

    /// Fast path: derive the delta against `previous` straight from the
    /// refreshed partials, computed on `frag`, without assembling the
    /// output.  Return `None` to decline — the engine then assembles and
    /// calls [`diff_sorted`], so correctness never depends on this hook.
    fn diff_output(
        &self,
        query: &Self::Query,
        frag: &Fragmentation,
        previous: &[(Self::OutKey, Self::OutVal)],
        partials: &[Self::Partial],
    ) -> Option<OutputDelta<Self::OutKey, Self::OutVal>> {
        let _ = (query, frag, previous, partials);
        None
    }
}

// ---------------------------------------------------------------------------
// Wire form
// ---------------------------------------------------------------------------

/// A type-erased [`OutputDelta`]: keys and values as serde [`Value`]
/// trees, sorted by [`value_cmp`].  What [`crate::serve::GrapeServer`]
/// buffers per subscription and `graped` pushes as `event` frames.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WireOutputDelta {
    /// Upserted `[key, value]` rows.
    pub changed: Vec<(Value, Value)>,
    /// Removed keys.
    pub removed: Vec<Value>,
}

impl WireOutputDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }

    /// Number of changed plus removed rows.
    pub fn len(&self) -> usize {
        self.changed.len() + self.removed.len()
    }

    /// Folds `later` into `self` key-wise: applying the fold equals
    /// applying `self` then `later`.  What a cold query's subscription
    /// does to the stream it missed — and the identity the lifecycle
    /// tests pin the rehydration compaction against.
    pub fn fold(&mut self, later: &WireOutputDelta) {
        let mut merged: Vec<(Value, Option<Value>)> = Vec::new();
        for (k, v) in self.changed.drain(..) {
            merged.push((k, Some(v)));
        }
        for k in self.removed.drain(..) {
            merged.push((k, None));
        }
        for (k, v) in &later.changed {
            merged.push((k.clone(), Some(v.clone())));
        }
        for k in &later.removed {
            merged.push((k.clone(), None));
        }
        // Stable sort: within a key, later entries stay later — keep the
        // last one per run.
        merged.sort_by(|a, b| value_cmp(&a.0, &b.0));
        let mut i = 0;
        while i < merged.len() {
            let mut last = i;
            while last + 1 < merged.len()
                && value_cmp(&merged[last + 1].0, &merged[i].0) == Ordering::Equal
            {
                last += 1;
            }
            let (key, slot) = &merged[last];
            match slot {
                Some(v) => self.changed.push((key.clone(), v.clone())),
                None => self.removed.push(key.clone()),
            }
            i = last + 1;
        }
    }

    /// Applies the delta to rows kept sorted by [`value_cmp`] — the wire
    /// side of the replay equivalence pin, and the same merge as
    /// [`apply_sorted`].
    pub fn apply_to(&self, rows: &mut Vec<(Value, Value)>) {
        merge_apply(rows, &self.changed, &self.removed, value_cmp);
    }
}

/// Type-erases canonical rows into wire rows, sorted by [`value_cmp`] —
/// the baseline a subscription's delta stream folds over.
pub fn wire_rows<K: Serialize, V: Serialize>(rows: &[(K, V)]) -> Vec<(Value, Value)> {
    let mut wire: Vec<(Value, Value)> = rows
        .iter()
        .map(|(k, v)| (k.to_value(), v.to_value()))
        .collect();
    wire.sort_by(|a, b| value_cmp(&a.0, &b.0));
    wire
}

/// A total structural order on serde [`Value`] trees.  For the key shapes
/// programs actually use (integers, strings, tuples and vectors of them)
/// it coincides with the typed `Ord`, so wire streams sort identically to
/// the typed diffs they were erased from.
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::UInt(_) | Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Seq(_) => 4,
            Value::Map(_) => 5,
        }
    }
    fn numeric(v: &Value) -> f64 {
        match v {
            Value::UInt(n) => *n as f64,
            Value::Int(n) => *n as f64,
            Value::Float(f) => *f,
            _ => unreachable!("numeric called on a non-number"),
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::UInt(x), Value::UInt(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Seq(x), Value::Seq(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let ord = value_cmp(xi, yi);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Map(x), Value::Map(y)) => {
            for ((xk, xv), (yk, yv)) in x.iter().zip(y.iter()) {
                let ord = xk.cmp(yk).then_with(|| value_cmp(xv, yv));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            x.len().cmp(&y.len())
        }
        _ if rank(a) == rank(b) => numeric(a).total_cmp(&numeric(b)),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// One pushed event on a subscription.  On the wire it is internally
/// tagged: `{"event":"delta","changed":…,"removed":…}` or
/// `{"event":"poisoned"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum OutputEvent {
    /// The answer changed by exactly this delta (possibly empty: the
    /// commit left this answer untouched).
    Delta(WireOutputDelta),
    /// Terminal: the query's handle was poisoned by a failed refresh.  No
    /// further deltas will be emitted, and no partial delta precedes this.
    Poisoned,
}

/// One subscribed query's event for one commit (or one rehydration) —
/// what [`crate::serve::ServeReport::events`] carries, id-sorted.  It
/// serializes as `{"query":Q,"version":V,"event":…}`: every subscriber's
/// event frame is this map with its subscription id in front.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryDelta {
    /// The query's handle id.
    pub query: usize,
    /// The server version this event brings the subscriber up to.
    pub version: usize,
    /// What happened.
    #[serde(flatten)]
    pub event: OutputEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        pairs.to_vec()
    }

    #[test]
    fn diff_then_apply_reproduces_next_exactly() {
        let previous = rows(&[(1, 10), (2, 20), (4, 40), (7, 70)]);
        let next = rows(&[(1, 10), (2, 21), (3, 30), (7, 70), (9, 90)]);
        let delta = diff_sorted(&previous, &next);
        assert_eq!(delta.changed, vec![(2, 21), (3, 30), (9, 90)]);
        assert_eq!(delta.removed, vec![4]);
        assert_eq!(delta.len(), 4);
        let mut replay = previous.clone();
        apply_sorted(&mut replay, &delta);
        assert_eq!(replay, next);
    }

    /// The per-key replay the merge pass replaced — `Vec::insert` /
    /// `Vec::remove` per structural change — kept as the reference.
    fn apply_per_key(rows: &mut Vec<(u64, u64)>, delta: &OutputDelta<u64, u64>) {
        for &(k, v) in &delta.changed {
            match rows.binary_search_by_key(&k, |&(rk, _)| rk) {
                Ok(i) => rows[i].1 = v,
                Err(i) => rows.insert(i, (k, v)),
            }
        }
        for k in &delta.removed {
            if let Ok(i) = rows.binary_search_by_key(k, |&(rk, _)| rk) {
                rows.remove(i);
            }
        }
    }

    #[test]
    fn merge_apply_equals_the_per_key_replay_on_a_large_structural_delta() {
        // A 20 000-row answer on the even keys; the delta removes 5 000 of
        // them (a disconnected region), inserts 5 000 odd keys (a
        // reconnected one, some past the last row), rewrites 1 000 in place
        // and names a few removed keys the answer never held.
        let base: Vec<(u64, u64)> = (0..20_000u64).map(|i| (2 * i, i)).collect();
        let mut changed: Vec<(u64, u64)> = (0..4_999u64).map(|i| (8 * i + 1, i + 7)).collect();
        changed.push((40_001, 7));
        changed.extend((0..1_000u64).map(|i| (40 * i + 2, 99)));
        changed.sort_unstable();
        let mut removed: Vec<u64> = (0..5_000u64).map(|i| 8 * i + 4).collect();
        removed.extend([3, 39_999, 50_001]);
        removed.sort_unstable();
        let delta = OutputDelta { changed, removed };

        let mut expected = base.clone();
        apply_per_key(&mut expected, &delta);
        let mut typed = base.clone();
        apply_sorted(&mut typed, &delta);
        assert_eq!(typed, expected);
        assert_eq!(typed.len(), 20_000);

        let mut wire = wire_rows(&base);
        delta.to_wire().apply_to(&mut wire);
        assert_eq!(wire, wire_rows(&expected));
    }

    #[test]
    fn equal_rows_diff_to_an_empty_delta() {
        let a = rows(&[(1, 1), (2, 2)]);
        let delta = diff_sorted(&a, &a);
        assert!(delta.is_empty());
        assert_eq!(OutputDelta::<u64, u64>::empty(), delta);
    }

    #[test]
    fn wire_fold_keeps_the_last_write_per_key() {
        let first = OutputDelta {
            changed: vec![(1u64, 10u64), (2, 20)],
            removed: vec![5u64],
        }
        .to_wire();
        let second = OutputDelta {
            changed: vec![(2u64, 99u64), (5, 50)],
            removed: vec![1u64],
        }
        .to_wire();
        let mut folded = first.clone();
        folded.fold(&second);

        // Applying the fold equals applying first then second.
        let base = wire_rows(&rows(&[(1, 1), (2, 2), (5, 5), (9, 9)]));
        let mut sequential = base.clone();
        first.apply_to(&mut sequential);
        second.apply_to(&mut sequential);
        let mut folded_once = base;
        folded.apply_to(&mut folded_once);
        assert_eq!(sequential, folded_once);

        // And the fold is compact: one entry per key.
        assert_eq!(folded.changed.len(), 2, "{folded:?}");
        assert_eq!(folded.removed.len(), 1, "{folded:?}");
    }

    #[test]
    fn wire_rows_sort_numerically_not_lexically() {
        let wire = wire_rows(&rows(&[(9, 9), (10, 10), (2, 2)]));
        let keys: Vec<&Value> = wire.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![&Value::UInt(2), &Value::UInt(9), &Value::UInt(10)]
        );
    }

    #[test]
    fn value_cmp_orders_tuples_like_typed_ord() {
        let pairs = [(0u32, 5u64), (0, 40), (1, 2)];
        let mut wire: Vec<Value> = pairs.iter().map(Serialize::to_value).collect();
        wire.reverse();
        wire.sort_by(value_cmp);
        let expected: Vec<Value> = pairs.iter().map(Serialize::to_value).collect();
        assert_eq!(wire, expected);
    }
}
