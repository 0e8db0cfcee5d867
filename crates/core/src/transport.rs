//! The transport layer: how update-parameter messages move between
//! fragments (virtual workers).
//!
//! The paper's engine is parallelization-agnostic — PIE programs plug into
//! *any* message-passing substrate.  Both of the engine's runtimes are
//! written against the [`Transport`] trait, which is delivery only; the
//! substrate follows the [`crate::config::EngineMode`]:
//!
//! * [`BarrierTransport`] — BSP semantics, the substrate of
//!   [`EngineMode::Sync`].  `send_batch` stages updates in a
//!   **per-sender** buffer (each sender locks only its own staging area, so
//!   evaluation threads never contend); [`Transport::flush`] — called once
//!   per superstep by the coordinator — aggregates conflicting assignments
//!   across senders with `aggregateMsg`, drops values identical to what the
//!   destination already received (the *delivered* cache of Section 3.2(3)),
//!   and publishes the rest to the per-fragment mailboxes.  Its mailboxes
//!   snapshot, restore and reset for the superstep-aligned checkpoints of
//!   Section 6.
//! * [`ChannelTransport`] — mpsc-style streaming, the substrate of the
//!   barrier-free [`EngineMode::Async`] runtime.
//!   `send_batch` delivers straight into the destination mailbox
//!   (aggregating and deduplicating on the fly); there is no barrier and
//!   `flush` is a no-op.
//!
//! Where the evaluations run is a separate choice, [`TransportSpec`]: in
//! this process, or sharded across `grape-worker` subprocesses.  Message
//! routing stays in the parent either way.
//!
//! Both transports account every shipped update into [`TransportStats`]
//! using the program's `key_size`/`value_size`, which is what
//! [`crate::metrics::EngineMetrics`] reports for the paper's communication
//! figures.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::EngineMode;

/// The message-preamble hooks a transport borrows from a PIE program for the
/// duration of one run: `aggregateMsg` plus the wire-size estimators.
pub struct MessageOps<'p, K, V> {
    /// `aggregateMsg`: resolves conflicting assignments to the same key.
    pub aggregate: &'p (dyn Fn(&K, V, V) -> V + Sync),
    /// Approximate wire size of a key.
    pub key_size: &'p (dyn Fn(&K) -> usize + Sync),
    /// Approximate wire size of a value.
    pub value_size: &'p (dyn Fn(&V) -> usize + Sync),
}

impl<K, V> Clone for MessageOps<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for MessageOps<'_, K, V> {}

impl<K, V> std::fmt::Debug for MessageOps<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MessageOps")
    }
}

/// Where a session's evaluations run.  Message routing stays in the
/// parent under both, on the mode's transport: [`BarrierTransport`] under
/// [`EngineMode::Sync`], [`ChannelTransport`] under [`EngineMode::Async`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportSpec {
    /// Evaluations run on the engine's worker threads in this process.
    #[default]
    InProcess,
    /// Fragments sharded across `workers` OS subprocesses
    /// (`grape-worker`): PEval/IncEval execute inside the process that owns
    /// each fragment, and only seed/border messages plus the partials cross
    /// the stdin/stdout pipes.
    Process {
        /// Number of `grape-worker` subprocesses (clamped to
        /// `1..=num_fragments` at run time).
        workers: usize,
    },
}

impl TransportSpec {
    /// The substrate name recorded in
    /// [`crate::metrics::EngineMetrics::transport`]: `"process"` on
    /// subprocess workers, else the mode's transport — `"barrier"` under
    /// [`EngineMode::Sync`], `"channel"` under [`EngineMode::Async`].
    pub fn name(self, mode: EngineMode) -> &'static str {
        match (self, mode) {
            (TransportSpec::Process { .. }, _) => "process",
            (TransportSpec::InProcess, EngineMode::Sync) => "barrier",
            (TransportSpec::InProcess, EngineMode::Async) => "channel",
        }
    }
}

/// Cumulative message/byte accounting of a transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Updates actually enqueued (after aggregation and dedup).
    pub messages: usize,
    /// Bytes for those updates (`key_size + value_size` each).
    pub bytes: usize,
}

/// Everything a mailbox held when it was drained.
#[derive(Debug)]
pub struct Drained<K, V> {
    /// The deduplicated updates, ready for `IncEval`.
    pub updates: Vec<(K, V)>,
    /// Highest logical step among the senders of `updates` (0 when empty):
    /// the superstep that routed them under the barrier transport, or the
    /// sender's evaluation round under the streaming transport.
    pub max_step: usize,
    /// Messages charged to [`TransportStats`] for this drain.
    pub messages: usize,
    /// Bytes charged for this drain.
    pub bytes: usize,
}

impl<K, V> Drained<K, V> {
    fn empty() -> Self {
        Drained {
            updates: Vec::new(),
            max_step: 0,
            messages: 0,
            bytes: 0,
        }
    }
}

/// Frozen [`BarrierTransport`] mailbox state (pending queues + delivered
/// caches), captured for the fault-tolerance checkpoints of the synchronous
/// runtime.
#[derive(Debug, Clone)]
pub struct TransportSnapshot<K, V> {
    mailboxes: Vec<BarrierMailbox<K, V>>,
}

/// One staged batch awaiting the barrier: `(destination, sender step,
/// updates)`.
type StagedBatch<K, V> = (usize, usize, Vec<(K, V)>);

/// A message-passing substrate connecting `m` fragment mailboxes.
///
/// Contract (checked by the conformance suite in this module's tests):
///
/// * updates become visible to [`Transport::drain`] after
///   [`Transport::flush`] (the barrier transport) or immediately (the
///   streaming one);
/// * conflicting assignments to one key are resolved with `aggregateMsg`
///   before delivery, whichever sender they came from;
/// * a value identical to the last one delivered to that mailbox is dropped
///   free of charge (the *delivered* cache) — only **changed** values ship
///   and are accounted.
pub trait Transport<K, V>: Send + Sync {
    /// Ships a batch of updates from fragment `from` to the mailbox of
    /// `dest`, tagged with the sender's logical step.
    fn send_batch(&self, from: usize, dest: usize, step: usize, updates: Vec<(K, V)>);

    /// Publishes staged sends (barrier transports); returns what this flush
    /// newly enqueued.  No-op for streaming transports.
    fn flush(&self) -> TransportStats;

    /// Takes all pending messages of `fragment`.
    fn drain(&self, fragment: usize) -> Drained<K, V>;

    /// Whether `fragment` has published messages waiting.
    fn has_pending(&self, fragment: usize) -> bool;

    /// Number of mailboxes with published messages waiting.
    fn pending_mailboxes(&self) -> usize;

    /// Cumulative accounting since construction (monotone, survives
    /// [`BarrierTransport::reset`] — re-shipped messages after a failure
    /// recovery are real communication).
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------------
// BarrierTransport
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct BarrierMailbox<K, V> {
    queue: Vec<(K, V)>,
    queue_step: usize,
    queue_bytes: usize,
    delivered: HashMap<K, V>,
}

impl<K, V> BarrierMailbox<K, V> {
    fn new() -> Self {
        BarrierMailbox {
            queue: Vec::new(),
            queue_step: 0,
            queue_bytes: 0,
            delivered: HashMap::new(),
        }
    }
}

/// BSP transport: per-sender staging buffers, published at the superstep
/// barrier by [`Transport::flush`].
///
/// During evaluation each sender appends to its **own** staging buffer —
/// the per-sender mutexes are never contended (the fragment's owning worker
/// is the only thread touching them), so the hot path is effectively
/// lock-free, unlike the former engine-global
/// `Vec<Mutex<Vec<(K, V)>>>` inboxes.
pub struct BarrierTransport<'p, K, V> {
    ops: MessageOps<'p, K, V>,
    /// Per-sender staged batches: `(dest, step, updates)`.
    staging: Vec<Mutex<Vec<StagedBatch<K, V>>>>,
    mailboxes: Vec<Mutex<BarrierMailbox<K, V>>>,
    messages: AtomicUsize,
    bytes: AtomicUsize,
}

impl<'p, K, V> BarrierTransport<'p, K, V> {
    /// A transport connecting `num_fragments` mailboxes.
    pub fn new(num_fragments: usize, ops: MessageOps<'p, K, V>) -> Self {
        BarrierTransport {
            ops,
            staging: (0..num_fragments).map(|_| Mutex::new(Vec::new())).collect(),
            mailboxes: (0..num_fragments)
                .map(|_| Mutex::new(BarrierMailbox::new()))
                .collect(),
            messages: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }
}

impl<K, V> Transport<K, V> for BarrierTransport<'_, K, V>
where
    K: Clone + Eq + Hash + Send,
    V: Clone + PartialEq + Send,
{
    fn send_batch(&self, from: usize, dest: usize, step: usize, updates: Vec<(K, V)>) {
        if updates.is_empty() {
            return;
        }
        self.staging[from].lock().push((dest, step, updates));
    }

    fn flush(&self) -> TransportStats {
        // Aggregate conflicting assignments across all senders first (the
        // coordinator's message grouping), then publish changed values.
        let mut per_dest: HashMap<usize, HashMap<K, (V, usize)>> = HashMap::new();
        for sender in &self.staging {
            for (dest, step, updates) in sender.lock().drain(..) {
                let slot = per_dest.entry(dest).or_default();
                for (k, v) in updates {
                    match slot.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut o) => {
                            let (old_v, old_step) = o.get().clone();
                            let merged = (self.ops.aggregate)(o.key(), old_v, v);
                            o.insert((merged, old_step.max(step)));
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert((v, step));
                        }
                    }
                }
            }
        }
        let mut published = TransportStats::default();
        for (dest, updates) in per_dest {
            let mut mailbox = self.mailboxes[dest].lock();
            for (k, (v, step)) in updates {
                if mailbox.delivered.get(&k) == Some(&v) {
                    continue; // unchanged since the last delivery
                }
                let size = (self.ops.key_size)(&k) + (self.ops.value_size)(&v);
                published.messages += 1;
                published.bytes += size;
                mailbox.queue_bytes += size;
                mailbox.queue_step = mailbox.queue_step.max(step);
                mailbox.delivered.insert(k.clone(), v.clone());
                mailbox.queue.push((k, v));
            }
        }
        self.messages
            .fetch_add(published.messages, Ordering::SeqCst);
        self.bytes.fetch_add(published.bytes, Ordering::SeqCst);
        published
    }

    fn drain(&self, fragment: usize) -> Drained<K, V> {
        let mut mailbox = self.mailboxes[fragment].lock();
        if mailbox.queue.is_empty() {
            return Drained::empty();
        }
        let updates = std::mem::take(&mut mailbox.queue);
        let drained = Drained {
            messages: updates.len(),
            bytes: mailbox.queue_bytes,
            max_step: mailbox.queue_step,
            updates,
        };
        mailbox.queue_step = 0;
        mailbox.queue_bytes = 0;
        drained
    }

    fn has_pending(&self, fragment: usize) -> bool {
        !self.mailboxes[fragment].lock().queue.is_empty()
    }

    fn pending_mailboxes(&self) -> usize {
        self.mailboxes
            .iter()
            .filter(|m| !m.lock().queue.is_empty())
            .count()
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            messages: self.messages.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
        }
    }
}

impl<K: Clone, V: Clone> BarrierTransport<'_, K, V> {
    /// Captures the published mailbox state for a checkpoint.  Sends staged
    /// but not yet flushed are not part of it.
    pub fn snapshot(&self) -> TransportSnapshot<K, V> {
        TransportSnapshot {
            mailboxes: self.mailboxes.iter().map(|m| m.lock().clone()).collect(),
        }
    }

    /// Restores a snapshot taken on the same transport shape and discards
    /// staged sends.
    pub fn restore(&self, snapshot: &TransportSnapshot<K, V>) {
        assert_eq!(
            snapshot.mailboxes.len(),
            self.mailboxes.len(),
            "snapshot shape mismatch"
        );
        for (mailbox, saved) in self.mailboxes.iter().zip(&snapshot.mailboxes) {
            *mailbox.lock() = saved.clone();
        }
        for sender in &self.staging {
            sender.lock().clear();
        }
    }

    /// Clears all mailboxes and delivered caches (restart recovery).
    pub fn reset(&self) {
        for mailbox in &self.mailboxes {
            let mut m = mailbox.lock();
            m.queue.clear();
            m.queue_step = 0;
            m.queue_bytes = 0;
            m.delivered.clear();
        }
        for sender in &self.staging {
            sender.lock().clear();
        }
    }
}

// ---------------------------------------------------------------------------
// ChannelTransport
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ChannelMailbox<K, V> {
    /// Pending updates, coalesced by key: value + max sender step.
    pending: HashMap<K, (V, usize)>,
    delivered: HashMap<K, V>,
}

impl<K, V> ChannelMailbox<K, V> {
    fn new() -> Self {
        ChannelMailbox {
            pending: HashMap::new(),
            delivered: HashMap::new(),
        }
    }
}

/// Streaming (mpsc-style) transport: sends land in the destination mailbox
/// immediately, aggregated with `aggregateMsg` on arrival; there is no
/// global barrier.  The substrate of [`crate::config::EngineMode::Async`].
pub struct ChannelTransport<'p, K, V> {
    ops: MessageOps<'p, K, V>,
    mailboxes: Vec<Mutex<ChannelMailbox<K, V>>>,
    /// Number of mailboxes with pending mail — the quiescence signal the
    /// asynchronous runtime polls without taking any lock.
    nonempty: AtomicUsize,
    messages: AtomicUsize,
    bytes: AtomicUsize,
}

impl<'p, K, V> ChannelTransport<'p, K, V> {
    /// A transport connecting `num_fragments` mailboxes.
    pub fn new(num_fragments: usize, ops: MessageOps<'p, K, V>) -> Self {
        ChannelTransport {
            ops,
            mailboxes: (0..num_fragments)
                .map(|_| Mutex::new(ChannelMailbox::new()))
                .collect(),
            nonempty: AtomicUsize::new(0),
            messages: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }
}

impl<K, V> Transport<K, V> for ChannelTransport<'_, K, V>
where
    K: Clone + Eq + Hash + Send,
    V: Clone + PartialEq + Send,
{
    fn send_batch(&self, _from: usize, dest: usize, step: usize, updates: Vec<(K, V)>) {
        if updates.is_empty() {
            return;
        }
        let mut mailbox = self.mailboxes[dest].lock();
        let ChannelMailbox { pending, delivered } = &mut *mailbox;
        let was_empty = pending.is_empty();
        for (k, v) in updates {
            match pending.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let (old_v, old_step) = o.get().clone();
                    let merged = (self.ops.aggregate)(o.key(), old_v, v);
                    o.insert((merged, old_step.max(step)));
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    // Exact repeat of the last delivered value: drop early,
                    // don't even wake the destination.
                    if delivered.get(slot.key()) != Some(&v) {
                        slot.insert((v, step));
                    }
                }
            }
        }
        if was_empty && !pending.is_empty() {
            self.nonempty.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn flush(&self) -> TransportStats {
        TransportStats::default() // streaming: nothing staged
    }

    fn drain(&self, fragment: usize) -> Drained<K, V> {
        let mut mailbox = self.mailboxes[fragment].lock();
        if mailbox.pending.is_empty() {
            return Drained::empty();
        }
        let pending = std::mem::take(&mut mailbox.pending);
        self.nonempty.fetch_sub(1, Ordering::SeqCst);
        let mut drained = Drained::empty();
        for (k, (v, step)) in pending {
            // Aggregation may have converged back onto the delivered value.
            if mailbox.delivered.get(&k) == Some(&v) {
                continue;
            }
            drained.messages += 1;
            drained.bytes += (self.ops.key_size)(&k) + (self.ops.value_size)(&v);
            drained.max_step = drained.max_step.max(step);
            mailbox.delivered.insert(k.clone(), v.clone());
            drained.updates.push((k, v));
        }
        self.messages.fetch_add(drained.messages, Ordering::SeqCst);
        self.bytes.fetch_add(drained.bytes, Ordering::SeqCst);
        drained
    }

    fn has_pending(&self, fragment: usize) -> bool {
        !self.mailboxes[fragment].lock().pending.is_empty()
    }

    fn pending_mailboxes(&self) -> usize {
        self.nonempty.load(Ordering::SeqCst)
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            messages: self.messages.load(Ordering::SeqCst),
            bytes: self.bytes.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `aggregateMsg = min`, 8-byte keys and values — the SSSP shape.
    fn min_agg(_k: &u64, a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn eight(_x: &u64) -> usize {
        8
    }
    const MIN_OPS: MessageOps<'static, u64, u64> = MessageOps {
        aggregate: &min_agg,
        key_size: &eight,
        value_size: &eight,
    };

    /// The conformance suite of the `Transport` contract, run against both
    /// implementations: delivery, cross-sender aggregation, delivered-cache
    /// dedup, byte accounting, step tagging and pending bookkeeping.
    /// Restart recovery (`reset`) is Barrier-only and has its own test.
    ///
    /// Accounting *timing* differs between the two (barrier charges at
    /// flush, channel at drain), so the suite always observes stats after a
    /// full send → flush → drain cycle, where both must agree.
    fn conformance<T: Transport<u64, u64>>(name: &str, t: &T) {
        // (1) Delivery: one update from fragment 0 to fragment 1.
        t.send_batch(0, 1, 0, vec![(5, 40)]);
        t.flush();
        assert!(t.has_pending(1), "{name}: update not delivered");
        assert!(!t.has_pending(0), "{name}: wrong mailbox");
        assert_eq!(t.pending_mailboxes(), 1, "{name}");
        let d = t.drain(1);
        assert_eq!(d.updates, vec![(5, 40)], "{name}");
        assert_eq!((d.messages, d.bytes), (1, 16), "{name}");
        assert_eq!(
            t.stats(),
            TransportStats {
                messages: 1,
                bytes: 16
            },
            "{name}"
        );
        assert_eq!(t.pending_mailboxes(), 0, "{name}: drain must clear");

        // (2) Cross-sender aggregation: two senders assign key 5; the
        // aggregated (min) value is delivered as ONE message.
        t.send_batch(0, 1, 1, vec![(5, 30)]);
        t.send_batch(2, 1, 1, vec![(5, 20)]);
        t.flush();
        let d = t.drain(1);
        assert_eq!(d.updates, vec![(5, 20)], "{name}: aggregateMsg = min");
        assert_eq!(d.messages, 1, "{name}: conflicts are one message");
        assert_eq!(t.stats().messages, 2, "{name}");

        // (3) Delivered-cache dedup: resending the delivered value ships
        // nothing and charges nothing.
        t.send_batch(0, 1, 2, vec![(5, 20)]);
        t.flush();
        assert!(!t.has_pending(1), "{name}: unchanged value reshipped");
        let d = t.drain(1);
        assert!(d.updates.is_empty(), "{name}");
        assert_eq!(t.stats().messages, 2, "{name}: dedup must not charge");

        // (4) A *changed* value for the same key ships again.
        t.send_batch(0, 1, 3, vec![(5, 10)]);
        t.flush();
        let d = t.drain(1);
        assert_eq!(d.updates, vec![(5, 10)], "{name}");
        assert_eq!(d.max_step, 3, "{name}: step tag must survive delivery");
        assert_eq!(
            t.stats(),
            TransportStats {
                messages: 3,
                bytes: 48
            },
            "{name}"
        );

        // (5) Multiple destinations, multiple keys; in-sender coalescing of
        // distinct keys keeps them distinct.
        t.send_batch(1, 0, 4, vec![(7, 1), (8, 2)]);
        t.send_batch(1, 2, 4, vec![(7, 1)]);
        t.flush();
        assert_eq!(t.pending_mailboxes(), 2, "{name}");
        let mut d0 = t.drain(0).updates;
        d0.sort_unstable();
        assert_eq!(d0, vec![(7, 1), (8, 2)], "{name}");
        assert_eq!(t.drain(2).updates, vec![(7, 1)], "{name}");
        assert_eq!(t.pending_mailboxes(), 0, "{name}");

        // (6) Draining an empty mailbox is free and empty.
        let d = t.drain(0);
        assert!(d.updates.is_empty() && d.messages == 0, "{name}");

        // (7) Empty flush: publishing with nothing staged is free, returns
        // zero stats, and never disturbs pending mail.
        let before = t.stats();
        assert_eq!(t.flush(), TransportStats::default(), "{name}");
        assert_eq!(t.stats(), before, "{name}: empty flush must not charge");
        t.send_batch(0, 1, 5, vec![(21, 21)]);
        t.flush();
        assert!(t.has_pending(1), "{name}");
        t.flush(); // a second, empty flush between barrier and drain
        assert_eq!(
            t.drain(1).updates,
            vec![(21, 21)],
            "{name}: empty flush dropped or duplicated pending mail"
        );
    }

    #[test]
    fn barrier_transport_conforms() {
        let ops = MIN_OPS;
        conformance("barrier", &BarrierTransport::new(3, ops));
    }

    #[test]
    fn channel_transport_conforms() {
        let ops = MIN_OPS;
        conformance("channel", &ChannelTransport::new(3, ops));
    }

    #[test]
    fn barrier_holds_sends_until_flush_channel_does_not() {
        let ops = MIN_OPS;
        let barrier = BarrierTransport::new(2, ops);
        barrier.send_batch(0, 1, 0, vec![(1, 1)]);
        assert!(!barrier.has_pending(1), "barrier publishes at flush only");
        barrier.flush();
        assert!(barrier.has_pending(1));

        let channel = ChannelTransport::new(2, ops);
        channel.send_batch(0, 1, 0, vec![(1, 1)]);
        assert!(channel.has_pending(1), "channel delivers immediately");
    }

    #[test]
    fn barrier_snapshot_restores_mailboxes_and_dedup_state() {
        let ops = MIN_OPS;
        let t = BarrierTransport::new(2, ops);
        t.send_batch(0, 1, 2, vec![(5, 50)]);
        t.flush();
        let snap = t.snapshot();

        // Mutate past the snapshot: drain, deliver something else.
        assert_eq!(t.drain(1).updates, vec![(5, 50)]);
        t.send_batch(0, 1, 3, vec![(5, 40)]);
        t.flush();
        t.drain(1);

        // Restore: the queued update and the delivered cache come back.
        t.restore(&snap);
        let d = t.drain(1);
        assert_eq!(d.updates, vec![(5, 50)]);
        assert_eq!(d.max_step, 2, "step tag is part of the snapshot");
        // Dedup state also rolled back: (5, 50) is delivered again, so
        // resending it ships nothing...
        t.send_batch(0, 1, 4, vec![(5, 50)]);
        t.flush();
        assert!(!t.has_pending(1));
        // ...while the post-snapshot (5, 40) counts as new again.
        t.send_batch(0, 1, 4, vec![(5, 40)]);
        t.flush();
        assert_eq!(t.drain(1).updates, vec![(5, 40)]);
    }

    /// A snapshot taken *mid-superstep* — after sends were staged but
    /// before the barrier published them — must capture only the published
    /// mailbox state: restoring discards the staged-but-unflushed sends, so
    /// the re-executed superstep cannot double-deliver them.
    #[test]
    fn barrier_snapshot_mid_superstep_discards_staged_sends() {
        let ops = MIN_OPS;
        let t = BarrierTransport::new(2, ops);
        t.send_batch(0, 1, 0, vec![(3, 30)]);
        t.flush(); // published: (3, 30)

        // Mid-superstep: a new send is staged but NOT yet flushed.
        t.send_batch(0, 1, 1, vec![(4, 40)]);
        let snap = t.snapshot();

        // The in-flight superstep completes normally…
        t.flush();
        let mut d = t.drain(1).updates;
        d.sort_unstable();
        assert_eq!(d, vec![(3, 30), (4, 40)]);

        // …then a failure rolls back to the snapshot: only the published
        // (3, 30) comes back; the staged (4, 40) is gone until the
        // recovering superstep re-evaluates and re-sends it.
        t.restore(&snap);
        assert_eq!(t.drain(1).updates, vec![(3, 30)]);
        assert_eq!(t.flush(), TransportStats::default(), "staging was cleared");
        assert!(!t.has_pending(1));

        // Re-sending (4, 40) after the rollback ships again (it was never
        // part of the snapshot's delivered cache).
        t.send_batch(0, 1, 1, vec![(4, 40)]);
        t.flush();
        assert_eq!(t.drain(1).updates, vec![(4, 40)]);
    }

    /// Reset clears pending mail, staged sends and the delivered caches (a
    /// value delivered before the reset ships again), but accounting is
    /// cumulative: re-shipped messages after a restart are real
    /// communication.
    #[test]
    fn barrier_reset_forgets_mail_and_dedup_but_keeps_stats() {
        let t = BarrierTransport::new(3, MIN_OPS);
        t.send_batch(0, 1, 0, vec![(5, 10)]);
        t.flush();
        assert_eq!(t.drain(1).updates, vec![(5, 10)]);
        t.send_batch(0, 1, 5, vec![(9, 9)]);
        t.flush();
        t.send_batch(0, 2, 5, vec![(8, 8)]); // staged, never flushed
        t.reset();
        assert_eq!(t.pending_mailboxes(), 0, "reset leaves mail");
        assert_eq!(t.flush(), TransportStats::default(), "reset leaves staging");
        let before = t.stats();
        t.send_batch(0, 1, 0, vec![(5, 10)]); // delivered pre-reset
        t.flush();
        let d = t.drain(1);
        assert_eq!(d.updates, vec![(5, 10)], "reset must forget dedup");
        assert_eq!(t.stats().messages, before.messages + 1);
    }

    /// The default spec runs in-process, and the substrate it names follows
    /// the mode.
    #[test]
    fn spec_defaults_follow_mode() {
        assert_eq!(TransportSpec::default(), TransportSpec::InProcess);
        assert_eq!(TransportSpec::InProcess.name(EngineMode::Sync), "barrier");
        assert_eq!(TransportSpec::InProcess.name(EngineMode::Async), "channel");
        for mode in [EngineMode::Sync, EngineMode::Async] {
            assert_eq!(TransportSpec::Process { workers: 2 }.name(mode), "process");
        }
    }
}
