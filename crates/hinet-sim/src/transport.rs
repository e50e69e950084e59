//! Message-plane transport: `(round, sender)`-tagged envelopes, per-node
//! mailboxes, and round reassembly for the event-driven execution mode.
//!
//! The lock-step engine delivers messages by writing them straight into
//! per-node inbox vectors between the send and receive phases of a round.
//! The event-driven runtime ([`crate::engine::ExecMode::Event`]) has no
//! global round barrier, so delivery is abstracted behind the
//! [`Transport`] trait instead: senders enqueue [`Envelope`]s tagged with
//! `(round, sender, seq)`, each node drains its mailbox whenever it gets
//! scheduled, and a per-node [`RoundBuffer`] reassembles whatever arrived
//! — in any order — back into complete synchronous rounds.
//!
//! A node's step for round `r` is released only once its *neighbourhood
//! quorum* for `r` is met: every round-`r` neighbour has delivered its
//! [`EnvelopeKind::RoundDone`] marker (a sender flushes exactly one marker
//! per neighbour per round, after its payload envelopes). Because markers
//! arrive from precisely the round's neighbours, counting them against the
//! node's round-`r` degree is a complete quorum test; payloads buffered
//! for future rounds simply wait in the [`RoundBuffer`].
//!
//! The only backend in-tree is [`ChannelTransport`] — lock-protected
//! in-process mailboxes with a wakeup hook, which is what the engine's
//! worker pool runs on. A socket relay backend can implement the same
//! trait later without touching the engine (see `docs/RUNTIME.md`).

use crate::protocol::{Incoming, Payload};
use hinet_graph::graph::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an [`Envelope`] carries.
#[derive(Clone, Debug)]
pub enum EnvelopeKind {
    /// A protocol payload destined for the receiver's round-`r` inbox.
    Payload {
        /// The token payload.
        payload: Payload,
        /// Whether the payload travelled as a unicast (directed) rather
        /// than a broadcast — preserved into [`Incoming::directed`].
        directed: bool,
        /// Per-link reliable delivery id (monotone per `(sender, receiver)`
        /// link, reused verbatim on retransmission) — the key the
        /// [`crate::reliable`] layer acks and dedups on. Always 0 when the
        /// reliability layer is off.
        rid: u64,
    },
    /// End-of-round marker: the sender has emitted everything it will send
    /// for this round. One marker per `(sender, neighbour, round)`; the
    /// receiver's quorum for the round is met when its marker count
    /// reaches its round degree. Markers model the synchronous round
    /// structure itself, so the fault plane never drops, delays or
    /// duplicates them — delivery pathologies intercept payload envelopes
    /// only.
    RoundDone {
        /// Piggybacked cumulative ack for the *reverse* direction of this
        /// link: every reliable id `< ack` sent by the marker's receiver to
        /// the marker's sender has been accepted. Always 0 when the
        /// reliability layer is off.
        ack: u64,
    },
}

/// One message in flight: a `(round, sender)`-tagged unit of delivery.
///
/// `seq` numbers the sender's payload envelopes within the round so the
/// receiver's [`RoundBuffer`] can restore emission order no matter how
/// delivery interleaved; sorting by `(from, seq)` reproduces exactly the
/// inbox the lock-step engine would have built.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Round the message belongs to.
    pub round: usize,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Per-`(round, sender)` emission sequence number.
    pub seq: u32,
    /// Payload or end-of-round marker.
    pub kind: EnvelopeKind,
}

/// Wakeup hook invoked by a transport after mail lands for a node.
pub type Notifier = Arc<dyn Fn(usize) + Send + Sync>;

/// Delivery abstraction for the event-driven runtime.
///
/// The contract (documented in full in `docs/RUNTIME.md`):
///
/// * [`Transport::send`] may be called concurrently from any worker and
///   must make the envelope eventually visible to a
///   [`Transport::drain`] of its destination node;
/// * envelopes from one sender to one receiver are delivered in send
///   order (per-link FIFO) — reordering *across* senders is expected and
///   is what the [`RoundBuffer`] undoes;
/// * after an envelope becomes drainable the registered [`Notifier`] is
///   invoked with the destination node, so a parked worker can wake;
/// * the transport itself never drops, duplicates or reorders-within-link —
///   loss/partition/delay/duplication faults are injected by the
///   [`crate::delivery`] plane *around* `send` (dropped envelopes are never
///   sent, delayed ones are sent at once but tagged for their due round,
///   duplicated ones are sent twice), so fault semantics are identical in
///   both execution modes and the receive plane ([`RoundBuffer`])
///   defensively deduplicates whatever a real backend might replay.
pub trait Transport: Send + Sync {
    /// Queue `env` for its destination node.
    fn send(&self, env: Envelope);

    /// Move every envelope currently queued for `node` into `into`
    /// (appending, preserving arrival order) and return how many moved.
    fn drain(&self, node: usize, into: &mut Vec<Envelope>) -> usize;

    /// Register the wakeup hook invoked after new mail lands for a node.
    /// The driver calls it once, before the first send.
    fn set_notifier(&self, notify: Notifier);

    /// High-water mark of any single mailbox's queued-envelope count
    /// (the `mailbox_depth_max` observability counter). Backends that do
    /// not track depth may return 0.
    fn max_depth(&self) -> usize {
        0
    }
}

/// In-process channel backend: one lock-protected mailbox per node plus a
/// wakeup hook — the [`Transport`] the engine's worker pool runs on.
///
/// The notifier is set once, before any send; [`Transport::set_notifier`]
/// panics on a second call.
pub struct ChannelTransport {
    boxes: Vec<Mutex<Vec<Envelope>>>,
    notify: OnceLock<Notifier>,
    depth_max: AtomicUsize,
}

impl ChannelTransport {
    /// A transport with `n` empty mailboxes.
    pub fn new(n: usize) -> ChannelTransport {
        ChannelTransport {
            boxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            notify: OnceLock::new(),
            depth_max: AtomicUsize::new(0),
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, env: Envelope) {
        let to = env.to.index();
        let depth = {
            let mut mailbox = self.boxes[to].lock().expect("mailbox lock");
            mailbox.push(env);
            mailbox.len()
        };
        self.depth_max.fetch_max(depth, Ordering::Relaxed);
        if let Some(notify) = self.notify.get() {
            notify(to);
        }
    }

    fn drain(&self, node: usize, into: &mut Vec<Envelope>) -> usize {
        let mut mailbox = self.boxes[node].lock().expect("mailbox lock");
        let moved = mailbox.len();
        into.append(&mut mailbox);
        moved
    }

    fn set_notifier(&self, notify: Notifier) {
        if self.notify.set(notify).is_err() {
            panic!("ChannelTransport::set_notifier called twice: the notifier is set once");
        }
    }

    fn max_depth(&self) -> usize {
        self.depth_max.load(Ordering::Relaxed)
    }
}

/// One round's reassembly slot.
#[derive(Debug, Default)]
struct Slot {
    /// Payload envelopes received for the round, in arrival order:
    /// `(from, seq, rid, payload, directed)`.
    msgs: Vec<(NodeId, u32, u64, Payload, bool)>,
    /// [`EnvelopeKind::RoundDone`] markers received for the round, with
    /// their piggybacked reverse-direction acks.
    markers: Vec<(NodeId, u64)>,
}

/// Everything [`RoundBuffer::take_round`] releases for one round.
#[derive(Debug, Default)]
pub struct TakenRound {
    /// The reassembled inbox in canonical lock-step order.
    pub inbox: Vec<Incoming>,
    /// Reliable delivery ids, parallel to `inbox` (all 0 when the
    /// reliability layer is off).
    pub rids: Vec<u64>,
    /// `(marker sender, piggybacked cumulative ack)` per round-done marker,
    /// sorted by sender id.
    pub acks: Vec<(NodeId, u64)>,
    /// Duplicate `(round, sender, seq)` payloads discarded from this round.
    pub dups_discarded: u64,
}

/// Per-node round reassembly: buckets out-of-order envelopes by round and
/// releases a round's inbox only once the neighbourhood quorum is met.
///
/// ```
/// use hinet_graph::graph::NodeId;
/// use hinet_sim::protocol::Payload;
/// use hinet_sim::token::TokenId;
/// use hinet_sim::transport::{Envelope, EnvelopeKind, RoundBuffer};
///
/// let mut buf = RoundBuffer::new();
/// // A future-round payload arrives early: buffered, round 0 not ready.
/// buf.push(Envelope {
///     round: 1,
///     from: NodeId(2),
///     to: NodeId(0),
///     seq: 0,
///     kind: EnvelopeKind::Payload {
///         payload: Payload::One(TokenId(7)),
///         directed: false,
///         rid: 0,
///     },
/// });
/// assert!(!buf.ready(0, 1));
/// // The round-0 marker from the single neighbour releases round 0.
/// buf.push(Envelope {
///     round: 0,
///     from: NodeId(2),
///     to: NodeId(0),
///     seq: 0,
///     kind: EnvelopeKind::RoundDone { ack: 0 },
/// });
/// assert!(buf.ready(0, 1));
/// assert!(buf.take(0).is_empty());
/// assert!(!buf.ready(1, 1), "round 1 still lacks its marker");
/// ```
#[derive(Debug, Default)]
pub struct RoundBuffer {
    slots: BTreeMap<usize, Slot>,
    dups_discarded: u64,
}

impl RoundBuffer {
    /// An empty buffer.
    pub fn new() -> RoundBuffer {
        RoundBuffer::default()
    }

    /// File one envelope into its round slot.
    pub fn push(&mut self, env: Envelope) {
        let slot = self.slots.entry(env.round).or_default();
        match env.kind {
            EnvelopeKind::Payload {
                payload,
                directed,
                rid,
            } => {
                slot.msgs.push((env.from, env.seq, rid, payload, directed));
            }
            EnvelopeKind::RoundDone { ack } => slot.markers.push((env.from, ack)),
        }
    }

    /// Whether round `round`'s quorum is met: at least `quorum` end-of-round
    /// markers have arrived (`quorum` = the node's degree in the round
    /// graph; an isolated node's quorum of 0 is trivially met).
    pub fn ready(&self, round: usize, quorum: usize) -> bool {
        quorum == 0
            || self
                .slots
                .get(&round)
                .is_some_and(|slot| slot.markers.len() >= quorum)
    }

    /// Release round `round`'s inbox, sorted into the canonical lock-step
    /// order (ascending sender id, then per-sender emission order), and
    /// drop the slot. Rounds are taken at most once.
    ///
    /// The buffer does not trust `(sender, seq)` uniqueness: a transport
    /// replay or an injected duplication fault can deliver the same
    /// envelope twice, so duplicates are discarded here (first arrival
    /// wins) and counted exactly in [`TakenRound::dups_discarded`] /
    /// [`RoundBuffer::dups_discarded`].
    pub fn take(&mut self, round: usize) -> Vec<Incoming> {
        self.take_round(round).inbox
    }

    /// [`RoundBuffer::take`] plus the reliability-plane side channels: the
    /// per-payload reliable ids and the acks piggybacked on the round's
    /// markers.
    pub fn take_round(&mut self, round: usize) -> TakenRound {
        let Some(mut slot) = self.slots.remove(&round) else {
            return TakenRound::default();
        };
        slot.msgs
            .sort_by_key(|&(from, seq, _, _, _)| (from.index(), seq));
        let before = slot.msgs.len();
        slot.msgs
            .dedup_by_key(|&mut (from, seq, _, _, _)| (from, seq));
        let dups = (before - slot.msgs.len()) as u64;
        self.dups_discarded += dups;
        let mut rids = Vec::with_capacity(slot.msgs.len());
        let inbox = slot
            .msgs
            .into_iter()
            .map(|(from, _, rid, payload, directed)| {
                rids.push(rid);
                Incoming {
                    from,
                    directed,
                    payload,
                }
            })
            .collect();
        let mut acks = slot.markers;
        acks.sort_by_key(|&(from, _)| from.index());
        TakenRound {
            inbox,
            rids,
            acks,
            dups_discarded: dups,
        }
    }

    /// Total duplicate payloads this buffer has discarded across all taken
    /// rounds (the `dups_discarded` observability gauge).
    pub fn dups_discarded(&self) -> u64 {
        self.dups_discarded
    }

    /// The subset of `neighbors` whose round-`round` marker has not arrived
    /// yet — the senders blocking this node's quorum (stall-watchdog
    /// diagnostics).
    pub fn missing_markers(&self, round: usize, neighbors: &[NodeId]) -> Vec<NodeId> {
        match self.slots.get(&round) {
            None => neighbors.to_vec(),
            Some(slot) => neighbors
                .iter()
                .copied()
                .filter(|v| !slot.markers.iter().any(|&(from, _)| from == *v))
                .collect(),
        }
    }

    /// Number of rounds currently buffered (complete or partial).
    pub fn pending_rounds(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenId;

    fn payload_env(round: usize, from: usize, seq: u32, token: u64) -> Envelope {
        Envelope {
            round,
            from: NodeId::from_index(from),
            to: NodeId(0),
            seq,
            kind: EnvelopeKind::Payload {
                payload: Payload::One(TokenId(token)),
                directed: false,
                rid: 0,
            },
        }
    }

    fn done_env(round: usize, from: usize) -> Envelope {
        Envelope {
            round,
            from: NodeId::from_index(from),
            to: NodeId(0),
            seq: u32::MAX,
            kind: EnvelopeKind::RoundDone { ack: 0 },
        }
    }

    #[test]
    fn reassembles_shuffled_delivery_into_sender_order() {
        let mut buf = RoundBuffer::new();
        // Arrival order scrambled across senders and within sender 1.
        buf.push(payload_env(0, 2, 0, 20));
        buf.push(payload_env(0, 1, 1, 11));
        buf.push(done_env(0, 2));
        buf.push(payload_env(0, 1, 0, 10));
        buf.push(done_env(0, 1));
        assert!(buf.ready(0, 2));
        let inbox = buf.take(0);
        let tokens: Vec<u64> = inbox.iter().map(|m| m.payload.first().unwrap().0).collect();
        assert_eq!(tokens, vec![10, 11, 20], "(from, seq) order restored");
        assert_eq!(inbox[0].from, NodeId(1));
    }

    #[test]
    fn quorum_gates_release_per_round() {
        let mut buf = RoundBuffer::new();
        buf.push(payload_env(3, 0, 0, 1));
        assert!(!buf.ready(3, 1), "payloads alone never release a round");
        buf.push(done_env(3, 0));
        assert!(buf.ready(3, 1));
        assert!(!buf.ready(4, 1), "later rounds untouched");
        assert!(
            buf.ready(7, 0),
            "zero quorum (isolated node) is trivially met"
        );
        assert_eq!(buf.pending_rounds(), 1);
        buf.take(3);
        assert_eq!(buf.pending_rounds(), 0);
    }

    #[test]
    fn future_rounds_buffer_independently() {
        let mut buf = RoundBuffer::new();
        buf.push(done_env(1, 0));
        buf.push(done_env(0, 0));
        buf.push(payload_env(1, 0, 0, 5));
        assert!(buf.ready(0, 1));
        assert!(buf.ready(1, 1));
        assert!(buf.take(0).is_empty());
        let later = buf.take(1);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].payload.first(), Some(TokenId(5)));
    }

    #[test]
    fn duplicate_sender_seq_pairs_are_discarded_and_counted() {
        let mut buf = RoundBuffer::new();
        buf.push(payload_env(0, 1, 0, 10));
        buf.push(payload_env(0, 1, 0, 10)); // exact duplicate
        buf.push(payload_env(0, 1, 1, 11));
        buf.push(payload_env(0, 2, 0, 20));
        buf.push(payload_env(0, 2, 0, 20)); // duplicated twice more
        buf.push(payload_env(0, 2, 0, 20));
        buf.push(done_env(0, 1));
        buf.push(done_env(0, 2));
        let taken = buf.take_round(0);
        let tokens: Vec<u64> = taken
            .inbox
            .iter()
            .map(|m| m.payload.first().unwrap().0)
            .collect();
        assert_eq!(tokens, vec![10, 11, 20], "first arrival wins, order kept");
        assert_eq!(taken.dups_discarded, 3);
        assert_eq!(buf.dups_discarded(), 3, "buffer accumulates across takes");
        let mut buf2 = RoundBuffer::new();
        buf2.push(payload_env(1, 0, 0, 1));
        buf2.push(done_env(1, 0));
        assert_eq!(buf2.take_round(1).dups_discarded, 0);
    }

    #[test]
    fn take_round_surfaces_rids_and_sorted_marker_acks() {
        let mut buf = RoundBuffer::new();
        let mut env = payload_env(0, 2, 0, 20);
        if let EnvelopeKind::Payload { rid, .. } = &mut env.kind {
            *rid = 7;
        }
        buf.push(env);
        buf.push(Envelope {
            round: 0,
            from: NodeId(2),
            to: NodeId(0),
            seq: u32::MAX,
            kind: EnvelopeKind::RoundDone { ack: 4 },
        });
        buf.push(Envelope {
            round: 0,
            from: NodeId(1),
            to: NodeId(0),
            seq: u32::MAX,
            kind: EnvelopeKind::RoundDone { ack: 9 },
        });
        let taken = buf.take_round(0);
        assert_eq!(taken.rids, vec![7]);
        assert_eq!(taken.acks, vec![(NodeId(1), 9), (NodeId(2), 4)]);
    }

    #[test]
    fn missing_markers_names_the_blocking_senders() {
        let mut buf = RoundBuffer::new();
        let neighbors = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(
            buf.missing_markers(0, &neighbors),
            neighbors.to_vec(),
            "empty slot: everyone is missing"
        );
        buf.push(done_env(0, 2));
        assert_eq!(
            buf.missing_markers(0, &neighbors),
            vec![NodeId(1), NodeId(3)]
        );
        buf.push(done_env(0, 1));
        buf.push(done_env(0, 3));
        assert!(buf.missing_markers(0, &neighbors).is_empty());
    }

    #[test]
    fn channel_transport_delivers_and_notifies() {
        use std::sync::atomic::AtomicUsize;

        let t = ChannelTransport::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        t.set_notifier(Arc::new(move |_node| {
            hits2.fetch_add(1, Ordering::Relaxed);
        }));
        t.send(payload_env(0, 1, 0, 9));
        t.send(done_env(0, 1));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        let mut got = Vec::new();
        assert_eq!(t.drain(0, &mut got), 2);
        assert_eq!(t.drain(0, &mut got), 0, "drain empties the mailbox");
        assert_eq!(got.len(), 2);
        assert_eq!(t.max_depth(), 2, "high-water mark before the drain");
    }

    #[test]
    #[should_panic(expected = "set_notifier called twice")]
    fn channel_transport_notifier_is_set_once() {
        let t = ChannelTransport::new(1);
        t.set_notifier(Arc::new(|_| {}));
        t.set_notifier(Arc::new(|_| {}));
    }
}
