//! The delivery plane: one gate chain, one reliability setup and one delay
//! rule for both execution modes.
//!
//! Every payload delivery in the simulator — the lock-step engine's inbox
//! pushes and the event driver's [`crate::transport::Transport::send`]
//! calls, coded RLNC packets included — passes through this module. It
//! owns:
//!
//! * the **gate chain**, in this order: down receiver → partition → loss →
//!   delay → duplication ([`Gates::fresh`]). A timer retransmission takes
//!   the first three gates only ([`Gates::resend`]): the envelope took its
//!   delay and duplication rolls at first send, and the timer exists to
//!   outlast them;
//! * the [`crate::reliable`] layer's setup: one [`SenderWindow`] per
//!   sender, whose jitter seed derives from the fault seed
//!   ([`sender_window`]), and one [`ReceiverLedger`] per receiver
//!   ([`accept`]);
//! * the **delay rule**: a delayed envelope went out over an edge that
//!   existed in its send round `r`. The receiver files it for round
//!   `r + d`, and it is lost only if the receiver is down at `r + d` —
//!   whether the edge still exists then does not matter;
//! * the counters ([`Tally`]) and trace records ([`Record`]) the gates
//!   produce.
//!
//! An executor keeps only what is genuinely its own: how an accepted
//! envelope reaches the receiver (an inbox push or a transport send), when
//! acks travel (synced at the round barrier, or carried on the next
//! round's markers), and the order it emits trace events. [`Plane`]
//! bundles the lock-step engine's share — it holds delayed envelopes —
//! while the event driver keeps one window and one ledger per node and
//! files delayed envelopes straight into the receiver's
//! [`crate::transport::RoundBuffer`] slot for `r + d`.
//!
//! A [trivial](FaultPlan::is_trivial) plan passes every delivery through
//! untouched and allocates nothing, so clean runs stay byte-identical to
//! runs without a plan.

use crate::fault::FaultPlan;
use crate::protocol::Payload;
use crate::reliable::{ReceiverLedger, ReliableConfig, Retransmit, SenderWindow};
use hinet_rt::obs::{Event, FaultKind};

/// What the plane carries: a payload and whether it was addressed to the
/// receiver (unicast) rather than broadcast.
pub type Item = (Payload, bool);

/// Where the executors write trace records: the lock-step engine's tracer,
/// or an event driver's per-`(node, round)` buffer (`None` when the run is
/// not traced) that is replayed in lock-step order after the run.
pub trait Record {
    /// Record `event`, which happened in `round`. `overhead` is the bytes
    /// a send's payload carries on air beyond its token cost
    /// ([`Payload::overhead_bytes`]); it is zero for every other event.
    fn record_bytes(&mut self, round: usize, event: Event, overhead: u64);

    /// Record `event`, which carries no byte overhead.
    fn record(&mut self, round: usize, event: Event) {
        self.record_bytes(round, event, 0);
    }
}

impl Record for Option<Vec<(Event, u64)>> {
    fn record_bytes(&mut self, _round: usize, event: Event, overhead: u64) {
        if let Some(events) = self {
            events.push((event, overhead));
        }
    }
}

/// Widen the `(first, last)` fault window to include `round`.
pub(crate) fn note_fault(window: &mut Option<(u64, u64)>, round: u64) {
    *window = Some(window.map_or((round, round), |(a, b)| (a.min(round), b.max(round))));
}

/// The counters the plane's gates produce.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Deliveries dropped by a partition or the loss stream.
    pub faults_injected: u64,
    /// Whether any of those drops was a partition (a backbone fault).
    pub partitioned: bool,
    /// `(first, last)` round in which a fault fired: the gates widen it
    /// with every dropped delivery, the executors with every crash.
    pub fault_window: Option<(u64, u64)>,
    /// Deliveries the delay gate held back.
    pub delays_injected: u64,
    /// Deliveries the duplication gate cloned.
    pub duplicates_injected: u64,
    /// Copies the receive side discarded: injected duplicates plus timer
    /// retransmits of an envelope that already arrived.
    pub dups_discarded: u64,
    /// Timer retransmissions the reliability layer fired.
    pub retransmit_timeouts: u64,
}

impl Tally {
    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.faults_injected += other.faults_injected;
        self.partitioned |= other.partitioned;
        if let Some((first, last)) = other.fault_window {
            note_fault(&mut self.fault_window, first);
            note_fault(&mut self.fault_window, last);
        }
        self.delays_injected += other.delays_injected;
        self.duplicates_injected += other.duplicates_injected;
        self.dups_discarded += other.dups_discarded;
        self.retransmit_timeouts += other.retransmit_timeouts;
    }
}

/// What the gate chain decided for one fresh delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Dropped: the receiver is down, or a partition or the loss stream
    /// fired.
    Lost,
    /// Held by the delay gate: the receiver files it for this round.
    Delayed(usize),
    /// Arrives this round; `duplicated` when the duplication gate also
    /// sent a copy, which the receive side discards.
    OnTime {
        /// Whether a duplicate copy travels with it.
        duplicated: bool,
    },
}

/// The gate chain over one fault plan.
#[derive(Clone, Copy, Debug)]
pub struct Gates<'p> {
    plan: &'p FaultPlan,
    trivial: bool,
}

impl<'p> Gates<'p> {
    /// The chain for `plan`.
    pub fn new(plan: &'p FaultPlan) -> Gates<'p> {
        Gates {
            plan,
            trivial: plan.is_trivial(),
        }
    }

    /// Down receiver → partition → loss: `true` when the `from → to`
    /// delivery is lost in `round`. A down receiver loses it silently —
    /// the crash event already explains it.
    fn lost(
        &self,
        round: usize,
        from: usize,
        to: usize,
        to_down: bool,
        tally: &mut Tally,
        rec: &mut impl Record,
    ) -> bool {
        if to_down {
            return true;
        }
        let kind = if self.plan.partitioned(round, from, to) {
            tally.partitioned = true;
            FaultKind::Partition
        } else if self.plan.drops_message(round, from, to) {
            FaultKind::Loss
        } else {
            return false;
        };
        tally.faults_injected += 1;
        note_fault(&mut tally.fault_window, round as u64);
        let (node, dst) = (from as u64, Some(to as u64));
        rec.record(round, Event::FaultInjected { node, dst, kind });
        true
    }

    /// The full chain for a fresh delivery `from → to`, the `seq`-th
    /// payload of that sender in `round`. `to_down` is consulted only for
    /// a non-trivial plan.
    pub fn fresh(
        &self,
        round: usize,
        (from, to, seq): (usize, usize, u32),
        to_down: impl FnOnce() -> bool,
        tally: &mut Tally,
        rec: &mut impl Record,
    ) -> Fate {
        if self.trivial {
            return Fate::OnTime { duplicated: false };
        }
        if self.lost(round, from, to, to_down(), tally, rec) {
            return Fate::Lost;
        }
        let (node, dst) = (from as u64, to as u64);
        let d = self.plan.delay_of(round, from, to, seq);
        if d > 0 {
            tally.delays_injected += 1;
            let rounds = d as u64;
            rec.record(round, Event::Delayed { node, dst, rounds });
            return Fate::Delayed(round + d);
        }
        let duplicated = self.plan.duplicates(round, from, to, seq);
        if duplicated {
            tally.duplicates_injected += 1;
            rec.record(round, Event::Duplicated { node, dst });
        }
        Fate::OnTime { duplicated }
    }

    /// A timer retransmission by `from`: counts and records the timeout,
    /// then runs down receiver → partition → loss. `true` when it arrives.
    pub fn resend(
        &self,
        round: usize,
        from: usize,
        rt: &Retransmit<Item>,
        to_down: bool,
        tally: &mut Tally,
        rec: &mut impl Record,
    ) -> bool {
        tally.retransmit_timeouts += 1;
        let (node, dst, attempt) = (from as u64, rt.to as u64, u64::from(rt.attempt));
        rec.record(round, Event::RetransmitTimeout { node, dst, attempt });
        !self.lost(round, from, rt.to, to_down, tally, rec)
    }
}

/// Node `node`'s reliability sender window. The jitter seed derives from
/// the fault seed, so `--fault-seed` replays the timers too.
pub fn sender_window(plan: &FaultPlan, node: usize) -> SenderWindow<Item> {
    let seed = plan.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    SenderWindow::new(seed, ReliableConfig::default())
}

/// Accept `(from, rid)` into a receiver's ledger at most once; a rejected
/// copy is counted in `tally.dups_discarded`.
pub fn accept(ledger: &mut ReceiverLedger, from: usize, rid: u64, tally: &mut Tally) -> bool {
    let fresh = ledger.accept(from, rid);
    tally.dups_discarded += u64::from(!fresh);
    fresh
}

/// A delayed envelope waiting for its round at the receiver.
struct Held {
    due: usize,
    from: usize,
    rid: u64,
    item: Item,
}

/// The delivery plane of the lock-step engine: the gate chain, one sender
/// window and one receiver ledger per node when the reliability layer is
/// on, each receiver's held delayed envelopes, and the [`Tally`].
pub struct Plane<'p> {
    gates: Gates<'p>,
    windows: Vec<SenderWindow<Item>>,
    ledgers: Vec<ReceiverLedger>,
    held: Vec<Vec<Held>>,
    /// The counters the gates produced so far.
    pub tally: Tally,
}

impl<'p> Plane<'p> {
    /// The plane for `n` nodes under `plan`. The reliability layer is
    /// active only when `reliable` is set and the plan is non-trivial; a
    /// trivial plan allocates nothing.
    pub fn new(plan: &'p FaultPlan, reliable: bool, n: usize) -> Plane<'p> {
        let gates = Gates::new(plan);
        let nodes = if gates.trivial { 0 } else { n };
        let reliable_nodes = if reliable { nodes } else { 0 };
        Plane {
            gates,
            windows: (0..reliable_nodes)
                .map(|i| sender_window(plan, i))
                .collect(),
            ledgers: (0..reliable_nodes).map(|_| ReceiverLedger::new()).collect(),
            held: (0..nodes).map(|_| Vec::new()).collect(),
            tally: Tally::default(),
        }
    }

    fn accept(&mut self, to: usize, from: usize, rid: u64) -> bool {
        match self.ledgers.get_mut(to) {
            Some(ledger) => accept(ledger, from, rid, &mut self.tally),
            None => true,
        }
    }

    /// Release every held envelope that matures in `round`, in the order
    /// it was held: `deliver(to, from, item)` for each one the receiver
    /// accepts. An envelope maturing while its receiver is down is lost.
    pub fn mature(
        &mut self,
        round: usize,
        down: impl Fn(usize) -> bool,
        mut deliver: impl FnMut(usize, usize, Item),
    ) {
        for to in 0..self.held.len() {
            if self.held[to].is_empty() {
                continue;
            }
            let (ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held[to])
                .into_iter()
                .partition(|h| h.due <= round);
            self.held[to] = later;
            if down(to) {
                continue;
            }
            for h in ready {
                if self.accept(to, h.from, h.rid) {
                    deliver(to, h.from, h.item);
                }
            }
        }
    }

    /// Sender `from`'s retransmissions whose timer expired by `round`,
    /// over links present this round (`edge(to)`). A link absent this
    /// round leaves its entry pending; the timer fires again later.
    pub fn due(
        &mut self,
        from: usize,
        round: usize,
        edge: impl Fn(usize) -> bool,
    ) -> Vec<Retransmit<Item>> {
        match self.windows.get_mut(from) {
            Some(w) => w.due(round).into_iter().filter(|rt| edge(rt.to)).collect(),
            None => Vec::new(),
        }
    }

    /// Re-send `rt` (see [`Gates::resend`]); the item comes back when the
    /// receiver accepts it.
    pub fn resend(
        &mut self,
        round: usize,
        from: usize,
        rt: Retransmit<Item>,
        to_down: bool,
        rec: &mut impl Record,
    ) -> Option<Item> {
        let arrives = self
            .gates
            .resend(round, from, &rt, to_down, &mut self.tally, rec);
        (arrives && self.accept(rt.to, from, rt.rid)).then_some(rt.item)
    }

    /// Send `item` fresh from `from` to `to` as that sender's `seq`-th
    /// payload in `round`: register it with the sender's window, run the
    /// gate chain, and hold it if delayed. The item comes back when it
    /// arrives this round; an injected duplicate is discarded on the spot.
    pub fn send(
        &mut self,
        round: usize,
        (from, to, seq): (usize, usize, u32),
        item: Item,
        to_down: impl FnOnce() -> bool,
        rec: &mut impl Record,
    ) -> Option<Item> {
        if self.gates.trivial {
            return Some(item);
        }
        let rid = match self.windows.get_mut(from) {
            Some(w) => w.register(to, item.clone(), round),
            None => 0,
        };
        match self
            .gates
            .fresh(round, (from, to, seq), to_down, &mut self.tally, rec)
        {
            Fate::Lost => None,
            Fate::Delayed(due) => {
                self.held[to].push(Held {
                    due,
                    from,
                    rid,
                    item,
                });
                None
            }
            Fate::OnTime { duplicated } => {
                self.tally.dups_discarded += u64::from(duplicated);
                self.accept(to, from, rid).then_some(item)
            }
        }
    }

    /// Apply every receiver's cumulative ack to every sender window at
    /// once — the round barrier makes all ledgers consultable together.
    pub fn sync_acks(&mut self) {
        let ledgers = &self.ledgers;
        for (i, w) in self.windows.iter_mut().enumerate() {
            w.sync_acks(|to| ledgers[to].cum(i));
        }
    }

    /// Envelopes still in flight: held delayed envelopes plus unacked
    /// window entries. Either can inform a node after every protocol
    /// finished.
    pub fn in_flight(&self) -> usize {
        self.held.iter().map(Vec::len).sum::<usize>()
            + self
                .windows
                .iter()
                .map(SenderWindow::in_flight)
                .sum::<usize>()
    }
}
