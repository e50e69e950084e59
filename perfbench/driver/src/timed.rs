//! Transparent wrappers that time the calls crossing a public layer
//! boundary from outside the program: [`Timed`] around
//! [`Protocol::send`]/[`Protocol::receive`], [`TimedProvider`] around
//! [`HierarchyProvider`] (optionally feeding an external
//! [`StabilityStream`]), and [`TimedTopology`] around the flat
//! [`TopologyProvider`] RLNC broadcasts over.
//!
//! Every wrapper forwards each call unchanged and only adds clock reads and
//! counters, so a wrapped run produces the same dissemination, reports and
//! trace bytes as the unwrapped one (see `tests/transparency.rs`).

use hinet::cluster::ctvg::HierarchyProvider;
use hinet::cluster::hierarchy::Hierarchy;
use hinet::cluster::stability::stream::{StabilityStream, StreamReport};
use hinet::graph::graph::Graph;
use hinet::graph::graph::NodeId;
use hinet::graph::trace::TopologyProvider;
use hinet::sim::protocol::{Incoming, LocalView, Outgoing, Protocol};
use hinet::sim::token::{TokenId, TokenSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Work and busy time one node's protocol spent in its boundary calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// `send` calls.
    pub send_calls: u64,
    /// Time inside `send`, summed over calls (CPU time on a worker).
    pub send_time: Duration,
    /// Messages `send` returned.
    pub msgs: u64,
    /// `receive` calls.
    pub recv_calls: u64,
    /// Time inside `receive`, summed over calls.
    pub recv_time: Duration,
    /// Tokens carried by the delivered messages.
    pub tokens_delivered: u64,
    /// Tokens the node did not know before the delivery that carried them.
    pub tokens_learned: u64,
}

impl ProtoStats {
    /// Field-wise sum.
    pub fn add(&mut self, o: &ProtoStats) {
        self.send_calls += o.send_calls;
        self.send_time += o.send_time;
        self.msgs += o.msgs;
        self.recv_calls += o.recv_calls;
        self.recv_time += o.recv_time;
        self.tokens_delivered += o.tokens_delivered;
        self.tokens_learned += o.tokens_learned;
    }
}

/// A protocol wrapped so its `send` and `receive` calls are timed and
/// counted. All other calls forward untouched.
pub struct Timed<P> {
    inner: P,
    /// What this node's calls did so far.
    pub stats: ProtoStats,
}

impl<P> Timed<P> {
    /// Wrap `inner` with zeroed statistics.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            stats: ProtoStats::default(),
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
        self.inner.on_start(me, initial)
    }

    fn send(&mut self, view: &LocalView<'_>) -> Vec<Outgoing> {
        let t0 = Instant::now();
        let out = self.inner.send(view);
        self.stats.send_time += t0.elapsed();
        self.stats.send_calls += 1;
        self.stats.msgs += out.len() as u64;
        out
    }

    fn receive(&mut self, view: &LocalView<'_>, inbox: &[Incoming]) {
        let before = self.inner.known().len();
        let t0 = Instant::now();
        self.inner.receive(view, inbox);
        self.stats.recv_time += t0.elapsed();
        self.stats.recv_calls += 1;
        self.stats.tokens_delivered += inbox.iter().map(|m| m.payload.len() as u64).sum::<u64>();
        self.stats.tokens_learned += self.inner.known().len().saturating_sub(before) as u64;
    }

    fn known(&self) -> &TokenSet {
        self.inner.known()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn on_restart(&mut self, me: NodeId, retained: &[TokenId]) {
        self.inner.on_restart(me, retained)
    }
}

/// A hierarchy provider wrapped so its `graph_at`/`hierarchy_at` calls are
/// timed and counted. With a [`StabilityStream`] attached, every round's
/// `(graph, hierarchy)` pair is also pushed through the stream, timed
/// separately from the provider itself.
pub struct TimedProvider {
    inner: Box<dyn HierarchyProvider + Send>,
    stream: Option<StabilityStream>,
    pending: Option<Arc<Graph>>,
    /// `graph_at` plus `hierarchy_at` calls.
    pub calls: u64,
    /// Time inside the wrapped provider.
    pub busy: Duration,
    /// `StabilityStream::push` calls.
    pub push_calls: u64,
    /// Time inside `StabilityStream::push` and `finish`.
    pub stream_busy: Duration,
}

impl TimedProvider {
    /// Wrap `inner`; `stream` (if any) receives every round it provides.
    pub fn new(inner: Box<dyn HierarchyProvider + Send>, stream: Option<StabilityStream>) -> Self {
        TimedProvider {
            inner,
            stream,
            pending: None,
            calls: 0,
            busy: Duration::ZERO,
            push_calls: 0,
            stream_busy: Duration::ZERO,
        }
    }

    /// Close the attached stream (timed into [`TimedProvider::stream_busy`])
    /// and return its peak retained state and its report.
    pub fn finish_stream(&mut self) -> Option<(usize, StreamReport)> {
        let stream = self.stream.take()?;
        let peak = stream.peak_state_bytes();
        let t0 = Instant::now();
        let (_, report) = stream.finish();
        self.stream_busy += t0.elapsed();
        Some((peak, report))
    }
}

impl TopologyProvider for TimedProvider {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let t0 = Instant::now();
        let g = self.inner.graph_at(round);
        self.busy += t0.elapsed();
        self.calls += 1;
        if self.stream.is_some() {
            self.pending = Some(Arc::clone(&g));
        }
        g
    }
}

impl HierarchyProvider for TimedProvider {
    fn hierarchy_at(&mut self, round: usize) -> Arc<Hierarchy> {
        let t0 = Instant::now();
        let h = self.inner.hierarchy_at(round);
        self.busy += t0.elapsed();
        self.calls += 1;
        if let Some(stream) = self.stream.as_mut() {
            let g = self
                .pending
                .take()
                .expect("the engine asks for a round's graph before its hierarchy");
            let t0 = Instant::now();
            stream.push(&g, &h);
            self.stream_busy += t0.elapsed();
            self.push_calls += 1;
        }
        h
    }
}

/// A flat topology provider wrapped so its `graph_at` calls are timed and
/// counted.
pub struct TimedTopology {
    inner: Box<dyn TopologyProvider>,
    /// `graph_at` calls.
    pub calls: u64,
    /// Time inside the wrapped provider.
    pub busy: Duration,
}

impl TimedTopology {
    /// Wrap `inner` with zeroed statistics.
    pub fn new(inner: Box<dyn TopologyProvider>) -> Self {
        TimedTopology {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl TopologyProvider for TimedTopology {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        let t0 = Instant::now();
        let g = self.inner.graph_at(round);
        self.busy += t0.elapsed();
        self.calls += 1;
        g
    }
}
