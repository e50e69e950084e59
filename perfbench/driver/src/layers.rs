//! Per-layer figures of one traced iteration, and the names and units
//! under which they are reported.
//!
//! Busy times come from the boundary wrappers in [`crate::timed`]; the
//! executors' self times are residuals: run time minus provider, oracle
//! and protocol time, with protocol CPU time divided by the worker count.
//! With more than one worker that division makes them estimates.

use crate::timed::ProtoStats;
use hinet::sim::engine::RunReport;
use std::time::Duration;

/// Per-layer sums over the jobs of one traced iteration.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Topology and hierarchy provider calls.
    pub provider_calls: u64,
    /// Time inside the providers.
    pub provider_busy: Duration,
    /// Protocol send/receive work and CPU time.
    pub proto: ProtoStats,
    /// Lock-step engine self time in seconds (estimate).
    pub engine_self: f64,
    /// Event driver self time in seconds (estimate).
    pub event_self: f64,
    /// Delivery-plane counters from the engine reports.
    pub faults_injected: u64,
    /// Deliveries held back by the delay gate.
    pub delays_injected: u64,
    /// Deliveries cloned by the duplication gate.
    pub duplicates_injected: u64,
    /// Duplicates the receive plane discarded.
    pub dups_discarded: u64,
    /// Reliable-layer retransmit timer expiries.
    pub retransmit_timeouts: u64,
    /// Packets the engine jobs sent.
    pub engine_packets: u64,
    /// Event mode: blocked `(node, round)` quorum checks.
    pub reassembly_stalls: u64,
    /// Event mode: deepest mailbox.
    pub mailbox_depth_max: u64,
    /// Event mode: median per-token completion latency.
    pub latency_p50_ns: u64,
    /// Event mode: 95th-percentile per-token completion latency.
    pub latency_p95_ns: u64,
    /// `StabilityStream::push` calls.
    pub stability_pushes: u64,
    /// Time in `StabilityStream::push` and `finish`.
    pub stability_busy: Duration,
    /// The stream's peak retained state.
    pub stability_peak_bytes: u64,
    /// RLNC self time in seconds: run time minus provider time.
    pub netcode_self: f64,
    /// Coded packets sent.
    pub netcode_packets: u64,
    /// Coded packets re-sent by the reliable layer.
    pub netcode_retransmits: u64,
    /// Rank the RLNC nodes had to gain: `n·k − k`.
    pub netcode_rank: u64,
    /// Trace events recorded.
    pub trace_events: u64,
    /// Serialised trace bytes.
    pub trace_bytes: u64,
    /// Time in `Tracer::to_jsonl`.
    pub trace_serialize: Duration,
    /// Time in `ParsedTrace::parse_jsonl`.
    pub trace_parse: Duration,
    /// Time in `diff_traces`.
    pub trace_diff: Duration,
}

/// One reported per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// Fold in the delivery and event counters of an engine report.
    pub fn add_report(&mut self, r: &RunReport) {
        let m = &r.metrics;
        self.faults_injected += m.faults_injected;
        self.delays_injected += m.delays_injected;
        self.duplicates_injected += m.duplicates_injected;
        self.dups_discarded += m.dups_discarded;
        self.retransmit_timeouts += m.retransmit_timeouts;
        self.engine_packets += m.packets_sent;
        self.reassembly_stalls += r.wall.reassembly_stalls;
        self.mailbox_depth_max = self.mailbox_depth_max.max(r.wall.mailbox_depth_max);
        if let Some(lat) = r.wall.latency {
            self.latency_p50_ns = self.latency_p50_ns.max(lat.p50_ns);
            self.latency_p95_ns = self.latency_p95_ns.max(lat.p95_ns);
        }
    }

    /// Sum of the busy and self times: the part of the iteration the
    /// layers account for.
    pub fn accounted_s(&self, threads: usize) -> f64 {
        self.provider_busy.as_secs_f64()
            + (self.proto.send_time + self.proto.recv_time).as_secs_f64() / threads as f64
            + self.engine_self
            + self.event_self
            + self.stability_busy.as_secs_f64()
            + self.netcode_self
            + (self.trace_serialize + self.trace_parse + self.trace_diff).as_secs_f64()
    }

    /// Every per-layer metric of an iteration that took `iter_s` seconds.
    /// A layer the workload does not run reports zero.
    pub fn metrics(&self, iter_s: f64) -> Vec<Metric> {
        let p = &self.proto;
        vec![
            ("provider.calls", "count", self.provider_calls as f64),
            ("provider.busy_s", "s", self.provider_busy.as_secs_f64()),
            (
                "provider.share",
                "ratio",
                self.provider_busy.as_secs_f64() / iter_s,
            ),
            ("protocol.send.calls", "count", p.send_calls as f64),
            ("protocol.send.cpu_s", "s", p.send_time.as_secs_f64()),
            ("protocol.send.msgs", "count", p.msgs as f64),
            ("protocol.recv.calls", "count", p.recv_calls as f64),
            ("protocol.recv.cpu_s", "s", p.recv_time.as_secs_f64()),
            (
                "protocol.recv.tokens_delivered",
                "tokens",
                p.tokens_delivered as f64,
            ),
            (
                "protocol.recv.tokens_learned",
                "tokens",
                p.tokens_learned as f64,
            ),
            (
                "protocol.recv.useful_ratio",
                "ratio",
                ratio(p.tokens_learned, p.tokens_delivered),
            ),
            ("engine.self_s", "s", self.engine_self),
            (
                "delivery.faults_injected",
                "count",
                self.faults_injected as f64,
            ),
            (
                "delivery.delays_injected",
                "count",
                self.delays_injected as f64,
            ),
            (
                "delivery.duplicates_injected",
                "count",
                self.duplicates_injected as f64,
            ),
            (
                "delivery.dups_discarded",
                "count",
                self.dups_discarded as f64,
            ),
            (
                "delivery.retransmit_timeouts",
                "count",
                self.retransmit_timeouts as f64,
            ),
            (
                "delivery.retx_ratio",
                "ratio",
                ratio(self.retransmit_timeouts, self.engine_packets),
            ),
            ("event.self_s", "s", self.event_self),
            (
                "event.reassembly_stalls",
                "count",
                self.reassembly_stalls as f64,
            ),
            (
                "event.mailbox_depth_max",
                "count",
                self.mailbox_depth_max as f64,
            ),
            (
                "event.token_latency_p50_ns",
                "ns",
                self.latency_p50_ns as f64,
            ),
            (
                "event.token_latency_p95_ns",
                "ns",
                self.latency_p95_ns as f64,
            ),
            (
                "stability.push.calls",
                "count",
                self.stability_pushes as f64,
            ),
            ("stability.busy_s", "s", self.stability_busy.as_secs_f64()),
            (
                "stability.peak_state_bytes",
                "bytes",
                self.stability_peak_bytes as f64,
            ),
            ("netcode.self_s", "s", self.netcode_self),
            ("netcode.packets", "count", self.netcode_packets as f64),
            (
                "netcode.retransmits",
                "count",
                self.netcode_retransmits as f64,
            ),
            (
                "netcode.packets_per_rank",
                "ratio",
                ratio(self.netcode_packets, self.netcode_rank),
            ),
            ("trace.events", "count", self.trace_events as f64),
            ("trace.bytes", "bytes", self.trace_bytes as f64),
            ("trace.serialize_s", "s", self.trace_serialize.as_secs_f64()),
            ("trace.parse_s", "s", self.trace_parse.as_secs_f64()),
            ("trace.diff_s", "s", self.trace_diff.as_secs_f64()),
        ]
    }
}
