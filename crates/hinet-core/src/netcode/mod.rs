//! Random linear network coding (RLNC) dissemination — Haeupler & Karger's
//! improvement over token-forwarding, cited by the paper as related work.
//!
//! Coded dissemination transmits *coefficient vectors over GF(2)* rather
//! than tokens. [`Rlnc`] is an ordinary [`Protocol`] whose packets are
//! [`Payload::Coded`]: each round every node broadcasts one uniformly
//! random combination of its basis rows, a node has a token once its
//! reduced basis isolates the token's unit vector, and the run completes
//! when every node has decoded every token (full rank). It runs on the
//! round engine like every other algorithm
//! ([`AlgorithmKind::Rlnc`]), in lock-step or event mode, over a flat
//! topology whose hierarchy makes every node an unclustered member
//! ([`Unclustered`]). [`run_rlnc`] is the one-call adapter for a flat
//! [`TopologyProvider`].
//!
//! Cost accounting: one coded packet carries one token-payload's worth of
//! data plus a `k`-bit coefficient header, so in the paper's token metric
//! it counts as **1**, and in the byte metric as
//! `token_bytes + ⌈k/8⌉ + packet_header_bytes`.

use crate::runner::{run_algorithm, AlgorithmKind};
use hinet_cluster::ctvg::HierarchyProvider;
use hinet_cluster::hierarchy::{Hierarchy, Role};
use hinet_graph::graph::{Graph, NodeId};
use hinet_graph::rng::{stream_rng, Xoshiro256StarStar};
use hinet_graph::trace::TopologyProvider;
use hinet_sim::engine::{CostWeights, RunConfig};
use hinet_sim::gf2::{Gf2Basis, Gf2Vec};
use hinet_sim::protocol::{Destination, Incoming, LocalView, Outgoing, Payload, Protocol};
use hinet_sim::token::{TokenId, TokenSet};
use std::ops::DerefMut;
use std::sync::Arc;

/// One RLNC node: a GF(2) basis in reduced row-echelon form over `k`
/// tokens, the tokens it decodes, and its own coin stream.
#[derive(Debug)]
pub struct Rlnc {
    k: usize,
    seed: u64,
    rng: Xoshiro256StarStar,
    basis: Gf2Basis,
    decoded: TokenSet,
}

impl Rlnc {
    /// A node over the token universe `0..k`; its coin stream derives from
    /// `(seed, node)` at [`Protocol::on_start`].
    pub fn new(k: usize, seed: u64) -> Self {
        Rlnc {
            k,
            seed,
            rng: stream_rng(seed, 0),
            basis: Gf2Basis::new(k),
            decoded: TokenSet::new(),
        }
    }

    /// Reset the basis to the unit vectors of `tokens`.
    fn load(&mut self, tokens: &[TokenId]) {
        self.basis = Gf2Basis::new(self.k);
        for t in tokens {
            self.basis.insert(Gf2Vec::unit(self.k, t.0 as usize));
        }
        self.decode();
    }

    /// Refresh the decoded set: the weight-1 rows of the basis.
    fn decode(&mut self) {
        self.decoded = self
            .basis
            .decoded()
            .into_iter()
            .map(|i| TokenId(i as u64))
            .collect();
    }
}

impl Protocol for Rlnc {
    fn on_start(&mut self, me: NodeId, initial: &[TokenId]) {
        self.rng = stream_rng(self.seed, me.0 as u64);
        self.load(initial);
    }

    fn send(&mut self, _view: &LocalView<'_>) -> Vec<Outgoing> {
        match self.basis.random_combination(&mut self.rng) {
            Some(v) => vec![Outgoing {
                dest: Destination::Broadcast,
                payload: Payload::Coded(Arc::new(v)),
                retransmit: false,
            }],
            None => vec![],
        }
    }

    fn receive(&mut self, _view: &LocalView<'_>, inbox: &[Incoming]) {
        let mut grew = false;
        for m in inbox {
            if let Payload::Coded(v) = &m.payload {
                grew |= self.basis.insert(Gf2Vec::clone(v));
            }
        }
        if grew {
            self.decode();
        }
    }

    fn known(&self) -> &TokenSet {
        &self.decoded
    }

    /// The restarted node keeps its coin stream: only the basis is
    /// volatile, rebuilt from the unit vectors of `retained`.
    fn on_restart(&mut self, _me: NodeId, retained: &[TokenId]) {
        self.load(retained);
    }
}

/// A flat topology under a hierarchy of unclustered members. RLNC ignores
/// cluster structure, so no node is a head: no `target_heads` hazard crash
/// matches, no re-election fires, and the trace attributes every send to
/// the member role. The hierarchy is valid only while
/// [`RunConfig::validate_hierarchy`] is off (the default).
pub struct Unclustered<P> {
    inner: P,
    hierarchy: Arc<Hierarchy>,
}

impl<P: DerefMut<Target: TopologyProvider>> Unclustered<P> {
    /// Wrap a flat topology provider.
    pub fn new(inner: P) -> Self {
        let n = inner.n();
        let hierarchy = Hierarchy::new(vec![Role::Member; n], vec![None; n]);
        Unclustered {
            inner,
            hierarchy: Arc::new(hierarchy),
        }
    }
}

impl<P: DerefMut<Target: TopologyProvider> + Send> TopologyProvider for Unclustered<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph_at(&mut self, round: usize) -> Arc<Graph> {
        self.inner.graph_at(round)
    }
}

impl<P: DerefMut<Target: TopologyProvider> + Send> HierarchyProvider for Unclustered<P> {
    fn hierarchy_at(&mut self, _round: usize) -> Arc<Hierarchy> {
        Arc::clone(&self.hierarchy)
    }
}

/// Outcome of an RLNC run.
#[derive(Clone, Debug)]
pub struct RlncReport {
    /// Rounds until every node decoded every token, or `None` if the
    /// budget ran out first.
    pub completion_round: Option<usize>,
    /// Rounds executed.
    pub rounds_executed: usize,
    /// Coded packets transmitted (= token-equivalents in the paper's
    /// metric: one payload per packet), timer retransmissions included.
    pub packets_sent: u64,
    /// Reliability-layer timer retransmissions ([`RunConfig::reliable`]),
    /// already included in `packets_sent`.
    pub retransmits: u64,
    /// Token universe size `k`.
    pub k: usize,
}

impl RlncReport {
    /// Whether the run completed.
    pub fn completed(&self) -> bool {
        self.completion_round.is_some()
    }

    /// Byte cost under `w`, including the `k`-bit coefficient header each
    /// coded packet carries.
    pub fn total_bytes(&self, w: CostWeights) -> u64 {
        let coeff_header = self.k.div_ceil(8) as u64;
        self.packets_sent * (w.token_bytes + coeff_header + w.packet_header_bytes)
    }
}

/// Run RLNC dissemination over the flat `provider`: the round engine
/// ([`run_algorithm`] with [`AlgorithmKind::Rlnc`]) over the provider
/// wrapped in [`Unclustered`], its report reduced to an [`RlncReport`].
///
/// `assignment[u]` are node `u`'s initial tokens (ids must lie in
/// `0..k` where `k` is the total distinct token count — use
/// [`hinet_sim::token::round_robin_assignment`]). Fully deterministic
/// given `seed`. Everything else comes from `cfg`, exactly as for any
/// engine run:
///
/// * **tracing** ([`RunConfig::tracer`]) — each coded broadcast is an
///   [`hinet_rt::obs::Event::HeadBroadcast`] with `count = 1`, `token` set
///   to the packet's pivot (its leading coordinate) and role `member`;
///   its byte cost includes the `⌈k/8⌉`-byte coefficient header (see
///   [`RlncReport::total_bytes`]).
/// * **faults** ([`RunConfig::faults`]) — every delivery passes the
///   engine's delivery plane. A crashed node goes silent for
///   `down_rounds` rounds and restarts from its initial unit vectors, or
///   from the tokens it had decoded when the plan declares tokens durable;
///   it keeps its coin stream either way. No node is a head, so
///   `target_heads` never matches a hazard crash; scheduled
///   [`hinet_sim::fault::FaultPlan::with_crash_at`] entries still fire.
///   The GF(2) span does not depend on insert order, so reorder changes
///   nothing that decodes.
/// * **reliability** ([`RunConfig::reliable`]) — unacked packets
///   retransmit on the reliable layer's timers; `retransmits` counts those
///   expiries ([`hinet_sim::engine::Metrics::retransmit_timeouts`]).
/// * **execution mode** ([`RunConfig::mode`]) — lock-step and event mode
///   give identical results.
pub fn run_rlnc(
    provider: &mut dyn TopologyProvider,
    assignment: &[Vec<TokenId>],
    seed: u64,
    cfg: RunConfig<'_>,
) -> RlncReport {
    let k = assignment
        .iter()
        .flatten()
        .map(|t| t.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let kind = AlgorithmKind::Rlnc { k, seed };
    let report = run_algorithm(&kind, &mut Unclustered::new(provider), assignment, cfg);
    RlncReport {
        completion_round: report.completion_round,
        rounds_executed: report.rounds_executed,
        packets_sent: report.metrics.packets_sent,
        retransmits: report.metrics.retransmit_timeouts,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinet_graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
    use hinet_graph::trace::StaticProvider;
    use hinet_rt::obs::{ObsConfig, Tracer};
    use hinet_sim::engine::ExecMode;
    use hinet_sim::fault::FaultPlan;
    use hinet_sim::token::round_robin_assignment;

    /// A coded delivery of the vector with ones at `idxs`.
    fn coded(k: usize, idxs: &[usize]) -> Incoming {
        let mut v = Gf2Vec::zero(k);
        for &i in idxs {
            v.set(i);
        }
        Incoming {
            from: NodeId(0),
            directed: false,
            payload: Payload::Coded(Arc::new(v)),
        }
    }

    fn view(me: NodeId) -> LocalView<'static> {
        LocalView {
            me,
            round: 0,
            role: Role::Member,
            cluster: None,
            head: None,
            parent: None,
            neighbors: &[],
        }
    }

    fn tokens(node: &Rlnc) -> Vec<u64> {
        node.known().iter().map(|t| t.0).collect()
    }

    /// The full delivery-plane chaos plan with a scheduled crash.
    fn chaos() -> FaultPlan {
        FaultPlan::new(5)
            .with_loss_ppm(50_000)
            .with_delay_ppm(50_000)
            .with_max_delay(3)
            .with_dup_ppm(50_000)
            .with_reorder(true)
            .with_crash_at(2, 3)
    }

    #[test]
    fn decoded_tokens_are_the_unit_rows() {
        let me = NodeId(2);
        let mut node = Rlnc::new(4, 9);
        node.on_start(me, &[TokenId(1)]);
        assert_eq!(tokens(&node), [1]);
        node.receive(&view(me), &[coded(4, &[0, 2]), coded(4, &[1, 3])]);
        assert_eq!(tokens(&node), [1, 3], "e0+e2 stays entangled");
        node.receive(&view(me), &[coded(4, &[2])]);
        assert_eq!(tokens(&node), [0, 1, 2, 3], "full rank decodes everything");
    }

    #[test]
    fn volatile_restart_reloads_the_initial_tokens_and_keeps_the_coin_stream() {
        let me = NodeId(2);
        let mut node = Rlnc::new(4, 9);
        node.on_start(me, &[TokenId(1)]);
        node.receive(&view(me), &[coded(4, &[3]), coded(4, &[0, 2])]);
        assert_eq!(node.send(&view(me)).len(), 1);
        let coins = node.rng.clone();
        assert_ne!(coins, stream_rng(9, 2), "the send drew coins");
        node.on_restart(me, &[TokenId(1)]);
        assert_eq!(tokens(&node), [1]);
        assert_eq!(node.basis.rank(), 1, "the learned rows are gone");
        assert_eq!(node.rng, coins, "the coin stream continues, unseeded");
    }

    #[test]
    fn durable_restart_keeps_the_decoded_tokens_only() {
        let me = NodeId(2);
        let mut node = Rlnc::new(4, 9);
        node.on_start(me, &[TokenId(1)]);
        node.receive(&view(me), &[coded(4, &[3]), coded(4, &[0, 2])]);
        // The engine's durable contract hands back `known()`.
        let retained: Vec<TokenId> = node.known().iter().collect();
        node.on_restart(me, &retained);
        assert_eq!(tokens(&node), [1, 3]);
        assert_eq!(node.basis.rank(), 2, "the entangled e0+e2 row is lost");
    }

    #[test]
    fn durable_crash_run_completes() {
        let mut p = StaticProvider::new(Graph::complete(8));
        let assignment = round_robin_assignment(8, 4);
        let faults = FaultPlan::new(0)
            .with_crash_at(0, 3)
            .with_durable_tokens(true);
        let mut tracer = Tracer::new(ObsConfig::full());
        let r = run_rlnc(
            &mut p,
            &assignment,
            1,
            RunConfig::new()
                .max_rounds(400)
                .faults(faults)
                .tracer(&mut tracer),
        );
        assert!(r.completed());
        assert_eq!(tracer.counters().crashes, 1);
    }

    #[test]
    fn adapter_and_runner_write_identical_traces() {
        let assignment = round_robin_assignment(16, 4);
        let cfg = |t| {
            RunConfig::new()
                .max_rounds(300)
                .faults(chaos())
                .reliable(true)
                .tracer(t)
        };
        let mut a = Tracer::new(ObsConfig::full());
        let mut gen = OneIntervalGen::new(16, true, 3, 9);
        let adapted = run_rlnc(&mut gen, &assignment, 4, cfg(&mut a));
        let mut b = Tracer::new(ObsConfig::full());
        let mut gen = OneIntervalGen::new(16, true, 3, 9);
        let direct = run_algorithm(
            &AlgorithmKind::Rlnc { k: 4, seed: 4 },
            &mut Unclustered::new(&mut gen),
            &assignment,
            cfg(&mut b),
        );
        assert!(adapted.completed());
        assert!(a.counters().faults_injected > 0 && a.counters().crashes == 1);
        assert_eq!(adapted.completion_round, direct.completion_round);
        assert_eq!(adapted.packets_sent, direct.metrics.packets_sent);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn event_mode_matches_lockstep() {
        let assignment = round_robin_assignment(16, 4);
        let run = |mode| {
            let mut p = OneIntervalGen::new(16, true, 3, 9);
            let cfg = RunConfig::new()
                .max_rounds(300)
                .faults(chaos())
                .mode(mode)
                .threads(2);
            run_rlnc(&mut p, &assignment, 4, cfg)
        };
        let (lock, event) = (run(ExecMode::Lockstep), run(ExecMode::Event));
        assert!(lock.completed());
        assert_eq!(event.completion_round, lock.completion_round);
        assert_eq!(event.packets_sent, lock.packets_sent);
    }

    #[test]
    fn completes_on_static_complete_graph() {
        let mut p = StaticProvider::new(Graph::complete(10));
        let assignment = round_robin_assignment(10, 6);
        let r = run_rlnc(&mut p, &assignment, 1, RunConfig::new().max_rounds(200));
        assert!(r.completed(), "dense static graph must decode quickly");
        assert!(r.completion_round.unwrap() <= 30);
        assert_eq!(r.k, 6);
    }

    #[test]
    fn completes_under_adversarial_churn() {
        let mut p = OneIntervalGen::new(24, true, 4, 5);
        let assignment = round_robin_assignment(24, 5);
        let r = run_rlnc(&mut p, &assignment, 2, RunConfig::new().max_rounds(500));
        assert!(r.completed(), "RLNC tolerates 1-interval churn w.h.p.");
    }

    #[test]
    fn completes_on_t_interval_adversary() {
        let mut p = TIntervalGen::new(30, 6, BackboneKind::Path, 6, 8);
        let assignment = round_robin_assignment(30, 8);
        let r = run_rlnc(&mut p, &assignment, 3, RunConfig::new().max_rounds(1000));
        assert!(r.completed());
    }

    #[test]
    fn zero_tokens_complete_immediately() {
        let mut p = StaticProvider::new(Graph::complete(4));
        let assignment = vec![vec![]; 4];
        let r = run_rlnc(&mut p, &assignment, 0, RunConfig::new().max_rounds(10));
        assert_eq!(r.completion_round, Some(0));
        assert_eq!(r.packets_sent, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = OneIntervalGen::new(16, false, 3, 9);
            let assignment = round_robin_assignment(16, 4);
            run_rlnc(&mut p, &assignment, seed, RunConfig::new().max_rounds(200))
        };
        let (a, b, c) = (run(4), run(4), run(1));
        assert_eq!(a.completion_round, b.completion_round);
        assert_eq!(a.packets_sent, b.packets_sent);
        assert!(
            c.completion_round != a.completion_round || c.packets_sent != a.packets_sent,
            "different seed should differ somewhere"
        );
    }

    #[test]
    fn byte_cost_includes_coefficient_header() {
        let r = RlncReport {
            completion_round: Some(3),
            rounds_executed: 3,
            packets_sent: 10,
            retransmits: 0,
            k: 16,
        };
        let w = CostWeights {
            token_bytes: 16,
            packet_header_bytes: 24,
        };
        // 16 bits of coefficients = 2 bytes per packet.
        assert_eq!(r.total_bytes(w), 10 * (16 + 2 + 24));
    }

    #[test]
    fn traced_run_matches_untraced_and_accounts_costs() {
        use hinet_rt::obs::{Event, TraceSummary};

        let run = |tracer: &mut Tracer| {
            let mut p = OneIntervalGen::new(16, false, 3, 9);
            let assignment = round_robin_assignment(16, 4);
            run_rlnc(
                &mut p,
                &assignment,
                4,
                RunConfig::new().max_rounds(200).tracer(tracer),
            )
        };
        let plain = run(&mut Tracer::disabled());
        let mut tracer = Tracer::new(ObsConfig::full());
        let traced = run(&mut tracer);
        // The tracer never touches the RNG streams.
        assert_eq!(plain.completion_round, traced.completion_round);
        assert_eq!(plain.packets_sent, traced.packets_sent);

        let c = tracer.counters();
        assert_eq!(c.rounds, traced.rounds_executed as u64);
        assert_eq!(c.packets_sent, traced.packets_sent);
        assert_eq!(
            c.tokens_sent, traced.packets_sent,
            "one token-equivalent per packet"
        );
        assert_eq!(
            c.tokens_by_role,
            [0, 0, traced.packets_sent],
            "RLNC is flat"
        );
        assert_eq!(
            c.bytes_sent,
            traced.total_bytes(CostWeights::default()),
            "per-packet bytes include the coefficient header"
        );
        let s = TraceSummary::from_tracer(&tracer);
        assert_eq!(s.completed, Some(true));
        assert!(
            tracer
                .events()
                .all(|e| !matches!(e.event, Event::TokenPush { .. })),
            "coded packets are broadcasts, never pushes"
        );
    }

    #[test]
    fn lossy_rlnc_still_completes_and_reports_faults() {
        let run = |faults: &FaultPlan, tracer: &mut Tracer| {
            let mut p = StaticProvider::new(Graph::complete(10));
            let assignment = round_robin_assignment(10, 4);
            run_rlnc(
                &mut p,
                &assignment,
                1,
                RunConfig::new()
                    .max_rounds(400)
                    .faults(faults.clone())
                    .tracer(tracer),
            )
        };
        let clean = run(&FaultPlan::none(), &mut Tracer::disabled());
        let faults = FaultPlan::new(3).with_loss_ppm(200_000);
        let mut tracer = Tracer::new(ObsConfig::full());
        let lossy = run(&faults, &mut tracer);
        // Coded redundancy absorbs 20% loss; it just takes longer.
        assert!(lossy.completed());
        assert!(lossy.completion_round.unwrap() >= clean.completion_round.unwrap());
        assert!(tracer.counters().faults_injected > 0);

        // Replay: same plan, same counters.
        let mut again = Tracer::new(ObsConfig::full());
        let replay = run(&faults, &mut again);
        assert_eq!(replay.packets_sent, lossy.packets_sent);
        assert_eq!(
            again.counters().faults_injected,
            tracer.counters().faults_injected
        );
    }

    #[test]
    fn trivial_fault_plan_is_identical_to_plain_rlnc() {
        let mut p = OneIntervalGen::new(16, false, 3, 9);
        let assignment = round_robin_assignment(16, 4);
        let plain = run_rlnc(&mut p, &assignment, 4, RunConfig::new().max_rounds(200));
        let mut p = OneIntervalGen::new(16, false, 3, 9);
        let faulted = run_rlnc(
            &mut p,
            &assignment,
            4,
            RunConfig::new().max_rounds(200).faults(FaultPlan::none()),
        );
        assert_eq!(plain.completion_round, faulted.completion_round);
        assert_eq!(plain.packets_sent, faulted.packets_sent);
    }

    #[test]
    fn crashed_rlnc_node_loses_volatile_basis_and_recovers() {
        let mut p = StaticProvider::new(Graph::complete(8));
        let assignment = round_robin_assignment(8, 4);
        let faults = FaultPlan::new(0).with_crash_at(0, 3).with_down_rounds(2);
        let mut tracer = Tracer::new(ObsConfig::full());
        let r = run_rlnc(
            &mut p,
            &assignment,
            1,
            RunConfig::new()
                .max_rounds(400)
                .faults(faults)
                .tracer(&mut tracer),
        );
        assert!(r.completed(), "a dense graph re-fills the lost basis");
        let c = tracer.counters();
        assert_eq!(c.crashes, 1);
        assert_eq!(c.recoveries, 1);
    }
}
