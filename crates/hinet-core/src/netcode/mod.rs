//! Random linear network coding (RLNC) dissemination — Haeupler & Karger's
//! improvement over token-forwarding, cited by the paper as related work.
//!
//! Coded dissemination transmits *coefficient vectors over GF(2)* rather
//! than token sets, so it does not fit the token-payload [`hinet_sim`]
//! protocol interface; this module carries its own small synchronous
//! executor over the same [`TopologyProvider`] substrate. Each round every
//! node broadcasts one uniformly random combination of its basis rows; a
//! node has a token once its reduced basis isolates the token's unit
//! vector, and the run completes when every node reaches full rank.
//!
//! Cost accounting: one coded packet carries one token-payload's worth of
//! data plus a `k`-bit coefficient header, so in the paper's token metric
//! it counts as **1**, and in the byte metric as
//! `token_bytes + ⌈k/8⌉ + packet_header_bytes`.

pub mod gf2;

use gf2::{Gf2Basis, Gf2Vec};
use hinet_graph::graph::NodeId;
use hinet_graph::rng::stream_rng;
use hinet_graph::trace::TopologyProvider;
use hinet_rt::obs::{Role, Tracer};
use hinet_sim::delivery::Plane;
use hinet_sim::engine::{CostWeights, RunConfig};
use hinet_sim::token::TokenId;

/// Outcome of an RLNC run.
#[derive(Clone, Debug)]
pub struct RlncReport {
    /// Rounds until every node reached full rank, or `None` if the budget
    /// ran out first.
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

/// Run RLNC dissemination over `provider` — the single RLNC entry point,
/// mirroring [`hinet_sim::engine::Engine::run`].
///
/// `assignment[u]` are node `u`'s initial tokens (ids must lie in
/// `0..k` where `k` is the total distinct token count — use
/// [`hinet_sim::token::round_robin_assignment`]). Fully deterministic
/// given `seed`. The round budget, byte-cost weights, fault plan and
/// optional tracer all come from `cfg`:
///
/// * **tracing** ([`RunConfig::tracer`]) — identical dissemination (the
///   tracer never touches the RNG streams); each coded broadcast is
///   emitted as an [`hinet_rt::obs::Event::HeadBroadcast`] with
///   `count = 1` (a packet carries one token-payload's worth of data in
///   the paper's metric), `token` set to the packet's leading coordinate
///   (its pivot under GF(2) reduction) and role [`Role::Member`] — RLNC is
///   flat, there is no hierarchy to attribute. Byte accounting uses
///   [`RunConfig::cost_weights`] plus the `⌈k/8⌉`-byte coefficient header
///   (see [`RlncReport::total_bytes`]).
/// * **faults** ([`RunConfig::faults`]) — every delivery passes the same
///   [`hinet_sim::delivery::Plane`] as the lock-step engine. Per-delivery
///   loss and partition cuts suppress basis inserts at the receiver (the
///   sender still pays for the packet), and crashed nodes go silent for
///   `down_rounds` rounds, losing their accumulated basis unless the plan
///   declares tokens durable. The dissemination RNG streams are never consulted by
///   the fault plane, so a trivial plan is byte-identical to a plain run.
///   RLNC is flat, so `target_heads` never matches a hazard crash here;
///   scheduled [`hinet_sim::fault::FaultPlan::with_crash_at`] entries
///   still fire. The delivery pathologies apply too: a delayed packet
///   ([`hinet_sim::fault::FaultPlan::with_delay_ppm`]) is inserted at its
///   matured round (lost if the receiver is down then), a duplicated one
///   is a GF(2) no-op (counted, never double-inserted), and reorder
///   shuffles each receiver's per-round insert order (a span-preserving
///   permutation).
/// * **reliability** ([`RunConfig::reliable`]) — each delivery registers
///   in a per-sender [`hinet_sim::reliable::SenderWindow`]; unacked
///   packets retransmit on the backed-off timer (each re-send pays one
///   packet), receivers dedup by reliable id, and acks apply at the round
///   barrier exactly like the lock-step engine. Active only alongside a non-trivial fault plan.
pub fn run_rlnc(
    provider: &mut dyn TopologyProvider,
    assignment: &[Vec<TokenId>],
    seed: u64,
    mut cfg: RunConfig<'_>,
) -> RlncReport {
    let mut disabled = Tracer::disabled();
    let tracer: &mut Tracer = match cfg.tracer.take() {
        Some(t) => t,
        None => &mut disabled,
    };
    let weights = cfg.cost_weights;
    let faults = &cfg.faults;
    let max_rounds = cfg.max_rounds;
    let n = provider.n();
    assert_eq!(assignment.len(), n, "one initial token list per node");
    let k = assignment
        .iter()
        .flatten()
        .map(|t| t.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let packet_bytes = weights.token_bytes + k.div_ceil(8) as u64 + weights.packet_header_bytes;
    if tracer.enabled() {
        tracer.meta("algorithm", "rlnc");
        tracer.meta("token_bytes", weights.token_bytes.to_string());
        tracer.meta(
            "packet_header_bytes",
            weights.packet_header_bytes.to_string(),
        );
    }

    let mut bases: Vec<Gf2Basis> = (0..n).map(|_| Gf2Basis::new(k)).collect();
    for (u, tokens) in assignment.iter().enumerate() {
        for t in tokens {
            bases[u].insert(Gf2Vec::unit(k, t.0 as usize));
        }
    }
    let mut rngs: Vec<_> = (0..n).map(|u| stream_rng(seed, u as u64)).collect();

    let all_complete = |bases: &[Gf2Basis]| -> bool { bases.iter().all(|b| b.is_complete()) };

    if k == 0 || all_complete(&bases) {
        tracer.run_end(0, true);
        return RlncReport {
            completion_round: Some(0),
            rounds_executed: 0,
            packets_sent: 0,
            retransmits: 0,
            k,
        };
    }

    let trivial = faults.is_trivial();
    let mut down_until = vec![0usize; n];
    let mut was_down = vec![false; n];
    // The shared delivery plane: gate chain, held delayed packets and the
    // optional reliability layer, exactly as in the lock-step engine.
    let mut plane: Plane<'_, Gf2Vec> = Plane::new(faults, cfg.reliable, n);

    let mut packets_sent = 0u64;
    let mut completion_round = None;
    let mut rounds_executed = 0;
    for round in 0..max_rounds {
        let graph = provider.graph_at(round);
        tracer.round_start(round as u64);
        if !trivial {
            for u in 0..n {
                if was_down[u] && round >= down_until[u] {
                    was_down[u] = false;
                    tracer.recover(round as u64, u as u64);
                }
            }
            for u in 0..n {
                if round < down_until[u] {
                    continue;
                }
                if faults.crashes(round, u, false) {
                    tracer.crash(round as u64, u as u64, faults.durable_tokens);
                    if !faults.durable_tokens {
                        // Volatile storage: the restarted node is back to
                        // its initially assigned unit vectors.
                        let mut b = Gf2Basis::new(k);
                        for t in &assignment[u] {
                            b.insert(Gf2Vec::unit(k, t.0 as usize));
                        }
                        bases[u] = b;
                    }
                    down_until[u] = round + faults.down_rounds;
                    was_down[u] = true;
                }
            }
        }
        let is_down = |v: usize| round < down_until[v];
        // Per-receiver insert lists for the round: matured delayed packets
        // first, then timer retransmissions, then fresh deliveries —
        // applied after the send phase so every send combination is drawn
        // from the pre-round bases.
        let mut incoming: Vec<Vec<Gf2Vec>> = vec![Vec::new(); n];
        plane.mature(round, is_down, |v, _, pkt| incoming[v].push(pkt));
        // Reliability-timer retransmissions: one packet each.
        for u in (0..n).filter(|&u| !is_down(u)) {
            let me = NodeId::from_index(u);
            let edge = |v: usize| graph.neighbors(me).contains(&NodeId::from_index(v));
            for rt in plane.due(u, round, edge) {
                packets_sent += 1;
                let v = rt.to;
                if let Some(pkt) = plane.resend(round, u, rt, is_down(v), tracer) {
                    incoming[v].push(pkt);
                }
            }
        }
        // Send phase: simultaneous, so collect first.
        let outgoing: Vec<Option<Gf2Vec>> = (0..n)
            .map(|u| {
                if is_down(u) {
                    None
                } else {
                    bases[u].random_combination(&mut rngs[u])
                }
            })
            .collect();
        for (u, pkt) in outgoing.iter().enumerate() {
            let Some(pkt) = pkt else { continue };
            packets_sent += 1;
            if tracer.enabled() {
                let pivot = pkt.leading().unwrap_or(0) as u64;
                tracer.head_broadcast(round as u64, u as u64, pivot, 1, Role::Member, packet_bytes);
            }
            for &v in graph.neighbors(NodeId::from_index(u)) {
                let v = v.index();
                // A duplicate insert is a GF(2) no-op, so the plane's
                // on-the-spot discard is exact.
                let hop = (u, v, 0);
                if let Some(pkt) = plane.send(round, hop, pkt.clone(), || is_down(v), tracer) {
                    incoming[v].push(pkt);
                }
            }
        }
        // Apply the round's inserts; reorder shuffles each receiver's
        // insert order (the GF(2) span is permutation-invariant, so this
        // exercises the pathology without changing what decodes).
        for (v, mut pkts) in incoming.into_iter().enumerate() {
            faults.shuffle(round, v, &mut pkts);
            for pkt in pkts {
                bases[v].insert(pkt);
            }
        }
        // Omniscient round-barrier ack sync, exactly like the lock-step
        // engine: every sender learns each receiver's cumulative ack.
        plane.sync_acks();
        rounds_executed = round + 1;
        if all_complete(&bases) {
            completion_round = Some(rounds_executed);
            break;
        }
    }

    if plane.tally.dups_discarded > 0 {
        tracer.note_dedup(plane.tally.dups_discarded);
    }
    tracer.run_end(rounds_executed as u64, completion_round.is_some());
    RlncReport {
        completion_round,
        rounds_executed,
        packets_sent,
        retransmits: plane.tally.retransmit_timeouts,
        k,
    }
}

/// Per-node decoded token count after a run — exposed for experiments that
/// track decoding progress (re-runs the simulation capturing rank growth).
pub fn rank_progress(
    provider: &mut dyn TopologyProvider,
    assignment: &[Vec<TokenId>],
    rounds: usize,
    seed: u64,
) -> Vec<usize> {
    let n = provider.n();
    let k = assignment
        .iter()
        .flatten()
        .map(|t| t.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut bases: Vec<Gf2Basis> = (0..n).map(|_| Gf2Basis::new(k)).collect();
    for (u, tokens) in assignment.iter().enumerate() {
        for t in tokens {
            bases[u].insert(Gf2Vec::unit(k, t.0 as usize));
        }
    }
    let mut rngs: Vec<_> = (0..n).map(|u| stream_rng(seed, u as u64)).collect();
    let mut min_rank_series = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let graph = provider.graph_at(round);
        let outgoing: Vec<Option<Gf2Vec>> = (0..n)
            .map(|u| bases[u].random_combination(&mut rngs[u]))
            .collect();
        for (u, pkt) in outgoing.iter().enumerate() {
            let Some(pkt) = pkt else { continue };
            for &v in graph.neighbors(NodeId::from_index(u)) {
                bases[v.index()].insert(pkt.clone());
            }
        }
        min_rank_series.push(bases.iter().map(|b| b.rank()).min().unwrap_or(0));
    }
    min_rank_series
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinet_graph::generators::{BackboneKind, OneIntervalGen, TIntervalGen};
    use hinet_graph::trace::StaticProvider;
    use hinet_graph::Graph;
    use hinet_sim::fault::FaultPlan;
    use hinet_sim::token::round_robin_assignment;

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
        use hinet_rt::obs::{Event, ObsConfig, TraceSummary};

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
        use hinet_rt::obs::ObsConfig;

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
        use hinet_rt::obs::ObsConfig;

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

    #[test]
    fn min_rank_is_monotone() {
        let mut p = StaticProvider::new(Graph::cycle(12));
        let assignment = round_robin_assignment(12, 6);
        let series = rank_progress(&mut p, &assignment, 60, 7);
        for w in series.windows(2) {
            assert!(w[1] >= w[0], "min rank must never decrease");
        }
        assert_eq!(*series.last().unwrap(), 6, "eventually full rank");
    }
}
