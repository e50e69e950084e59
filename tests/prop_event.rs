//! Property suite for the event-driven mailbox runtime, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! Five contracts: (a) an event-mode run of any engine scenario produces
//! the same dissemination result (completion round, outcome, paper
//! metrics) as the lock-step engine, across worker counts; (b) the trace
//! event stream is byte-identical between the modes — only the header's
//! `mode` meta stamp may differ, because the header counters hold only
//! values that are a pure function of the seeds; (c) an
//! event-mode run replays byte-for-byte under the same seeds; (d) the
//! equivalence survives the fault plane, including the crash-mid-round
//! edge case where a node restarts while its neighbours' round messages
//! are already queued; (e) a `RoundBuffer` fed any arrival permutation
//! releases the inbox in lock-step `(sender, seq)` order.

use hinet::rt::check::check;
use hinet::rt::obs::{ObsConfig, Tracer};
use hinet::scenario::Scenario;
use hinet_graph::graph::NodeId;
use hinet_sim::transport::{Envelope, EnvelopeKind, RoundBuffer};
use hinet_sim::ExecMode;

fn scenario(algorithm: &str, dynamics: &str, n: usize, k: usize, seed: u64) -> Scenario {
    let (alpha, l) = (2, 2);
    let t = hinet::core::params::required_phase_length(k, alpha, l);
    Scenario {
        n,
        k,
        alpha,
        l,
        theta: (n / 3).max(1),
        seed,
        algorithm: algorithm.into(),
        dynamics: dynamics.into(),
        t,
        budget: 4 * n + 4 * t,
        loss_ppm: 0,
        crash_ppm: 0,
        crash_at: vec![],
        target_heads: false,
        fault_seed: 0,
        retransmit: false,
        durable_tokens: false,
        partitions: vec![],
        down_rounds: 1,
        delay_ppm: 0,
        max_delay: 1,
        dup_ppm: 0,
        reorder: false,
        reliable: false,
        stall_rounds: 0,
        mode: ExecMode::Lockstep,
    }
}

/// Record a scenario's trace artifact and engine report.
fn record(sc: &Scenario) -> (hinet_sim::RunReport, String) {
    let mut tracer = Tracer::new(ObsConfig::full());
    let report = sc.run_traced(&mut tracer).expect("scenario must run");
    (report, tracer.to_jsonl())
}

/// Assert two reports describe the same dissemination (everything except
/// wall-clock, which is genuinely nondeterministic).
fn assert_same_result(lock: &hinet_sim::RunReport, event: &hinet_sim::RunReport) {
    assert_eq!(event.completion_round, lock.completion_round);
    assert_eq!(event.rounds_executed, lock.rounds_executed);
    assert_eq!(event.outcome, lock.outcome);
    assert_eq!(event.metrics.tokens_sent, lock.metrics.tokens_sent);
    assert_eq!(event.metrics.packets_sent, lock.metrics.packets_sent);
    assert_eq!(event.metrics.tokens_by_role, lock.metrics.tokens_by_role);
    assert_eq!(event.metrics.faults_injected, lock.metrics.faults_injected);
    assert_eq!(event.metrics.crashes, lock.metrics.crashes);
    assert_eq!(event.metrics.recoveries, lock.metrics.recoveries);
    assert_eq!(event.metrics.retransmits, lock.metrics.retransmits);
}

/// (a)+(b) Clean scenarios: same result, byte-identical event stream.
#[test]
fn event_mode_matches_lockstep_on_clean_scenarios() {
    check("event_matches_lockstep_clean", 10, |ctx| {
        let &algorithm = ctx.pick(&["alg1", "alg2", "klo-flood", "gossip", "delta"]);
        let &dynamics = ctx.pick(&["hinet", "flat-t", "flat-1"]);
        let &seed = ctx.pick(&[1u64, 42, 977]);
        let &n = ctx.pick(&[12usize, 20]);
        let sc = scenario(algorithm, dynamics, n, 3, seed);
        let (lock, lock_trace) = record(&sc);
        let (event, event_trace) = record(&Scenario {
            mode: ExecMode::Event,
            ..sc
        });
        assert_same_result(&lock, &event);
        let lock_events: Vec<&str> = lock_trace.lines().skip(1).collect();
        let event_events: Vec<&str> = event_trace.lines().skip(1).collect();
        assert_eq!(event_events, lock_events, "event stream must match");
    });
}

/// (c) Event-mode runs replay byte-for-byte: worker interleaving must
/// never leak into the artifact.
#[test]
fn event_mode_replays_byte_identically() {
    check("event_replays_identically", 8, |ctx| {
        let &algorithm = ctx.pick(&["alg2", "klo-flood", "kactive"]);
        let &seed = ctx.pick(&[3u64, 11, 29]);
        let &loss_ppm = ctx.pick(&[0u32, 50_000]);
        let sc = Scenario {
            mode: ExecMode::Event,
            loss_ppm,
            fault_seed: seed,
            ..scenario(algorithm, "hinet", 16, 3, seed)
        };
        let (_, first) = record(&sc);
        let (_, second) = record(&sc);
        assert_eq!(first, second, "same scenario, same bytes");
    });
}

/// (d) The fault plane intercepts at the transport boundary: loss,
/// scheduled crashes (including mid-flood, with queued neighbour traffic)
/// and hazard crashes all preserve the lock-step result.
#[test]
fn event_mode_matches_lockstep_under_faults() {
    check("event_matches_lockstep_faulted", 10, |ctx| {
        let &algorithm = ctx.pick(&["alg2", "klo-flood"]);
        let &seed = ctx.pick(&[1u64, 7, 19]);
        let &loss_ppm = ctx.pick(&[0u32, 30_000, 80_000]);
        let &crash_round = ctx.pick(&[1usize, 2]);
        let &crash_node = ctx.pick(&[0usize, 3, 5]);
        let &down_rounds = ctx.pick(&[1usize, 2]);
        let &durable = ctx.pick(&[false, true]);
        let sc = Scenario {
            loss_ppm,
            crash_at: vec![(crash_round, crash_node)],
            durable_tokens: durable,
            down_rounds,
            fault_seed: seed.wrapping_mul(3) + 1,
            ..scenario(algorithm, "hinet", 14, 3, seed)
        };
        let (lock, lock_trace) = record(&sc);
        let (event, event_trace) = record(&Scenario {
            mode: ExecMode::Event,
            ..sc
        });
        assert_same_result(&lock, &event);
        let lock_events: Vec<&str> = lock_trace.lines().skip(1).collect();
        let event_events: Vec<&str> = event_trace.lines().skip(1).collect();
        assert_eq!(event_events, lock_events, "faulted event stream must match");
    });
}

/// (e) Reassembly order-independence: whatever order a round's envelopes
/// arrive in, the released inbox is sorted by `(sender, seq)` — the exact
/// inbox the lock-step engine builds by iterating senders in id order.
#[test]
fn round_buffer_releases_lockstep_order_under_any_arrival_permutation() {
    check("round_buffer_permutation", 16, |ctx| {
        let &senders = ctx.pick(&[2usize, 5, 9]);
        let round = *ctx.pick(&[0usize, 3]);
        // Two payload envelopes per sender plus its end-of-round marker.
        let mut envelopes: Vec<Envelope> = (0..senders)
            .flat_map(|s| {
                let from = NodeId::from_index(s);
                [
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: 0,
                        kind: EnvelopeKind::Payload {
                            payload: hinet_sim::protocol::Payload::One(hinet_sim::TokenId(
                                s as u64,
                            )),
                            directed: false,
                            rid: 0,
                        },
                    },
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: 1,
                        kind: EnvelopeKind::Payload {
                            payload: hinet_sim::protocol::Payload::One(hinet_sim::TokenId(
                                (s + senders) as u64,
                            )),
                            directed: true,
                            rid: 0,
                        },
                    },
                    Envelope {
                        round,
                        from,
                        to: NodeId::from_index(senders),
                        seq: u32::MAX,
                        kind: EnvelopeKind::RoundDone { ack: 0 },
                    },
                ]
            })
            .collect();
        // A seeded Fisher-Yates shuffle driven by the case context.
        for i in (1..envelopes.len()).rev() {
            let j = *ctx.pick(&(0..=i).collect::<Vec<_>>());
            envelopes.swap(i, j);
        }
        let mut buf = RoundBuffer::new();
        let mut markers = 0usize;
        for env in &envelopes {
            // Quorum gating depends only on end-of-round markers received.
            assert_eq!(buf.ready(round, senders), markers == senders);
            if matches!(env.kind, EnvelopeKind::RoundDone { .. }) {
                markers += 1;
            }
            buf.push(env.clone());
        }
        assert!(buf.ready(round, senders));
        let inbox = buf.take(round);
        assert_eq!(inbox.len(), 2 * senders);
        for (i, msg) in inbox.iter().enumerate() {
            assert_eq!(msg.from, NodeId::from_index(i / 2), "sender-major order");
            let tok = msg.payload.first().expect("one-token payloads").0 as usize;
            let expected = if i % 2 == 0 { i / 2 } else { i / 2 + senders };
            assert_eq!(tok, expected, "per-sender seq order");
            assert_eq!(msg.directed, i % 2 == 1);
        }
    });
}

/// The equivalence also holds when the engine is forced to specific
/// worker counts (1 serialises everything; 4 oversubscribes the small n).
#[test]
fn event_mode_matches_lockstep_across_worker_counts() {
    use hinet_cluster::generators::{HiNetConfig, HiNetGen};
    use hinet_core::runner::{run_algorithm, AlgorithmKind};
    use hinet_sim::engine::RunConfig;
    use hinet_sim::token::round_robin_assignment;

    check("event_worker_counts", 6, |ctx| {
        let &seed = ctx.pick(&[2u64, 8, 21]);
        let &threads = ctx.pick(&[1usize, 2, 4]);
        let n = 15;
        let provider = || {
            HiNetGen::new(HiNetConfig {
                n,
                num_heads: 3,
                theta: 5,
                l: 2,
                t: 1,
                reaffil_prob: 0.1,
                rotate_heads: true,
                noise_edges: n / 5,
                seed,
            })
        };
        let kind = AlgorithmKind::HiNetFullExchange { rounds: 3 * n };
        let assignment = round_robin_assignment(n, 4);
        let lock = run_algorithm(&kind, &mut provider(), &assignment, RunConfig::new());
        let event = run_algorithm(
            &kind,
            &mut provider(),
            &assignment,
            RunConfig::new().mode(ExecMode::Event).threads(threads),
        );
        assert_same_result(&lock, &event);
        let lat = event.wall.latency.expect("event mode tracks latency");
        assert_eq!(lat.covered, lat.total, "completed run covers all tokens");
    });
}
