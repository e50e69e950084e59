//! The boundary wrappers are transparent: at reduced sizes, a wrapped run
//! gives the same outcome, rounds, tokens and packets as the unwrapped run
//! through the program's own entry points, and lock-step traces are
//! byte-identical.

use hinet::cluster::stability::stream::StabilityStream;
use hinet::core::netcode::run_rlnc;
use hinet::core::runner::run_algorithm;
use hinet::rt::obs::{ObsConfig, Tracer};
use hinet::scenario::Scenario;
use hinet::sim::engine::{Engine, ExecMode, RunConfig, RunReport};
use hinet::sim::protocol::Protocol;
use hinet_perfbench::timed::{Timed, TimedProvider, TimedTopology};
use hinet_perfbench::workloads::{
    alg1_scenario, case_seed, placement, run, setup, with_chaos, Size, Workload,
};

fn small(w: Workload) -> Size {
    let (n, k, rlnc_n, rlnc_k) = match w {
        Workload::StarBulk => (2_000, 100, 0, 0),
        Workload::ChurnOracle => (300, 20, 0, 0),
        Workload::ChaosEvent => (200, 16, 0, 0),
        Workload::ChaosReplay => (200, 16, 60, 20),
    };
    Size {
        n,
        k,
        rlnc_n,
        rlnc_k,
    }
}

/// Everything a report says that the wrappers must not change.
fn fields(r: &RunReport) -> String {
    let m = &r.metrics;
    format!(
        "{:?} rounds={} tokens={} packets={} faults={} delays={} dups={} discarded={} timeouts={}",
        r.outcome,
        r.rounds_executed,
        m.tokens_sent,
        m.packets_sent,
        m.faults_injected,
        m.delays_injected,
        m.duplicates_injected,
        m.dups_discarded,
        m.retransmit_timeouts
    )
}

/// `scenario` through `run_algorithm`, and again with every protocol in
/// [`Timed`] and the provider in a [`TimedProvider`] (feeding a stability
/// stream when `stream` is set): same report, same trace bytes.
fn engine_transparent(sc: &Scenario, stream: bool) {
    let kind = sc.kind().unwrap();
    let assignment = placement(sc.n, sc.k, 7);
    let cfg = || {
        RunConfig::new()
            .max_rounds(sc.budget)
            .faults(sc.fault_plan())
            .reliable(sc.reliable)
            .stall_rounds(sc.stall_rounds)
            .mode(sc.mode)
            .threads(2)
    };
    let lockstep = sc.mode == ExecMode::Lockstep;
    let new_tracer = || {
        let mut t = Tracer::new(ObsConfig::full());
        sc.stamp_meta(&mut t);
        t
    };

    let mut plain_trace = new_tracer();
    let mut provider = sc.provider(&kind).unwrap();
    let plain = if lockstep {
        run_algorithm(
            &kind,
            provider.as_mut(),
            &assignment,
            cfg().tracer(&mut plain_trace),
        )
    } else {
        run_algorithm(&kind, provider.as_mut(), &assignment, cfg())
    };

    let mut timed_trace = new_tracer();
    if lockstep {
        timed_trace.meta("algorithm", kind.label());
        if let Some(len) = kind.phase_len() {
            timed_trace.set_phase_len(len as u64);
            timed_trace.meta("rounds_per_phase", len.to_string());
        }
    }
    let stream = stream.then(|| StabilityStream::new(sc.t, sc.l).with_certificate());
    let mut provider = TimedProvider::new(sc.provider(&kind).unwrap(), stream);
    let mut protocols: Vec<Timed<Box<dyn Protocol + Send>>> = (0..sc.n)
        .map(|_| Timed::new(kind.build_node(false)))
        .collect();
    let engine = if lockstep {
        Engine::new(cfg().tracer(&mut timed_trace))
    } else {
        Engine::new(cfg())
    };
    let timed = engine.run(&mut provider, &mut protocols, &assignment);

    assert!(plain.completed(), "{}: {}", sc.algorithm, plain.outcome);
    assert_eq!(fields(&plain), fields(&timed));
    assert!(provider.calls > 0);
    assert!(protocols.iter().any(|p| p.stats.send_calls > 0));
    if lockstep {
        assert_eq!(plain_trace.to_jsonl(), timed_trace.to_jsonl());
    }
    if let Some((_, report)) = provider.finish_stream() {
        assert_eq!(report.rounds, timed.rounds_executed);
    }
}

#[test]
fn protocol_and_provider_wrappers_are_transparent() {
    let sc = alg1_scenario(300, 20, 5);
    engine_transparent(&sc, false);
    engine_transparent(&sc, true);
    engine_transparent(&with_chaos(alg1_scenario(200, 16, 6), 9), false);
    let mut event = with_chaos(alg1_scenario(200, 16, 6), 9);
    event.mode = ExecMode::Event;
    event.stall_rounds = 64;
    engine_transparent(&event, false);
}

#[test]
fn rlnc_topology_wrapper_is_transparent() {
    let mut sc = with_chaos(Scenario::defaults(), 4);
    sc.algorithm = "rlnc".into();
    sc.dynamics = "flat-1".into();
    sc.validate().unwrap();
    let assignment = placement(sc.n, sc.k, 3);
    let traced = |provider: &mut dyn hinet::graph::trace::TopologyProvider| {
        let mut t = Tracer::new(ObsConfig::full());
        sc.stamp_meta(&mut t);
        let cfg = RunConfig::new()
            .max_rounds(sc.budget)
            .faults(sc.fault_plan())
            .reliable(true)
            .tracer(&mut t);
        let r = run_rlnc(provider, &assignment, sc.seed, cfg);
        (
            (
                r.completion_round,
                r.rounds_executed,
                r.packets_sent,
                r.retransmits,
            ),
            t.to_jsonl(),
        )
    };
    let plain = traced(sc.rlnc_provider().unwrap().as_mut());
    let mut wrapped = TimedTopology::new(sc.rlnc_provider().unwrap());
    let timed = traced(&mut wrapped);
    assert!(plain.0 .0.is_some());
    assert_eq!(plain, timed);
    assert_eq!(wrapped.calls as usize, plain.0 .1);
}

#[test]
fn every_workload_passes_its_checks_plain_and_traced() {
    for w in Workload::ALL {
        let size = small(w);
        let seed = case_seed(1, 0);
        let reference = run(setup(w, size, seed, false, 2).unwrap(), None);
        assert_eq!(reference.failure(), None, "{}", w.name());
        for traced in [false, true] {
            let again = run(
                setup(w, size, seed, traced, 2).unwrap(),
                Some(&reference.jobs),
            );
            assert_eq!(again.failure(), None, "{} traced={traced}", w.name());
            assert_eq!(again.layers.is_some(), traced);
            for (a, b) in again.jobs.iter().zip(&reference.jobs) {
                assert_eq!(a.det, b.det);
                assert_eq!(a.tokens_sent, b.tokens_sent);
            }
        }
    }
}

#[test]
fn determinism_and_replay_checks_catch_a_different_run() {
    let size = small(Workload::ChaosReplay);
    let a = run(
        setup(Workload::ChaosReplay, size, 1, false, 2).unwrap(),
        None,
    );
    let b = run(
        setup(Workload::ChaosReplay, size, 2, false, 2).unwrap(),
        Some(&a.jobs),
    );
    let why = b
        .failure()
        .expect("another seed's run must not match the reference");
    assert!(why.contains("job 0"), "{why}");
}
