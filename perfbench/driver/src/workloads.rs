//! The four benchmark workloads: seeded set-up, one iteration through the
//! program's public entry points, and the checks every iteration passes.
//!
//! A workload seed derives a list of input cases ([`case_seed`]); each case
//! seed derives the dynamics seed, the fault seed and the token placement.
//! The program only ever sees the generated inputs.

use crate::layers::Layers;
use crate::timed::{ProtoStats, Timed, TimedProvider, TimedTopology};
use hinet::cluster::ctvg::{CtvgTrace, CtvgTraceProvider, FlatProvider, HierarchyProvider};
use hinet::cluster::hierarchy::single_cluster;
use hinet::cluster::stability::stream::StabilityStream;
use hinet::core::netcode::run_rlnc;
use hinet::core::params::required_phase_length;
use hinet::core::runner::AlgorithmKind;
use hinet::graph::graph::{Graph, NodeId};
use hinet::graph::trace::{StaticProvider, TopologyProvider, TvgTrace};
use hinet::rt::obs::diff::{diff_traces, DiffConfig};
use hinet::rt::obs::{ObsConfig, ParsedTrace, Tracer};
use hinet::rt::rng::{mix, stream_rng, Rng};
use hinet::scenario::Scenario;
use hinet::sim::engine::{Engine, ExecMode, Outcome, RunConfig, RunReport};
use hinet::sim::protocol::Protocol;
use hinet::sim::token::TokenId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round cap of the star runs: both protocols finish a star in 2–3 rounds.
const STAR_BUDGET: usize = 16;

/// Event-mode stall watchdog threshold (park windows without progress).
const STALL_ROUNDS: usize = 64;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 2 then KLO flooding on one static star (bulk token sets).
    StarBulk,
    /// Algorithm 1 on churning `hinet` dynamics with the (T, L) oracle on.
    ChurnOracle,
    /// Algorithm 1 in event mode under the chaos plan with the reliable layer.
    ChaosEvent,
    /// Traced lock-step Algorithm 1 and RLNC under the chaos plan, each
    /// trace serialised, parsed and diffed against the seed's reference.
    ChaosReplay,
}

/// Problem size of a workload: `n` nodes and `k` tokens, plus the RLNC
/// job's own size on chaos-replay (zero elsewhere).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Node count.
    pub n: usize,
    /// Token count.
    pub k: usize,
    /// Node count of the RLNC job (chaos-replay only).
    pub rlnc_n: usize,
    /// Token count of the RLNC job (chaos-replay only).
    pub rlnc_k: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::StarBulk,
        Workload::ChurnOracle,
        Workload::ChaosEvent,
        Workload::ChaosReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StarBulk => "star-bulk",
            Workload::ChurnOracle => "churn-oracle",
            Workload::ChaosEvent => "chaos-event",
            Workload::ChaosReplay => "chaos-replay",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's size point.
    pub fn size(self) -> Size {
        let (n, k, rlnc_n, rlnc_k) = match self {
            Workload::StarBulk => (200_000, 2_000, 0, 0),
            Workload::ChurnOracle => (2_000, 100, 0, 0),
            Workload::ChaosEvent => (1_000, 60, 0, 0),
            Workload::ChaosReplay => (300, 60, 300, 100),
        };
        Size {
            n,
            k,
            rlnc_n,
            rlnc_k,
        }
    }

    /// Worker threads, set explicitly through `RunConfig::threads`: the
    /// machine's cores, at most two, where the program runs in parallel on
    /// its own (star-bulk, above the engine's 4096-node threshold) or needs
    /// concurrency (event mode); one for the lock-step runs below that
    /// threshold, which the engine runs sequentially by default.
    pub fn threads(self) -> usize {
        match self {
            Workload::StarBulk | Workload::ChaosEvent => {
                std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
            }
            Workload::ChurnOracle | Workload::ChaosReplay => 1,
        }
    }

    /// Input cases one run cycles through.
    pub fn cases(self) -> usize {
        match self {
            Workload::StarBulk => 4,
            Workload::ChurnOracle | Workload::ChaosEvent | Workload::ChaosReplay => 8,
        }
    }
}

/// Seed of input case `index` under workload seed `seed`.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    mix(seed, index as u64)
}

/// Seeded token placement: token `t` starts at a uniformly drawn node.
pub fn placement(n: usize, k: usize, seed: u64) -> Vec<Vec<TokenId>> {
    let mut rng = stream_rng(seed, 0);
    let mut per_node = vec![Vec::new(); n];
    for t in 0..k {
        per_node[rng.random_range(0..n)].push(TokenId(t as u64));
    }
    per_node
}

/// Algorithm 1 on `hinet` dynamics at `α = 5`, `L = 2`, `θ = n/3`.
pub fn alg1_scenario(n: usize, k: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::defaults();
    sc.n = n;
    sc.k = k;
    sc.theta = n / 3;
    sc.seed = seed;
    sc.t = required_phase_length(k, sc.alpha, sc.l);
    sc.budget = sc.derived_budget();
    sc
}

/// The chaos plan: loss 5 %, delay 3 % (≤ 3 rounds), duplication 2 %,
/// inbox reordering, and the reliable ack/timeout/backoff layer.
pub fn with_chaos(mut sc: Scenario, fault_seed: u64) -> Scenario {
    sc.fault_seed = fault_seed;
    sc.loss_ppm = 50_000;
    sc.delay_ppm = 30_000;
    sc.max_delay = 3;
    sc.dup_ppm = 20_000;
    sc.reorder = true;
    sc.reliable = true;
    sc
}

/// The engine half of a job: plain, or wrapped for the traced run.
enum Parts {
    Plain {
        provider: Box<dyn HierarchyProvider + Send>,
        protocols: Vec<Box<dyn Protocol + Send>>,
    },
    Timed {
        provider: Box<TimedProvider>,
        protocols: Vec<Timed<Box<dyn Protocol + Send>>>,
    },
}

/// One prepared `Engine::run`.
struct EngineJob {
    kind: AlgorithmKind,
    /// `Some` when the job records a trace: the scenario stamped into it.
    record: Option<Scenario>,
    parts: Parts,
    assignment: Vec<Vec<TokenId>>,
    cfg: RunConfig<'static>,
    /// Completion round the job must not exceed.
    bound: usize,
}

/// The RLNC provider: plain, or wrapped for the traced run.
enum RlncProvider {
    Plain(Box<dyn TopologyProvider>),
    Timed(TimedTopology),
}

/// One prepared, traced `run_rlnc`.
struct RlncJob {
    scenario: Scenario,
    provider: RlncProvider,
    assignment: Vec<Vec<TokenId>>,
    cfg: RunConfig<'static>,
}

enum Job {
    Engine(Box<EngineJob>),
    Rlnc(Box<RlncJob>),
}

/// Everything set-up prepares for one iteration.
pub struct Case {
    jobs: Vec<Job>,
    traced: bool,
    threads: usize,
}

/// Prepare one iteration of `workload` at `size` for case seed `seed`:
/// providers, static graphs and hierarchies, token placement and protocol
/// instances. With `traced`, providers and protocols come wrapped.
pub fn setup(
    workload: Workload,
    size: Size,
    seed: u64,
    traced: bool,
    threads: usize,
) -> Result<Case, String> {
    let (dyn_seed, fault_seed, place_seed) = (mix(seed, 1), mix(seed, 2), mix(seed, 3));
    let Size { n, k, .. } = size;
    let jobs = match workload {
        Workload::StarBulk => {
            let star = Graph::star(n);
            let assignment = placement(n, k, place_seed);
            let alg2: Box<dyn HierarchyProvider + Send> =
                Box::new(CtvgTraceProvider::new(CtvgTrace::new(
                    TvgTrace::new(vec![Arc::new(star.clone())]),
                    vec![Arc::new(single_cluster(n, NodeId(0)))],
                )));
            let flood: Box<dyn HierarchyProvider + Send> =
                Box::new(FlatProvider::new(StaticProvider::new(star)));
            let cfg = || RunConfig::new().max_rounds(STAR_BUDGET).threads(threads);
            vec![
                engine_job(
                    AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
                    alg2,
                    assignment.clone(),
                    cfg(),
                    None,
                    traced,
                ),
                engine_job(
                    AlgorithmKind::KloFlood { rounds: n - 1 },
                    flood,
                    assignment,
                    cfg(),
                    None,
                    traced,
                ),
            ]
        }
        Workload::ChurnOracle => {
            let sc = alg1_scenario(n, k, dyn_seed);
            sc.validate()?;
            let kind = sc.kind()?;
            let provider = sc.provider(&kind)?;
            let cfg = RunConfig::new().max_rounds(sc.budget).threads(threads);
            // The traced run times the oracle at its public boundary: the
            // in-engine oracle is off and the provider wrapper feeds the same
            // rounds to an external stream with the certificate on.
            let job = if traced {
                let stream = StabilityStream::new(sc.t, sc.l).with_certificate();
                let provider = TimedProvider::new(provider, Some(stream));
                timed_job(kind, provider, placement(n, k, place_seed), cfg, None)
            } else {
                let cfg = cfg.stability_oracle(Some((sc.t, sc.l)));
                engine_job(
                    kind,
                    provider,
                    placement(n, k, place_seed),
                    cfg,
                    None,
                    false,
                )
            };
            vec![job]
        }
        Workload::ChaosEvent => {
            let mut sc = with_chaos(alg1_scenario(n, k, dyn_seed), fault_seed);
            sc.mode = ExecMode::Event;
            sc.stall_rounds = STALL_ROUNDS;
            sc.validate()?;
            vec![scenario_job(
                &sc,
                placement(n, k, place_seed),
                threads,
                false,
                traced,
            )?]
        }
        Workload::ChaosReplay => {
            let sc = with_chaos(alg1_scenario(n, k, dyn_seed), fault_seed);
            sc.validate()?;
            let alg1 = scenario_job(&sc, placement(n, k, place_seed), threads, true, traced)?;
            let mut rl = with_chaos(Scenario::defaults(), mix(fault_seed, 1));
            rl.algorithm = "rlnc".into();
            rl.dynamics = "flat-1".into();
            rl.n = size.rlnc_n;
            rl.k = size.rlnc_k;
            rl.theta = rl.n / 3;
            rl.seed = mix(dyn_seed, 1);
            rl.t = required_phase_length(rl.k, rl.alpha, rl.l);
            rl.budget = rl.derived_budget();
            rl.validate()?;
            let provider = match rl.rlnc_provider()? {
                p if traced => RlncProvider::Timed(TimedTopology::new(p)),
                p => RlncProvider::Plain(p),
            };
            let cfg = RunConfig::new()
                .max_rounds(rl.budget)
                .faults(rl.fault_plan())
                .reliable(rl.reliable);
            let assignment = placement(rl.n, rl.k, mix(place_seed, 1));
            vec![
                alg1,
                Job::Rlnc(Box::new(RlncJob {
                    scenario: rl,
                    provider,
                    assignment,
                    cfg,
                })),
            ]
        }
    };
    Ok(Case {
        jobs,
        traced,
        threads,
    })
}

/// An engine job for a scenario's algorithm, dynamics and fault plan.
fn scenario_job(
    sc: &Scenario,
    assignment: Vec<Vec<TokenId>>,
    threads: usize,
    record: bool,
    traced: bool,
) -> Result<Job, String> {
    let kind = sc.kind()?;
    let provider = sc.provider(&kind)?;
    let cfg = RunConfig::new()
        .max_rounds(sc.budget)
        .faults(sc.fault_plan())
        .reliable(sc.reliable)
        .stall_rounds(sc.stall_rounds)
        .mode(sc.mode)
        .threads(threads);
    let record = record.then(|| sc.clone());
    Ok(engine_job(kind, provider, assignment, cfg, record, traced))
}

fn engine_job(
    kind: AlgorithmKind,
    provider: Box<dyn HierarchyProvider + Send>,
    assignment: Vec<Vec<TokenId>>,
    cfg: RunConfig<'static>,
    record: Option<Scenario>,
    traced: bool,
) -> Job {
    if traced {
        return timed_job(
            kind,
            TimedProvider::new(provider, None),
            assignment,
            cfg,
            record,
        );
    }
    let protocols = (0..provider.n()).map(|_| kind.build_node(false)).collect();
    Job::Engine(Box::new(EngineJob {
        bound: round_bound(&kind, &cfg),
        kind,
        record,
        parts: Parts::Plain {
            provider,
            protocols,
        },
        assignment,
        cfg,
    }))
}

fn timed_job(
    kind: AlgorithmKind,
    provider: TimedProvider,
    assignment: Vec<Vec<TokenId>>,
    cfg: RunConfig<'static>,
    record: Option<Scenario>,
) -> Job {
    let protocols = (0..provider.n())
        .map(|_| Timed::new(kind.build_node(false)))
        .collect();
    Job::Engine(Box::new(EngineJob {
        bound: round_bound(&kind, &cfg),
        kind,
        record,
        parts: Parts::Timed {
            provider: Box::new(provider),
            protocols,
        },
        assignment,
        cfg,
    }))
}

/// The completion round a job must reach: the algorithm's own bound
/// (Algorithm 1's phase plan `M·T`; `n − 1` for the full-exchange and
/// flooding protocols), capped by the run's round budget.
fn round_bound(kind: &AlgorithmKind, cfg: &RunConfig<'_>) -> usize {
    let own = match kind {
        AlgorithmKind::HiNetPhased(plan) => plan.total_rounds(),
        AlgorithmKind::HiNetFullExchange { rounds } | AlgorithmKind::KloFlood { rounds } => *rounds,
        _ => usize::MAX,
    };
    own.min(cfg.max_rounds)
}

/// What one job of an iteration produced.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Node count.
    pub n: usize,
    /// Rounds executed.
    pub rounds_executed: usize,
    /// Completion round, if the run completed.
    pub completion_round: Option<usize>,
    /// The paper's communication cost (coded packets for RLNC).
    pub tokens_sent: u64,
    /// Deterministic report fields, compared between runs of one seed.
    pub det: String,
    /// Why the job failed its checks, if it did.
    pub failure: Option<String>,
    /// The parsed trace of a recording job.
    pub trace: Option<ParsedTrace>,
}

/// What one iteration produced.
pub struct Iteration {
    /// One outcome per job, in set-up order.
    pub jobs: Vec<JobOutcome>,
    /// Per-layer figures (traced iterations only).
    pub layers: Option<Layers>,
}

impl Iteration {
    /// `Σ n · rounds_executed` over the jobs.
    pub fn node_rounds(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| (j.n * j.rounds_executed) as u64)
            .sum()
    }

    /// The first failure of any job, prefixed with its index.
    pub fn failure(&self) -> Option<String> {
        self.jobs
            .iter()
            .enumerate()
            .find_map(|(i, j)| j.failure.as_ref().map(|f| format!("job {i}: {f}")))
    }
}

/// Run a prepared iteration. With `reference` (the outcomes of an earlier
/// run of the same case seed), every job's deterministic fields must equal
/// the reference's and every recorded trace must diff clean against it.
pub fn run(case: Case, reference: Option<&[JobOutcome]>) -> Iteration {
    let Case {
        jobs,
        traced,
        threads,
    } = case;
    let mut layers = traced.then(Layers::default);
    let jobs = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            let reference = reference.map(|r| &r[i]);
            let mut out = match job {
                Job::Engine(job) => run_engine(*job, threads, reference, layers.as_mut()),
                Job::Rlnc(job) => run_rlnc_job(*job, reference, layers.as_mut()),
            };
            if out.failure.is_none() {
                if let Some(r) = reference.filter(|r| r.det != out.det) {
                    out.failure = Some(format!(
                        "deterministic fields differ from the seed's reference run: {} vs {}",
                        out.det, r.det
                    ));
                }
            }
            out
        })
        .collect();
    Iteration { jobs, layers }
}

fn run_engine(
    job: EngineJob,
    threads: usize,
    reference: Option<&JobOutcome>,
    mut layers: Option<&mut Layers>,
) -> JobOutcome {
    let EngineJob {
        kind,
        record,
        parts,
        assignment,
        cfg,
        bound,
    } = job;
    let mode = cfg.mode;
    let n = assignment.len();
    let mut tracer = record.map(|sc| {
        // The same stamps `Scenario::run_traced` and `run_algorithm` write.
        let mut t = Tracer::new(ObsConfig::full());
        sc.stamp_meta(&mut t);
        t.meta("algorithm", kind.label());
        if let Some(len) = kind.phase_len() {
            t.set_phase_len(len as u64);
            t.meta("rounds_per_phase", len.to_string());
        }
        t
    });
    let cfg = match tracer.as_mut() {
        Some(t) => cfg.tracer(t),
        None => cfg,
    };
    let engine = Engine::new(cfg);
    let report = match parts {
        Parts::Plain {
            mut provider,
            mut protocols,
        } => engine.run(provider.as_mut(), &mut protocols, &assignment),
        Parts::Timed {
            mut provider,
            mut protocols,
        } => {
            let t0 = Instant::now();
            let report = engine.run(&mut *provider, &mut protocols, &assignment);
            let mut proto = ProtoStats::default();
            for p in &protocols {
                proto.add(&p.stats);
            }
            let stream = provider.finish_stream();
            // Tearing down the node states belongs to the run, as it does
            // in the plain branch.
            drop(protocols);
            let run_s = t0.elapsed().as_secs_f64();
            let layers = layers
                .as_deref_mut()
                .expect("timed parts are built for traced runs only");
            let self_s = run_s
                - provider.busy.as_secs_f64()
                - provider.stream_busy.as_secs_f64()
                - (proto.send_time + proto.recv_time).as_secs_f64() / threads as f64;
            match mode {
                ExecMode::Lockstep => layers.engine_self += self_s,
                ExecMode::Event => layers.event_self += self_s,
            }
            if let Some((peak, _)) = stream {
                layers.stability_pushes += provider.push_calls;
                layers.stability_busy += provider.stream_busy;
                layers.stability_peak_bytes = layers.stability_peak_bytes.max(peak as u64);
            }
            layers.provider_calls += provider.calls;
            layers.provider_busy += provider.busy;
            layers.proto.add(&proto);
            layers.add_report(&report);
            report
        }
    };
    let mut out = JobOutcome {
        n,
        rounds_executed: report.rounds_executed,
        completion_round: report.completion_round,
        tokens_sent: report.metrics.tokens_sent,
        det: engine_det(&report),
        failure: check_engine(&report, bound),
        trace: None,
    };
    if let Some(tracer) = tracer {
        replay(&tracer, reference, &mut out, layers);
    }
    out
}

fn run_rlnc_job(
    job: RlncJob,
    reference: Option<&JobOutcome>,
    mut layers: Option<&mut Layers>,
) -> JobOutcome {
    let RlncJob {
        scenario,
        mut provider,
        assignment,
        cfg,
    } = job;
    let mut tracer = Tracer::new(ObsConfig::full());
    scenario.stamp_meta(&mut tracer);
    let cfg = cfg.tracer(&mut tracer);
    let t0 = Instant::now();
    let report = match &mut provider {
        RlncProvider::Plain(p) => run_rlnc(p.as_mut(), &assignment, scenario.seed, cfg),
        RlncProvider::Timed(p) => run_rlnc(p, &assignment, scenario.seed, cfg),
    };
    let run_s = t0.elapsed().as_secs_f64();
    if let (Some(layers), RlncProvider::Timed(p)) = (layers.as_deref_mut(), &provider) {
        layers.provider_calls += p.calls;
        layers.provider_busy += p.busy;
        layers.netcode_self += run_s - p.busy.as_secs_f64();
        layers.netcode_packets += report.packets_sent;
        layers.netcode_retransmits += report.retransmits;
        layers.netcode_rank += (scenario.n * scenario.k - scenario.k) as u64;
    }
    let failure = match report.completion_round {
        None => Some(format!(
            "rlnc did not complete in {} rounds",
            report.rounds_executed
        )),
        Some(_) => None,
    };
    let mut out = JobOutcome {
        n: scenario.n,
        rounds_executed: report.rounds_executed,
        completion_round: report.completion_round,
        tokens_sent: report.packets_sent,
        det: format!(
            "completion={:?} rounds={} packets={} retransmits={}",
            report.completion_round,
            report.rounds_executed,
            report.packets_sent,
            report.retransmits
        ),
        failure,
        trace: None,
    };
    replay(&tracer, reference, &mut out, layers);
    out
}

/// The replay workflow of a recording job: serialise the trace, parse it
/// back and diff it against the reference trace of the same seed. The
/// parsed trace is kept when there is no reference yet.
fn replay(
    tracer: &Tracer,
    reference: Option<&JobOutcome>,
    out: &mut JobOutcome,
    layers: Option<&mut Layers>,
) {
    let mut fail = |why: String| {
        out.failure.get_or_insert(why);
    };
    if tracer.dropped() > 0 {
        fail(format!("tracer ring dropped {} events", tracer.dropped()));
    }
    let t0 = Instant::now();
    let text = tracer.to_jsonl();
    let serialize = t0.elapsed();
    let t1 = Instant::now();
    let parsed = match ParsedTrace::parse_jsonl(&text) {
        Ok(p) => p,
        Err(e) => {
            fail(format!("trace does not parse back: {e}"));
            return;
        }
    };
    let parse = t1.elapsed();
    let mut diff = Duration::ZERO;
    if let Some(reference) = reference.and_then(|r| r.trace.as_ref()) {
        let t2 = Instant::now();
        let report = diff_traces(&parsed, reference, &DiffConfig::default());
        diff = t2.elapsed();
        if let Some(why) = &report.downgrade {
            fail(format!("trace diff skipped its event tier: {why}"));
        } else if !report.is_empty() {
            fail(format!("replay diverged:\n{}", report.to_text()));
        }
    }
    if let Some(layers) = layers {
        layers.trace_events += tracer.len() as u64;
        layers.trace_bytes += text.len() as u64;
        layers.trace_serialize += serialize;
        layers.trace_parse += parse;
        layers.trace_diff += diff;
    }
    if reference.is_none() {
        out.trace = Some(parsed);
    }
}

/// Deterministic `RunReport` fields: a pure function of scenario and seeds
/// in either execution mode (the wall clock and the event-mode scheduling
/// gauges are left out).
fn engine_det(r: &RunReport) -> String {
    let m = &r.metrics;
    format!(
        "outcome={:?} rounds={} tokens={} packets={} faults={} delays={} dups={} \
         dups_discarded={} retx_timeouts={} retransmits={} crashes={}",
        r.outcome,
        r.rounds_executed,
        m.tokens_sent,
        m.packets_sent,
        m.faults_injected,
        m.delays_injected,
        m.duplicates_injected,
        m.dups_discarded,
        m.retransmit_timeouts,
        m.retransmits,
        m.crashes,
    )
}

/// An engine run passes when it completed within `bound` rounds.
fn check_engine(r: &RunReport, bound: usize) -> Option<String> {
    if r.stall.is_some() {
        return Some(format!("stall watchdog halted the run: {}", r.outcome));
    }
    match r.outcome {
        Outcome::Completed { round } if round <= bound => None,
        Outcome::Completed { round } => {
            Some(format!("completed in {round} rounds > bound {bound}"))
        }
        other => Some(format!("did not complete: {other}")),
    }
}
