//! Measure one workload for a fixed time and print its metrics.
//!
//! ```text
//! hinet-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A reference pass runs every input case once (filling caches and giving
//! the references for the determinism and replay checks and the exact
//! simulation metrics). The timed loop then cycles through the cases until
//! `S` seconds have passed. With `--trace 1` it alternates plain and traced
//! iterations and reports the per-layer metrics of the traced ones plus the
//! tracing overhead; otherwise it reports the end-to-end metrics. The last
//! line of standard output is one JSON object.

use hinet_perfbench::layers::{Layers, Metric};
use hinet_perfbench::workloads::{case_seed, run, setup, Iteration, JobOutcome, Size, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: hinet-perfbench --workload star-bulk|churn-oracle|chaos-event|chaos-replay \
                     --seed N --seconds S --trace 0|1";

/// Fewest timed passes over the case list, however short `--seconds` is.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    /// Measure a workload.
    Bench(Args),
    /// Run one case of a workload once and print this process's peak
    /// resident set in MiB (the driver spawns itself this way).
    RssCase(Workload, u64),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                if flags.insert(k[2..].to_string(), v.clone()).is_some() {
                    return Err(format!("{k} given twice"));
                }
            }
            _ => return Err(format!("malformed arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let known: &[&str] = if flags.contains_key("rss-case") {
        &["workload", "rss-case"]
    } else {
        &["workload", "seed", "seconds", "trace"]
    };
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }
    if let Some(seed) = flags.get("rss-case") {
        let seed = seed.parse().map_err(|e| format!("--rss-case: {e}"))?;
        return Ok(Mode::RssCase(workload, seed));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Mode::Bench(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Peak resident set of a fresh process running case `seed` of `workload`
/// once: this binary, spawned in `--rss-case` mode.
fn case_rss_mb(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the driver: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--rss-case",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(mb) if out.status.success() => Ok(mb),
        _ => Err(format!(
            "memory probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// One timed iteration.
struct Sample {
    traced: bool,
    setup_s: f64,
    iter_s: f64,
    it: Iteration,
}

/// Set up and run one iteration, catching panics. A failed check is in the
/// iteration; a set-up error or panic is the `Err`.
fn attempt(
    workload: Workload,
    size: Size,
    seed: u64,
    traced: bool,
    reference: Option<&[JobOutcome]>,
) -> Result<Sample, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let case = setup(workload, size, seed, traced, workload.threads())?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let it = run(case, reference);
        let iter_s = t1.elapsed().as_secs_f64();
        Ok(Sample {
            traced,
            setup_s,
            iter_s,
            it,
        })
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(non-string payload)");
        Err(format!("panicked: {msg}"))
    })
}

/// How an attempt failed, if it did.
fn failure_of(result: &Result<Sample, String>) -> Option<String> {
    match result {
        Ok(s) => s.it.failure(),
        Err(e) => Some(e.clone()),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, and its
/// value (nearest rank); `None` below eleven samples.
fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let idx = xs.len() - 11;
    Some((100.0 * (idx + 1) as f64 / xs.len() as f64, xs[idx]))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Bench(a)) => a,
        Ok(Mode::RssCase(w, seed)) => {
            return match attempt(w, w.size(), seed, false, None) {
                Ok(s) if s.it.failure().is_none() => {
                    println!("{}", peak_rss_mb());
                    ExitCode::SUCCESS
                }
                Ok(s) => {
                    eprintln!("{}", s.it.failure().unwrap_or_default());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("hinet-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let size = w.size();
    let threads = w.threads();
    let seeds: Vec<u64> = (0..w.cases()).map(|i| case_seed(args.seed, i)).collect();
    println!(
        "workload {} seed {} n={} k={}{} threads={} cases={}",
        w.name(),
        args.seed,
        size.n,
        size.k,
        if size.rlnc_n > 0 {
            format!(" rlnc_n={} rlnc_k={}", size.rlnc_n, size.rlnc_k)
        } else {
            String::new()
        },
        threads,
        seeds.len()
    );
    if w == Workload::StarBulk {
        // Computed, not measured: each node's packed token set is one
        // column entry; a round reads every delivered set and rewrites
        // every receiver's own.
        let column = size.n * size.k.div_ceil(64) * 8;
        println!(
            "star-bulk sizing: token-set column {column} B, computed {} B moved per round",
            2 * column
        );
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    // Count an attempt; `why` says how it failed, if it did.
    let mut note = |label: String, why: Option<String>| {
        attempted += 1;
        if let Some(why) = why {
            failed += 1;
            eprintln!("FAILED {label}: {why}");
        }
    };

    let mut references: Vec<Option<Vec<JobOutcome>>> = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let result = attempt(w, size, seed, false, None);
        note(
            format!("reference case {i} (seed {seed})"),
            failure_of(&result),
        );
        references.push(result.ok().map(|s| s.it.jobs));
    }
    // Exact simulation figures: per case, summed over its jobs; the median
    // over the case list keeps a rare slow case from moving them.
    let per_case = |f: fn(&JobOutcome) -> f64| {
        median(
            references
                .iter()
                .flatten()
                .map(|jobs| jobs.iter().map(f).sum())
                .collect(),
        )
    };
    let sim_rounds = per_case(|j| j.completion_round.unwrap_or(j.rounds_executed) as f64);
    let sim_tokens = per_case(|j| j.tokens_sent as f64);
    let mut rss = Vec::new();
    if !args.trace {
        for (i, &seed) in seeds.iter().enumerate() {
            match case_rss_mb(w, seed) {
                Ok(mb) => {
                    note(String::new(), None);
                    rss.push(mb);
                }
                Err(e) => note(format!("memory probe of case {i} (seed {seed})"), Some(e)),
            }
        }
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    // Whole passes over the case list, so every case weighs the same; with
    // `--trace 1` plain and traced passes alternate.
    while start.elapsed() < budget || i < MIN_PASSES * seeds.len() || i % seeds.len() != 0 {
        let case = i % seeds.len();
        let traced = args.trace && (i / seeds.len()) % 2 == 1;
        let result = attempt(w, size, seeds[case], traced, references[case].as_deref());
        note(
            format!("iteration {i} (case {case}, traced {traced})"),
            failure_of(&result),
        );
        if let Ok(s) = result {
            if s.it.failure().is_none() {
                samples.push(s);
            }
        }
        i += 1;
    }
    let (traced, plain): (Vec<Sample>, Vec<Sample>) = samples.into_iter().partition(|s| s.traced);

    let plain_iter: Vec<f64> = plain.iter().map(|s| s.iter_s).collect();
    let iter_p50 = median(plain_iter.clone());
    let tail = tail_percentile(&plain_iter)
        .map_or("no tail percentile below 11 samples".into(), |(q, v)| {
            format!("p{q:.0} {v:.6} s")
        });
    println!(
        "iter_s: p50 {iter_p50:.6} s, {tail} ({} untraced samples)",
        plain_iter.len()
    );

    let metrics: Vec<Metric> = if args.trace {
        let traced_iter: Vec<f64> = traced.iter().map(|s| s.iter_s).collect();
        let traced_p50 = median(traced_iter);
        let accounted = traced
            .iter()
            .map(|s| s.it.layers.as_ref().map_or(0.0, |l| l.accounted_s(threads)))
            .collect();
        let per_iter: Vec<Vec<Metric>> = traced
            .iter()
            .filter_map(|s| s.it.layers.as_ref().map(|l| l.metrics(s.iter_s)))
            .collect();
        let overhead = traced_p50 - iter_p50;
        println!(
            "traced iter_s p50 {traced_p50:.6} s ({} samples); busy + self times sum to \
             {:.6} s; tracing overhead {overhead:.6} s",
            traced.len(),
            median(accounted),
        );
        // Every layer metric, in the order `Layers::metrics` lists them.
        let mut out: Vec<Metric> = Layers::default()
            .metrics(1.0)
            .into_iter()
            .enumerate()
            .map(|(k, (name, unit, _))| {
                (
                    name,
                    unit,
                    median(per_iter.iter().map(|m| m[k].2).collect()),
                )
            })
            .collect();
        out.push(("bench.traced_iter_s", "s", traced_p50));
        out.push(("bench.trace_overhead_s", "s", overhead));
        out
    } else {
        let node_rounds: u64 = plain.iter().map(|s| s.it.node_rounds()).sum();
        let iter_total: f64 = plain_iter.iter().sum();
        vec![
            (
                "setup_s",
                "s",
                median(plain.iter().map(|s| s.setup_s).collect()),
            ),
            ("iter_s.p50", "s", iter_p50),
            (
                "node_rounds_per_s",
                "1/s",
                if iter_total > 0.0 {
                    node_rounds as f64 / iter_total
                } else {
                    0.0
                },
            ),
            ("peak_rss_mb", "MiB", median(rss)),
            (
                "pass_frac",
                "ratio",
                (attempted - failed) as f64 / attempted as f64,
            ),
            ("sim.rounds", "rounds", sim_rounds),
            ("sim.tokens_sent", "tokens", sim_tokens),
        ]
    };

    for (name, unit, v) in &metrics {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
