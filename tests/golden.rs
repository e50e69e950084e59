//! Golden-trace regression suite: the behavioural CI gate.
//!
//! `tests/golden/` holds one pinned `hinet-trace/v1` artifact per covered
//! algorithm, and `tests/golden/chaos/` one per chaos scenario: a
//! non-trivial fault plan whose delivery-plane bytes (loss, partitions,
//! crashes, delay, duplication, reorder, both recovery paths) are pinned. Each test re-runs the scenario recorded in a golden's own
//! header metadata and requires an *empty* structured diff — any change to
//! the engine, an algorithm, a dynamics generator or the tracer that
//! alters behaviour shows up here as a named first-diverging-round, not as
//! a silently different end state.
//!
//! Intentional behaviour changes are blessed with
//! `./ci.sh --update-golden` (or per file:
//! `hinet trace --diff tests/golden/<name>.jsonl --update-golden`).

use hinet::rt::obs::diff::{diff_traces, DiffConfig};
use hinet::rt::obs::{Event, ObsConfig, ParsedTrace, Tracer};
use hinet::scenario::Scenario;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The corpus: Algorithm 1, its Remark-1 variant, Algorithm 2, both KLO
/// baselines, and RLNC (file stem = `scenario` meta stamp).
const EXPECTED: &[&str] = &["alg1", "alg2", "klo-flood", "klo-phased", "remark1", "rlnc"];

/// The chaos corpus (file stem = `scenario` meta stamp), each with the
/// event kinds its fault plan enables — every one must occur at least once
/// (`fault_injected` is split by fault class):
///
/// * `alg1` — lock-step Algorithm 1 on `hinet` under loss, delay,
///   duplication and reorder with `--reliable`;
/// * `alg2` — Algorithm 2 with `--retransmit` under loss, a scheduled
///   crash and a partition;
/// * `rlnc` — RLNC on `flat-1` under the `alg1` plan.
const CHAOS: &[(&str, &[&str])] = &[
    (
        "alg1",
        &[
            "fault_injected:loss",
            "delayed",
            "duplicated",
            "retransmit_timeout",
        ],
    ),
    (
        "alg2",
        &[
            "fault_injected:loss",
            "fault_injected:partition",
            "crash",
            "recover",
            "retransmit",
        ],
    ),
    (
        "rlnc",
        &[
            "fault_injected:loss",
            "delayed",
            "duplicated",
            "retransmit_timeout",
        ],
    ),
];

/// Every golden as its path relative to `tests/golden/`, without extension.
fn all_goldens() -> impl Iterator<Item = String> {
    let chaos = CHAOS.iter().map(|(name, _)| format!("chaos/{name}"));
    EXPECTED.iter().map(|name| name.to_string()).chain(chaos)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The `.jsonl` file stems directly inside `dir`, sorted.
fn stems(dir: PathBuf) -> Vec<String> {
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{} must exist: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    found.sort();
    found
}

fn load(name: &str) -> ParsedTrace {
    let path = golden_dir().join(format!("{name}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    ParsedTrace::parse_jsonl(&text)
        .unwrap_or_else(|e| panic!("golden {name} fails the strict hinet-trace/v1 parser: {e}"))
}

/// Both directories contain exactly the documented corpus — no stray or
/// missing goldens.
#[test]
fn corpus_is_exactly_the_documented_set() {
    assert_eq!(stems(golden_dir()), EXPECTED);
    let chaos: Vec<&str> = CHAOS.iter().map(|(name, _)| *name).collect();
    assert_eq!(stems(golden_dir().join("chaos")), chaos);
}

/// The tentpole gate: every golden's scenario, re-run live from the
/// golden's own metadata, produces a trace with an empty structured diff.
#[test]
fn goldens_match_live_reruns() {
    for name in all_goldens() {
        let name = name.as_str();
        let golden = load(name);
        let sc = Scenario::from_meta(&golden).unwrap_or_else(|e| panic!("golden {name}: {e}"));
        let mut tracer = Tracer::new(ObsConfig::full());
        sc.run_traced(&mut tracer)
            .unwrap_or_else(|e| panic!("golden {name} scenario failed to run: {e}"));
        let live = ParsedTrace::parse_jsonl(&tracer.to_jsonl()).unwrap();
        let diff = diff_traces(&golden, &live, &DiffConfig::default());
        assert!(
            diff.downgrade.is_none(),
            "golden {name} should be comparable at event severity: {:?}",
            diff.downgrade
        );
        assert!(
            diff.is_empty(),
            "golden {name} diverged from its live re-run — if the behaviour change is \
             intentional, bless it with `./ci.sh --update-golden`:\n{}",
            diff.to_text()
        );
    }
}

/// Corpus hygiene: each golden is a complete full-mode capture whose
/// header counters match its own event stream — a truncated or hand-edited
/// artifact cannot hide in the corpus.
#[test]
fn goldens_are_complete_and_internally_consistent() {
    for name in all_goldens() {
        let name = name.as_str();
        let golden = load(name);
        assert!(
            golden.is_complete(),
            "golden {name} must be a full-mode capture with nothing dropped \
             (mode={}, dropped={})",
            golden.mode.wire(),
            golden.dropped
        );
        assert_eq!(
            golden.recount_events(),
            golden.counters,
            "golden {name}: header counters disagree with its own event stream"
        );
        let stem = name.rsplit('/').next().unwrap();
        assert_eq!(
            golden.meta_get("scenario"),
            Some(stem),
            "golden {name}: file stem must match its scenario stamp"
        );
    }
}

/// Each chaos golden exercises its whole plan: at least one event of every
/// kind the plan enables, so no pinned delivery-plane path is vacuous.
#[test]
fn chaos_goldens_cover_every_enabled_event_kind() {
    for (name, kinds) in CHAOS {
        let golden = load(&format!("chaos/{name}"));
        let seen: BTreeSet<String> = golden
            .events
            .iter()
            .map(|te| match &te.event {
                Event::FaultInjected { kind, .. } => format!("fault_injected:{}", kind.as_str()),
                other => other.kind().to_string(),
            })
            .collect();
        for kind in *kinds {
            assert!(
                seen.contains(*kind),
                "chaos golden {name} has no {kind} event: {seen:?}"
            );
        }
    }
}
