//! Property suite for the word-packed `TokenSet`, on the seeded
//! `hinet_rt::check` harness (replay any failure with
//! `HINET_CHECK_SEED=<seed printed on failure>`).
//!
//! The packed representation replaced a `BTreeSet<TokenId>`; these
//! properties pin it to that reference model pointwise — membership,
//! length, ascending iteration order, min/max, subset, union, and the
//! word-parallel selections `max_not_in`/`min_not_in`/`max_not_in_either`
//! the algorithms run every round — at token universes up to the scale
//! target k = 10^4. Every operand is drawn in either storage form, owned
//! or shared (frozen, as a set payload carries it), and an aliasing
//! property checks that writes to a set that adopted a shared payload
//! never reach the payload or its other adopters. A final test
//! fingerprints the parallel round loop: the engine must emit
//! byte-identical traces regardless of thread count.

use hinet::rt::check::{check, CaseCtx};
use hinet::rt::rng::Rng;
use hinet::sim::protocol::{Outgoing, Payload};
use hinet::sim::token::{max_not_in, max_not_in_either, min_not_in, universe, TokenId, TokenSet};
use std::collections::BTreeSet;

const CASES: usize = 64;

/// A random id universe size: mostly small (where off-by-one word
/// boundaries live), sometimes the full k = 10^4 scale target.
fn arb_k(c: &mut CaseCtx) -> u64 {
    *c.pick(&[1, 2, 63, 64, 65, 127, 128, 129, 1000, 10_000])
}

/// `s` with its words frozen and shared, exactly as a set payload
/// carries them to its receivers.
fn share(s: &TokenSet) -> TokenSet {
    match Outgoing::broadcast_set(s).payload {
        Payload::Set(shared) => TokenSet::clone(&shared),
        _ => unreachable!("broadcast_set builds a set payload"),
    }
}

/// A random set over `0..k` drawn as (packed, reference) twins, the packed
/// one in either storage form.
fn arb_set(c: &mut CaseCtx, k: u64) -> (TokenSet, BTreeSet<u64>) {
    let mut packed = TokenSet::new();
    let mut reference = BTreeSet::new();
    let fill = *c.pick(&[0.0, 0.05, 0.5, 0.95, 1.0]);
    for id in 0..k {
        if c.random_bool(fill) {
            packed.insert(TokenId(id));
            reference.insert(id);
        }
    }
    if c.random_bool(0.5) {
        packed = share(&packed);
    }
    (packed, reference)
}

/// `packed` and `reference` agree on length, ascending order and the
/// membership of every id in `0..=k`.
fn assert_models(packed: &TokenSet, reference: &BTreeSet<u64>, k: u64) {
    assert_eq!(packed.len(), reference.len());
    let packed_ids: Vec<u64> = packed.iter().map(|t| t.0).collect();
    let reference_ids: Vec<u64> = reference.iter().copied().collect();
    assert_eq!(packed_ids, reference_ids);
    for id in 0..=k {
        assert_eq!(
            packed.contains(&TokenId(id)),
            reference.contains(&id),
            "membership of {id} diverges (k={k})"
        );
    }
}

#[test]
fn packed_set_matches_btreeset_pointwise() {
    check("packed_set_matches_btreeset_pointwise", CASES, |c| {
        let k = arb_k(c);
        let (packed, reference) = arb_set(c, k);
        assert_eq!(packed.is_empty(), reference.is_empty());
        assert_eq!(packed.min().map(|t| t.0), reference.first().copied());
        assert_eq!(packed.max().map(|t| t.0), reference.last().copied());
        // Length, ascending iteration order element for element, and
        // membership for every id in the universe (and one past it).
        assert_models(&packed, &reference, k);
    });
}

#[test]
fn insert_reports_novelty_like_btreeset() {
    check("insert_reports_novelty_like_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (mut packed, mut reference) = arb_set(c, k);
        for _ in 0..64 {
            let id = c.random_range(0..k);
            assert_eq!(
                packed.insert(TokenId(id)),
                reference.insert(id),
                "insert({id}) novelty diverges"
            );
            assert_eq!(packed.len(), reference.len());
        }
    });
}

#[test]
fn union_and_subset_match_btreeset() {
    check("union_and_subset_match_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (mut pa, mut ra) = arb_set(c, k);
        let (pb, rb) = arb_set(c, k);
        assert_eq!(pa.is_subset(&pb), ra.is_subset(&rb));
        assert_eq!(pb.is_subset(&pa), rb.is_subset(&ra));
        pa.union_with(&pb);
        ra.extend(rb.iter().copied());
        let union_ids: Vec<u64> = pa.iter().map(|t| t.0).collect();
        let reference_ids: Vec<u64> = ra.iter().copied().collect();
        assert_eq!(union_ids, reference_ids);
        assert!(pb.is_subset(&pa), "b must be a subset of a ∪ b");
    });
}

/// Sets that adopted one shared payload read the same words; a write to
/// any of them (insert, union, clear) must copy first, so the payload and
/// every other adopter keep matching their own models.
#[test]
fn writes_to_an_adopter_reach_neither_the_payload_nor_other_adopters() {
    check(
        "writes_to_an_adopter_reach_neither_the_payload_nor_other_adopters",
        CASES,
        |c| {
            let k = arb_k(c);
            let (payload, payload_ref) = arb_set(c, k);
            let payload = share(&payload);
            // Empty receivers and subsets of the payload adopt it.
            let mut adopters: Vec<(TokenSet, BTreeSet<u64>)> = (0..4)
                .map(|_| {
                    let mut s: TokenSet = payload_ref
                        .iter()
                        .filter(|_| c.random_bool(0.3))
                        .map(|&id| TokenId(id))
                        .collect();
                    s.union_with(&payload);
                    (s, payload_ref.clone())
                })
                .collect();
            for _ in 0..12 {
                let i = c.random_range(0..adopters.len());
                let (set, model) = &mut adopters[i];
                match c.random_range(0..3u32) {
                    0 => {
                        let id = c.random_range(0..k);
                        assert_eq!(set.insert(TokenId(id)), model.insert(id));
                    }
                    1 => {
                        let (other, other_ref) = arb_set(c, k);
                        set.union_with(&other);
                        model.extend(other_ref);
                    }
                    _ => {
                        set.clear();
                        model.clear();
                    }
                }
                assert_models(&payload, &payload_ref, k);
                for (set, model) in &adopters {
                    assert_models(set, model, k);
                }
            }
        },
    );
}

#[test]
fn word_parallel_selections_match_btreeset() {
    check("word_parallel_selections_match_btreeset", CASES, |c| {
        let k = arb_k(c);
        let (pa, ra) = arb_set(c, k);
        let (pb, rb) = arb_set(c, k);
        let (pc, rc) = arb_set(c, k);
        assert_eq!(
            max_not_in(&pa, &pb).map(|t| t.0),
            ra.iter().rev().copied().find(|id| !rb.contains(id)),
            "max_not_in diverges (k={k})"
        );
        assert_eq!(
            min_not_in(&pa, &pb).map(|t| t.0),
            ra.iter().copied().find(|id| !rb.contains(id)),
            "min_not_in diverges (k={k})"
        );
        assert_eq!(
            max_not_in_either(&pa, &pb, &pc).map(|t| t.0),
            ra.iter()
                .rev()
                .copied()
                .find(|id| !rb.contains(id) && !rc.contains(id)),
            "max_not_in_either diverges (k={k})"
        );
    });
}

#[test]
fn universe_is_exactly_the_dense_range() {
    check("universe_is_exactly_the_dense_range", 16, |c| {
        let k = arb_k(c);
        let u = universe(k as usize);
        assert_eq!(u.len(), k as usize);
        let ids: Vec<u64> = u.iter().map(|t| t.0).collect();
        let expect: Vec<u64> = (0..k).collect();
        assert_eq!(ids, expect);
        // Every set over 0..k is a subset of the universe.
        let (p, _) = arb_set(c, k);
        assert!(p.is_subset(&u));
    });
}

#[test]
fn equality_ignores_capacity() {
    check("equality_ignores_capacity", 16, |c| {
        let k = arb_k(c);
        let (packed, _) = arb_set(c, k);
        // Rebuild through a pre-sized set: same elements, bigger capacity.
        let mut roomy = TokenSet::with_capacity(2 * k as usize + 64);
        roomy.extend(packed.iter());
        assert_eq!(packed, roomy);
        // Inserting and removing capacity-extending structure is invisible
        // to equality; only the elements count.
        let rebuilt: TokenSet = packed.iter().collect();
        assert_eq!(rebuilt, packed);
    });
}

#[test]
fn equality_and_debug_agree_across_storage_forms() {
    check("equality_and_debug_agree_across_storage_forms", 16, |c| {
        let k = arb_k(c);
        let (_, reference) = arb_set(c, k);
        let owned: TokenSet = reference.iter().map(|&id| TokenId(id)).collect();
        let mut roomy = TokenSet::with_capacity(2 * k as usize + 64);
        roomy.extend(owned.iter());
        let mut adopter = TokenSet::new();
        adopter.union_with(&share(&owned));
        for other in [share(&owned), share(&roomy), adopter] {
            assert_eq!(owned, other);
            assert_eq!(other, owned);
            assert_eq!(format!("{owned:?}"), format!("{other:?}"));
        }
        let mut bigger = owned.clone();
        bigger.insert(TokenId(k));
        assert_ne!(share(&bigger), owned);
        assert_ne!(owned, share(&bigger));
    });
}

/// The parallel round loop is an implementation detail: the same scenario
/// must emit byte-identical `hinet-trace/v1` streams whether the engine
/// runs single-threaded or split across workers.
#[test]
fn parallel_round_loop_trace_bytes_are_thread_count_invariant() {
    use hinet::cluster::generators::{HiNetConfig, HiNetGen};
    use hinet::core::runner::{run_algorithm, AlgorithmKind};
    use hinet::rt::obs::{ObsConfig, Tracer};
    use hinet::sim::engine::RunConfig;
    use hinet::sim::token::round_robin_assignment;

    let (n, k) = (120, 12);
    let run = |threads: usize| {
        let mut provider = HiNetGen::new(HiNetConfig {
            n,
            num_heads: 8,
            theta: 20,
            l: 2,
            t: 1,
            reaffil_prob: 0.2,
            rotate_heads: true,
            noise_edges: n / 5,
            seed: 7,
        });
        let mut tracer = Tracer::new(ObsConfig::full());
        let assignment = round_robin_assignment(n, k);
        run_algorithm(
            &AlgorithmKind::HiNetFullExchange { rounds: n - 1 },
            &mut provider,
            &assignment,
            RunConfig::new().threads(threads).tracer(&mut tracer),
        );
        tracer.to_jsonl()
    };
    let single = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(
            single,
            run(threads),
            "trace bytes diverge at {threads} threads"
        );
    }
}
