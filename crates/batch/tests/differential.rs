//! Differential oracle for the availability engine: random
//! `reserve` / `release` / `advance_origin` / `fail_until` / `first_fit`
//! op sequences must agree **byte-for-byte** between the legacy sorted-Vec
//! profile (`VecProfile`) and the tree backend behind `Profile` — same
//! breakpoint sequences, same origins, same lengths, same query answers.
//!
//! The release generator deliberately reproduces the PR-3 edge cases:
//! whole-reservation releases (full coalesce back to flat when the last
//! one goes), live-remainder releases of reservations that straddle an
//! advanced origin (what `Cluster::complete` does), and dropping
//! reservations that fell entirely into the trimmed past. The *rejected*
//! edge cases (origin-spanning release, over-release of a partially
//! unreserved window) panic identically on both backends and are pinned
//! by `should_panic` unit tests in `profile.rs` — a panicking oracle
//! cannot be compared in-line here.
//!
//! The batched carving entry points (`Profile::reserve_all` /
//! `release_all`) are pinned the same way at the end of the file: a
//! batch must leave exactly the breakpoints, length and coalescing the
//! same windows leave when applied one call at a time — on the inline
//! buffer, on the tree, and across the promotion boundary — and must
//! panic exactly when the sequential calls do.

use grid_batch::{Profile, VecProfile};
use grid_des::{Duration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

const TOTAL: u32 = 16;

/// Both backends plus the ledger of live reservations the generator may
/// release.
struct Pair {
    tree: Profile,
    vec: VecProfile,
    live: Vec<(SimTime, Duration, u32)>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            tree: Profile::flat(TOTAL, SimTime(0)),
            vec: VecProfile::flat(TOTAL, SimTime(0)),
            live: Vec::new(),
        }
    }

    /// Full-state agreement after every op.
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.tree.points(), self.vec.points().to_vec());
        prop_assert_eq!(self.tree.origin(), self.vec.origin());
        prop_assert_eq!(self.tree.len(), self.vec.len());
        prop_assert_eq!(self.tree.total(), self.vec.total());
        self.tree.assert_invariants();
        self.vec.assert_invariants();
        Ok(())
    }
}

/// One encoded op: `(kind, a, b, c)` interpreted per mix.
type RawOp = (u8, u64, u64, u32);

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..10, 0u64..2_000, 1u64..300, 1u32..=TOTAL), 1..max_ops)
}

/// Apply one op to both backends, comparing every observable on the way.
fn apply(pair: &mut Pair, op: RawOp, allow_fail_until: bool) -> Result<(), TestCaseError> {
    let (kind, a, b, c) = op;
    let origin = pair.tree.origin();
    match kind {
        // Reserve at the first-fit slot (the only spot guaranteed valid
        // on both) — also cross-checks the query itself.
        0..=3 => {
            let procs = c;
            let dur = Duration(b);
            let after = SimTime(origin.0 + a);
            let s_tree = pair.tree.first_fit(after, dur, procs);
            let s_vec = pair.vec.first_fit(after, dur, procs);
            prop_assert_eq!(s_tree, s_vec, "first_fit diverged");
            pair.tree.reserve(s_tree, dur, procs);
            pair.vec.reserve(s_vec, dur, procs);
            pair.live.push((s_tree, dur, procs));
        }
        // Release a live reservation: in full if still entirely live, as
        // its remainder `[origin, end)` when it straddles the origin
        // (the `Cluster::complete` early-completion shape), or not at
        // all when it fell into the trimmed past.
        4 | 5 => {
            if !pair.live.is_empty() {
                let idx = (a as usize) % pair.live.len();
                let (start, dur, procs) = pair.live.swap_remove(idx);
                let end = start + dur;
                if end > origin {
                    let eff = start.max(origin);
                    pair.tree.release(eff, end.since(eff), procs);
                    pair.vec.release(eff, end.since(eff), procs);
                }
            }
        }
        // Advance the origin a short hop (between, onto and past
        // breakpoints alike).
        6 => {
            let now = SimTime(origin.0 + a % 60);
            pair.tree.advance_origin(now);
            pair.vec.advance_origin(now);
        }
        // Outage truncation: both reset to "blocked until recovery";
        // every ledger entry dies with the evicted jobs.
        7 => {
            if allow_fail_until {
                let now = SimTime(origin.0 + a % 50);
                let until = now + Duration(b);
                pair.tree.fail_until(now, until);
                pair.vec.fail_until(now, until);
                pair.live.clear();
            }
        }
        // Pure queries at arbitrary instants (first_fit included — the
        // probe, unlike kind 0..=3, lands anywhere, not just where a
        // reservation follows).
        _ => {
            let at = SimTime(origin.0 + a);
            let dur = Duration(b % 200);
            prop_assert_eq!(pair.tree.free_at(at), pair.vec.free_at(at));
            prop_assert_eq!(pair.tree.min_free(at, dur), pair.vec.min_free(at, dur));
            let procs = c;
            let d = Duration(b);
            prop_assert_eq!(
                pair.tree.first_fit(at, d, procs),
                pair.vec.first_fit(at, d, procs),
                "query-only first_fit diverged"
            );
        }
    }
    pair.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full op mix, `fail_until` included: 256 random sequences, every
    /// observable compared after every op.
    #[test]
    fn tree_agrees_with_vec_oracle_full_mix(ops in ops_strategy(120)) {
        let mut pair = Pair::new();
        for op in ops {
            apply(&mut pair, op, true)?;
        }
    }

    /// The adaptive backend must agree with the oracle *across* the
    /// inline→tree promotion boundary. A tiny crossover forces repeated
    /// promotions (growth past the threshold mid-sequence) and demotions
    /// (`advance_origin`/`fail_until` shrinking the profile back), so the
    /// hand-off itself — `from_points` construction, counter carry-over,
    /// origin/total transfer — is what this mix exercises, not just one
    /// backend at a time.
    #[test]
    fn adaptive_backend_agrees_across_promotion_boundary(
        ops in ops_strategy(120),
        crossover in 0usize..12,
    ) {
        let mut pair = Pair::new();
        pair.tree = Profile::flat_with_crossover(TOTAL, SimTime(0), crossover);
        let mut saw_tree = false;
        let mut saw_small = false;
        for op in ops {
            apply(&mut pair, op, true)?;
            if pair.tree.backend_is_tree() {
                saw_tree = true;
            } else {
                saw_small = true;
            }
        }
        // Crossover 0 pins the tree from the start; anything else starts
        // inline. Either way at least one backend must have been live —
        // and with crossover 0 it must have been the tree.
        prop_assert!(saw_tree || saw_small);
        if crossover == 0 {
            prop_assert!(saw_tree, "crossover 0 must run on the tree backend");
        }
    }

    /// Reserve/release-heavy mix with short horizons, no outages: forces
    /// dense stacking, exact-inverse releases and seam coalescing (the
    /// PR-3 edge cases) far more often than the uniform mix.
    #[test]
    fn tree_agrees_with_vec_oracle_churn_mix(
        ops in prop::collection::vec((0u8..6, 0u64..40, 1u64..25, 1u32..=TOTAL), 1..150),
    ) {
        let mut pair = Pair::new();
        for op in ops {
            apply(&mut pair, op, false)?;
        }
        // Drain the ledger completely: releasing everything must
        // coalesce the representation back to a single flat breakpoint
        // on both backends.
        let origin = pair.tree.origin();
        for (start, dur, procs) in std::mem::take(&mut pair.live) {
            let end = start + dur;
            if end > origin {
                let eff = start.max(origin);
                pair.tree.release(eff, end.since(eff), procs);
                pair.vec.release(eff, end.since(eff), procs);
            }
        }
        prop_assert_eq!(pair.tree.len(), 1, "full release must coalesce to flat");
        prop_assert_eq!(pair.tree.points(), pair.vec.points().to_vec());
        pair.check()?;
    }
}

/// A `(start, dur, procs)` carving window.
type Window = (SimTime, Duration, u32);

/// A profile of the given backend, grown by first-fit reservations from
/// `seed` ops (so it has realistic stacked breakpoints), plus the ledger
/// of what it holds.
fn grown(mk: fn() -> Profile, seed: &[(u64, u64, u32)]) -> (Profile, Vec<Window>) {
    let mut p = mk();
    let mut live = Vec::new();
    for &(a, b, c) in seed {
        let dur = Duration(b);
        let start = p.first_fit(SimTime(a), dur, c);
        p.reserve(start, dur, c);
        live.push((start, dur, c));
    }
    (p, live)
}

/// The three backends the batch entry points must agree on: the inline
/// buffer (default crossover), the tree from birth, and a tiny
/// crossover that promotes mid-sequence.
const BACKENDS: [fn() -> Profile; 3] = [
    || Profile::flat(TOTAL, SimTime(0)),
    || Profile::flat_tree(TOTAL, SimTime(0)),
    || Profile::flat_with_crossover(TOTAL, SimTime(0), 6),
];

/// Apply `windows` one call at a time and as one batch to clones of
/// `base`; both must panic together or agree on every observable.
fn batch_matches_sequence(
    base: &Profile,
    windows: &[Window],
    release: bool,
) -> Result<(), TestCaseError> {
    let sequential = catch_unwind(AssertUnwindSafe(|| {
        let mut p = base.clone();
        for &(start, dur, procs) in windows {
            if release {
                p.release(start, dur, procs);
            } else {
                p.reserve(start, dur, procs);
            }
        }
        p
    }));
    let batched = catch_unwind(AssertUnwindSafe(|| {
        let mut p = base.clone();
        if release {
            p.release_all(windows);
        } else {
            p.reserve_all(windows);
        }
        p
    }));
    match (sequential, batched) {
        (Ok(seq), Ok(bat)) => {
            prop_assert_eq!(bat.points(), seq.points());
            prop_assert_eq!(bat.len(), seq.len());
            prop_assert_eq!(bat.origin(), seq.origin());
            bat.assert_invariants();
        }
        (Err(_), Err(_)) => {}
        (seq, bat) => {
            return Err(TestCaseError::fail(format!(
                "panic parity broken: sequential panicked {}, batch panicked {}",
                seq.is_err(),
                bat.is_err()
            )))
        }
    }
    Ok(())
}

fn seed_strategy() -> impl Strategy<Value = Vec<(u64, u64, u32)>> {
    prop::collection::vec((0u64..400, 1u64..120, 1u32..=TOTAL), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary windows — zero-length and zero-width ones included, many
    /// overlapping enough to over-reserve — carved as one batch equal the
    /// same windows carved one by one, or both panic.
    #[test]
    fn reserve_all_matches_sequential_reserves(
        seed in seed_strategy(),
        raw in prop::collection::vec((0u64..500, 0u64..150, 0u32..=TOTAL / 2), 0..30),
    ) {
        let windows: Vec<Window> =
            raw.iter().map(|&(a, b, c)| (SimTime(a), Duration(b), c)).collect();
        for mk in BACKENDS {
            let (base, _) = grown(mk, &seed);
            batch_matches_sequence(&base, &windows, false)?;
        }
    }

    /// Releasing a subset of the held windows (plus, sometimes, one that
    /// was never reserved) as one batch equals releasing them one by
    /// one; the full ledger coalesces back to a single flat breakpoint.
    #[test]
    fn release_all_matches_sequential_releases(
        seed in seed_strategy(),
        keep in 0u64..4,
        bogus in (0u64..8, 0u64..500, 1u64..100, 1u32..=TOTAL),
    ) {
        for mk in BACKENDS {
            let (base, live) = grown(mk, &seed);
            let mut windows: Vec<Window> = live
                .iter()
                .enumerate()
                .filter(|(i, _)| keep == 0 || (*i as u64) % 4 != keep)
                .map(|(_, &w)| w)
                .collect();
            if bogus.0 == 0 {
                windows.push((SimTime(bogus.1), Duration(bogus.2), bogus.3));
            }
            batch_matches_sequence(&base, &windows, true)?;
            if keep == 0 && bogus.0 != 0 {
                let mut flat = base.clone();
                flat.release_all(&windows);
                prop_assert_eq!(flat.points(), vec![(SimTime(0), TOTAL)]);
            }
        }
    }
}

/// The batch checks every window against the origin, like `reserve`.
#[test]
#[should_panic(expected = "before profile origin")]
fn reserve_all_rejects_windows_before_the_origin() {
    let mut p = Profile::flat(TOTAL, SimTime(0));
    p.advance_origin(SimTime(50));
    p.reserve_all(&[
        (SimTime(60), Duration(5), 1),
        (SimTime(40), Duration(20), 1),
    ]);
}

/// Over-reservation and over-release panic on every backend.
#[test]
fn batches_panic_on_over_commitment_on_every_backend() {
    for mk in BACKENDS {
        let over = catch_unwind(AssertUnwindSafe(|| {
            mk().reserve_all(&[
                (SimTime(0), Duration(10), TOTAL),
                (SimTime(9), Duration(3), 1),
            ])
        }));
        let msg = over.expect_err("over-reservation must panic");
        let text = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("over-reservation"), "{text}");
        let over = catch_unwind(AssertUnwindSafe(|| {
            mk().release_all(&[(SimTime(0), Duration(10), 1)])
        }));
        let msg = over.expect_err("over-release must panic");
        let text = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("over-release"), "{text}");
    }
}

/// A batch that crosses the crossover promotes once, and the promoted
/// tree holds the sequential breakpoints.
#[test]
fn reserve_all_promotes_across_the_crossover() {
    let windows: Vec<Window> = (0..10u64)
        .map(|i| (SimTime(i * 10), Duration(5), (i % 3 + 1) as u32))
        .collect();
    let mut batch = Profile::flat_with_crossover(TOTAL, SimTime(0), 4);
    let mut seq = Profile::flat_with_crossover(TOTAL, SimTime(0), 4);
    batch.reserve_all(&windows);
    for &(s, d, p) in &windows {
        seq.reserve(s, d, p);
    }
    assert!(batch.backend_is_tree());
    assert_eq!(batch.take_promotions(), 1);
    assert_eq!(batch.points(), seq.points());
    assert_eq!(
        batch.len(),
        20,
        "ten disjoint windows, the first at the origin"
    );
    batch.assert_invariants();
}
