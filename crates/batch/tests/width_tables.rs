//! Property test of the ECT width tables
//! ([`Cluster::estimate_width_starts`]): on random FCFS clusters, every
//! width's start must equal a first fit from the frozen tail floor,
//! whatever the walltime, on the inline buffer, on the tree and across a
//! promoting crossover.
//!
//! The profile crossover is process-wide, so this file holds a single
//! test.

use grid_batch::profile::set_default_crossover;
use grid_batch::{BatchPolicy, Cluster, ClusterSpec, JobId, JobSpec};
use grid_des::{Duration, SimTime};
use proptest::prelude::*;

const PROCS: u32 = 16;

/// Run the cluster forward to `until`: completions and due starts in
/// time order.
fn advance(c: &mut Cluster, from: SimTime, until: SimTime) {
    let mut t = from;
    loop {
        let end = c.running_jobs().map(|r| (r.end, r.job.id)).min();
        let start = c.next_reservation(t);
        let next = end.map(|(e, _)| e).into_iter().chain(start).min();
        let Some(next) = next.filter(|&x| x <= until) else {
            break;
        };
        t = next.max(t);
        match end {
            Some((e, id)) if e <= t => {
                c.complete(id, e);
            }
            _ => {
                assert!(!c.start_due(t).is_empty(), "a due reservation must start");
            }
        }
    }
}

/// Build the width table for the widths in `mask` and check every start
/// against `Profile::first_fit` from the floor for each walltime in
/// `durs`, and the probe accounting (one probe per width).
fn check(c: &mut Cluster, now: SimTime, mask: u32, durs: &[u64], what: &str) {
    let widths: Vec<u32> = (1..=PROCS).filter(|w| mask & (1 << (w - 1)) != 0).collect();
    c.prepare_estimates(now);
    let before = c.stats().first_fit_probes;
    let mut starts = Vec::new();
    c.estimate_width_starts(&widths, now, &mut starts);
    c.prepare_estimates(now); // folds the snapshot's probes in
    assert_eq!(
        c.stats().first_fit_probes - before,
        widths.len() as u64,
        "{what}: one probe per width"
    );
    assert_eq!(starts.len(), widths.len(), "{what}: one start per width");
    let floor = c.estimate_floor();
    let profile = c.schedule_profile(now);
    for (&width, &start) in widths.iter().zip(&starts) {
        for &d in durs {
            let fit = profile.first_fit(floor, Duration(d), width);
            assert_eq!(start, fit, "{what}: width {width}, walltime {d}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn width_starts_match_first_fit_from_the_floor(
        ops in prop::collection::vec((0u8..6, 1u32..=PROCS, 1u64..2_000, 1u64..900), 1..50),
        mask in 1u32..(1 << PROCS),
        durs in prop::collection::vec(1u64..10_000, 1..4),
    ) {
        for crossover in [2048, 0, 6] {
            set_default_crossover(crossover);
            let mut c = Cluster::new(ClusterSpec::new("w", PROCS, 1.0), BatchPolicy::Fcfs);
            let mut now = SimTime(0);
            let mut queued: Vec<JobId> = Vec::new();
            for (k, &(op, procs, walltime, gap)) in ops.iter().enumerate() {
                match op {
                    // Submit: half the jobs finish early, so completions
                    // release windows before their walltime.
                    0..=2 => {
                        let runtime = if k % 2 == 0 { walltime } else { walltime / 2 };
                        let job = JobSpec::new(k as u64, now.as_secs(), procs, runtime, walltime);
                        c.submit(job, now).unwrap();
                        queued.push(job.id);
                    }
                    // Cancel a waiting job, if any: FCFS floors may fall.
                    3 => {
                        if let Some(&id) = queued.get(gap as usize % queued.len().max(1)) {
                            c.cancel(id, now);
                        }
                    }
                    // Advance the clock.
                    4 => {
                        let until = SimTime(now.as_secs() + gap);
                        advance(&mut c, now, until);
                        now = until;
                    }
                    // A short outage, now and then.
                    _ => {
                        if k % 3 == 0 {
                            c.fail_until(SimTime(now.as_secs() + gap), now);
                        }
                    }
                }
                queued.retain(|&id| c.waiting_jobs().any(|q| q.job.id == id));
                check(&mut c, now, mask, &durs, &format!("crossover {crossover}, op {k}"));
            }
            if crossover == 0 {
                prop_assert!(c.schedule_profile(now).backend_is_tree());
            }
        }
        set_default_crossover(usize::MAX);
    }
}
