//! Differential test of the FCFS end-event sweep.
//!
//! `FcfsScheduler::schedule` places a queue suffix with one sweep over
//! the rising steps of the availability profile instead of one first fit
//! and one reservation per job. This file checks the sweep against an
//! oracle that knows nothing of it: a fresh flat profile (the legacy
//! sorted-`Vec` backend), the outage block, the running reservations,
//! then per-job `first_fit` plus `reserve` in queue order, each job no
//! earlier than its predecessor.
//!
//! * `clusters_match_the_first_fit_oracle_after_every_op` drives random
//!   FCFS clusters through submits, cancels, early completions,
//!   `start_due` and `fail_until` outages, and after every op compares
//!   the reserved starts and the profile breakpoints with the oracle. It
//!   also pins `first_fit_probes`: one probe per tail placement and per
//!   job a rebuild or suffix repair re-places. A twin cluster with
//!   incremental maintenance off rebuilds on every change, so both the
//!   rebuild (`from == 0`) and the suffix-repair path are exercised.
//! * `scheduler_matches_the_first_fit_oracle_on_every_backend` calls the
//!   scheduler directly with random `from` indices on the inline buffer,
//!   the tree and a promoting crossover.

use caniou_realloc::batch::{
    BatchPolicy, Cluster, ClusterSpec, JobId, JobSpec, Profile, QueueScan, VecProfile,
};
use caniou_realloc::des::{Duration, SimRng, SimTime};

/// The oracle schedule: reserved starts and breakpoints of a rebuild at
/// `now` from the running set, the outage and the queue.
fn oracle(
    total: u32,
    now: SimTime,
    outage_until: Option<SimTime>,
    running: &[(SimTime, u32)],
    queue: &[(u32, Duration)],
) -> (Vec<SimTime>, Vec<(SimTime, u32)>) {
    let mut profile = VecProfile::flat(total, now);
    if let Some(until) = outage_until.filter(|&u| u > now) {
        profile.reserve(now, until.since(now), total);
    }
    for &(reserved_end, procs) in running {
        profile.reserve(now, reserved_end.since(now), procs);
    }
    let mut prev = now;
    let mut starts = Vec::with_capacity(queue.len());
    for &(procs, walltime) in queue {
        let start = profile.first_fit(prev, walltime, procs);
        profile.reserve(start, walltime, procs);
        starts.push(start);
        prev = start;
    }
    (starts, profile.points().to_vec())
}

/// What the op just applied leaves for the next schedule query to redo.
#[derive(Clone, Copy)]
enum Pending {
    /// Nothing queued was disturbed.
    None,
    /// The queue from this index on may move (cancel at the index, early
    /// completion from 0).
    From(usize),
}

/// One cluster under test plus the bookkeeping its probe check needs.
struct Subject {
    cluster: Cluster,
    probes: u64,
    recomputes: u64,
    repairs: u64,
}

impl Subject {
    fn new(spec: &ClusterSpec, incremental: bool) -> Subject {
        let mut cluster = Cluster::new(spec.clone(), BatchPolicy::Fcfs);
        cluster.set_incremental(incremental);
        Subject {
            cluster,
            probes: 0,
            recomputes: 0,
            repairs: 0,
        }
    }

    /// Bring the schedule up to date at `now` and compare it, and the
    /// probes the op and the update cost, with the oracle. `tail` is the
    /// number of tail placements the op made.
    fn check(&mut self, now: SimTime, pending: Pending, tail: u64, what: &str) {
        let c = &mut self.cluster;
        let points = c.schedule_profile(now).points();
        let total = c.spec().procs;
        let running: Vec<(SimTime, u32)> = c
            .running_jobs()
            .map(|r| (r.reserved_end, r.scaled.procs))
            .collect();
        let queue: Vec<(u32, Duration)> = c
            .waiting_jobs()
            .map(|q| (q.scaled.procs, q.scaled.walltime))
            .collect();
        let reserved: Vec<SimTime> = c.waiting_jobs().map(|q| q.reserved_start).collect();
        let (starts, oracle_points) = oracle(total, now, c.unavailable_until(), &running, &queue);
        assert_eq!(reserved, starts, "{what}: reserved starts at {now}");
        assert_eq!(
            points, oracle_points,
            "{what}: profile breakpoints at {now}"
        );
        c.assert_invariants(now);

        // Probes: one per tail placement, plus one per job the update
        // re-placed — the whole queue for a rebuild, the suffix for a
        // repair.
        let stats = *c.stats();
        let rebuilt = stats.recomputes - self.recomputes;
        let repaired = stats.suffix_repairs - self.repairs;
        assert!(rebuilt + repaired <= 1, "{what}: one update per op");
        let n = queue.len() as u64;
        let mut expected = tail + rebuilt * n;
        if repaired == 1 {
            let Pending::From(from) = pending else {
                panic!("{what}: repair without a pending change");
            };
            expected += n - from as u64;
        }
        assert_eq!(
            stats.first_fit_probes - self.probes,
            expected,
            "{what}: first_fit_probes at {now}"
        );
        self.probes = stats.first_fit_probes;
        self.recomputes = stats.recomputes;
        self.repairs = stats.suffix_repairs;
    }
}

#[test]
fn clusters_match_the_first_fit_oracle_after_every_op() {
    let mut totals = (0u64, 0u64, 0u64);
    for case in 0..24u64 {
        let mut rng = SimRng::derive(0x5EED_F0F5, case);
        let procs = rng.gen_range(4..48u32);
        let speed = 1.0 + rng.gen_range(0..4u32) as f64 * 0.25;
        let spec = ClusterSpec::new(format!("fcfs{case}"), procs, speed);
        let mut subjects = [Subject::new(&spec, true), Subject::new(&spec, false)];
        let mut now = SimTime(0);
        let mut next_id = 0u64;
        for s in &mut subjects {
            s.check(now, Pending::None, 0, &format!("case {case} start"));
        }
        for step in 0..300 {
            let roll = rng.gen_range(0..100u32);
            let c = &subjects[0].cluster;
            let (pending, tail, what) = if roll < 45 {
                // Submit: runtime up to the walltime (early completion)
                // or past it (killed at the walltime).
                let job_procs = rng.gen_range(1..procs + 1);
                let walltime = rng.gen_range(60..5_000u64);
                let runtime = rng.gen_range(1..walltime + walltime / 4);
                let job = JobSpec::new(next_id, now.0, job_procs, runtime, walltime);
                next_id += 1;
                for s in &mut subjects {
                    s.cluster.submit(job, now).expect("fits the cluster");
                }
                (Pending::None, 1, "submit")
            } else if roll < 57 && c.waiting_count() > 0 {
                let idx = rng.gen_range(0..c.waiting_count());
                let id = c.waiting_jobs().nth(idx).expect("in range").job.id;
                for s in &mut subjects {
                    s.cluster.cancel(id, now).expect("waiting here");
                }
                (Pending::From(idx), 0, "cancel")
            } else if roll < 59 {
                let until = now + Duration(rng.gen_range(1..3_000u64));
                for s in &mut subjects {
                    s.cluster.fail_until(until, now);
                }
                (Pending::None, 0, "fail_until")
            } else {
                // Advance to the next event: a completion first, then
                // the starts due at that instant.
                let next_end = c.running_jobs().map(|r| r.end).min();
                let next_start = subjects[0].cluster.next_reservation(now);
                subjects[1].cluster.next_reservation(now);
                let Some(at) = [next_end, next_start].into_iter().flatten().min() else {
                    now += Duration(rng.gen_range(1..600u64));
                    continue;
                };
                now = at;
                let done: Option<JobId> = subjects[0]
                    .cluster
                    .running_jobs()
                    .find(|r| r.end == now)
                    .map(|r| r.job.id);
                match done {
                    Some(id) => {
                        for s in &mut subjects {
                            s.cluster.complete(id, now);
                        }
                        (Pending::From(0), 0, "complete")
                    }
                    None => {
                        let started = subjects[0].cluster.start_due(now);
                        assert_eq!(subjects[1].cluster.start_due(now), started);
                        (Pending::None, 0, "start_due")
                    }
                }
            };
            for s in &mut subjects {
                s.check(
                    now,
                    pending,
                    tail,
                    &format!("case {case} step {step} {what}"),
                );
            }
        }
        let warm = subjects[0].cluster.stats();
        totals.0 += warm.suffix_repairs;
        totals.1 += warm.recomputes;
        totals.2 += subjects[1].cluster.stats().recomputes;
    }
    assert!(totals.0 > 0, "no suffix repair was exercised");
    assert!(totals.1 > 0, "no warm rebuild was exercised");
    assert!(totals.2 > totals.1, "the cold twin must rebuild more");
}

#[test]
fn scheduler_matches_the_first_fit_oracle_on_every_backend() {
    let fcfs = BatchPolicy::Fcfs.scheduler();
    for case in 0..200u64 {
        let mut rng = SimRng::derive(0xF0F5_5EED, case);
        let total = rng.gen_range(2..40u32);
        let now = SimTime(rng.gen_range(0..1_000u64));
        let outage = rng
            .gen_bool(0.2)
            .then(|| now + Duration(rng.gen_range(1..500u64)));
        // An outage evicts every running job, so a profile holds one or
        // the other.
        let running_jobs = if outage.is_some() {
            0
        } else {
            rng.gen_range(0..6usize)
        };
        let running: Vec<(SimTime, u32)> = (0..running_jobs)
            .map(|_| {
                (
                    now + Duration(rng.gen_range(1..2_000u64)),
                    rng.gen_range(1..total / 3 + 2),
                )
            })
            .scan(0u32, |busy, (end, procs)| {
                let procs = procs.min(total - *busy);
                *busy += procs;
                Some((end, procs))
            })
            .filter(|&(_, procs)| procs > 0)
            .collect();
        let queue: Vec<(u32, Duration)> = (0..rng.gen_range(0..60usize))
            .map(|_| {
                (
                    rng.gen_range(1..total + 1),
                    Duration(rng.gen_range(1..3_000u64)),
                )
            })
            .collect();
        let from = rng.gen_range(0..queue.len() + 1);
        let (starts, points) = oracle(total, now, outage, &running, &queue);

        for crossover in [2048, 0, 6] {
            // The profile the scheduler is handed: running set, outage
            // and the prefix `queue[..from]` already carved.
            let mut profile = Profile::flat_with_crossover(total, now, crossover);
            if let Some(until) = outage {
                profile.reserve(now, until.since(now), total);
            }
            for &(end, procs) in &running {
                profile.reserve(now, end.since(now), procs);
            }
            for (&(procs, walltime), &start) in queue.iter().zip(&starts).take(from) {
                profile.reserve(start, walltime, procs);
            }
            let _ = profile.take_probes();
            let procs: Vec<u32> = queue.iter().map(|q| q.0).collect();
            let walltime: Vec<Duration> = queue.iter().map(|q| q.1).collect();
            let mut reserved = starts.clone();
            reserved[from..].fill(SimTime::MAX);
            fcfs.schedule(
                &mut profile,
                QueueScan {
                    procs: &procs,
                    walltime: &walltime,
                    reserved: &mut reserved,
                },
                from,
                now,
            );
            let what = format!("case {case} crossover {crossover} from {from}");
            assert_eq!(reserved, starts, "{what}: reserved starts");
            assert_eq!(profile.points(), points, "{what}: breakpoints");
            assert_eq!(
                profile.take_probes(),
                (queue.len() - from) as u64,
                "{what}: one probe per placement"
            );
            profile.assert_invariants();
        }
    }
}
