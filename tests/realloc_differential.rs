//! Differential test of the incremental reallocation round.
//!
//! The default ECT engine serves FCFS sites from width tables rebuilt at
//! every submit or cancel, keeps cached estimates on the other sites
//! across submits by slack certificate, resumes stale probes from their
//! old start, and re-ranks only the jobs whose estimates changed. The
//! historical engine
//! (`set_ect_snapshot_enabled(false)`) drops a whole column after every
//! mutation and re-ranks every job at every decision. This test drives
//! random deep-queue grids through several reallocation ticks and runs
//! each tick under both engines: the tick reports and the final queues,
//! reservations and running sets must be identical.
//!
//! The engine switch is process-wide, so this file holds a single test.

use caniou_realloc::batch::{BatchPolicy, Cluster, ClusterSpec, EctNoise, JobId, JobSpec};
use caniou_realloc::des::{SimRng, SimTime};
use caniou_realloc::realloc::ect::set_ect_snapshot_enabled;
use caniou_realloc::realloc::realloc::run_tick;
use caniou_realloc::realloc::{Heuristic, ReallocAlgorithm, ReallocConfig, TickReport};

/// Seconds between reallocation ticks (the paper's hourly period).
const PERIOD: u64 = 3_600;

/// Ticks per case.
const TICKS: usize = 4;

/// How a grid draws its queued jobs' widths and configures its sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Widths up to half the largest site: some are wider than the
    /// smaller sites, so "cannot run there" entries exist too.
    Mixed,
    /// Widths from a menu of four, so many rows share a width-table slot.
    Narrow,
    /// Widths mostly above the smallest site's size.
    Wide,
    /// Like `Mixed`, but every other site keeps walltimes sized for the
    /// reference machine (`set_walltime_adjustment(false)`).
    Unadjusted,
}

impl Shape {
    const ALL: [Shape; 4] = [Shape::Mixed, Shape::Narrow, Shape::Wide, Shape::Unadjusted];

    /// A queued job's width on a grid whose sites span `min..=max`
    /// processors.
    fn width(self, rng: &mut SimRng, min: u32, max: u32) -> u32 {
        match self {
            Shape::Mixed | Shape::Unadjusted => rng.gen_range(1..max / 2 + 2).min(max),
            Shape::Narrow => [1, 2, 4, max / 2][rng.gen_range(0..4usize)],
            Shape::Wide if min < max && rng.gen_bool(0.75) => rng.gen_range(min + 1..max + 1),
            Shape::Wide => rng.gen_range(1..min + 1),
        }
    }
}

/// A grid of 3–4 sites with running jobs and deep, skewed queues.
fn grid(rng: &mut SimRng, policies: &[BatchPolicy], noise: bool, shape: Shape) -> Vec<Cluster> {
    let sites = rng.gen_range(3..5usize);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|s| {
            let procs = rng.gen_range(8..65u32);
            let speed = 1.0 + rng.gen_range(0..5u32) as f64 * 0.25;
            let mut c = Cluster::new(
                ClusterSpec::new(format!("site{s}"), procs, speed),
                policies[s % policies.len()],
            );
            if noise {
                c.set_ect_noise(Some(EctNoise::new(rng.next_u64(), 0.3)));
            }
            if shape == Shape::Unadjusted && s % 2 == 1 {
                c.set_walltime_adjustment(false);
            }
            c
        })
        .collect();
    let widths = Widths::of(&clusters, shape);
    let mut id = 0u64;
    for c in &mut clusters {
        for _ in 0..rng.gen_range(1..4usize) {
            let procs = rng.gen_range(1..c.spec().procs + 1);
            let runtime = rng.gen_range(600..9_000u64);
            c.submit(
                JobSpec::new(id, 0, procs, runtime, runtime + 600),
                SimTime(0),
            )
            .unwrap();
            id += 1;
        }
        c.start_due(SimTime(0));
    }
    let depth = rng.gen_range(32..97usize);
    for _ in 0..depth {
        submit_random(rng, &mut clusters, id, 1, widths);
        id += 1;
    }
    for c in &mut clusters {
        c.start_due(SimTime(1));
    }
    clusters
}

/// How `submit_random` draws widths on one grid.
#[derive(Debug, Clone, Copy)]
struct Widths {
    shape: Shape,
    min: u32,
    max: u32,
}

impl Widths {
    fn of(clusters: &[Cluster], shape: Shape) -> Widths {
        let procs = clusters.iter().map(|c| c.spec().procs);
        Widths {
            shape,
            min: procs.clone().min().unwrap(),
            max: procs.max().unwrap(),
        }
    }
}

/// Queue one random job at instant `at`, half of them on site 0, on a
/// site wide enough to take it.
fn submit_random(rng: &mut SimRng, clusters: &mut [Cluster], id: u64, at: u64, widths: Widths) {
    let procs = widths.shape.width(rng, widths.min, widths.max);
    let runtime = rng.gen_range(60..4_000u64);
    let walltime = runtime + rng.gen_range(0..runtime + 1);
    let fits: Vec<usize> = (0..clusters.len())
        .filter(|&s| clusters[s].spec().procs >= procs)
        .collect();
    let site = if fits.contains(&0) && rng.gen_bool(0.5) {
        0
    } else {
        fits[rng.gen_range(0..fits.len())]
    };
    clusters[site]
        .submit(JobSpec::new(id, at, procs, runtime, walltime), SimTime(at))
        .unwrap();
}

/// Run every site forward to `until`: completions and due starts in
/// time order.
fn advance(clusters: &mut [Cluster], from: SimTime, until: SimTime) {
    for c in clusters {
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
}

/// One site after a tick: its queue (ids and reservations) and its
/// running set.
type SiteState = (Vec<(u64, SimTime)>, Vec<u64>);

/// Everything a tick leaves behind, per site (schedules forced clean).
fn state(clusters: &mut [Cluster], now: SimTime) -> Vec<SiteState> {
    clusters
        .iter_mut()
        .map(|c| {
            c.next_reservation(now);
            let queue = c
                .waiting_jobs()
                .map(|q| (q.job.id.0, q.reserved_start))
                .collect();
            let running = c.running_jobs().map(|r| r.job.id.0).collect();
            (queue, running)
        })
        .collect()
}

fn probes(clusters: &[Cluster]) -> u64 {
    clusters.iter().map(|c| c.stats().first_fit_probes).sum()
}

/// One tick under the given engine, on a copy of `clusters`.
fn tick(
    clusters: &[Cluster],
    cfg: &ReallocConfig,
    now: SimTime,
    incremental: bool,
) -> (Vec<Cluster>, TickReport, u64) {
    let mut grid = clusters.to_vec();
    let before = probes(&grid);
    set_ect_snapshot_enabled(incremental);
    let report = run_tick(&mut grid, cfg, now);
    set_ect_snapshot_enabled(true);
    let spent = probes(&grid) - before;
    (grid, report, spent)
}

#[test]
fn incremental_rounds_match_the_historical_engine_tick_for_tick() {
    // EASY is the opt-out: its sites never keep entries by certificate,
    // with or without noise. It runs with the noise hook only: EASY's
    // dry run is conservative (an aggressive submit may start the job
    // earlier than estimated), which the contract check's debug
    // assertion treats as fatal on a noise-free site in both engines.
    let policies: [(&str, Vec<BatchPolicy>, &[bool]); 4] = [
        ("FCFS", vec![BatchPolicy::Fcfs], &[false, true]),
        ("CBF", vec![BatchPolicy::Cbf], &[false, true]),
        (
            "FCFS+CBF",
            vec![BatchPolicy::Fcfs, BatchPolicy::Cbf],
            &[false, true],
        ),
        ("EASY", vec![BatchPolicy::Easy], &[true]),
    ];
    let algorithms = [
        ReallocAlgorithm::NoCancel,
        ReallocAlgorithm::CancelAll,
        ReallocAlgorithm::LoadThreshold,
    ];
    let mut heuristics = Heuristic::ALL.to_vec();
    heuristics.push(Heuristic::resolve_expr("Sufferage(rank=2)").unwrap());

    let mut rng = SimRng::seed_from_u64(0xD1FF);
    let (mut incremental_probes, mut legacy_probes) = (0u64, 0u64);
    let mut migrations = 0usize;
    for (shape, (name, policy, noises)) in Shape::ALL
        .into_iter()
        .flat_map(|shape| policies.iter().map(move |p| (shape, p)))
    {
        for &noise in *noises {
            for algorithm in algorithms {
                for &heuristic in &heuristics {
                    let case = format!("{shape:?}/{name}/{algorithm}/{heuristic}/noise={noise}");
                    let cfg = ReallocConfig::new(algorithm, heuristic);
                    let mut clusters = grid(&mut rng, policy, noise, shape);
                    let widths = Widths::of(&clusters, shape);
                    // The grid's arrivals came in at t = 1.
                    let mut clock = SimTime(1);
                    let mut now = SimTime(PERIOD);
                    let mut next_id = 10_000u64;
                    for t in 0..TICKS {
                        advance(&mut clusters, clock, now);
                        let (mut fast, fast_report, fast_probes) = tick(&clusters, &cfg, now, true);
                        let (mut slow, slow_report, slow_probes) =
                            tick(&clusters, &cfg, now, false);
                        assert_eq!(fast_report, slow_report, "{case}: tick {t} report");
                        assert_eq!(
                            state(&mut fast, now),
                            state(&mut slow, now),
                            "{case}: tick {t} queues"
                        );
                        incremental_probes += fast_probes;
                        legacy_probes += slow_probes;
                        migrations += fast_report.migrations.len();
                        clusters = fast;
                        // Jobs the tick placed at its own instant start now.
                        for c in &mut clusters {
                            c.start_due(now);
                        }
                        // Fresh arrivals keep the queues deep.
                        clock = SimTime(now.as_secs() + 1);
                        for _ in 0..rng.gen_range(4..12usize) {
                            let at = clock.as_secs();
                            submit_random(&mut rng, &mut clusters, next_id, at, widths);
                            next_id += 1;
                        }
                        now = SimTime(now.as_secs() + PERIOD);
                    }
                }
            }
        }
    }
    assert!(migrations > 0, "the grids must make the rounds move jobs");
    assert!(
        incremental_probes < legacy_probes,
        "certificates and width tables must save probes: {incremental_probes} vs {legacy_probes}"
    );
    no_cancel_moves_that_lower_the_source_floor(&heuristics);
}

/// Three FCFS sites at t = 3600. Site 0 holds a queue whose later jobs
/// wait behind a full-width one (floor 7000); site 1 is idle; site 2 is
/// blocked until 8000 and holds job 13, which ranks by site 0's width
/// table. Moving site 0's jobs away lowers its floor, so its table is
/// rebuilt from a lower floor after each cancel.
fn floor_lowering_grid() -> Vec<Cluster> {
    let fcfs = |name: &str, procs: u32| {
        Cluster::new(ClusterSpec::new(name, procs, 1.0), BatchPolicy::Fcfs)
    };
    let mut clusters = vec![fcfs("src", 8), fcfs("idle", 8), fcfs("blocked", 4)];
    for (c, (id, procs, end)) in [(0, (1, 8, 5_000)), (1, (2, 8, 3_000)), (2, (3, 4, 8_000))] {
        clusters[c]
            .submit(JobSpec::new(id, 0, procs, end, end), SimTime(0))
            .unwrap();
        clusters[c].start_due(SimTime(0));
    }
    // Site 0: starts 5000, 6000 and 7000.
    for (id, procs) in [(10, 2), (11, 8), (12, 2)] {
        clusters[0]
            .submit(JobSpec::new(id, 1, procs, 900, 1_000), SimTime(1))
            .unwrap();
    }
    clusters[2]
        .submit(JobSpec::new(13, 1, 2, 400, 500), SimTime(1))
        .unwrap();
    clusters[1].complete(JobId(2), SimTime(3_000));
    clusters
}

/// Algorithm 1 on [`floor_lowering_grid`] under every heuristic: both
/// engines agree, and the round does lower site 0's floor.
fn no_cancel_moves_that_lower_the_source_floor(heuristics: &[Heuristic]) {
    let now = SimTime(PERIOD);
    let floor = |clusters: &mut [Cluster]| {
        clusters[0].next_reservation(now);
        clusters[0].waiting_jobs().map(|q| q.reserved_start).max()
    };
    for &heuristic in heuristics {
        let case = format!("floor-lowering/{heuristic}");
        let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, heuristic);
        let mut clusters = floor_lowering_grid();
        assert_eq!(floor(&mut clusters), Some(SimTime(7_000)));
        let (mut fast, fast_report, _) = tick(&clusters, &cfg, now, true);
        let (mut slow, slow_report, _) = tick(&clusters, &cfg, now, false);
        assert_eq!(fast_report, slow_report, "{case}: report");
        assert_eq!(
            state(&mut fast, now),
            state(&mut slow, now),
            "{case}: queues"
        );
        assert!(
            fast_report.migrations.iter().any(|m| m.from == 0),
            "{case}: site 0 must lose a job"
        );
        assert!(
            floor(&mut fast).is_none_or(|f| f < SimTime(7_000)),
            "{case}: site 0's floor must fall"
        );
    }
}
