//! `realloc` — the reallocation-round perf contract.
//!
//! One binary, two ECT engine configurations, identical grids:
//!
//! * **mutable** — the historical path, reconstructed through the
//!   doc-hidden toggle: `EctView` answers each (job, cluster) cache miss
//!   with an individual `Cluster::estimate_new(&mut)` call, every descent
//!   restarting from the policy's tail floor; every mutation drops the
//!   whole column, and every remaining job is re-ranked at every
//!   decision.
//! * **snapshot** — the default incremental engine: the cluster freezes
//!   its availability profile behind an O(1) copy-on-write snapshot and
//!   `EctView` re-ranks only the jobs whose estimates changed. FCFS
//!   sites (every site here) answer from width tables: one first-fit
//!   start per distinct job width, rebuilt in one merge after each
//!   submit or cancel, plus the job's scaled walltime. Other sites fill
//!   cold columns in one batched pass and keep every entry a slack
//!   certificate covers across submits (the rest resume their descent
//!   from their old start).
//!
//! The workload drives single reallocation ticks over grids of 3/6/9
//! sites with 128/512/2048 waiting jobs, under both paper algorithms
//! and representative heuristics. For every layer the two
//! configurations must produce **identical outcomes** — migrations,
//! final queue contents and reservations are hashed and compared, so
//! width-table answers are checked against per-entry dry runs — and at
//! the 512-deep layer the incremental engine must run the tick at least
//! **1.5×** faster (summed over site counts and configs).
//!
//! Timings are the *minimum* of the measured passes (co-tenant noise on
//! a shared runner only ever slows a pass down). `BENCH_REALLOC_QUICK=1`
//! shrinks the workload (depths 128/512, one pass) and skips the
//! speed-up assertion — byte-identity is still enforced at every layer
//! that runs. Results land in `BENCH_realloc.json` (override with
//! `BENCH_REALLOC_JSON`), stamped with the host's CPU count (`nproc`)
//! and the build profile, so trajectories compare like with like.

use std::time::Instant;

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, JobSpec};
use grid_des::SimTime;
use grid_realloc::ect::set_ect_snapshot_enabled;
use grid_realloc::realloc::{run_tick, ReallocConfig, TickReport};
use grid_realloc::{Heuristic, ReallocAlgorithm};

/// Every grid is frozen (all sites fully busy) until well past this
/// instant, so no reservation can be missed when the tick fires.
const NOW: SimTime = SimTime(3_000);

fn quick() -> bool {
    std::env::var("BENCH_REALLOC_QUICK").is_ok_and(|v| v == "1")
}

/// Deterministic LCG stream (same constants as the repo's other
/// hand-rolled bench generators).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// A grid in the state that makes a reallocation round do real work:
/// every site fully occupied by a running head job with staggered
/// recovery horizons (so ECT gradients exist), and a waiting queue
/// skewed onto site 0 (half the jobs) with the rest spread around.
/// All sites run FCFS, so the incremental engine serves every column
/// from a width table while the historical path places each dry run
/// from the tail floor on its own.
fn grid(sites: usize, depth: usize) -> Vec<Cluster> {
    let mut rng = Lcg(0x5EED_CAFE ^ ((sites as u64) << 32) ^ depth as u64);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|i| {
            // Heterogeneous grid with one big fast site: placements
            // concentrate there, so its queue — and the per-estimate
            // FCFS floor scan the historical path keeps re-paying on
            // the hottest column — grows with the round.
            let (procs, speed) = if i == 0 {
                (256, 2.0)
            } else {
                (128 + (i as u32 % 3) * 32, 1.0 + (i % 4) as f64 * 0.15)
            };
            Cluster::new(
                ClusterSpec::new(format!("site{i}"), procs, speed),
                BatchPolicy::Fcfs,
            )
        })
        .collect();
    for (i, c) in clusters.iter_mut().enumerate() {
        let procs = c.spec().procs;
        let horizon = 5_000 + (i as u64) * 1_500;
        c.submit(
            JobSpec::new(9_000_000 + i as u64, 0, procs, horizon, horizon + 1_000),
            SimTime(0),
        )
        .unwrap();
        c.start_due(SimTime(0));
    }
    for id in 0..depth as u64 {
        let procs = (rng.next() % 48 + 1) as u32;
        let runtime = 300 + rng.next() % 2_400;
        let walltime = runtime + runtime / 4 + rng.next() % runtime;
        let site = if id % 2 == 0 {
            0
        } else {
            1 + (rng.next() as usize % (sites - 1))
        };
        clusters[site]
            .submit(JobSpec::new(id, id, procs, runtime, walltime), SimTime(id))
            .unwrap();
    }
    clusters
}

/// FNV-1a over everything the tick decided and everything it left
/// behind: the migration sequence, the report counters, and each
/// cluster's final queue (ids and reservations, schedule forced clean)
/// and running set.
fn state_digest(clusters: &mut [Cluster], report: &TickReport, now: SimTime) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for m in &report.migrations {
        mix(m.job.0);
        mix(m.from as u64);
        mix(m.to as u64);
    }
    mix(report.examined as u64);
    mix(report.attempted as u64);
    mix(report.rejected as u64);
    mix(report.contract_violations as u64);
    for c in clusters {
        // Outside the timed region; forces the schedule clean so the
        // reservations below are the ones the next event would see.
        c.next_reservation(now);
        for q in c.waiting_jobs() {
            mix(q.job.id.0);
            mix(q.reserved_start.as_secs());
        }
        for r in c.running_jobs() {
            mix(r.job.id.0);
        }
    }
    h
}

/// Best-of-`passes` wall time for one tick under one engine
/// configuration, plus the outcome digest.
fn measure(snapshot: bool, grid: &[Cluster], cfg: &ReallocConfig, passes: usize) -> (f64, u64) {
    set_ect_snapshot_enabled(snapshot);
    let mut best = f64::INFINITY;
    let mut digest = 0u64;
    for _ in 0..passes.max(1) {
        let mut g = grid.to_vec();
        let t0 = Instant::now();
        let report = run_tick(&mut g, cfg, NOW);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        if std::env::var("BENCH_REALLOC_DEBUG").is_ok() {
            let probes: u64 = g.iter().map(|c| c.stats().first_fit_probes).sum();
            let refills: u64 = g.iter().map(|c| c.stats().ect_column_refills).sum();
            let reuses: u64 = g.iter().map(|c| c.stats().ect_snapshot_reuses).sum();
            let recomputes: u64 = g.iter().map(|c| c.stats().recomputes).sum();
            let repairs: u64 = g.iter().map(|c| c.stats().suffix_repairs).sum();
            eprintln!(
                "    [snapshot={snapshot}] probes {probes} refills {refills} reuses {reuses} \
                 recomputes {recomputes} repairs {repairs}"
            );
        }
        digest = state_digest(&mut g, &report, NOW);
    }
    set_ect_snapshot_enabled(true);
    (best, digest)
}

fn main() {
    let quick = quick();
    let passes = if quick { 1 } else { 3 };
    let depths: &[usize] = if quick {
        &[128, 512]
    } else {
        &[128, 512, 2048]
    };
    let sites: &[usize] = &[3, 6, 9];
    let configs = [
        (
            "no-cancel/MCT",
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        ),
        (
            "no-cancel/MinMin",
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::MinMin),
        ),
        (
            "cancel-all/MinMin",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin),
        ),
        (
            "cancel-all/MaxMin",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MaxMin),
        ),
        (
            "cancel-all/Sufferage",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Sufferage),
        ),
    ];

    let mut json = grid_ser::Value::object();
    json.insert("schema", "bench-realloc/1");
    json.insert("quick", quick);
    json.insert(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    json.insert(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let mut layers = Vec::new();
    // Per-depth (mutable, snapshot) totals for the contract.
    let mut totals: std::collections::BTreeMap<usize, (f64, f64)> = Default::default();

    for &depth in depths {
        for &s in sites {
            let g = grid(s, depth);
            for (name, cfg) in &configs {
                let (mut_ms, mut_digest) = measure(false, &g, cfg, passes);
                let (snap_ms, snap_digest) = measure(true, &g, cfg, passes);
                assert_eq!(
                    mut_digest, snap_digest,
                    "incremental engine changed the answer: {s} sites, {depth} jobs, {name}"
                );
                let speedup = mut_ms / snap_ms.max(f64::MIN_POSITIVE);
                println!(
                    "bench: realloc {s} sites x {depth:>4} jobs {name:<20} mutable \
                     {mut_ms:>8.2} ms | snapshot {snap_ms:>8.2} ms ({speedup:.2}x)"
                );
                let t = totals.entry(depth).or_insert((0.0, 0.0));
                t.0 += mut_ms;
                t.1 += snap_ms;
                let mut layer = grid_ser::Value::object();
                layer.insert("sites", s as u64);
                layer.insert("depth", depth as u64);
                layer.insert("config", *name);
                layer.insert("mutable_ms", mut_ms);
                layer.insert("snapshot_ms", snap_ms);
                layer.insert("speedup", speedup);
                layer.insert("digest", format!("{mut_digest:016x}"));
                layers.push(layer);
            }
        }
    }
    json.insert("layers", layers);

    let mut contract = grid_ser::Value::object();
    for (&depth, &(mut_ms, snap_ms)) in &totals {
        let speedup = mut_ms / snap_ms.max(f64::MIN_POSITIVE);
        println!(
            "bench: realloc depth {depth:>4} total       mutable {mut_ms:>8.2} ms | snapshot \
             {snap_ms:>8.2} ms ({speedup:.2}x)"
        );
        let mut d = grid_ser::Value::object();
        d.insert("mutable_ms", mut_ms);
        d.insert("snapshot_ms", snap_ms);
        d.insert("speedup", speedup);
        contract.insert(format!("depth_{depth}"), d);
        if depth == 512 && !quick {
            assert!(
                speedup >= 1.5,
                "incremental engine must run the 512-deep tick >= 1.5x faster \
                 (measured {speedup:.2}x)"
            );
        }
    }
    json.insert("totals", contract);
    if quick {
        println!("bench: quick mode — speed-up assertion skipped (byte-identity enforced)");
    }

    let path =
        std::env::var("BENCH_REALLOC_JSON").unwrap_or_else(|_| "BENCH_realloc.json".to_string());
    std::fs::write(&path, json.encode()).expect("write BENCH_realloc.json");
    println!("bench: wrote {path}");
}
