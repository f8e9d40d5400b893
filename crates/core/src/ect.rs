//! Cached estimated-completion-time (ECT) queries for reallocation rounds.
//!
//! The offline heuristics of §2.2.2 re-examine *every* remaining job after
//! each decision — that is their defining O(n²) behaviour. Semantically
//! each examination asks the clusters for fresh estimates; operationally,
//! an estimate can only change when the cluster it concerns changed. The
//! [`EctView`] therefore memoises per-(job, cluster) estimates, keeps
//! every one a mutation provably did not move, and caches each job's
//! heuristic ranking key until one of its estimates changes, preserving
//! the heuristics' semantics while avoiding redundant dry-run placements
//! and re-rankings.
//!
//! ## Columns and snapshots
//!
//! Outside width-table sites (below), a cold column is answered in one
//! *batched* pass ([`Cluster::estimate_placement_batch`]): the cluster
//! freezes its availability profile behind a copy-on-write snapshot,
//! every alive job estimates against that frozen store, and a shared
//! dominance frontier lets later (wider/longer) jobs resume their
//! placement descent from floors earlier jobs proved unreachable. Later
//! misses are answered one entry at a time against the (re-)frozen
//! snapshot.
//!
//! ## Slack certificates
//!
//! Each cached estimate of job *i* on cluster *c* records its start `sᵢ`,
//! its noise-free end `eᵢ` and its *slack* `σᵢ`: the minimum free
//! processor count over `[sᵢ, eᵢ)` minus the job's own processors. When
//! the round submits a job of `p` processors to `c`, reserving `[s, e)`,
//! and the cluster's frozen tail floor is then `F`, entry *i* stays
//! exact when
//!
//! * `sᵢ ≥ F`, and
//! * `[sᵢ, eᵢ)` misses `[s, e)`, or `σᵢ ≥ p` (then `σᵢ −= p`).
//!
//! Why that is exact: `sᵢ` was the first fit from the old floor `F₀ ≤ F`,
//! so no start in `[F, sᵢ)` fitted before the submit, and the submit only
//! took capacity away — none fits now. At `sᵢ` the window still holds the
//! job: the reservation either misses it or leaves at least `σᵢ − p ≥ 0`
//! processors spare. So the first fit from `F` is still `sᵢ`; the new
//! slack is a lower bound, which keeps later certificates sound.
//!
//! Any other entry turns *stale*: it is re-probed when next read, its
//! descent resuming from `max(sᵢ, F)` instead of `F`. That is exact for
//! the same reason — within a round, capacity on that cluster only fell
//! and its floor only rose, so nothing below the old start can fit. A
//! stale entry that sees further submits before it is read keeps its
//! start as that lower bound.
//!
//! The certificate needs both monotonicities, so it applies only where
//! they hold by construction: clusters whose scheduler claims
//! [`LocalScheduler::incremental_tail`](grid_batch::LocalScheduler::incremental_tail)
//! (a tail submit never moves another reservation — CBF; FCFS sites
//! have width tables instead, below) and that carry no ECT-noise hook
//! (a noisy estimate is not a placement end). The view also checks that
//! the frozen floor did not fall. Everywhere else — EASY and EASY-SJF,
//! noisy sites, the source of an Algorithm 1 migration (its capacity
//! rises), custom mutations through [`EctView::invalidate_cluster`] —
//! the whole column is dropped and re-probed from the floor. Debug
//! builds re-probe every kept entry and every resumed probe from the
//! floor and assert the same start.
//!
//! ## Width tables
//!
//! On a site whose scheduler claims the
//! [`monotone_tail`](grid_batch::LocalScheduler::monotone_tail) (FCFS)
//! every reservation starts at or before the tail floor `F`, so free
//! capacity only rises after `F`. A job's first fit from `F` is then the
//! first instant `≥ F` with its `p` processors free, whatever its
//! walltime: the start depends on the width alone. Such a site, when it
//! carries no ECT-noise hook, keeps no entries, states or certificates.
//! Its column is a *width table*: one start per distinct width of the
//! round, placed in one merge over the frozen breakpoints after `F`
//! ([`Cluster::estimate_width_starts`], which asserts the monotone tail
//! at every step it reads), and `new_ect(i, c)` is the start of job
//! `i`'s width plus its scaled walltime on `c` — no probe at all.
//!
//! A submit or a cancel on the site rebuilds its table at once, and only
//! the rows whose width's start moved are re-keyed, plus, in `Queued`
//! mode, the jobs queued there (their current ECT is re-read). That is
//! exact: a job's walltime on a site never changes within a round, so
//! its estimate there moved exactly when its width's start did. Unlike
//! a certificate, a rebuild needs no monotonicity across mutations, so
//! it also covers the cancel that lowers an Algorithm 1 source's floor.
//! Slots with no live job are not rebuilt; reading one (for a job
//! already removed) places that width alone. Debug builds re-probe every
//! built slot from the floor ([`Cluster::debug_check_placement`]).
//!
//! ## Row keys
//!
//! [`EctView::arg_best`] caches each live job's ranking key and
//! recomputes it only when one of the job's estimates, or its current
//! ECT, changed since it was keyed; every other row keeps its key, so a
//! decision costs work proportional to what it changed. The rows to
//! re-key are listed as they go stale, so a selection recomputes those
//! and then scans the cached keys in one tight pass.
//!
//! [`set_ect_snapshot_enabled`]`(false)` restores the historical path —
//! per-entry `estimate_new(&mut)` dry-runs, whole-column invalidation,
//! no width tables, every row re-keyed at every selection. Answers are
//! bit-identical either way; the `realloc` bench and the reallocation
//! differential test use it as their oracle.

use std::sync::atomic::{AtomicBool, Ordering};

use grid_batch::{Cluster, JobSpec, Placement, SubmitError};
use grid_des::{Duration, SimTime};

/// Process-wide switch for the incremental ECT engine (snapshot-backed
/// column fills, slack certificates, cached row keys). Disabling
/// restores the historical per-entry `estimate_new(&mut)` path with
/// whole-column invalidation (the oracle of the `realloc` bench and the
/// differential tests; estimates are bit-identical either way). Read
/// when a view is built.
static ECT_SNAPSHOT: AtomicBool = AtomicBool::new(true);

#[doc(hidden)]
pub fn set_ect_snapshot_enabled(enabled: bool) {
    ECT_SNAPSHOT.store(enabled, Ordering::Relaxed);
}

/// A waiting job captured at the start of a reallocation round.
#[derive(Debug, Clone, Copy)]
pub struct WaitingJob {
    /// The job itself.
    pub spec: JobSpec,
    /// Cluster index it is (or was, for Algorithm 2) queued on.
    pub cluster: usize,
}

/// How the round interprets "current" ECT and candidate targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// Algorithm 1: jobs still wait in their queues. The current ECT is the
    /// live reservation; candidate targets are the *other* clusters.
    Queued,
    /// Algorithm 2: all jobs were cancelled. The current ECT is the
    /// snapshot taken before cancellation; every cluster is a candidate
    /// target (re-submission to the origin included).
    Cancelled,
}

/// What a cached (job, cluster) entry knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Never estimated since the column was last dropped.
    Unknown,
    /// `ect`, `start` and `slack` describe the placement a probe from the
    /// cluster's current floor would return.
    Exact,
    /// A submit broke the certificate: `start` is a lower bound the next
    /// probe resumes from.
    Stale,
}

/// One cached (job, cluster) estimate.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Estimate served to callers; `SimTime::MAX` means "cannot run
    /// there". On certifiable clusters it equals the placement end.
    ect: SimTime,
    /// Noise-free placement start (`SimTime::MAX` when the job cannot run
    /// there, so no reservation ever overlaps it).
    start: SimTime,
    /// Free processors left over `[start, ect)` ([`Placement::slack`]).
    slack: u32,
    state: EntryState,
}

impl Entry {
    const UNKNOWN: Entry = Entry {
        ect: SimTime::MAX,
        start: SimTime::ZERO,
        slack: 0,
        state: EntryState::Unknown,
    };

    fn exact(placement: Option<Placement>) -> Entry {
        match placement {
            Some(p) => Entry {
                ect: p.ect,
                start: p.start,
                slack: p.slack,
                state: EntryState::Exact,
            },
            None => Entry {
                ect: SimTime::MAX,
                start: SimTime::MAX,
                slack: 0,
                state: EntryState::Exact,
            },
        }
    }
}

/// Where a job's cached ranking key stands ([`EctView::arg_best`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyState {
    /// The cached key is current.
    Fresh,
    /// An estimate or the current ECT changed: listed for recomputation.
    Stale,
    /// The job left the round; it is never keyed again.
    Removed,
}

/// The jobs whose ranking key must be recomputed at the next selection,
/// as a state per job plus a list of the stale ones, so a selection
/// visits only them.
#[derive(Debug)]
struct Rekey {
    state: Vec<KeyState>,
    list: Vec<usize>,
}

impl Rekey {
    fn all(n: usize) -> Rekey {
        Rekey {
            state: vec![KeyState::Stale; n],
            list: (0..n).collect(),
        }
    }

    /// List job `i` for recomputation, unless it already is or left.
    fn insert(&mut self, i: usize) {
        if self.state[i] == KeyState::Fresh {
            self.state[i] = KeyState::Stale;
            self.list.push(i);
        }
    }
}

/// One cluster's width table (see the module docs).
#[derive(Debug)]
struct WidthTable {
    /// First-fit start per width slot (parallel to `EctView::widths`);
    /// `None` for slots no live job had at the last build.
    starts: Vec<Option<SimTime>>,
    /// Scaled walltime of every job of the round on this cluster.
    walltime: Vec<Duration>,
    /// `starts` describe the cluster as it is now. Cleared by
    /// [`EctView::invalidate_cluster`]; the next read rebuilds.
    fresh: bool,
}

/// Lazily filled ECT matrix over the remaining jobs of one round.
pub struct EctView<'a> {
    clusters: &'a mut [Cluster],
    jobs: &'a [WaitingJob],
    now: SimTime,
    mode: ViewMode,
    /// Certificates and cached row keys in use ([`set_ect_snapshot_enabled`]
    /// at construction); `false` is the historical path.
    incremental: bool,
    /// The round's remaining jobs, as ascending indices (submission
    /// order).
    live: Vec<usize>,
    /// Current ECT per job (`Queued`: live; `Cancelled`: pre-cancel
    /// snapshot, filled eagerly by the caller).
    cur: Vec<Option<SimTime>>,
    /// Cached estimates, column-major: cluster `c`'s column is
    /// `entries[c * n..(c + 1) * n]`, so a per-submit pass over one
    /// column walks contiguous memory.
    entries: Vec<Entry>,
    /// Per-cluster: column never batch-filled. A cold miss fills the
    /// whole column in one batched pass (every heuristic reads a cold
    /// column in full at least once); later misses are answered per
    /// entry against the re-frozen snapshot instead. Per-entry wins on
    /// both access shapes: row-at-a-time heuristics (MCT) never read
    /// most of a column, and for the broad readers the per-entry cost of
    /// a warm single — snapshot reuse plus a precomputed tail floor —
    /// already matches the batched loop body.
    cold: Vec<bool>,
    /// Per-cluster: [`Cluster::prepare_estimates`] has run since the
    /// last mutation, so warm singles can query the frozen snapshot
    /// directly. Sound because the reallocation algorithms report every
    /// mutation to the view — the same contract the entry cache itself
    /// relies on.
    prepared: Vec<bool>,
    /// Per-cluster frozen tail floor the column's entries are relative
    /// to (read at every prepare).
    floor: Vec<SimTime>,
    /// Cached ranking key per job ([`EctView::arg_best`]).
    keys: Vec<i128>,
    /// Jobs whose estimates or current ECT changed since `keys` was
    /// computed.
    rekey: Rekey,
    /// The round's distinct job widths, ascending: the width-table
    /// slots.
    widths: Vec<u32>,
    /// Per job: its slot in `widths`.
    width_of: Vec<usize>,
    /// Per slot: live jobs of that width. Builds skip dead slots.
    width_live: Vec<u32>,
    /// Per slot: the first job of that width (debug builds re-probe the
    /// slot's start with it).
    width_rep: Vec<usize>,
    /// Per cluster: its width table, on the clusters tables serve.
    tables: Vec<Option<WidthTable>>,
    /// Per slot: the last build moved its start (rebuild scratch).
    moved: Vec<bool>,
    /// Rebuild scratch: the widths built and their starts.
    build_widths: Vec<u32>,
    build_starts: Vec<SimTime>,
}

impl<'a> EctView<'a> {
    fn new(
        clusters: &'a mut [Cluster],
        jobs: &'a [WaitingJob],
        cur: Vec<Option<SimTime>>,
        mode: ViewMode,
        now: SimTime,
    ) -> Self {
        let n = jobs.len();
        let k = clusters.len();
        let incremental = ECT_SNAPSHOT.load(Ordering::Relaxed);
        let mut widths: Vec<u32> = jobs.iter().map(|w| w.spec.procs).collect();
        widths.sort_unstable();
        widths.dedup();
        let width_of: Vec<usize> = jobs
            .iter()
            .map(|w| widths.binary_search(&w.spec.procs).expect("width listed"))
            .collect();
        let mut width_live = vec![0; widths.len()];
        let mut width_rep = vec![usize::MAX; widths.len()];
        for (i, &slot) in width_of.iter().enumerate() {
            width_live[slot] += 1;
            width_rep[slot] = width_rep[slot].min(i);
        }
        let tables = clusters
            .iter()
            .map(|c| {
                let tabled = incremental
                    && c.ect_noise().is_none()
                    && c.policy().scheduler().monotone_tail();
                tabled.then(|| WidthTable {
                    starts: vec![None; widths.len()],
                    walltime: jobs.iter().map(|w| c.scale_job(&w.spec).walltime).collect(),
                    fresh: false,
                })
            })
            .collect();
        EctView {
            clusters,
            jobs,
            now,
            mode,
            incremental,
            live: (0..n).collect(),
            cur,
            entries: vec![Entry::UNKNOWN; n * k],
            cold: vec![true; k],
            prepared: vec![false; k],
            floor: vec![SimTime::ZERO; k],
            keys: vec![0; n],
            rekey: Rekey::all(n),
            moved: vec![false; widths.len()],
            widths,
            width_of,
            width_live,
            width_rep,
            tables,
            build_widths: Vec::new(),
            build_starts: Vec::new(),
        }
    }

    /// View for Algorithm 1 (jobs still queued).
    pub fn queued(clusters: &'a mut [Cluster], jobs: &'a [WaitingJob], now: SimTime) -> Self {
        let n = jobs.len();
        Self::new(clusters, jobs, vec![None; n], ViewMode::Queued, now)
    }

    /// View for Algorithm 2 (jobs cancelled; `pre_ects` is the snapshot of
    /// current ECTs taken before cancellation, in `jobs` order).
    pub fn cancelled(
        clusters: &'a mut [Cluster],
        jobs: &'a [WaitingJob],
        pre_ects: Vec<SimTime>,
        now: SimTime,
    ) -> Self {
        assert_eq!(jobs.len(), pre_ects.len());
        let cur = pre_ects.into_iter().map(Some).collect();
        Self::new(clusters, jobs, cur, ViewMode::Cancelled, now)
    }

    /// The round's jobs.
    pub fn jobs(&self) -> &[WaitingJob] {
        self.jobs
    }

    /// Remaining (not yet processed) job indices, ascending — i.e. in
    /// submission order, since callers sort the job list that way.
    pub fn alive_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().copied()
    }

    /// Count of remaining jobs.
    pub fn alive_count(&self) -> usize {
        self.live.len()
    }

    /// Remove job `i` from the working list.
    pub fn remove(&mut self, i: usize) {
        match self.live.binary_search(&i) {
            Ok(pos) => {
                self.live.remove(pos);
                self.width_live[self.width_of[i]] -= 1;
                self.rekey.state[i] = KeyState::Removed;
            }
            Err(_) => debug_assert!(false, "job removed twice"),
        }
    }

    /// The remaining job minimising (`maximise == false`) or maximising
    /// `key`, first index on ties (comparisons are strict); `None` when
    /// the round is over.
    ///
    /// Keys are cached per job and recomputed only for jobs whose
    /// estimates or current ECT changed since they were keyed, so `key`
    /// must be a pure function of the job's view accessors
    /// ([`cur_ect`](Self::cur_ect), [`new_ect`](Self::new_ect),
    /// [`best_target`](Self::best_target), [`ect_options`](Self::ect_options),
    /// [`jobs`](Self::jobs)), and every call on one view must rank by the
    /// same key. Debug builds recompute every cached key and assert it
    /// did not move.
    pub fn arg_best(
        &mut self,
        mut key: impl FnMut(&mut Self, usize) -> i128,
        maximise: bool,
    ) -> Option<usize> {
        if self.incremental {
            let mut stale = std::mem::take(&mut self.rekey.list);
            for &i in &stale {
                if self.rekey.state[i] == KeyState::Stale {
                    self.keys[i] = key(self, i);
                    self.rekey.state[i] = KeyState::Fresh;
                }
            }
            debug_assert!(self.rekey.list.is_empty(), "reading a key staled a row");
            stale.clear();
            self.rekey.list = stale;
            if cfg!(debug_assertions) {
                for pos in 0..self.live.len() {
                    let i = self.live[pos];
                    assert_eq!(
                        key(self, i),
                        self.keys[i],
                        "cached key of job {i} went stale"
                    );
                }
            }
        } else {
            for pos in 0..self.live.len() {
                let i = self.live[pos];
                self.keys[i] = key(self, i);
            }
        }
        let mut best: Option<(i128, usize)> = None;
        for &i in &self.live {
            let v = self.keys[i];
            let better = match best {
                None => true,
                Some((b, _)) if maximise => v > b,
                Some((b, _)) => v < b,
            };
            if better {
                best = Some((v, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Current ECT of job `i` (live reservation or pre-cancel snapshot).
    pub fn cur_ect(&mut self, i: usize) -> SimTime {
        if let Some(v) = self.cur[i] {
            return v;
        }
        debug_assert_eq!(self.mode, ViewMode::Queued);
        let w = &self.jobs[i];
        let v = self.clusters[w.cluster]
            .current_ect(w.spec.id, self.now)
            .unwrap_or_else(|| panic!("job {} not waiting on cluster {}", w.spec.id, w.cluster));
        self.cur[i] = Some(v);
        v
    }

    /// Dry-run estimate of job `i` on cluster `c`; `None` when the job
    /// cannot run there (or, in `Queued` mode, when `c` is its own
    /// cluster — its own cluster is not a migration target).
    pub fn new_ect(&mut self, i: usize, c: usize) -> Option<SimTime> {
        if self.mode == ViewMode::Queued && c == self.jobs[i].cluster {
            return None;
        }
        if let Some(table) = &self.tables[c] {
            if table.fresh {
                if let Some(start) = table.starts[self.width_of[i]] {
                    return Some(start + table.walltime[i]);
                }
            }
            return self.table_ect(i, c);
        }
        let at = c * self.jobs.len() + i;
        let entry = self.entries[at];
        let v = if entry.state == EntryState::Exact {
            entry.ect
        } else if !self.incremental {
            let v = self.clusters[c]
                .estimate_new(&self.jobs[i].spec, self.now)
                .unwrap_or(SimTime::MAX);
            // The historical path caches the value only; it never
            // certifies.
            self.entries[at] = Entry {
                ect: v,
                ..Entry::exact(None)
            };
            v
        } else {
            if self.cold[c] {
                self.fill_column(c, i);
            } else {
                // Re-freeze only when a mutation came through the view
                // since the last prepare; a stale entry resumes its
                // descent from its old start.
                if self.prepared[c] {
                    self.clusters[c].note_snapshot_reuse();
                } else {
                    self.prepare(c);
                }
                let placement =
                    self.clusters[c].estimate_placement(&self.jobs[i].spec, entry.start, self.now);
                self.entries[at] = Entry::exact(placement);
            }
            self.entries[at].ect
        };
        (v != SimTime::MAX).then_some(v)
    }

    /// [`new_ect`](Self::new_ect) on a width-table cluster when the
    /// table cannot answer as it stands: the job does not fit, the table
    /// is stale, or the job's width slot is dead. Answers the start of
    /// the job's width plus its scaled walltime there.
    fn table_ect(&mut self, i: usize, c: usize) -> Option<SimTime> {
        // The first read of a cold table builds it even when this job
        // cannot run here, as the first read of a cold column fills it.
        if !self.tables[c].as_ref().expect("width table").fresh {
            self.build_table(c);
        }
        let procs = self.jobs[i].spec.procs;
        if procs == 0 || procs > self.clusters[c].spec().procs {
            return None;
        }
        let slot = self.width_of[i];
        let table = self.tables[c].as_mut().expect("width table");
        let start = match table.starts[slot] {
            Some(start) => start,
            None => {
                // A dead slot (no live job of this width at the last
                // build) read for a job already removed: place it alone
                // against the same frozen snapshot.
                self.clusters[c].estimate_width_starts(&[procs], self.now, &mut self.build_starts);
                table.starts[slot] = Some(self.build_starts[0]);
                self.build_starts[0]
            }
        };
        Some(start + table.walltime[i])
    }

    /// (Re)build cluster `c`'s width table from a fresh freeze: every live
    /// slot that fits the cluster, in one merge. Marks in `moved` the
    /// slots whose start changed and returns `true` if any did.
    fn build_table(&mut self, c: usize) -> bool {
        self.prepare(c);
        let procs = self.clusters[c].spec().procs;
        self.build_widths.clear();
        for (slot, &width) in self.widths.iter().enumerate() {
            if width > procs {
                break;
            }
            if width > 0 && self.width_live[slot] > 0 {
                self.build_widths.push(width);
            }
        }
        self.clusters[c].estimate_width_starts(
            &self.build_widths,
            self.now,
            &mut self.build_starts,
        );
        if self.cold[c] {
            self.clusters[c].note_column_refill();
            self.cold[c] = false;
        }
        let table = self.tables[c].as_mut().expect("width table");
        let mut built = self.build_starts.iter().copied();
        let mut any = false;
        for (slot, &width) in self.widths.iter().enumerate() {
            let start = (width > 0 && width <= procs && self.width_live[slot] > 0)
                .then(|| built.next().expect("one start per built width"));
            let moved = start.is_some() && table.starts[slot] != start;
            self.moved[slot] = moved;
            any |= moved;
            table.starts[slot] = start;
        }
        table.fresh = true;
        if cfg!(debug_assertions) {
            for (slot, start) in table.starts.iter().enumerate() {
                if let Some(start) = *start {
                    let rep = &self.jobs[self.width_rep[slot]].spec;
                    self.clusters[c].debug_check_placement(rep, start);
                }
            }
        }
        any
    }

    /// After a submit to or a cancel on width-table cluster `c`: rebuild
    /// the table at once and re-key only the rows whose width's start
    /// moved, plus (`Queued` mode) the jobs queued on `c`, whose current
    /// ECT is re-read. A stale table is left for the next read to
    /// rebuild: every row that read it was re-keyed when it went stale.
    fn refresh_table(&mut self, c: usize) {
        let moved = if self.tables[c].as_ref().expect("width table").fresh {
            self.build_table(c)
        } else {
            self.prepared[c] = false;
            false
        };
        let queued = self.mode == ViewMode::Queued;
        if !moved && !queued {
            return;
        }
        for &i in &self.live {
            if moved && self.moved[self.width_of[i]] {
                self.rekey.insert(i);
            }
            if queued && self.jobs[i].cluster == c {
                self.cur[i] = None;
                self.rekey.insert(i);
            }
        }
    }

    /// Freeze cluster `c` for dry-runs and record its tail floor.
    fn prepare(&mut self, c: usize) {
        self.clusters[c].prepare_estimates(self.now);
        self.floor[c] = self.clusters[c].estimate_floor();
        self.prepared[c] = true;
    }

    /// Fill every entry of cold column `c` (the alive rows plus the
    /// queried row `want`) in one batched snapshot pass. Estimates are
    /// bit-identical to per-entry [`Cluster::estimate_new`] calls: every
    /// query in the pass shares the same frozen profile and the same
    /// tail-floor base, so the threaded dominance frontier only skips
    /// descent work, never changes an answer.
    fn fill_column(&mut self, c: usize, want: usize) {
        let queued = self.mode == ViewMode::Queued;
        let mut wanted: Vec<Option<&JobSpec>> = vec![None; self.jobs.len()];
        for i in self.live.iter().copied().chain([want]) {
            let w = &self.jobs[i];
            if !(queued && w.cluster == c) {
                wanted[i] = Some(&w.spec);
            }
        }
        let placements =
            self.clusters[c].estimate_placement_batch(wanted.iter().copied(), self.now);
        let column = &mut self.entries[c * self.jobs.len()..][..self.jobs.len()];
        for (i, placement) in placements.into_iter().enumerate() {
            if wanted[i].is_some() {
                column[i] = Entry::exact(placement);
            }
        }
        self.floor[c] = self.clusters[c].estimate_floor();
        self.cold[c] = false;
        self.prepared[c] = true;
    }

    /// Best migration target for job `i`: `(cluster, ect)` minimising the
    /// estimate (lowest index on ties).
    pub fn best_target(&mut self, i: usize) -> Option<(usize, SimTime)> {
        let k = self.clusters.len();
        let mut best: Option<(usize, SimTime)> = None;
        for c in 0..k {
            if let Some(e) = self.new_ect(i, c) {
                if best.is_none_or(|(_, b)| e < b) {
                    best = Some((c, e));
                }
            }
        }
        best
    }

    /// The job's best achievable ECT over *all* options (its current
    /// position included in `Queued` mode). This is the "expected
    /// completion time of a task" the MinMin/MaxMin heuristics rank by.
    pub fn best_ect(&mut self, i: usize) -> SimTime {
        let target = self.best_target(i).map(|(_, e)| e);
        match self.mode {
            ViewMode::Queued => {
                let cur = self.cur_ect(i);
                target.map_or(cur, |t| t.min(cur))
            }
            ViewMode::Cancelled => target.unwrap_or(SimTime::MAX),
        }
    }

    /// Every ECT *value* among the job's options, ascending. In `Queued`
    /// mode the options are "stay" plus each foreign cluster; in
    /// `Cancelled` mode, each cluster. Rank-`k` sufferage variants read
    /// `options[k] − options[0]`.
    pub fn ect_options(&mut self, i: usize) -> Vec<SimTime> {
        let mut options: Vec<SimTime> = Vec::with_capacity(self.clusters.len() + 1);
        if self.mode == ViewMode::Queued {
            options.push(self.cur_ect(i));
        }
        for c in 0..self.clusters.len() {
            if let Some(e) = self.new_ect(i, c) {
                options.push(e);
            }
        }
        options.sort_unstable();
        options
    }

    /// The two best ECT *values* among the job's options (classic
    /// Sufferage). Returns `(best, second_best)`; `second_best` is
    /// `None` with fewer than two options.
    pub fn two_best_ects(&mut self, i: usize) -> (SimTime, Option<SimTime>) {
        let options = self.ect_options(i);
        match options.as_slice() {
            [] => (SimTime::MAX, None),
            [one] => (*one, None),
            [a, b, ..] => (*a, Some(*b)),
        }
    }

    /// Submit job `i` to cluster `c` at the round's instant, keeping
    /// the cache exact: a width-table cluster rebuilds its table, on
    /// others the entries a slack certificate covers survive and the rest
    /// turn stale (see the module docs); on clusters neither applies to,
    /// the column is dropped. Returns the reserved start.
    pub fn submit(&mut self, i: usize, c: usize) -> Result<SimTime, SubmitError> {
        let spec = self.jobs[i].spec;
        let start = self.clusters[c].submit(spec, self.now)?;
        if self.tables[c].is_some() {
            self.refresh_table(c);
        } else if self.certifiable(c) {
            self.certify(c, &spec, start);
        } else {
            self.invalidate_cluster(c);
        }
        Ok(start)
    }

    /// Cancel waiting job `i` on the cluster it is queued on (`Queued`
    /// mode) and rebuild that cluster's width table, or drop its column
    /// elsewhere: the cancel frees capacity, which no certificate covers.
    /// `None` if the job was not waiting there.
    pub fn cancel(&mut self, i: usize) -> Option<JobSpec> {
        let w = self.jobs[i];
        let job = self.clusters[w.cluster].cancel(w.spec.id, self.now)?;
        if self.tables[w.cluster].is_some() {
            self.refresh_table(w.cluster);
        } else {
            self.invalidate_cluster(w.cluster);
        }
        Some(job)
    }

    /// `true` when a submit to `c` may keep entries by certificate.
    fn certifiable(&self, c: usize) -> bool {
        let cluster = &self.clusters[c];
        self.incremental
            && !self.cold[c]
            && cluster.ect_noise().is_none()
            && cluster.policy().scheduler().incremental_tail()
    }

    /// Apply the slack certificate to column `c` after `spec` was
    /// submitted there with reserved start `start`.
    fn certify(&mut self, c: usize, spec: &JobSpec, start: SimTime) {
        let scaled = self.clusters[c].scale_job(spec);
        let (s, e, p) = (start, start + scaled.walltime, scaled.procs);
        let old_floor = self.floor[c];
        self.prepare(c);
        let floor = self.floor[c];
        if floor < old_floor {
            self.invalidate_cluster(c);
            return;
        }
        let n = self.jobs.len();
        let queued = self.mode == ViewMode::Queued;
        let column = &mut self.entries[c * n..][..n];
        for &i in &self.live {
            let entry = &mut column[i];
            if entry.state == EntryState::Exact {
                let overlaps = entry.start < e && s < entry.ect;
                if entry.start < floor || (overlaps && entry.slack < p) {
                    entry.state = EntryState::Stale;
                    self.rekey.insert(i);
                } else if overlaps {
                    entry.slack -= p;
                }
            }
            // Tail submits move no reservation, but the current ECT is
            // re-read all the same, as the historical path does.
            if queued && self.jobs[i].cluster == c {
                self.cur[i] = None;
                self.rekey.insert(i);
            }
        }
        if cfg!(debug_assertions) {
            for &i in &self.live {
                let entry = column[i];
                if entry.state == EntryState::Exact && entry.ect != SimTime::MAX {
                    self.clusters[c].debug_check_placement(&self.jobs[i].spec, entry.start);
                }
            }
        }
    }

    /// Invalidate every cached estimate involving cluster `c` (after a
    /// cancel or a submit changed its queue); a width table is rebuilt
    /// at its next read. Custom strategies that mutate a cluster through
    /// [`EctView::cluster_mut`] must call this.
    pub fn invalidate_cluster(&mut self, c: usize) {
        let n = self.jobs.len();
        let queued = self.mode == ViewMode::Queued;
        let column = &mut self.entries[c * n..][..n];
        for &i in &self.live {
            column[i] = Entry::UNKNOWN;
            self.rekey.insert(i);
            if queued && self.jobs[i].cluster == c {
                self.cur[i] = None;
            }
        }
        self.prepared[c] = false;
        if let Some(table) = &mut self.tables[c] {
            table.fresh = false;
        }
    }

    /// Mutable access to a cluster (for custom migrations; report them
    /// through [`EctView::invalidate_cluster`]).
    pub fn cluster_mut(&mut self, c: usize) -> &mut Cluster {
        &mut self.clusters[c]
    }

    /// Simulation instant of the round.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_batch::{BatchPolicy, ClusterSpec};

    /// Two 4-proc clusters; cluster 0 busy for 1000 s, cluster 1 free.
    fn setup() -> (Vec<Cluster>, Vec<WaitingJob>) {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 4, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 4, 1.0), BatchPolicy::Fcfs);
        c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        // Waiting job on cluster 0: 2 procs, walltime 100.
        let w = JobSpec::new(1, 0, 2, 60, 100);
        c0.submit(w, SimTime(0)).unwrap();
        (
            vec![c0, c1],
            vec![WaitingJob {
                spec: w,
                cluster: 0,
            }],
        )
    }

    #[test]
    fn queued_mode_reads_live_ects() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        // Current: waits behind the 1000 s job -> 1000 + 100.
        assert_eq!(v.cur_ect(0), SimTime(1100));
        // Own cluster is not a target.
        assert_eq!(v.new_ect(0, 0), None);
        // Foreign cluster is free -> ECT 100.
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        assert_eq!(v.best_target(0), Some((1, SimTime(100))));
        assert_eq!(v.best_ect(0), SimTime(100));
        assert_eq!(v.two_best_ects(0), (SimTime(100), Some(SimTime(1100))));
    }

    #[test]
    fn cancelled_mode_uses_snapshot_and_all_clusters() {
        let (mut clusters, jobs) = setup();
        let pre = vec![SimTime(1100)];
        // Cancel the waiting job as Algorithm 2 would.
        clusters[0].cancel(grid_batch::JobId(1), SimTime(0));
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        assert_eq!(v.cur_ect(0), SimTime(1100), "snapshot preserved");
        // Origin cluster is now a candidate again (queue emptied: the
        // running 1000 s job still blocks 4-proc... but 2 procs fit? The
        // running job holds all 4 procs, so origin ECT is 1100).
        assert_eq!(v.new_ect(0, 0), Some(SimTime(1100)));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        assert_eq!(v.best_target(0), Some((1, SimTime(100))));
        assert_eq!(v.best_ect(0), SimTime(100));
    }

    #[test]
    fn estimates_are_cached_until_invalidated() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        // Mutate cluster 1 behind the cache's back.
        v.cluster_mut(1)
            .submit(JobSpec::new(200, 0, 4, 500, 500), SimTime(0))
            .unwrap();
        // Cached value still served (this is the memoisation contract).
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        // After invalidation the fresh estimate appears.
        v.invalidate_cluster(1);
        assert_eq!(v.new_ect(0, 1), Some(SimTime(600)));
    }

    #[test]
    fn oversized_target_is_none() {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 8, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 2, 1.0), BatchPolicy::Fcfs);
        c0.submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        let w = JobSpec::new(1, 0, 4, 60, 100);
        c0.submit(w, SimTime(0)).unwrap();
        let mut clusters = vec![c0, c1];
        let jobs = vec![WaitingJob {
            spec: w,
            cluster: 0,
        }];
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(
            v.new_ect(0, 1),
            None,
            "4-proc job cannot fit 2-proc cluster"
        );
        assert_eq!(v.best_target(0), None);
        // best_ect falls back to the current position.
        assert_eq!(v.best_ect(0), SimTime(1100));
        let (best, second) = v.two_best_ects(0);
        assert_eq!(best, SimTime(1100));
        assert_eq!(second, None);
    }

    /// The batched snapshot fill produces exactly the matrix the
    /// historical lazy per-entry path produced, across modes and a
    /// multi-job, multi-cluster fixture — and leaves the cluster's
    /// snapshot cached for the next column.
    #[test]
    fn batched_fill_matches_legacy_lazy_path() {
        let build = || {
            let mut c0 = Cluster::new(ClusterSpec::new("c0", 4, 1.0), BatchPolicy::Fcfs);
            let mut c1 = Cluster::new(ClusterSpec::new("c1", 8, 1.5), BatchPolicy::Cbf);
            let c2 = Cluster::new(ClusterSpec::new("c2", 2, 1.0), BatchPolicy::Fcfs);
            c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
                .unwrap();
            c0.start_due(SimTime(0));
            c1.submit(JobSpec::new(101, 0, 8, 300, 400), SimTime(0))
                .unwrap();
            c1.start_due(SimTime(0));
            let w1 = JobSpec::new(1, 0, 2, 60, 100);
            let w2 = JobSpec::new(2, 1, 4, 200, 250);
            let w3 = JobSpec::new(3, 2, 1, 30, 50);
            c0.submit(w1, SimTime(0)).unwrap();
            c0.submit(w2, SimTime(1)).unwrap();
            c1.submit(w3, SimTime(2)).unwrap();
            let jobs = vec![
                WaitingJob {
                    spec: w1,
                    cluster: 0,
                },
                WaitingJob {
                    spec: w2,
                    cluster: 0,
                },
                WaitingJob {
                    spec: w3,
                    cluster: 1,
                },
            ];
            (vec![c0, c1, c2], jobs)
        };
        let matrix = |clusters: &mut Vec<Cluster>, jobs: &[WaitingJob]| {
            let mut v = EctView::queued(clusters, jobs, SimTime(5));
            let mut out = Vec::new();
            for i in 0..jobs.len() {
                for c in 0..3 {
                    out.push(v.new_ect(i, c));
                }
                out.push(Some(v.best_ect(i)));
            }
            out
        };
        let (mut legacy_clusters, jobs) = build();
        set_ect_snapshot_enabled(false);
        let legacy = matrix(&mut legacy_clusters, &jobs);
        set_ect_snapshot_enabled(true);
        let (mut batched_clusters, jobs) = build();
        let batched = matrix(&mut batched_clusters, &jobs);
        assert_eq!(batched, legacy);
        for c in &batched_clusters {
            assert!(
                c.stats().ect_column_refills >= 1,
                "{}: column fills went through the batch path",
                c.spec().name
            );
        }
        // Invalidation without mutation refills from the cached snapshot.
        let mut v = EctView::queued(&mut batched_clusters, &jobs, SimTime(5));
        let before = v.new_ect(0, 2);
        v.invalidate_cluster(2);
        assert_eq!(v.new_ect(0, 2), before);
        assert!(
            batched_clusters[2].stats().ect_snapshot_reuses >= 1,
            "the lazy refill re-used the frozen snapshot"
        );
    }

    /// A submit keeps every entry its slack certificate covers — served
    /// again without a probe — and re-probes the rest. (CBF: FCFS sites
    /// are served by width tables instead.)
    #[test]
    fn certificates_keep_covered_entries_and_reprobe_the_rest() {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 8, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 8, 1.0), BatchPolicy::Cbf);
        c0.submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        let jobs: Vec<WaitingJob> = [(1, 2), (2, 2), (3, 7)]
            .into_iter()
            .map(|(id, procs)| WaitingJob {
                spec: JobSpec::new(id, id, procs, 50, 100),
                cluster: 0,
            })
            .collect();
        let mut clusters = vec![c0, c1];
        let mut v = EctView::cancelled(&mut clusters, &jobs, vec![SimTime(1100); 3], SimTime(0));
        let probes = |v: &mut EctView<'_>| {
            let now = v.now();
            let c1 = v.cluster_mut(1);
            c1.prepare_estimates(now); // folds the snapshot's probes in
            c1.stats().first_fit_probes
        };
        // The cold fill places all three at 0 on the idle site: slack 6,
        // 6 and 1.
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        v.submit(0, 1).unwrap(); // 2 procs over [0, 100)
        let before = probes(&mut v);
        assert_eq!(v.new_ect(1, 1), Some(SimTime(100)), "slack 6 covers 2");
        assert_eq!(probes(&mut v), before, "kept entries need no probe");
        assert_eq!(v.new_ect(2, 1), Some(SimTime(200)), "slack 1 does not");
        assert_eq!(probes(&mut v), before + 1, "the stale entry re-probes");
    }

    /// On an FCFS site a submit rebuilds the width table in one merge,
    /// re-keys only the rows whose width's start moved, and serves every
    /// read from the table without a probe.
    #[test]
    fn width_tables_rekey_only_moved_widths() {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 8, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 8, 1.0), BatchPolicy::Fcfs);
        c0.submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        let jobs: Vec<WaitingJob> = [(1, 2), (2, 2), (3, 7), (4, 3)]
            .into_iter()
            .map(|(id, procs)| WaitingJob {
                spec: JobSpec::new(id, id, procs, 50, 100),
                cluster: 0,
            })
            .collect();
        let mut clusters = vec![c0, c1];
        let mut v = EctView::cancelled(&mut clusters, &jobs, vec![SimTime(1100); 4], SimTime(0));
        let probes = |v: &mut EctView<'_>| {
            let now = v.now();
            let c1 = v.cluster_mut(1);
            c1.prepare_estimates(now);
            c1.stats().first_fit_probes
        };
        let before = probes(&mut v);
        // Keys every row: all four start at 0 on the idle site.
        assert_eq!(
            v.arg_best(|v, i| v.best_ect(i).as_secs() as i128, false),
            Some(0)
        );
        assert_eq!(
            probes(&mut v),
            before + 3,
            "one probe per width: 2, 3 and 7"
        );
        // 2 procs over [0, 100): one probe places the job, three rebuild
        // the widths.
        v.submit(0, 1).unwrap();
        assert_eq!(
            probes(&mut v),
            before + 7,
            "the submit rebuilt all three widths"
        );
        assert_eq!(v.rekey.list, [2], "only width 7 moved");
        let reads: Vec<_> = (1..4).map(|i| v.new_ect(i, 1)).collect();
        assert_eq!(
            reads,
            [Some(SimTime(100)), Some(SimTime(200)), Some(SimTime(100))]
        );
        assert_eq!(probes(&mut v), before + 7, "reads need no probe");
        v.remove(0);
        v.submit(2, 1).unwrap(); // 7 procs over [100, 200): the floor rises
        assert_eq!(probes(&mut v), before + 11, "width 2 is still live (job 1)");
        assert_eq!(v.new_ect(1, 1), Some(SimTime(300)));
        assert_eq!(v.new_ect(3, 1), Some(SimTime(300)));
        // Width 2 dies with job 1; the next rebuild skips it, and a read
        // for the removed job places that width alone.
        v.remove(2);
        v.remove(1);
        v.submit(3, 1).unwrap(); // 3 procs over [200, 300)
        assert_eq!(probes(&mut v), before + 13, "only width 3 is rebuilt");
        assert_eq!(v.new_ect(1, 1), Some(SimTime(300)), "free 5 >= 2 at 200");
        assert_eq!(probes(&mut v), before + 14, "the dead slot is placed alone");
        assert_eq!(clusters[1].stats().ect_column_refills, 1, "one cold build");
    }

    #[test]
    fn alive_tracking() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.alive_count(), 1);
        assert_eq!(v.alive_indices().collect::<Vec<_>>(), vec![0]);
        v.remove(0);
        assert_eq!(v.alive_count(), 0);
        assert!(v.alive_indices().next().is_none());
    }
}
