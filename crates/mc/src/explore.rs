//! Breadth-first exploration with deadlock detection, bounded-run
//! reporting, and crash-tolerant checkpoint/resume.
//!
//! State storage is interned (see [`crate::intern`]): each canonical
//! encoding lives once in a bump arena under a dense `u32` id, and the
//! visited/parent structure is three flat `Vec`s indexed by id. Memory
//! accounting against the [`Budget`] is exact — computed from the
//! capacities of the owned structures, not estimated per entry.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, ShardEncoder};
use crate::config::McConfig;
use crate::intern::{InternError, StateId};
use crate::rules::{expand, ExpandOutcome, RuleTable, Scratch};
use crate::spill::{SpillArena, SpillConfig, SpillStats};
use crate::state::GlobalState;
use crate::symmetry::interned_key;
use crate::trace::Trace;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use vnet_graph::{BitSet, Budget, BudgetMeter, DegradeReason, Provenance};
use vnet_protocol::ProtocolSpec;

/// Exploration statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states: usize,
    /// Deepest completed BFS level.
    pub levels: usize,
    /// `true` if the whole reachable space was explored (no bound hit).
    pub complete: bool,
    /// Why the run was truncated, if it was. Counterexample verdicts
    /// (deadlock, model error, invariant violation) are always
    /// [`Provenance::Exact`] — a found trace is definitive no matter how
    /// much of the space was left unexplored. A `NoDeadlock` verdict with
    /// degraded provenance is only a bounded claim.
    pub provenance: Provenance,
    /// High-water mark of the explorer's accounted heap bytes (visited
    /// arena + parent links + frontiers), exact from capacities. Zero
    /// for error paths that never ran the explorer.
    pub peak_bytes: u64,
    /// Cumulative compressed bytes of visited keys pushed to the spill
    /// tier's disk segments. Zero unless a memory budget forced cold
    /// state encodings out of RAM (see [`crate::spill`]).
    pub spill_bytes: u64,
}

impl ExploreStats {
    fn bounded(states: usize, levels: usize, peak_bytes: u64, spill_bytes: u64) -> Self {
        // Truncation by a *counterexample*: the search stopped early
        // because the verdict is already decided, which is exact.
        ExploreStats {
            states,
            levels,
            complete: false,
            provenance: Provenance::Exact,
            peak_bytes,
            spill_bytes,
        }
    }
}

/// The outcome of a model-checking run.
#[derive(Debug)]
pub enum Verdict {
    /// No deadlock found. `stats.complete` distinguishes a full proof
    /// from a bounded run (the paper's "reached level N without error").
    NoDeadlock(ExploreStats),
    /// A reachable state with work in flight and no enabled rule.
    Deadlock {
        /// Shortest path to the deadlocked state.
        trace: Trace,
        /// BFS depth at which it was found.
        depth: usize,
        /// Statistics at detection time.
        stats: ExploreStats,
    },
    /// A controller received an undefined message — a specification bug.
    ModelError {
        /// Path to the erroneous state.
        trace: Trace,
        /// What went wrong.
        detail: String,
        /// Statistics at detection time.
        stats: ExploreStats,
    },
    /// A safety invariant (SWMR) was violated.
    InvariantViolation {
        /// Path to the violating state.
        trace: Trace,
        /// The violation description.
        detail: String,
        /// Statistics at detection time.
        stats: ExploreStats,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Deadlock`].
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Verdict::Deadlock { .. })
    }

    /// The statistics of the run.
    pub fn stats(&self) -> &ExploreStats {
        match self {
            Verdict::NoDeadlock(s) => s,
            Verdict::Deadlock { stats, .. }
            | Verdict::ModelError { stats, .. }
            | Verdict::InvariantViolation { stats, .. } => stats,
        }
    }

    /// One-line summary in the style of the paper's result extraction.
    pub fn summary(&self) -> String {
        match self {
            Verdict::NoDeadlock(s) if s.complete => format!(
                "no deadlock (complete, {} states, {} levels)",
                s.states, s.levels
            ),
            Verdict::NoDeadlock(s) => format!(
                "no deadlock up to bound ({} states, {} levels){}",
                s.states,
                s.levels,
                s.provenance.annotation()
            ),
            Verdict::Deadlock { depth, stats, .. } => format!(
                "DEADLOCK at depth {depth} ({} states explored)",
                stats.states
            ),
            Verdict::ModelError { detail, .. } => format!("MODEL ERROR: {detail}"),
            Verdict::InvariantViolation { detail, .. } => {
                format!("INVARIANT VIOLATION: {detail}")
            }
        }
    }
}

/// Explores the reachable state space of `spec` under `cfg`.
///
/// See the crate docs for an end-to-end example.
pub fn explore(spec: &ProtocolSpec, cfg: &McConfig) -> Verdict {
    explore_with(spec, cfg, |_, _| {})
}

/// Like [`explore`], invoking `on_level(level, states_so_far)` as each
/// BFS level completes (the paper reports Murphi progress the same way).
pub fn explore_with(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    on_level: impl FnMut(usize, usize),
) -> Verdict {
    explore_budgeted_with(spec, cfg, &Budget::unlimited(), on_level)
}

/// [`explore`] under a work/memory [`Budget`]. On exhaustion the partial
/// result is returned with a degraded provenance instead of hanging.
pub fn explore_budgeted(spec: &ProtocolSpec, cfg: &McConfig, budget: &Budget) -> Verdict {
    explore_budgeted_with(spec, cfg, budget, |_, _| {})
}

/// [`explore_budgeted`] with the per-level progress callback.
pub fn explore_budgeted_with(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    on_level: impl FnMut(usize, usize),
) -> Verdict {
    match run_serial(spec, cfg, budget, None, None, on_level) {
        Ok(CheckpointedRun::Finished(v)) => v,
        // Without a checkpoint policy there is no file IO and no stop
        // file, so these arms are unreachable; fail soft, never panic.
        Ok(CheckpointedRun::Interrupted { states, level, .. }) => {
            Verdict::NoDeadlock(ExploreStats {
                states,
                levels: level,
                complete: false,
                provenance: Provenance::Degraded {
                    reason: DegradeReason::Bound {
                        what: "run interrupted".into(),
                    },
                },
                peak_bytes: 0,
                spill_bytes: 0,
            })
        }
        Err(e) => Verdict::NoDeadlock(ExploreStats {
            states: 0,
            levels: 0,
            complete: false,
            provenance: Provenance::Degraded {
                reason: DegradeReason::Bound {
                    what: format!("checkpoint error: {e}"),
                },
            },
            peak_bytes: 0,
            spill_bytes: 0,
        }),
    }
}

/// The outcome of a checkpoint-enabled run.
// A `Verdict` is bigger than the `Interrupted` payload, but one value
// exists per run (not per state) and every caller matches on it
// immediately — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CheckpointedRun {
    /// The run ended with a verdict (possibly bounded/degraded).
    Finished(Verdict),
    /// The stop file appeared at a level boundary: progress was flushed
    /// to `checkpoint` and the run stepped aside without a verdict.
    Interrupted {
        /// The checkpoint holding the flushed progress.
        checkpoint: PathBuf,
        /// Distinct states claimed so far.
        states: usize,
        /// Completed BFS levels.
        level: usize,
    },
}

/// [`explore_budgeted_with`] plus crash tolerance: explorer progress is
/// flushed to `policy.path` per the policy's cadence, on an imminent
/// budget deadline, and on budget exhaustion, so a killed or starved
/// run can be continued with [`resume`]. Checkpoint IO failures are
/// returned, never ignored — a run that cannot persist its progress
/// should not pretend it can.
pub fn explore_checkpointed(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    policy: &CheckpointPolicy,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    run_serial(spec, cfg, budget, None, Some(policy), on_level)
}

/// Continues a run from the checkpoint at `path`, after verifying its
/// checksum and its (spec, config) fingerprint — a checkpoint from a
/// different protocol, VN mapping, or system size is refused with
/// [`CheckpointError::SpecMismatch`]. The budget's node accounting is
/// cumulative: the checkpoint records nodes already spent.
pub fn resume(
    path: &Path,
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    policy: Option<&CheckpointPolicy>,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    let ckpt = Checkpoint::load(path, spec, cfg)?;
    run_serial(spec, cfg, budget, Some(ckpt), policy, on_level)
}

/// The interned visited/parent structure: the key arena plus three flat
/// vectors indexed by [`StateId`] (ids are dense in claim order).
struct Store {
    /// Canonical state encodings, one copy each — hot in a bump arena,
    /// cold on disk once a spill config's threshold is crossed.
    keys: SpillArena,
    /// Rule labels, shared across states: compact rule references,
    /// rendered only for a flush or a witness.
    labels: RuleTable,
    /// `parents[id]` — the id the state was first reached from (the
    /// initial state points at itself).
    parents: Vec<StateId>,
    /// `label_ids[id]` — the rule label taken from the parent (the
    /// initial state's is the empty label).
    label_ids: Vec<u32>,
    /// `levels[id]` — the BFS level at which the state was claimed.
    levels: Vec<u32>,
}

impl Store {
    fn new(spill: Option<SpillConfig>) -> Self {
        let mut labels = RuleTable::new();
        // Label id 0 is the empty (initial-state) label. A fresh table
        // cannot refuse one empty key.
        let _ = labels.intern_ref(&[]);
        Store {
            keys: SpillArena::new(spill),
            labels,
            parents: Vec::new(),
            label_ids: Vec::new(),
            levels: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.parents.len()
    }

    fn push_link(&mut self, parent: StateId, label_id: u32, level: u32) {
        self.parents.push(parent);
        self.label_ids.push(label_id);
        self.levels.push(level);
    }

    /// Exact heap bytes owned by the store, from capacities.
    fn heap_bytes(&self) -> u64 {
        self.keys.heap_bytes()
            + self.labels.heap_bytes()
            + ((self.parents.capacity() + self.label_ids.capacity() + self.levels.capacity())
                * std::mem::size_of::<u32>()) as u64
    }
}

/// Exact bytes of the whole explorer footprint: store plus both
/// id frontiers.
fn footprint(store: &Store, frontier: &VecDeque<StateId>, next: &VecDeque<StateId>) -> u64 {
    store.heap_bytes()
        + ((frontier.capacity() + next.capacity()) * std::mem::size_of::<u32>()) as u64
}

/// Delta-charges the meter so its current-bytes figure tracks `now`
/// exactly. Returns `false` once the memory budget is exhausted.
fn account(meter: &mut BudgetMeter, accounted: &mut u64, now: u64) -> bool {
    let ok = if now > *accounted {
        meter.charge_bytes(now - *accounted)
    } else {
        meter.release_bytes(*accounted - now);
        true
    };
    *accounted = now;
    ok
}

/// Rebuilds the id-interned visited structure from a loaded
/// checkpoint. Entries are interned in file order, so entry `i` gets id
/// `i` and the checkpoint's parent and frontier indices are ids as they
/// stand. Returns the frontier.
fn seed_store(store: &mut Store, ckpt: &Checkpoint) -> Result<VecDeque<StateId>, CheckpointError> {
    for (i, e) in ckpt.entries.iter().enumerate() {
        match store.keys.intern(&e.key) {
            Ok((id, true)) if id as usize == i => {}
            Ok(_) => {
                return Err(CheckpointError::Corrupt {
                    offset: 0,
                    detail: format!("visited entry {i} duplicates an earlier key"),
                });
            }
            Err(why) => {
                return Err(CheckpointError::Corrupt {
                    offset: 0,
                    detail: format!("checkpoint exceeds the intern arena: {why}"),
                });
            }
        }
        let lid = store
            .labels
            .intern_text(&e.label)
            .map_err(|why| CheckpointError::Corrupt {
                offset: 0,
                detail: format!("checkpoint exceeds the label table: {why}"),
            })?;
        store.push_link(e.parent, lid, e.level);
        // Spill while seeding, not after: a resumed run's peak must
        // match what a fresh run reaching this point would carry, and a
        // fresh run would have spilled on the way. A refused spill
        // (IO error) keeps everything in RAM — the budget decides.
        if i % 4096 == 4095 {
            let _ = store.keys.maybe_spill(store.heap_bytes());
        }
    }
    Ok(ckpt.frontier.iter().copied().collect())
}

/// Snapshots the explorer at a level boundary and writes it out: the
/// store streams into one section in id (claim) order, so parents and
/// frontier entries are written as the ids they already are.
fn flush(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    store: &mut Store,
    frontier: &VecDeque<StateId>,
    level: usize,
    claims: u64,
    path: &Path,
) -> Result<(), CheckpointError> {
    // Flush duration feeds the `explore.checkpoint_flush_us` histogram;
    // the clock is only read while metrics are on.
    let clock = vnet_obs::metrics_enabled().then(std::time::Instant::now);
    let labels = store
        .labels
        .texts(spec)
        .map_err(|id| CheckpointError::Corrupt {
            offset: 0,
            detail: format!("rule label {id} is damaged"),
        })?;
    let mut enc = ShardEncoder::new();
    let mut key: Vec<u8> = Vec::with_capacity(128);
    for i in 0..store.len() {
        // A false here means a spilled segment became unreadable under
        // the run; surfacing it beats flushing a checkpoint with holes.
        if !store.keys.get_into(i as StateId, &mut key) {
            return Err(CheckpointError::Corrupt {
                offset: 0,
                detail: format!("visited state {i} unreadable at flush"),
            });
        }
        let label = labels
            .get(store.label_ids[i] as usize)
            .map_or("", String::as_str);
        enc.push(&key, 0, store.parents[i], label, store.levels[i]);
    }
    let res = crate::checkpoint::write(
        path,
        crate::checkpoint::fingerprint(spec, cfg),
        level,
        claims,
        &[enc.finish()],
        frontier.iter().map(|&id| (0, id)),
    );
    if let Some(clock) = clock {
        vnet_obs::counter("explore.checkpoint_flushes_total").inc();
        vnet_obs::histogram("explore.checkpoint_flush_us", vnet_obs::DURATION_US_BOUNDS)
            .record(clock.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
    res
}

/// The BFS core shared by the fresh, checkpointed, and resumed entry
/// points. `start` seeds the visited store/frontier/level from a loaded
/// checkpoint; `policy` enables flushing.
///
/// Budget granularity: without a policy, exhaustion stops the search at
/// the very next claim (the historical behaviour). With a policy, the
/// current level is finished first — a flushable snapshot must sit at a
/// level boundary — so the overrun is bounded by one BFS level and the
/// checkpoint is always consistent.
fn run_serial(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    start: Option<Checkpoint>,
    policy: Option<&CheckpointPolicy>,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    // The observability shim around the BFS core. Counting at this
    // single choke point (rather than per-claim inside the hot loop)
    // keeps `explore.states_total` exactly equal to the verdict's
    // `ExploreStats.states` on every exit path — complete, degraded,
    // cancelled, or interrupted — at zero per-state cost.
    let mut span = vnet_obs::span("explore.serial");
    let result = run_serial_inner(spec, cfg, budget, start, policy, on_level);
    match &result {
        Ok(CheckpointedRun::Finished(v)) => {
            let stats = v.stats();
            span.set_bytes(stats.peak_bytes as i64);
            if vnet_obs::metrics_enabled() {
                vnet_obs::counter("explore.runs_total").inc();
                vnet_obs::counter("explore.states_total").add(stats.states as u64);
            }
        }
        Ok(CheckpointedRun::Interrupted { states, .. }) => {
            if vnet_obs::metrics_enabled() {
                vnet_obs::counter("explore.runs_total").inc();
                vnet_obs::counter("explore.states_total").add(*states as u64);
            }
        }
        Err(_) => {}
    }
    result
}

/// The uninstrumented BFS core; see [`run_serial`].
fn run_serial_inner(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    start: Option<Checkpoint>,
    policy: Option<&CheckpointPolicy>,
    mut on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    if let Err(detail) = cfg.validate_for_run() {
        return Err(CheckpointError::Config { detail });
    }
    // The symmetry group + scratch, built once and reused for every
    // successor; `None` outside symmetry mode.
    let mut canon = cfg
        .symmetry
        .then(|| crate::symmetry::Canonicalizer::new(cfg));

    let mut store = Store::new(cfg.spill.clone());
    let mut frontier: VecDeque<StateId>;
    let mut level: usize;
    // Claimed-state work counter; cumulative across resumes (unlike the
    // meter's wall clock, which is per-process).
    let mut claims: u64;

    match start {
        Some(ckpt) => {
            frontier = seed_store(&mut store, &ckpt)?;
            level = ckpt.level;
            claims = ckpt.nodes_spent;
        }
        None => {
            let initial = GlobalState::initial(spec, cfg);
            // The initial state is a fixed point of every permutation
            // (all caches identical, no messages), so its canonical key
            // equals its plain encoding; computing it through the
            // canonicalizer keeps that an invariant, not an assumption.
            let init_key = match canon.as_mut() {
                Some(c) => c.canonicalize(cfg, &initial).1,
                None => initial.encode(),
            };
            // Invariant check on the initial state (vacuous for sane
            // specs, but uniform).
            if let Some(swmr) = &cfg.swmr {
                if let Some(detail) = swmr.check(&initial, spec) {
                    return Ok(CheckpointedRun::Finished(Verdict::InvariantViolation {
                        trace: Trace {
                            steps: Vec::new(),
                            last: initial,
                        },
                        detail,
                        stats: ExploreStats::bounded(1, 0, 0, 0),
                    }));
                }
            }
            let (init_id, _) = match store.keys.intern(&init_key) {
                Ok(v) => v,
                // A single state cannot overflow the arena; fail soft.
                Err(why) => {
                    return Err(CheckpointError::Corrupt {
                        offset: 0,
                        detail: format!("intern arena rejected the initial state: {why}"),
                    });
                }
            };
            store.push_link(init_id, 0, 0);
            frontier = VecDeque::from([init_id]);
            level = 0;
            claims = 0;
        }
    }

    let mut meter = budget.start_from(claims);
    // Per-level wall clock for the states/sec histograms; only read
    // while metrics are on so the disabled path never touches a clock.
    let mut level_clock = vnet_obs::metrics_enabled().then(std::time::Instant::now);
    // Spill counters already pushed to the metrics registry, so level
    // boundaries emit deltas of the monotonic totals.
    let mut spill_seen = SpillStats::default();
    let mut complete = true;
    let mut truncated: Option<DegradeReason> = None;
    let mut since_flush = 0usize;
    let mut accounted = 0u64;
    // Run-lifetime scratch: the decoded frontier state, successor
    // state, key encoding, rule reference.
    let mut gs = GlobalState::initial(spec, cfg);
    let mut expand_scratch = Scratch::new(spec, cfg);
    let mut key_buf: Vec<u8> = Vec::with_capacity(128);
    let mut rule_buf: Vec<u8> = Vec::with_capacity(32);

    // Charge the starting footprint exactly. For a fresh run that is
    // the initial state; for a resumed run the rebuilt store — the same
    // capacity-based figure a fresh run reaching this point would
    // carry, so fresh and resumed runs meter identically.
    {
        let now = footprint(&store, &frontier, &VecDeque::new());
        if !account(&mut meter, &mut accounted, now) {
            complete = false;
            truncated = meter.exhaustion().cloned();
        }
    }

    'bfs: while !frontier.is_empty() && truncated.is_none() {
        // Level-boundary housekeeping: cooperative interrupt, then the
        // periodic / deadline-imminent flush.
        if let Some(pol) = policy {
            if pol.stop_file.as_ref().is_some_and(|p| p.exists()) {
                flush(spec, cfg, &mut store, &frontier, level, claims, &pol.path)?;
                let states = store.len();
                return Ok(CheckpointedRun::Interrupted {
                    checkpoint: pol.path.clone(),
                    states,
                    level,
                });
            }
            if since_flush > pol.every_states || meter.deadline_imminent(pol.deadline_window) {
                flush(spec, cfg, &mut store, &frontier, level, claims, &pol.path)?;
                since_flush = 0;
            }
        }
        if let Some(max) = cfg.max_depth {
            if level >= max {
                complete = false;
                truncated = Some(DegradeReason::Bound {
                    what: format!("depth limit of {max} reached"),
                });
                break;
            }
        }
        let mut next_frontier: VecDeque<StateId> = VecDeque::new();
        while let Some(id) = frontier.pop_front() {
            // Cancellation (drain, client gone, admission deadline) must
            // not wait for the level to finish — a late level can take
            // minutes. Stop at the next state boundary and flush a
            // mid-level checkpoint: the unexpanded remainder plus the
            // states already promoted to the next level. Resume counts
            // the promoted states' depth from `level`, so level stats
            // after a cancelled resume are approximate; the verdict and
            // traces are not affected (parents record exact depths).
            // Budget truncations (node/deadline/memory) keep the
            // level-end snapshot so kill-resume equivalence stays exact.
            if matches!(&truncated, Some(DegradeReason::Cancelled { .. })) {
                frontier.push_front(id);
                frontier.append(&mut next_frontier);
                break 'bfs;
            }
            let decoded = store
                .keys
                .get(id)
                .is_some_and(|key| GlobalState::decode_into(key, cfg, &mut gs));
            if !decoded {
                // Unreachable for states we interned ourselves; treat
                // as corruption (or a vanished spill segment), keep the
                // run resumable, never panic.
                complete = false;
                truncated = Some(DegradeReason::Bound {
                    what: "interned state failed to decode".into(),
                });
                frontier.push_front(id);
                frontier.append(&mut next_frontier);
                break 'bfs;
            }
            // Early stops requested from inside the expansion callback
            // (which cannot `break 'bfs` or `return` across the closure
            // boundary itself).
            enum Stop {
                /// Arena exhaustion — of address space or of the
                /// allocator itself: degrade + requeue.
                Overflow(InternError),
                /// SWMR violated by a fresh successor.
                Invariant {
                    sid: StateId,
                    state: GlobalState,
                    detail: String,
                },
                /// Budget/bound trip on a policy-less run.
                Budget,
            }
            let mut stop: Option<Stop> = None;
            let outcome = expand(spec, cfg, &gs, &mut expand_scratch, |sstate, label| {
                // Symmetry mode interns the canonical *key* only — no
                // permuted state is materialized on the hot path; a plain
                // run interns the successor's own bytes.
                let key = interned_key(canon.as_mut(), sstate, &mut key_buf);
                let (sid, inserted) = match store.keys.intern(key) {
                    Ok(v) => v,
                    Err(why) => {
                        // Out of arena address space, or the allocator
                        // refused to grow it. Degrade like any other
                        // resource exhaustion.
                        stop = Some(Stop::Overflow(why));
                        return false;
                    }
                };
                if !inserted {
                    return true;
                }
                rule_buf.clear();
                label.encode_into(&mut rule_buf);
                let lid = match store.labels.intern_ref(&rule_buf) {
                    Ok(lid) => lid,
                    Err(why) => {
                        // The key stays interned without a link; the
                        // store's length (its links) leaves it out, so a
                        // resumed run claims it afresh.
                        stop = Some(Stop::Overflow(why));
                        return false;
                    }
                };
                store.push_link(id, lid, (level + 1) as u32);
                if let Some(swmr) = &cfg.swmr {
                    // SWMR is permutation-invariant, so the concrete
                    // successor is checked directly; the recorded
                    // witness is the canonical representative (what
                    // the interned key decodes to).
                    if let Some(detail) = swmr.check(sstate, spec) {
                        let state = if canon.is_some() {
                            GlobalState::decode(key, cfg)
                                .unwrap_or_else(|| sstate.clone())
                        } else {
                            sstate.clone()
                        };
                        stop = Some(Stop::Invariant { sid, state, detail });
                        return false;
                    }
                }
                claims += 1;
                since_flush += 1;
                next_frontier.push_back(sid);
                if truncated.is_none() {
                    let mut now = footprint(&store, &frontier, &next_frontier);
                    // Spill *before* the meter sees the new figure: the
                    // budget's memory exhaustion latches, so cold bytes
                    // must leave RAM first. A refused or failed spill
                    // falls through to honest accounting.
                    if matches!(store.keys.maybe_spill(now), Ok(true)) {
                        now = footprint(&store, &frontier, &next_frontier);
                    }
                    if !account(&mut meter, &mut accounted, now) {
                        complete = false;
                        truncated = meter.exhaustion().cloned();
                        if policy.is_none() {
                            stop = Some(Stop::Budget);
                            return false;
                        }
                    }
                }
                if truncated.is_none() && !meter.tick() {
                    complete = false;
                    truncated = meter.exhaustion().cloned();
                    if policy.is_none() {
                        stop = Some(Stop::Budget);
                        return false;
                    }
                }
                if truncated.is_none() && store.len() >= cfg.max_states {
                    complete = false;
                    truncated = Some(DegradeReason::Bound {
                        what: format!("state limit of {} reached", cfg.max_states),
                    });
                    if policy.is_none() {
                        stop = Some(Stop::Budget);
                        return false;
                    }
                }
                true
            });
            match outcome {
                ExpandOutcome::Bug { rule, detail } => {
                    let mut trace = rebuild_trace(spec, cfg, &mut store, id, gs.clone());
                    // The recorded rule/detail name canonical indices
                    // under symmetry; re-derive them from the concrete
                    // terminal the de-canonicalized trace reaches.
                    let (rule, detail) = if cfg.symmetry {
                        crate::trace::concrete_bug(spec, cfg, &trace.last)
                            .unwrap_or((rule, detail))
                    } else {
                        (rule, detail)
                    };
                    trace.steps.push(rule);
                    let stats = ExploreStats::bounded(
                        store.len(),
                        level,
                        meter.peak_bytes(),
                        store.keys.spill_stats().spilled_bytes,
                    );
                    return Ok(CheckpointedRun::Finished(Verdict::ModelError {
                        trace,
                        detail,
                        stats,
                    }));
                }
                ExpandOutcome::Done(0) => {
                    if !gs.is_quiescent(spec) {
                        let stats = ExploreStats::bounded(
                            store.len(),
                            level,
                            meter.peak_bytes(),
                            store.keys.spill_stats().spilled_bytes,
                        );
                        let trace = rebuild_trace(spec, cfg, &mut store, id, gs.clone());
                        return Ok(CheckpointedRun::Finished(Verdict::Deadlock {
                            depth: level,
                            trace,
                            stats,
                        }));
                    }
                }
                ExpandOutcome::Done(_) => {}
                ExpandOutcome::Stopped => match stop {
                    Some(Stop::Overflow(why)) => {
                        complete = false;
                        truncated = Some(match why {
                            InternError::AllocFailed => DegradeReason::MemoryPressure {
                                what: "state intern arena".into(),
                            },
                            InternError::AddressSpace => DegradeReason::Bound {
                                what: "intern arena address space exhausted".into(),
                            },
                        });
                        frontier.push_front(id);
                        frontier.append(&mut next_frontier);
                        break 'bfs;
                    }
                    Some(Stop::Invariant { sid, state, detail }) => {
                        let stats = ExploreStats::bounded(
                            store.len(),
                            level,
                            meter.peak_bytes(),
                            store.keys.spill_stats().spilled_bytes,
                        );
                        let trace = rebuild_trace(spec, cfg, &mut store, sid, state);
                        // Keep the violation text consistent with the
                        // concrete terminal the trace replays to.
                        let detail = if cfg.symmetry {
                            cfg.swmr
                                .as_ref()
                                .and_then(|s| s.check(&trace.last, spec))
                                .unwrap_or(detail)
                        } else {
                            detail
                        };
                        return Ok(CheckpointedRun::Finished(Verdict::InvariantViolation {
                            trace,
                            detail,
                            stats,
                        }));
                    }
                    // Budget trip without a policy stops at the state
                    // boundary, exactly like the historical explorer.
                    Some(Stop::Budget) | None => break 'bfs,
                },
            }
        }
        level += 1;
        on_level(level, store.len());
        if let Some(clock) = level_clock.as_mut() {
            vnet_obs::histogram("explore.level_wall_us", vnet_obs::DURATION_US_BOUNDS)
                .record(clock.elapsed().as_micros().min(u64::MAX as u128) as u64);
            vnet_obs::histogram("explore.level_states", vnet_obs::SMALL_COUNT_BOUNDS)
                .record(next_frontier.len() as u64);
            vnet_obs::gauge("explore.intern_load_pct").set(store.keys.load_factor_pct() as i64);
            vnet_obs::gauge("explore.peak_bytes").set(meter.peak_bytes() as i64);
            emit_spill_metrics(store.keys.spill_stats(), &mut spill_seen);
            if let Some(c) = canon.as_mut() {
                c.flush_metrics();
            }
            *clock = std::time::Instant::now();
        }
        frontier = next_frontier;
        // The old frontier was dropped and the new one took its place;
        // re-sync the exact accounting (peak tracking is unaffected).
        let mut now = footprint(&store, &frontier, &VecDeque::new());
        if matches!(store.keys.maybe_spill(now), Ok(true)) {
            now = footprint(&store, &frontier, &VecDeque::new());
        }
        let _ = account(&mut meter, &mut accounted, now);
        if truncated.is_some() {
            // Bounded run, level finished: snapshot then stop.
            break;
        }
    }

    // A truncated run is resumable — flush a final checkpoint so the
    // remaining work survives. A complete verdict needs no snapshot.
    if let Some(pol) = policy {
        if truncated.is_some() {
            flush(spec, cfg, &mut store, &frontier, level, claims, &pol.path)?;
        }
    }

    if level_clock.is_some() {
        emit_spill_metrics(store.keys.spill_stats(), &mut spill_seen);
    }
    Ok(CheckpointedRun::Finished(Verdict::NoDeadlock(ExploreStats {
        states: store.len(),
        levels: level,
        complete,
        provenance: match truncated {
            None => Provenance::Exact,
            Some(reason) => Provenance::Degraded { reason },
        },
        peak_bytes: meter.peak_bytes(),
        spill_bytes: store.keys.spill_stats().spilled_bytes,
    })))
}

/// Pushes the delta between the arena's monotonic spill totals and the
/// last-emitted snapshot into the metrics registry. No-op until the
/// first spill so unspilled runs register no spill series at all.
fn emit_spill_metrics(now: SpillStats, seen: &mut SpillStats) {
    if now.spills == 0 {
        return;
    }
    vnet_obs::counter("explore.spill_bytes").add(now.spilled_bytes.saturating_sub(seen.spilled_bytes));
    vnet_obs::counter("explore.spill_reads_total").add(now.reads.saturating_sub(seen.reads));
    vnet_obs::gauge("explore.compress_ratio").set(now.compress_ratio_pct() as i64);
    *seen = now;
}

/// Walks the parent links from `id` back to the initial state. The
/// visited bitset guards against parent cycles — impossible for links
/// built by this explorer, but a checkpoint that passed checksum
/// validation with a crafted payload must terminate too, not spin.
///
/// Under symmetry reduction the stored labels reference *canonical*
/// (permuted) indices and are not a concrete execution; the trace is
/// instead de-canonicalized from the chain of canonical state keys, so
/// the returned steps replay from the concrete initial state to the
/// returned terminal (see [`crate::trace::decanonicalize_chain`]).
fn rebuild_trace(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    store: &mut Store,
    id: StateId,
    last: GlobalState,
) -> Trace {
    let mut ids = Vec::new();
    let mut seen = BitSet::with_capacity(store.len());
    let mut cur = id;
    while (cur as usize) < store.len() && seen.insert(cur as usize) {
        ids.push(cur);
        if store.labels.is_root(store.label_ids[cur as usize]) {
            break; // the root carries the empty label
        }
        cur = store.parents[cur as usize];
    }
    ids.reverse();
    if cfg.symmetry {
        let mut chain = Vec::with_capacity(ids.len());
        let mut buf = Vec::with_capacity(160);
        for &sid in &ids {
            if !store.keys.get_into(sid, &mut buf) {
                return crate::trace::decanonicalize_failed(
                    &format!("interned state {sid} unreadable"),
                    last,
                );
            }
            chain.push(buf.clone());
        }
        return match crate::trace::decanonicalize_chain(spec, cfg, &chain) {
            Ok(t) => t,
            Err(why) => crate::trace::decanonicalize_failed(&why, last),
        };
    }
    let steps = ids
        .iter()
        .map(|&sid| {
            let mut label = String::new();
            store
                .labels
                .render_into(spec, store.label_ids[sid as usize], &mut label);
            label
        })
        .filter(|l| !l.is_empty())
        .collect();
    Trace { steps, last }
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IcnOrder, InjectionBudget, McConfig, VnMap};
    use vnet_protocol::protocols;

    #[test]
    fn figure3_deadlock_found_in_textbook_msi() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let v = explore(&spec, &cfg);
        match &v {
            Verdict::Deadlock { depth, trace, .. } => {
                assert!(*depth > 4, "deadlock depth {depth} suspiciously small");
                assert!(!trace.is_empty());
            }
            other => panic!("expected deadlock, got {}", other.summary()),
        }
    }

    #[test]
    fn figure3_deadlock_survives_unique_vns() {
        // Class 2: even one VN per message name deadlocks.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()));
        assert!(explore(&spec, &cfg).is_deadlock());
    }

    #[test]
    fn nonblocking_msi_with_two_vns_is_clean_on_figure3() {
        let spec = protocols::msi_nonblocking_cache();
        let outcome = vnet_core::minimize_vns(&spec);
        let vns = VnMap::from_assignment(
            outcome.assignment().expect("class 3"),
            spec.messages().len(),
        );
        let cfg = McConfig::figure3(&spec).with_vns(vns);
        let v = explore(&spec, &cfg);
        assert!(!v.is_deadlock(), "{}", v.summary());
        if let Verdict::NoDeadlock(stats) = &v {
            assert!(stats.complete);
        }
    }

    #[test]
    fn single_cache_single_addr_msi_completes_cleanly() {
        let spec = protocols::msi_blocking_cache();
        let mut cfg = McConfig::general(&spec);
        cfg.n_caches = 1;
        cfg.n_addrs = 1;
        cfg.n_dirs = 1;
        cfg.budget = InjectionBudget::PerCache(2);
        let v = explore(&spec, &cfg);
        match v {
            Verdict::NoDeadlock(stats) => assert!(stats.complete),
            other => panic!("{}", other.summary()),
        }
    }

    #[test]
    fn level_callback_fires() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let mut levels = 0;
        let _ = explore_with(&spec, &cfg, |_, _| levels += 1);
        assert!(levels > 0);
    }

    #[test]
    fn depth_bound_reports_incomplete() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec).with_limits(usize::MAX, Some(2));
        match explore(&spec, &cfg) {
            Verdict::NoDeadlock(stats) => {
                assert!(!stats.complete);
                assert!(stats.levels <= 2);
            }
            other => panic!("{}", other.summary()),
        }
    }

    #[test]
    fn swmr_holds_on_the_directed_scenario() {
        let spec = protocols::msi_nonblocking_cache();
        let outcome = vnet_core::minimize_vns(&spec);
        let vns = VnMap::from_assignment(outcome.assignment().unwrap(), spec.messages().len());
        let cfg = McConfig::figure3(&spec)
            .with_vns(vns)
            .with_swmr(crate::invariant::Swmr::by_convention(&spec));
        let v = explore(&spec, &cfg);
        assert!(matches!(v, Verdict::NoDeadlock(_)), "{}", v.summary());
    }

    #[test]
    fn swmr_catches_a_broken_protocol() {
        // A directory that grants M to every requestor without
        // invalidating anyone: two stores → two writers.
        use vnet_protocol::{acts, CoreOp, Guard, MsgType, ProtocolBuilder, Target};
        let mut b = ProtocolBuilder::new("broken-grants");
        b.msg("GetM", MsgType::Request).msg("Data", MsgType::DataResponse);
        b.cache_stable(&["I", "M"]).cache_transient(&["IM"]);
        b.dir_stable(&["I"]);
        b.cache_on_core("I", CoreOp::Store, acts().send("GetM", Target::Dir).goto("IM"));
        b.cache_on_msg_if("IM", "Data", Guard::AckZero, acts().goto("M"));
        b.dir_on_msg("I", "GetM", acts().send_data("Data", Target::Req));
        let spec = b.build();
        spec.validate().unwrap();

        let mut cfg = McConfig::general(&spec)
            .with_budget(InjectionBudget::PerCache(1))
            .with_swmr(crate::invariant::Swmr::by_convention(&spec));
        cfg.n_caches = 2;
        cfg.n_addrs = 1;
        cfg.n_dirs = 1;
        let v = explore(&spec, &cfg);
        match v {
            Verdict::InvariantViolation { detail, trace, .. } => {
                assert!(detail.contains("SWMR"));
                assert!(!trace.is_empty());
            }
            other => panic!("expected SWMR violation, got {}", other.summary()),
        }
    }

    #[test]
    fn symmetry_reduces_states_and_preserves_the_verdict() {
        let spec = protocols::msi_blocking_cache();
        let mut base = McConfig::general(&spec).with_budget(InjectionBudget::PerCache(1));
        base.n_caches = 3;
        base.n_addrs = 1;
        base.n_dirs = 1;
        let plain = explore(&spec, &base);
        let sym = base.clone().with_symmetry().expect("symmetric config");
        let reduced = explore(&spec, &sym);
        let (p, r) = (plain.stats(), reduced.stats());
        assert!(p.complete && r.complete);
        assert!(
            r.states * 2 < p.states,
            "symmetry should at least halve the space: {} vs {}",
            r.states,
            p.states
        );
        assert_eq!(plain.is_deadlock(), reduced.is_deadlock());
        // Symmetry-mode witnesses must still be *real* executions: the
        // de-canonicalized trace replays to its recorded terminal.
        if let Verdict::Deadlock { trace, .. } = &reduced {
            let end = trace.replay(&spec, &sym).expect("witness must replay");
            assert_eq!(end, trace.last, "replay must land on the recorded witness");
        }
    }

    #[test]
    fn symmetry_with_an_explicit_script_fails_closed() {
        let spec = protocols::msi_blocking_cache();
        let mut cfg = McConfig::figure3(&spec);
        cfg.symmetry = true; // bypasses with_symmetry's validation
        let budget = vnet_graph::Budget::unlimited();
        match run_serial(&spec, &cfg, &budget, None, None, |_, _| {}) {
            Err(CheckpointError::Config { detail }) => {
                assert!(detail.contains("per-cache budget"), "{detail}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_returns_a_degraded_partial_verdict() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        // Five states is far too few to reach the Figure-3 deadlock; the
        // explorer must stop cleanly and say so.
        let budget = vnet_graph::Budget::unlimited().with_node_limit(5);
        match explore_budgeted(&spec, &cfg, &budget) {
            Verdict::NoDeadlock(stats) => {
                assert!(!stats.complete);
                assert!(!stats.provenance.is_exact());
                assert!(stats.provenance.annotation().contains("node limit"));
                assert!(stats.states <= 7, "stopped late: {} states", stats.states);
            }
            other => panic!("expected a partial verdict, got {}", other.summary()),
        }
    }

    #[test]
    fn unlimited_budget_matches_the_plain_explorer() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let plain = explore(&spec, &cfg);
        let budgeted = explore_budgeted(&spec, &cfg, &vnet_graph::Budget::unlimited());
        assert_eq!(plain.stats(), budgeted.stats());
        assert_eq!(plain.is_deadlock(), budgeted.is_deadlock());
        assert!(plain.stats().provenance.is_exact());
    }

    #[test]
    fn counterexamples_stay_exact_even_under_a_budget() {
        // Enough budget to reach the deadlock, far too little for the
        // full space: the trace is still a definitive (exact) verdict.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let full = explore(&spec, &cfg);
        let Verdict::Deadlock { stats, .. } = &full else {
            panic!("figure3 must deadlock");
        };
        let budget =
            vnet_graph::Budget::unlimited().with_node_limit(stats.states as u64 + 64);
        let v = explore_budgeted(&spec, &cfg, &budget);
        assert!(v.is_deadlock(), "{}", v.summary());
        assert!(v.stats().provenance.is_exact());
    }

    #[test]
    fn p2p_ordering_also_finds_the_class2_deadlock() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec).with_order(IcnOrder::PointToPoint { salt: 1 });
        assert!(explore(&spec, &cfg).is_deadlock());
    }

    #[test]
    fn peak_bytes_is_reported_and_plausible() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let v = explore(&spec, &cfg);
        let stats = v.stats();
        // The visited arena alone holds ~62 bytes of key per state, so
        // the exact peak must be at least that and at most a generous
        // constant factor above it.
        let floor = (stats.states * 32) as u64;
        let ceiling = (stats.states as u64) * 4096 + (1 << 20);
        assert!(
            stats.peak_bytes > floor && stats.peak_bytes < ceiling,
            "peak {} outside [{floor}, {ceiling}] for {} states",
            stats.peak_bytes,
            stats.states
        );
    }
}
