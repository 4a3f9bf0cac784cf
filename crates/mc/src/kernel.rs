//! The one breadth-first kernel behind `vnet mc` and `vnet mc
//! --parallel N`: one visited store, one level loop, and one copy of
//! seed, flush, witness and verdict. The entry point fixes its two
//! parameters.
//!
//! * **Sections.** A checkpoint has one section per hash partition of
//!   the keys, `fx_hash(key) % S`, each in claim order: one section for
//!   the serial entry points, 64 for the threaded ones, so each keeps
//!   its checkpoint layout byte for byte. A state reference packs
//!   `(partition, id)` into one `u32`, `id << log2(P) | partition`, so a
//!   parent link is 12 bytes (parent, rule, level) and a frontier entry
//!   4.
//! * **Workers.** One worker keeps the visited set in one partition
//!   whatever `S` is, expands a level in frontier order and claims each
//!   successor as it is generated: no candidate buffers, no pre-claim
//!   lookup. Its budget is metered per claim. Exhaustion stops at the
//!   next claim without a checkpoint policy, and finishes the level with
//!   one. Cancellation stops at the next state. Only a one-partition
//!   store spills ([`SpillArena`]).
//!
//!   More workers (or fault injection, which needs a retryable expand
//!   step) split the visited set into `S` partitions and run each level
//!   as **expand** (worker `w` buffers the unvisited successors of the
//!   `w`-th frontier slice per partition, writing nothing shared),
//!   **route** (the partition choice above), **claim** (one worker per
//!   partition scans the buffers in worker order, which is frontier
//!   order, so the first occurrence of a key wins) and **commit**
//!   (winners in candidate order form the next frontier). Budgets are
//!   checked at level boundaries.
//!
//! Either way states are claimed in first-reach order, so witnesses do
//! not depend on the worker count, and neither does a flush with the
//! same section count. A counterexample ends a one-worker run at once;
//! more workers finish claiming the level, then report its first
//! finding in that order: the same witness, with a larger state count.
//! The multi-worker expand step runs under [`catch_unwind`] with no side
//! effect outside its worker's buffers, so a lost slice is expanded
//! again, with backoff, up to [`ParallelOpts::max_restarts`] times,
//! then the verdict degrades with [`DegradeReason::WorkerLoss`]. A run
//! resumes from a snapshot any explorer flushed.

use crate::checkpoint::{Checkpoint, CheckpointError, ShardEncoder, VisitedEntry};
use crate::config::McConfig;
use crate::explore::{counterexample, CheckpointedRun, ExploreStats, FindingKind, Verdict};
use crate::intern::{InternError, StateArena, StateId};
use crate::parallel::ParallelOpts;
use crate::rules::{expand, ExpandOutcome, Label, RuleTable, Scratch};
use crate::spill::{SpillArena, SpillConfig, SpillStats};
use crate::state::GlobalState;
use crate::symmetry::{interned_key, Canonicalizer};
use crate::trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::Instant;
use vnet_graph::{fx_hash_bytes, BudgetMeter, DegradeReason, Provenance};
use vnet_protocol::ProtocolSpec;

/// A visited state: `id << shift | partition` (see the module docs).
type Ref = u32;
/// Claim result of a candidate that lost to an earlier occurrence. No
/// reference packs to it.
const LOST: Ref = u32::MAX;

fn pack(shift: u32, part: usize, id: StateId) -> Option<Ref> {
    u32::try_from((u64::from(id) << shift) | part as u64)
        .ok()
        .filter(|&r| r != LOST)
}

fn corrupt(detail: String) -> CheckpointError {
    CheckpointError::Corrupt { offset: 0, detail }
}

/// The parent link of one claimed state.
#[derive(Clone, Copy)]
struct Link {
    parent: Ref,
    /// Id of the rule label in [`Part::rules`].
    rule: u32,
    level: u32,
}

/// One partition of the visited set.
struct Part {
    keys: SpillArena,
    rules: RuleTable,
    /// Per key id.
    links: Vec<Link>,
    /// This partition's share of [`Visited::bytes`].
    accounted: u64,
}

impl Part {
    fn new(spill: Option<SpillConfig>) -> Self {
        let mut rules = RuleTable::new();
        // Label id 0 is the empty (initial-state) label. A fresh table
        // cannot refuse one empty key.
        let _ = rules.intern_ref(&[]);
        Part {
            keys: SpillArena::new(spill),
            rules,
            links: Vec::new(),
            accounted: 0,
        }
    }

    fn heap_bytes(&self) -> u64 {
        self.keys.heap_bytes()
            + self.rules.heap_bytes()
            + (self.links.capacity() * std::mem::size_of::<Link>()) as u64
    }
}

/// The visited set: a power-of-two number of partitions.
struct Visited {
    parts: Vec<Part>,
    /// `log2(parts.len())`.
    shift: u32,
    /// Claimed states, over all partitions.
    len: usize,
    /// Exact heap bytes of the partitions, from capacities, as of each
    /// partition's last [`Visited::touch`].
    bytes: u64,
}

impl Visited {
    fn new(parts: usize, spill: Option<SpillConfig>) -> Self {
        Visited {
            // A partitioned store keeps its partitions in RAM: only the
            // one-partition store spills.
            parts: (0..parts)
                .map(|_| Part::new(spill.clone().filter(|_| parts == 1)))
                .collect(),
            shift: parts.trailing_zeros(),
            len: 0,
            bytes: 0,
        }
    }

    fn part_of(&self, hash: u64) -> usize {
        (hash as usize) & (self.parts.len() - 1)
    }

    fn unpack(&self, r: Ref) -> (usize, StateId) {
        ((r as usize) & (self.parts.len() - 1), r >> self.shift)
    }

    /// Re-reads partition `p`'s heap bytes; returns the new total.
    fn touch(&mut self, p: usize) -> u64 {
        let part = &mut self.parts[p];
        let now = part.heap_bytes();
        self.bytes = self.bytes - part.accounted + now;
        part.accounted = now;
        self.bytes
    }

    /// Recounts states and bytes after claims made outside
    /// [`Visited::touch`]'s view.
    fn recount(&mut self) -> u64 {
        self.len = self.parts.iter().map(|p| p.links.len()).sum();
        for p in 0..self.parts.len() {
            self.touch(p);
        }
        self.bytes
    }

    /// Decodes state `r` into `out`; `false` if it is unreadable.
    fn decode_into(&mut self, r: Ref, cfg: &McConfig, out: &mut GlobalState) -> bool {
        let (p, id) = self.unpack(r);
        self.parts[p]
            .keys
            .get(id)
            .is_some_and(|key| GlobalState::decode_into(key, cfg, out))
    }

    /// Seeds the store from a loaded checkpoint and returns its
    /// frontier. Entries are interned in file order; parents are
    /// resolved in a second pass, since a parent may sit in a later
    /// section of the file.
    fn seed(&mut self, ckpt: &Checkpoint) -> Result<Vec<Ref>, CheckpointError> {
        let exhausted =
            |why: InternError| corrupt(format!("checkpoint exceeds the intern arena: {why}"));
        // One partition gives entry `i` id `i`, so its links keep the
        // file's parent indices; only a partitioned store maps them.
        let one = self.parts.len() == 1;
        let mut refs: Vec<Ref> = Vec::with_capacity(if one { 0 } else { ckpt.entries.len() });
        for (i, e) in ckpt.entries.iter().enumerate() {
            let hash = fx_hash_bytes(&e.key);
            let p = self.part_of(hash);
            let part = &mut self.parts[p];
            let (id, fresh) = part.keys.intern_hashed(&e.key, hash).map_err(exhausted)?;
            if !fresh {
                return Err(corrupt(format!(
                    "visited entry {i} duplicates an earlier key"
                )));
            }
            let rule = part.rules.intern_text(&e.label).map_err(exhausted)?;
            part.links.push(Link {
                parent: e.parent,
                rule,
                level: e.level,
            });
            if !one {
                let r = pack(self.shift, p, id).ok_or(InternError::AddressSpace);
                refs.push(r.map_err(exhausted)?);
            }
            // Spill while seeding, not after: a resumed run's peak must
            // match what a fresh run reaching this point would carry,
            // and a fresh run would have spilled on the way. A refused
            // spill (IO error) keeps everything in RAM — the budget
            // decides.
            if i % 4096 == 4095 {
                let _ = part.keys.maybe_spill(part.heap_bytes());
            }
        }
        let at = |i: u32| {
            let r = if one {
                Some(i).filter(|&i| (i as usize) < ckpt.entries.len())
            } else {
                refs.get(i as usize).copied()
            };
            r.ok_or_else(|| corrupt(format!("checkpoint references missing entry {i}")))
        };
        for (e, &r) in ckpt.entries.iter().zip(&refs) {
            let (p, id) = self.unpack(r);
            self.parts[p].links[id as usize].parent = at(e.parent)?;
        }
        self.recount();
        ckpt.frontier.iter().map(|&i| at(i)).collect()
    }

    /// The witness ending at `state`, walked over the parent links.
    fn witness(
        &mut self,
        spec: &ProtocolSpec,
        cfg: &McConfig,
        state: Ref,
        last: GlobalState,
    ) -> Trace {
        let walk = crate::trace::witness(spec, cfg, state, last.clone(), |r, key, label| {
            let (p, id) = self.unpack(r);
            let part = &mut self.parts[p];
            let Some(&link) = part.links.get(id as usize) else {
                return Ok(None);
            };
            if !part.keys.get_into(id, key) {
                return Err(format!("interned state {p}/{id} unreadable"));
            }
            if part.rules.is_root(link.rule) {
                return Ok(None);
            }
            if !part.rules.render_into(spec, link.rule, label) {
                return Err(format!("rule label {p}/{} is damaged", link.rule));
            }
            Ok(Some(link.parent))
        });
        walk.unwrap_or_else(|why| crate::trace::decanonicalize_failed(&why, last))
    }
}

/// A counterexample candidate.
struct Finding {
    kind: FindingKind,
    /// Worker slice, then candidate sequence number within it: with
    /// `kind`, the detection order of a one-worker run.
    at: (usize, usize),
    /// The state it implicates: a frontier state (deadlock, model
    /// error) or a freshly claimed one (invariant).
    state: Ref,
    rule: String,
    detail: String,
}

/// The finding an expansion of frontier state `state` (decoded as `gs`)
/// makes: a model error, or a deadlock if no rule was enabled.
fn finding_of(
    spec: &ProtocolSpec,
    outcome: &ExpandOutcome,
    gs: &GlobalState,
    state: Ref,
    at: (usize, usize),
) -> Option<Finding> {
    let (kind, rule, detail) = match outcome {
        ExpandOutcome::Bug { rule, detail } => (FindingKind::Bug, rule.clone(), detail.clone()),
        ExpandOutcome::Done(0) if !gs.is_quiescent(spec) => {
            (FindingKind::Deadlock, String::new(), String::new())
        }
        _ => return None,
    };
    Some(Finding {
        kind,
        at,
        state,
        rule,
        detail,
    })
}

/// How a level body ended.
enum LevelEnd {
    /// The level was expanded and claimed; a bound may have tripped.
    Done,
    /// The run stops inside the level. The frontier holds what is left
    /// to expand, with the states already claimed from it.
    Stopped,
    /// A counterexample.
    Found(Finding),
}

/// Per-worker reusable buffers: the rule-expansion scratch, the decoded
/// frontier state, the key and rule-reference encodings. Aligned so
/// that two workers' hot fields never share a cache line.
#[repr(align(128))]
struct WorkScratch {
    rules: Scratch,
    gs: GlobalState,
    key: Vec<u8>,
    rule: Vec<u8>,
    /// Symmetry group + scratch, `None` outside symmetry mode.
    canon: Option<Canonicalizer>,
}

impl WorkScratch {
    fn new(spec: &ProtocolSpec, cfg: &McConfig) -> Self {
        WorkScratch {
            rules: Scratch::new(spec, cfg),
            gs: GlobalState::initial(spec, cfg),
            key: Vec::with_capacity(128),
            rule: Vec::with_capacity(32),
            canon: cfg.symmetry.then(|| Canonicalizer::new(cfg)),
        }
    }
}

/// Heap bytes of frontier-like reference lists, from capacities.
fn refs_bytes(a: &Vec<Ref>, b: &Vec<Ref>) -> u64 {
    ((a.capacity() + b.capacity()) * std::mem::size_of::<Ref>()) as u64
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

/// Moves the unexpanded rest of the frontier, from position `i`, ahead
/// of the states already claimed from it.
fn stop_at(frontier: &mut Vec<Ref>, next: &mut Vec<Ref>, i: usize) -> LevelEnd {
    frontier.drain(..i);
    frontier.append(next);
    LevelEnd::Stopped
}

/// One run's mutable state.
struct Run<'a> {
    spec: &'a ProtocolSpec,
    cfg: &'a McConfig,
    opts: &'a ParallelOpts,
    visited: Visited,
    meter: BudgetMeter,
    /// Bytes the meter holds (one-worker accounting).
    accounted: u64,
    /// Peak of visited plus candidate buffers (multi-worker accounting).
    peak: u64,
    /// Claimed states, cumulative across resumes: the checkpoint's
    /// spent nodes.
    claims: u64,
    since_flush: usize,
    level: usize,
    truncated: Option<DegradeReason>,
    /// `false` once a level was left half claimed: no snapshot then.
    resumable: bool,
    /// Sections per checkpoint.
    sections: usize,
}

/// Runs the kernel with `opts.threads` workers over a visited set whose
/// checkpoints have `sections` sections (1 or 64), from `start` or from
/// the initial state. `on_level(level, states)` fires as each level
/// completes.
pub(crate) fn run(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    sections: usize,
    opts: &ParallelOpts,
    start: Option<Checkpoint>,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    // The observability shim. Counting at this single choke point keeps
    // `explore.states_total` exactly equal to the verdict's
    // `ExploreStats.states` on every exit path, at no per-state cost.
    let mut span = vnet_obs::span(match sections {
        1 => "explore.serial",
        _ => "explore.parallel",
    });
    let result = run_inner(spec, cfg, sections, opts, start, on_level);
    let states = match &result {
        Ok(CheckpointedRun::Finished(v)) => {
            span.set_bytes(v.stats().peak_bytes as i64);
            v.stats().states
        }
        Ok(CheckpointedRun::Interrupted { states, .. }) => *states,
        Err(_) => return result,
    };
    if vnet_obs::metrics_enabled() {
        vnet_obs::counter("explore.runs_total").inc();
        vnet_obs::counter("explore.states_total").add(states as u64);
    }
    result
}

/// The uninstrumented kernel; see [`run`].
fn run_inner(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    sections: usize,
    opts: &ParallelOpts,
    start: Option<Checkpoint>,
    mut on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    if let Err(detail) = cfg.validate_for_run() {
        return Err(CheckpointError::Config { detail });
    }
    let threads = crate::parallel::worker_count(opts.threads);
    // Fault injection needs the multi-worker body's isolated, retryable
    // expand step, even for one worker.
    let inline = threads == 1 && opts.inject.is_none();
    let mut scratch: Vec<WorkScratch> = (0..threads).map(|_| WorkScratch::new(spec, cfg)).collect();
    // One worker claims into one partition whatever the section count;
    // more workers claim a partition each at a time, one per section.
    let parts = if inline { 1 } else { sections };
    let mut visited = Visited::new(parts, cfg.spill.clone());
    // A resumed run must expand at least one level before honoring the
    // stop file: loading and re-seeding a large checkpoint can outlast
    // a short supervision timeout, and stopping at the first boundary
    // would flush exactly the snapshot just loaded — the supervisor's
    // timeout/resume loop would re-read an ever-larger checkpoint and
    // never converge.
    let mut may_stop = start.is_none();
    let start = match start {
        Some(ckpt) => ckpt,
        None => {
            let initial = GlobalState::initial(spec, cfg);
            if let Some(detail) = cfg.swmr.as_ref().and_then(|s| s.check(&initial, spec)) {
                return Ok(CheckpointedRun::Finished(Verdict::InvariantViolation {
                    trace: Trace {
                        steps: Vec::new(),
                        last: initial,
                    },
                    detail,
                    stats: ExploreStats::bounded(1, 0, 0, 0),
                }));
            }
            // The initial state is a fixed point of every permutation,
            // so its canonical key is its plain encoding; deriving it
            // through the canonicalizer keeps that an invariant.
            let ws = &mut scratch[0];
            let key = interned_key(ws.canon.as_mut(), &initial, &mut ws.key).to_vec();
            // A fresh run starts from the one-state snapshot of its root.
            Checkpoint {
                fingerprint: 0,
                level: 0,
                nodes_spent: 0,
                entries: vec![VisitedEntry {
                    key,
                    parent: 0,
                    label: String::new(),
                    level: 0,
                }],
                frontier: vec![0],
            }
        }
    };
    let mut frontier = visited.seed(&start)?;
    // The node budget is cumulative across resumes. A one-section
    // checkpoint records claims (the root excluded); a 64-section one
    // records visited states.
    let claims = if sections == 1 {
        start.nodes_spent
    } else {
        visited.len as u64
    };
    let level = start.level;
    // The loaded entries are not needed past seeding; they must not
    // stay resident for the rest of the run.
    drop(start);
    let mut run = Run {
        spec,
        cfg,
        opts,
        meter: opts.budget.start_from(claims),
        accounted: 0,
        peak: visited.bytes,
        visited,
        claims,
        since_flush: 0,
        level,
        truncated: None,
        resumable: true,
        sections,
    };
    if inline {
        // Charge the starting footprint exactly: for a resumed run, the
        // same capacity-based figure a fresh run reaching this point
        // would carry.
        let now = run.visited.bytes + refs_bytes(&frontier, &Vec::new());
        if !account(&mut run.meter, &mut run.accounted, now) {
            run.truncated = run.meter.exhaustion().cloned();
        }
    }
    // Per-level wall clock for the states/sec histograms; only read
    // while metrics are on so the disabled path never touches a clock.
    let mut level_clock = vnet_obs::metrics_enabled().then(Instant::now);
    // Spill counters already pushed to the metrics registry.
    let mut spill_seen = SpillStats::default();
    let workers = if inline { 0 } else { threads };
    let mut pool = Pool {
        outs: (0..workers).map(|_| WorkerOut::new(parts)).collect(),
        claimed: (0..parts).map(|_| Vec::new()).collect(),
        restarts: 0,
        inject_left: AtomicU32::new(opts.inject.map_or(0, |i| i.times)),
    };

    while !frontier.is_empty() && run.truncated.is_none() {
        // Level-boundary housekeeping: cooperative interrupt, then the
        // periodic / deadline-imminent flush, then the bounds.
        if let Some(pol) = &opts.policy {
            if may_stop && pol.stop_file.as_ref().is_some_and(|p| p.exists()) {
                run.flush(&frontier, &pol.path)?;
                return Ok(CheckpointedRun::Interrupted {
                    checkpoint: pol.path.clone(),
                    states: run.visited.len,
                    level: run.level,
                });
            }
            if run.since_flush > pol.every_states
                || run.meter.deadline_imminent(pol.deadline_window)
            {
                run.flush(&frontier, &pol.path)?;
                run.since_flush = 0;
            }
        }
        if !inline {
            run.truncated = run.level_bound();
        }
        if let Some(max) = cfg.max_depth.filter(|&max| run.level >= max) {
            run.truncated.get_or_insert(DegradeReason::Bound {
                what: format!("depth limit of {max} reached"),
            });
        }
        if !inline && run.visited.len >= cfg.max_states {
            run.truncated.get_or_insert(DegradeReason::Bound {
                what: format!("state limit of {} reached", cfg.max_states),
            });
        }
        if run.truncated.is_some() {
            break;
        }

        let mut next = Vec::new();
        let end = match inline {
            true => run.level_inline(&mut frontier, &mut next, &mut scratch[0]),
            false => run.level_synced(&frontier, &mut next, &mut pool, &mut scratch),
        };
        match end {
            LevelEnd::Done => {}
            LevelEnd::Stopped => break,
            LevelEnd::Found(f) => return Ok(CheckpointedRun::Finished(run.verdict(f))),
        }
        run.level += 1;
        may_stop = true;
        on_level(run.level, run.visited.len);
        if let Some(clock) = level_clock.as_mut() {
            vnet_obs::histogram("explore.level_wall_us", vnet_obs::DURATION_US_BOUNDS)
                .record(clock.elapsed().as_micros().min(u64::MAX as u128) as u64);
            vnet_obs::histogram("explore.level_states", vnet_obs::SMALL_COUNT_BOUNDS)
                .record(next.len() as u64);
            let load = run
                .visited
                .parts
                .iter()
                .map(|p| p.keys.load_factor_pct())
                .max();
            vnet_obs::gauge("explore.intern_load_pct").set(load.unwrap_or(0) as i64);
            vnet_obs::gauge("explore.peak_bytes").set(run.peak_bytes() as i64);
            emit_spill_metrics(run.visited.parts[0].keys.spill_stats(), &mut spill_seen);
            for c in scratch.iter_mut().filter_map(|s| s.canon.as_mut()) {
                c.flush_metrics();
            }
            *clock = Instant::now();
        }
        frontier = next;
        if inline {
            // The old frontier was dropped and the new one took its
            // place; re-sync the exact accounting.
            let mut now = run.visited.recount() + refs_bytes(&frontier, &Vec::new());
            if matches!(run.visited.parts[0].keys.maybe_spill(now), Ok(true)) {
                now = run.visited.touch(0) + refs_bytes(&frontier, &Vec::new());
            }
            let _ = account(&mut run.meter, &mut run.accounted, now);
        }
    }

    // A truncated run is resumable — flush its snapshot — unless the
    // level it stopped in was left half claimed.
    if let Some(pol) = &opts.policy {
        if run.truncated.is_some() && run.resumable {
            run.flush(&frontier, &pol.path)?;
        }
    }
    if level_clock.is_some() {
        emit_spill_metrics(run.visited.parts[0].keys.spill_stats(), &mut spill_seen);
    }
    let mut stats = run.stats();
    stats.complete = run.truncated.is_none();
    if let Some(reason) = run.truncated {
        stats.provenance = Provenance::Degraded { reason };
    }
    Ok(CheckpointedRun::Finished(Verdict::NoDeadlock(stats)))
}

/// Pushes the delta between the arena's monotonic spill totals and the
/// last-emitted snapshot into the metrics registry. No-op until the
/// first spill so unspilled runs register no spill series at all.
fn emit_spill_metrics(now: SpillStats, seen: &mut SpillStats) {
    if now.spills == 0 {
        return;
    }
    vnet_obs::counter("explore.spill_bytes")
        .add(now.spilled_bytes.saturating_sub(seen.spilled_bytes));
    vnet_obs::counter("explore.spill_reads_total").add(now.reads.saturating_sub(seen.reads));
    vnet_obs::gauge("explore.compress_ratio").set(now.compress_ratio_pct() as i64);
    *seen = now;
}

impl Run<'_> {
    fn peak_bytes(&self) -> u64 {
        self.meter.peak_bytes().max(self.peak)
    }

    /// Statistics as of now, for a run that stopped early.
    fn stats(&self) -> ExploreStats {
        ExploreStats::bounded(
            self.visited.len,
            self.level,
            self.peak_bytes(),
            self.visited.parts[0].keys.spill_stats().spilled_bytes,
        )
    }

    /// Writes a checkpoint. Section `s` holds the states whose key hashes
    /// to `s`, in claim order, with parents and `frontier` as `(section,
    /// index)`. A store of one partition per section writes each as it
    /// stands. One worker behind `--parallel` keeps one partition, so
    /// its states are dealt into the 64 sections here, each at the
    /// index a 64-partition store would have claimed it under. Labels
    /// are rendered here, the only place besides a witness that needs
    /// their text.
    fn flush(&mut self, frontier: &[Ref], path: &Path) -> Result<(), CheckpointError> {
        // Flush duration feeds the `explore.checkpoint_flush_us`
        // histogram; the clock is only read while metrics are on.
        let clock = vnet_obs::metrics_enabled().then(Instant::now);
        let (spec, n, visited) = (self.spec, self.sections, &mut self.visited);
        let (mask, shift) = (visited.parts.len() as u32 - 1, visited.shift);
        let unreadable =
            |p: usize, id| corrupt(format!("visited state {p}/{id} unreadable at flush"));
        let mut key: Vec<u8> = Vec::with_capacity(128);
        // `dealt[id]`: the (section, index) of a one-partition state.
        let (mut dealt, mut counts) = (Vec::new(), vec![0u32; n]);
        if visited.parts.len() != n {
            let part = &mut visited.parts[0];
            for id in 0..part.links.len() as StateId {
                if !part.keys.get_into(id, &mut key) {
                    return Err(unreadable(0, id));
                }
                let s = fx_hash_bytes(&key) as usize & (n - 1);
                dealt.push((s as u32, counts[s]));
                counts[s] += 1;
            }
        }
        let place = |r: Ref| *dealt.get(r as usize).unwrap_or(&(r & mask, r >> shift));
        let mut encs: Vec<ShardEncoder> = (0..n).map(|_| ShardEncoder::new()).collect();
        for (p, part) in visited.parts.iter_mut().enumerate() {
            let labels = part
                .rules
                .texts(spec)
                .map_err(|rule| corrupt(format!("partition {p} rule label {rule} is damaged")))?;
            for (id, link) in part.links.iter().enumerate() {
                // A false here means a spilled segment became unreadable
                // under the run; surfacing it beats flushing a
                // checkpoint with holes.
                if !part.keys.get_into(id as StateId, &mut key) {
                    return Err(unreadable(p, id as StateId));
                }
                let label = labels.get(link.rule as usize).map_or("", String::as_str);
                let ((s, _), (ps, pi)) =
                    (place((id as u32) << shift | p as u32), place(link.parent));
                encs[s as usize].push(&key, ps, pi, label, link.level);
            }
        }
        let sections: Vec<Vec<u8>> = encs.into_iter().map(ShardEncoder::finish).collect();
        let res = crate::checkpoint::write(
            path,
            crate::checkpoint::fingerprint(spec, self.cfg),
            self.level,
            self.claims,
            &sections,
            frontier.iter().map(|&r| place(r)),
        );
        if let Some(clock) = clock {
            vnet_obs::counter("explore.checkpoint_flushes_total").inc();
            vnet_obs::histogram("explore.checkpoint_flush_us", vnet_obs::DURATION_US_BOUNDS)
                .record(clock.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        res
    }

    /// The verdict for a finding, its witness rebuilt from the links.
    fn verdict(&mut self, f: Finding) -> Verdict {
        let (spec, cfg) = (self.spec, self.cfg);
        let stats = self.stats();
        let mut last = GlobalState::initial(spec, cfg);
        if !self.visited.decode_into(f.state, cfg, &mut last) {
            last = GlobalState::initial(spec, cfg);
        }
        let trace = self.visited.witness(spec, cfg, f.state, last);
        counterexample(
            spec, cfg, f.kind, f.rule, f.detail, trace, self.level, stats,
        )
    }

    /// The multi-worker body's budget check at a level boundary:
    /// cancellation and the memory, node and deadline budgets. The
    /// overrun after a trip is at most one BFS level.
    fn level_bound(&self) -> Option<DegradeReason> {
        let budget = &self.opts.budget;
        if let Some(reason) = budget.cancel.as_ref().and_then(|t| t.reason()) {
            return Some(DegradeReason::Cancelled { reason });
        }
        let bytes = self.visited.bytes;
        if let Some(limit) = budget.mem_limit.filter(|&limit| bytes > limit) {
            return Some(DegradeReason::MemLimit { limit, peak: bytes });
        }
        let len = self.visited.len as u64;
        if let Some(limit) = budget.node_limit.filter(|&limit| len > limit) {
            return Some(DegradeReason::NodeLimit { limit });
        }
        budget
            .deadline
            .filter(|&deadline| self.meter.elapsed() >= deadline)
            .map(|deadline| DegradeReason::DeadlineExpired { deadline })
    }

    /// One level with one worker: each successor is claimed as it is
    /// generated, so claim order is first-reach order by construction.
    fn level_inline(
        &mut self,
        frontier: &mut Vec<Ref>,
        next: &mut Vec<Ref>,
        ws: &mut WorkScratch,
    ) -> LevelEnd {
        let Run {
            spec,
            cfg,
            opts,
            visited,
            meter,
            accounted,
            claims,
            since_flush,
            level,
            truncated,
            ..
        } = self;
        let (spec, cfg) = (*spec, *cfg);
        let policy = opts.policy.is_some();
        let child_level = *level as u32 + 1;
        let WorkScratch {
            rules,
            gs,
            key: key_buf,
            rule: rule_buf,
            canon,
        } = ws;
        for i in 0..frontier.len() {
            let r = frontier[i];
            // Cancellation (drain, client gone, admission deadline) must
            // not wait for the level to finish — a late level can take
            // minutes. Budget truncations keep the level-end snapshot so
            // kill-resume equivalence stays exact.
            if matches!(truncated, Some(DegradeReason::Cancelled { .. })) {
                return stop_at(frontier, next, i);
            }
            if !visited.decode_into(r, cfg, gs) {
                // Unreachable for states we interned ourselves; treat as
                // corruption (or a vanished spill segment) and keep the
                // run resumable.
                *truncated = Some(DegradeReason::Bound {
                    what: "interned state failed to decode".into(),
                });
                return stop_at(frontier, next, i);
            }
            // A finding the expansion callback stopped at: the callback
            // cannot leave the level itself.
            let mut found = None;
            let shift = visited.shift;
            let outcome = expand(spec, cfg, gs, rules, |succ, label| {
                // Symmetry mode interns the canonical *key* only; a plain
                // run interns the successor's own bytes.
                let key = interned_key(canon.as_mut(), succ, key_buf);
                let hash = fx_hash_bytes(key);
                let p = visited.part_of(hash);
                let part = &mut visited.parts[p];
                let claimed = part.keys.intern_hashed(key, hash).and_then(|(id, fresh)| {
                    if !fresh {
                        return Ok(None);
                    }
                    rule_buf.clear();
                    label.encode_into(rule_buf);
                    // A key interned without a link is left out of the
                    // store's length, so a resumed run claims it afresh.
                    let rule = part.rules.intern_ref(rule_buf)?;
                    let sid = pack(shift, p, id).ok_or(InternError::AddressSpace)?;
                    part.links.push(Link {
                        parent: r,
                        rule,
                        level: child_level,
                    });
                    Ok(Some(sid))
                });
                let sid = match claimed {
                    Ok(Some(sid)) => sid,
                    Ok(None) => return true,
                    Err(why) => {
                        *truncated = Some(why.degrade());
                        return false;
                    }
                };
                visited.len += 1;
                // SWMR is permutation-invariant, so the concrete
                // successor is checked directly.
                if let Some(detail) = cfg.swmr.as_ref().and_then(|s| s.check(succ, spec)) {
                    found = Some(Finding {
                        kind: FindingKind::Invariant,
                        at: (0, 0),
                        state: sid,
                        rule: String::new(),
                        detail,
                    });
                    return false;
                }
                *claims += 1;
                *since_flush += 1;
                next.push(sid);
                let mut ok = true;
                if truncated.is_none() {
                    let mut now = visited.touch(p) + refs_bytes(frontier, next);
                    // Spill *before* the meter sees the new figure: the
                    // budget's memory exhaustion latches, so cold bytes
                    // must leave RAM first.
                    if matches!(visited.parts[p].keys.maybe_spill(now), Ok(true)) {
                        now = visited.touch(p) + refs_bytes(frontier, next);
                    }
                    ok = account(meter, accounted, now) && meter.tick();
                    if !ok {
                        *truncated = meter.exhaustion().cloned();
                    }
                }
                if truncated.is_none() && visited.len >= cfg.max_states {
                    *truncated = Some(DegradeReason::Bound {
                        what: format!("state limit of {} reached", cfg.max_states),
                    });
                    ok = false;
                }
                // A budget trip without a policy stops at the state
                // boundary.
                ok || policy
            });
            if let Some(f) = found.or_else(|| finding_of(spec, &outcome, gs, r, (0, 0))) {
                return LevelEnd::Found(f);
            }
            if matches!(outcome, ExpandOutcome::Stopped) {
                return stop_at(frontier, next, i);
            }
        }
        LevelEnd::Done
    }

    /// One level with several workers: expand, route, claim, commit.
    fn level_synced(
        &mut self,
        frontier: &[Ref],
        next: &mut Vec<Ref>,
        pool: &mut Pool,
        scratch: &mut [WorkScratch],
    ) -> LevelEnd {
        let (spec, cfg, opts, level) = (self.spec, self.cfg, self.opts, self.level);
        // ---- Expand: contiguous frontier slices, retried on panic. ----
        // Expansion has no side effect outside its worker's buffers, so
        // a panicked worker's slice is simply expanded again.
        let workers = scratch.len().min(frontier.len());
        let slice = frontier.len().div_ceil(workers);
        let range = |w: usize| w * slice..frontier.len().min((w + 1) * slice);
        let mut pending: Vec<usize> = (0..workers).collect();
        for wave in 0.. {
            let (visited, inject_left) = (&self.visited, &pool.inject_left);
            let failed: Vec<usize> = std::thread::scope(|scope| {
                let handles: Vec<_> = (pool.outs.iter_mut().zip(scratch.iter_mut()).enumerate())
                    .filter(|(w, _)| pending.contains(w))
                    .map(|(w, (out, ws))| {
                        let handle = scope.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| {
                                out.clear();
                                for pos in range(w) {
                                    let fire = opts.inject.is_some_and(|i| i.level == level)
                                        && inject_left
                                            .fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1))
                                            .is_ok();
                                    if fire {
                                        std::panic::panic_any(format!(
                                            "injected worker fault at level {level}"
                                        ));
                                    }
                                    expand_one(spec, cfg, visited, frontier, pos, w, out, ws);
                                }
                            }))
                            .is_ok()
                        });
                        (w, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|(w, h)| (!matches!(h.join(), Ok(true))).then_some(w))
                    .collect()
            });
            if failed.is_empty() {
                break;
            }
            if pool.restarts >= opts.max_restarts {
                let lost_states = failed.iter().map(|&w| range(w).len()).sum();
                // The level did not complete, so the level counter stays
                // put and no checkpoint is flushed (the last boundary
                // checkpoint remains valid).
                self.truncated = Some(DegradeReason::WorkerLoss {
                    lost_states,
                    restarts: pool.restarts,
                });
                self.resumable = false;
                return LevelEnd::Stopped;
            }
            pool.restarts += 1;
            vnet_obs::counter("explore.worker_restarts_total").inc();
            std::thread::sleep(opts.backoff.saturating_mul(1 << wave.min(8)));
            pending = failed;
        }
        let outs = &mut pool.outs[..workers];
        if let Some(defect) = outs.iter().find_map(|o| o.defect.clone()) {
            self.truncated = Some(defect);
            return LevelEnd::Stopped;
        }
        let buffered: u64 = outs.iter().map(WorkerOut::heap_bytes).sum();
        self.peak = self.peak.max(self.visited.bytes + buffered);
        if vnet_obs::metrics_enabled() {
            let candidates: usize = outs.iter().map(|o| o.order.len()).sum();
            vnet_obs::counter("explore.parallel.candidates_total").add(candidates as u64);
        }

        // ---- Claim: one worker per partition, candidates in order. ----
        let (invariants, exhausted) = claim_level(
            spec,
            cfg,
            &mut self.visited,
            outs,
            frontier,
            level,
            &mut pool.claimed,
        );
        self.peak = self.peak.max(self.visited.recount());

        // ---- Resolve the level's findings: the first in order wins. ----
        let first = outs
            .iter_mut()
            .filter_map(|o| o.finding.take())
            .chain(invariants)
            .min_by_key(|f| (f.at, f.kind));
        if let Some(f) = first {
            return LevelEnd::Found(f);
        }
        if let Some(why) = exhausted {
            // Some claims were dropped: the visited set no longer matches
            // any level boundary, so nothing is flushed.
            self.truncated = Some(why.degrade());
            self.resumable = false;
            return LevelEnd::Stopped;
        }

        // ---- Commit: winners in candidate order form the frontier. ----
        let mut cursor = vec![0usize; pool.claimed.len()];
        for &p in outs.iter().flat_map(|o| &o.order) {
            let p = p as usize;
            let r = pool.claimed[p][cursor[p]];
            cursor[p] += 1;
            if r != LOST {
                next.push(r);
            }
        }
        self.claims += next.len() as u64;
        self.since_flush += next.len();
        LevelEnd::Done
    }
}

/// The multi-worker body's run-lifetime buffers.
struct Pool {
    /// One candidate buffer set per worker.
    outs: Vec<WorkerOut>,
    /// Per partition, the claim result of each of its candidates.
    claimed: Vec<Vec<Ref>>,
    restarts: u32,
    /// Injected faults still to fire.
    inject_left: AtomicU32,
}

/// One successor routed to a partition. Its key is the same-numbered
/// entry of the buffer's key arena; its rule reference sits at
/// `rules[rule..rule + rlen]`.
pub(crate) struct Cand {
    hash: u64,
    rule: u32,
    rlen: u32,
    /// The parent's position: in the frontier, or a process shard's
    /// entry index.
    pub(crate) pos: u32,
    /// The candidate's position in its worker's emission order.
    seq: u32,
}

/// One worker's candidates for one partition, in emission order. Keys
/// are interned, so a key the worker emitted before is not buffered
/// again: a later occurrence can never win the claim. Process-shard
/// workers fill one per destination shard as their outbox.
#[derive(Default)]
pub(crate) struct CandBuf {
    pub(crate) keys: StateArena,
    rules: Vec<u8>,
    pub(crate) cands: Vec<Cand>,
}

impl CandBuf {
    /// Buffers successor `key` (hashed as `hash`), reached by `label`
    /// from the parent at `pos`, as the `seq`-th emission. `Ok(false)`
    /// for a key this buffer already holds: it is not buffered again.
    pub(crate) fn push(
        &mut self,
        key: &[u8],
        hash: u64,
        label: Label<'_>,
        pos: u32,
        seq: u32,
    ) -> Result<bool, InternError> {
        if !self.keys.intern_hashed(key, hash)?.1 {
            return Ok(false);
        }
        let rule = self.rules.len();
        label.encode_into(&mut self.rules);
        self.cands.push(Cand {
            hash,
            rule: rule as u32,
            rlen: (self.rules.len() - rule) as u32,
            pos,
            seq,
        });
        Ok(true)
    }

    pub(crate) fn rule(&self, c: &Cand) -> &[u8] {
        &self.rules[c.rule as usize..(c.rule + c.rlen) as usize]
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.rules.clear();
        self.cands.clear();
    }

    pub(crate) fn heap_bytes(&self) -> u64 {
        self.keys.heap_bytes()
            + (self.rules.capacity() + self.cands.capacity() * std::mem::size_of::<Cand>()) as u64
    }
}

/// What one worker's expansion of its frontier slice produced. Reused
/// across levels so buffers keep their capacity. Aligned so that two
/// workers' hot vector headers never share a cache line.
#[repr(align(128))]
struct WorkerOut {
    bufs: Vec<CandBuf>,
    /// The partition of each candidate, in emission order: the merge
    /// key that turns per-partition claim results back into frontier
    /// order.
    order: Vec<u8>,
    /// The slice's first deadlock or model error, if any.
    finding: Option<Finding>,
    /// Why the slice could not be expanded: a frontier state that does
    /// not decode, or a candidate buffer the allocator refused.
    defect: Option<DegradeReason>,
}

impl WorkerOut {
    fn new(parts: usize) -> Self {
        WorkerOut {
            bufs: (0..parts).map(|_| CandBuf::default()).collect(),
            order: Vec::new(),
            finding: None,
            defect: None,
        }
    }

    fn clear(&mut self) {
        self.bufs.iter_mut().for_each(CandBuf::clear);
        self.order.clear();
        self.finding = None;
        self.defect = None;
    }

    /// Heap bytes of the candidate buffers, from capacities.
    fn heap_bytes(&self) -> u64 {
        self.bufs.iter().map(CandBuf::heap_bytes).sum::<u64>() + self.order.capacity() as u64
    }
}

/// Expands frontier state `pos` into worker `w`'s candidate buffers.
#[allow(clippy::too_many_arguments)]
fn expand_one(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    visited: &Visited,
    frontier: &[Ref],
    pos: usize,
    w: usize,
    out: &mut WorkerOut,
    ws: &mut WorkScratch,
) {
    let WorkScratch {
        rules,
        gs,
        key,
        canon,
        ..
    } = ws;
    // A partitioned store never spills, so every key is in RAM.
    let (p, id) = visited.unpack(frontier[pos]);
    let parent = visited.parts[p].keys.resident();
    if !GlobalState::decode_into(parent.map_or(&[], |a| a.get(id)), cfg, gs) {
        out.defect = Some(DegradeReason::Bound {
            what: "interned state failed to decode".into(),
        });
        return;
    }
    let WorkerOut {
        bufs,
        order,
        defect,
        ..
    } = out;
    let outcome = expand(spec, cfg, gs, rules, |succ, label| {
        let key = interned_key(canon.as_mut(), succ, key);
        let hash = fx_hash_bytes(key);
        let p = visited.part_of(hash);
        // A state of an earlier level would lose its claim: drop it
        // here, where the lookup runs in parallel and costs no buffer.
        let seen = visited.parts[p].keys.resident();
        if seen.is_some_and(|a| a.lookup_hashed(key, hash).is_some()) {
            return true;
        }
        match bufs[p].push(key, hash, label, pos as u32, order.len() as u32) {
            Ok(true) => order.push(p as u8),
            Ok(false) => {}
            Err(why) => {
                defect.get_or_insert(why.degrade());
                return false;
            }
        }
        true
    });
    // Only the slice's first deadlock or model error can be the level's
    // first finding; later ones are not recorded.
    if out.finding.is_none() {
        out.finding = finding_of(spec, &outcome, gs, frontier[pos], (w, out.order.len()));
    }
}

/// Claims a level's candidates: each partition on one thread, scanning
/// the workers' buffers in worker order, so the first occurrence of a
/// key wins. `claimed[p]` receives, per candidate of partition `p` in
/// that scan order, the new reference or [`LOST`]. Fresh states are
/// SWMR checked here; the violations come back as findings, with the
/// first arena exhaustion, if any. A claim step stops at its first
/// exhaustion, so keys and links stay aligned.
fn claim_level(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    visited: &mut Visited,
    outs: &[WorkerOut],
    frontier: &[Ref],
    level: usize,
    claimed: &mut [Vec<Ref>],
) -> (Vec<Finding>, Option<InternError>) {
    let workers = outs.len();
    let shift = visited.shift;
    let mut tasks: Vec<Vec<(usize, &mut Part, &mut Vec<Ref>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (p, (part, res)) in visited.parts.iter_mut().zip(claimed.iter_mut()).enumerate() {
        tasks[p % workers].push((p, part, res));
    }
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                scope.spawn(move || {
                    let mut findings = Vec::new();
                    let mut check = cfg
                        .swmr
                        .as_ref()
                        .map(|s| (s, GlobalState::initial(spec, cfg)));
                    for (p, part, res) in task {
                        res.clear();
                        for (w, out) in outs.iter().enumerate() {
                            let buf = &out.bufs[p];
                            for (i, c) in buf.cands.iter().enumerate() {
                                let key = buf.keys.get(i as u32);
                                let claim =
                                    part.keys
                                        .intern_hashed(key, c.hash)
                                        .and_then(|(id, fresh)| {
                                            if !fresh {
                                                return Ok(LOST);
                                            }
                                            let rule = part.rules.intern_ref(buf.rule(c))?;
                                            let r = pack(shift, p, id)
                                                .ok_or(InternError::AddressSpace)?;
                                            part.links.push(Link {
                                                parent: frontier[c.pos as usize],
                                                rule,
                                                level: level as u32 + 1,
                                            });
                                            Ok(r)
                                        });
                                let r = match claim {
                                    Ok(r) => r,
                                    Err(why) => return (findings, Some(why)),
                                };
                                res.push(r);
                                // SWMR is permutation-invariant, so the
                                // canonical representative stands in for
                                // the concrete successor.
                                let Some((swmr, gs)) = check.as_mut().filter(|_| r != LOST) else {
                                    continue;
                                };
                                if !GlobalState::decode_into(key, cfg, gs) {
                                    continue;
                                }
                                if let Some(detail) = swmr.check(gs, spec) {
                                    findings.push(Finding {
                                        kind: FindingKind::Invariant,
                                        at: (w, c.seq as usize),
                                        state: r,
                                        rule: String::new(),
                                        detail,
                                    });
                                }
                            }
                        }
                    }
                    (findings, None)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut findings = Vec::new();
    let mut exhausted = None;
    for r in results {
        match r {
            Ok((f, e)) => {
                findings.extend(f);
                exhausted = exhausted.or(e);
            }
            // A claim thread has no injected faults; a panic here is a
            // defect, surfaced as exhaustion of the level's claims.
            Err(_) => exhausted = exhausted.or(Some(InternError::AllocFailed)),
        }
    }
    (findings, exhausted)
}
