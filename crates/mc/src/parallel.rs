//! Level-synchronous parallel exploration with panic-isolated workers.
//!
//! The paper ran its Murphi models on a 768 GB Xeon server for up to 72
//! hours; this module is our budget substitute — spread each BFS level
//! across worker threads over a visited set split into 64 fixed hash
//! partitions. Each level runs as four steps:
//!
//! 1. **Expand.** Worker `w` takes the `w`-th contiguous slice of the
//!    frontier and, for each successor not already in the (read-only)
//!    visited set, appends a candidate — its key, the parent's frontier
//!    position and a compact rule reference (`Label::encode_into`) —
//!    to its own buffer for the
//!    key's partition. Expansion writes nothing shared: no lock, no
//!    label text.
//! 2. **Route** is the partition choice above (`fx_hash(key) % 64`).
//! 3. **Claim.** Each partition is claimed by one worker, which scans
//!    the workers' buffers for it in worker order — frontier order — so
//!    the first occurrence of a key wins, exactly the serial explorer's
//!    first-reach rule. Labels are rendered only for winners, and only
//!    when a checkpoint or a trace needs their text.
//! 4. **Commit.** Winners, collected in candidate order, form the next
//!    frontier as `(partition, id)` references.
//!
//! Three guarantees follow:
//!
//! * **The serial explorer's order.** Frontier order, parent links and
//!   therefore witnesses equal the serial explorer's for any thread
//!   count, and a level's findings resolve to the first one in that
//!   order. Partition-local ids follow candidate order too, so a
//!   checkpoint flush is byte-identical across runs and thread counts.
//! * **Panic isolation.** Expansion runs under
//!   [`std::panic::catch_unwind`] and has no side effect outside its
//!   worker's buffers, so a lost worker's slice is simply expanded
//!   again, with backoff, up to [`ParallelOpts::max_restarts`] times. On
//!   exhaustion the run returns a verdict tagged
//!   [`DegradeReason::WorkerLoss`] instead of hanging the level barrier
//!   or crashing the process.
//! * **Checkpoint/resume.** With a [`CheckpointPolicy`], progress is
//!   flushed at level boundaries in the format every explorer shares
//!   (one section per partition), and [`resume_parallel`] continues
//!   from a snapshot any explorer flushed.
//!
//! Used by the long bounded sweeps (`vnet campaign`); the serial
//! explorer remains the default for quick runs.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, ShardEncoder};
use crate::config::McConfig;
use crate::explore::{CheckpointedRun, ExploreStats, Verdict};
use crate::intern::{InternError, StateArena};
use crate::rules::{expand, ExpandOutcome, RuleTable, Scratch};
use crate::state::GlobalState;
use crate::symmetry::interned_key;
use crate::trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use vnet_graph::{fx_hash_bytes, Budget, DegradeReason, Provenance};
use vnet_protocol::ProtocolSpec;

/// Fixed partition count of the visited set (and sections per flush).
const PARTS: usize = 64;
/// Claim result of a candidate that lost to an earlier occurrence.
const LOST: u32 = u32::MAX;

/// A visited state: `(partition, partition-local id)`.
type Ref = (u32, u32);

/// The parent link of one claimed state.
#[derive(Clone, Copy)]
struct Link {
    parent: Ref,
    /// Id of the rule label in [`Part::rules`].
    rule: u32,
    level: u32,
}

/// One partition of the visited set. Owned by exactly one worker while
/// a level is claimed, read-only while it is expanded.
#[derive(Default)]
struct Part {
    keys: StateArena,
    rules: RuleTable,
    /// Per key id.
    links: Vec<Link>,
}

impl Part {
    fn heap_bytes(&self) -> u64 {
        self.keys.heap_bytes()
            + self.rules.heap_bytes()
            + (self.links.capacity() * std::mem::size_of::<Link>()) as u64
    }
}

fn part_of(hash: u64) -> usize {
    (hash % PARTS as u64) as usize
}

/// How a run degrades when one of its arenas cannot grow.
fn exhaustion_reason(why: InternError) -> DegradeReason {
    match why {
        InternError::AllocFailed => DegradeReason::MemoryPressure {
            what: "threaded explorer arena".into(),
        },
        InternError::AddressSpace => DegradeReason::Bound {
            what: "intern arena address space exhausted".into(),
        },
    }
}

struct Visited {
    parts: Vec<Part>,
}

impl Visited {
    fn new() -> Self {
        Visited {
            parts: (0..PARTS).map(|_| Part::default()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.parts.iter().map(|p| p.links.len()).sum()
    }

    /// Exact heap bytes held by the partitions. Entries are never
    /// removed, so this is also the peak.
    fn bytes(&self) -> u64 {
        self.parts.iter().map(Part::heap_bytes).sum()
    }

    fn key(&self, (p, id): Ref) -> &[u8] {
        self.parts
            .get(p as usize)
            .map_or(&[], |part| part.keys.get(id))
    }

    /// Writes a checkpoint of the visited set: one section per partition
    /// in partition-local id order; parents and `frontier` are already
    /// `(partition, id)` references. Labels are rendered here, the only
    /// place besides a witness that needs their text.
    fn flush(
        &self,
        spec: &ProtocolSpec,
        frontier: &[Ref],
        fingerprint: u64,
        level: usize,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        let mut sections = Vec::with_capacity(PARTS);
        for (p, part) in self.parts.iter().enumerate() {
            let labels = part
                .rules
                .texts(spec)
                .map_err(|rule| CheckpointError::Corrupt {
                    offset: 0,
                    detail: format!("partition {p} rule label {rule} is damaged"),
                })?;
            let mut enc = ShardEncoder::new();
            for (id, link) in part.links.iter().enumerate() {
                let (ps, pi) = link.parent;
                let label = labels.get(link.rule as usize).map_or("", String::as_str);
                enc.push(part.keys.get(id as u32), ps, pi, label, link.level);
            }
            sections.push(enc.finish());
        }
        let nodes_spent = self.len() as u64;
        crate::checkpoint::write(
            path,
            fingerprint,
            level,
            nodes_spent,
            &sections,
            frontier.iter().copied(),
        )
    }

    /// Seeds the partitions from a loaded checkpoint and returns its
    /// frontier. Entries are interned in file order; parents are
    /// resolved in a second pass, since a parent may sit in a later
    /// section of the file.
    fn seed(&mut self, ckpt: &Checkpoint) -> Result<Vec<Ref>, CheckpointError> {
        let exhausted = |why: InternError| CheckpointError::Corrupt {
            offset: 0,
            detail: format!("checkpoint exceeds the intern arena: {why}"),
        };
        let mut refs: Vec<Ref> = Vec::with_capacity(ckpt.entries.len());
        for e in &ckpt.entries {
            let p = part_of(fx_hash_bytes(&e.key));
            let part = &mut self.parts[p];
            let (id, fresh) = part.keys.intern(&e.key).map_err(exhausted)?;
            if !fresh {
                return Err(CheckpointError::Corrupt {
                    offset: 0,
                    detail: "checkpoint repeats a visited key".into(),
                });
            }
            let rule = part.rules.intern_text(&e.label).map_err(exhausted)?;
            part.links.push(Link {
                parent: (p as u32, id),
                rule,
                level: e.level,
            });
            refs.push((p as u32, id));
        }
        for (e, &(p, id)) in ckpt.entries.iter().zip(&refs) {
            self.parts[p as usize].links[id as usize].parent = refs[e.parent as usize];
        }
        Ok(ckpt.frontier.iter().map(|&i| refs[i as usize]).collect())
    }
}

/// One successor routed to a partition. Its key is the same-numbered
/// entry of the buffer's key arena; its rule reference sits at
/// `rules[rule..rule + rlen]`.
struct Cand {
    hash: u64,
    rule: u32,
    rlen: u32,
    /// The parent's position in the frontier.
    pos: u32,
}

/// One worker's candidates for one partition, in emission order. Keys
/// are interned, so a key the worker emitted before is not buffered
/// again: a later occurrence can never win the claim.
#[derive(Default)]
struct CandBuf {
    keys: StateArena,
    rules: Vec<u8>,
    cands: Vec<Cand>,
}

impl CandBuf {
    fn rule(&self, c: &Cand) -> &[u8] {
        &self.rules[c.rule as usize..(c.rule + c.rlen) as usize]
    }

    fn heap_bytes(&self) -> u64 {
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
    fn new() -> Self {
        WorkerOut {
            bufs: (0..PARTS).map(|_| CandBuf::default()).collect(),
            order: Vec::new(),
            finding: None,
            defect: None,
        }
    }

    fn clear(&mut self) {
        for b in &mut self.bufs {
            b.keys.clear();
            b.rules.clear();
            b.cands.clear();
        }
        self.order.clear();
        self.finding = None;
        self.defect = None;
    }

    /// Heap bytes of the candidate buffers, from capacities.
    fn heap_bytes(&self) -> u64 {
        self.bufs.iter().map(CandBuf::heap_bytes).sum::<u64>() + self.order.capacity() as u64
    }
}

/// A level's counterexample candidate.
struct Finding {
    kind: FindingKind,
    /// Worker slice, then candidate sequence number within it: with
    /// `kind`, the serial explorer's detection order.
    at: (usize, usize),
    /// The state it implicates: a frontier state (deadlock, model
    /// error) or a freshly claimed one (invariant).
    state: Ref,
    rule: String,
    detail: String,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FindingKind {
    // Declaration order breaks a tie at equal `at`: a deadlock or model
    // error of one state is detected before the first successor of the
    // next state is claimed.
    Bug,
    Deadlock,
    Invariant,
}

impl Finding {
    fn order(&self) -> ((usize, usize), FindingKind) {
        (self.at, self.kind)
    }
}

/// Per-worker reusable buffers: the rule-expansion scratch, the decoded
/// frontier state, and the key encoding. Aligned like [`WorkerOut`].
#[repr(align(128))]
struct WorkScratch {
    rules: Scratch,
    gs: GlobalState,
    key: Vec<u8>,
    /// Symmetry group + scratch, `None` outside symmetry mode.
    canon: Option<crate::symmetry::Canonicalizer>,
}

impl WorkScratch {
    fn new(spec: &ProtocolSpec, cfg: &McConfig) -> Self {
        WorkScratch {
            rules: Scratch::new(spec, cfg),
            gs: GlobalState::initial(spec, cfg),
            key: Vec::with_capacity(128),
            canon: cfg
                .symmetry
                .then(|| crate::symmetry::Canonicalizer::new(cfg)),
        }
    }
}

/// Deterministic fault injection for the supervisor tests and the CI
/// smoke job: panic a worker thread when it starts processing a state
/// at the given BFS level, up to `times` times across the whole run.
/// The panic unwinds through the normal isolation path — this is the
/// model checker's equivalent of `vnet-sim`'s [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// BFS level at which workers start failing.
    pub level: usize,
    /// Total number of injected failures.
    pub times: u32,
}

/// Supervisor configuration for [`explore_parallel_supervised`].
#[derive(Debug, Clone, Default)]
pub struct ParallelOpts {
    /// Worker threads; 0 picks the available parallelism.
    pub threads: usize,
    /// How many times lost workers may be restarted before the
    /// remaining slice is abandoned with [`DegradeReason::WorkerLoss`].
    pub max_restarts: u32,
    /// Base backoff slept before the first restart wave; doubles per
    /// wave.
    pub backoff: Duration,
    /// Work/deadline budget; checked at level boundaries (the paper's
    /// sweeps are level-reported, so the granularity matches).
    pub budget: Budget,
    /// Checkpoint emission, as in the serial explorer.
    pub policy: Option<CheckpointPolicy>,
    /// Deterministic worker-fault injection (tests, smoke jobs).
    pub inject: Option<PanicInjection>,
}

impl ParallelOpts {
    /// Defaults: available parallelism, 3 restarts, 10 ms backoff,
    /// unlimited budget, no checkpoints, no injection.
    pub fn new() -> Self {
        ParallelOpts {
            threads: 0,
            max_restarts: 3,
            backoff: Duration::from_millis(10),
            budget: Budget::unlimited(),
            policy: None,
            inject: None,
        }
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Overrides the budget.
    pub fn with_budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Enables checkpoint emission.
    pub fn with_policy(mut self, p: CheckpointPolicy) -> Self {
        self.policy = Some(p);
        self
    }

    /// Enables worker-fault injection.
    pub fn with_injection(mut self, i: PanicInjection) -> Self {
        self.inject = Some(i);
        self
    }
}

/// Parallel variant of [`crate::explore()`]. `threads = 0` picks the
/// available parallelism. Workers are panic-isolated with the default
/// restart budget; see [`explore_parallel_supervised`] for the full
/// supervisor surface (budgets, checkpoints, fault injection).
pub fn explore_parallel(spec: &ProtocolSpec, cfg: &McConfig, threads: usize) -> Verdict {
    let opts = ParallelOpts::new().with_threads(threads);
    match run_parallel(spec, cfg, &opts, None) {
        Ok(CheckpointedRun::Finished(v)) => v,
        // Unreachable without a checkpoint policy; fail soft, not loud.
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

/// The supervised parallel explorer: panic-isolated workers, bounded
/// restarts with backoff, optional budget, checkpoints, and fault
/// injection. Worker loss beyond the restart budget degrades the
/// verdict ([`DegradeReason::WorkerLoss`]) instead of failing the run.
pub fn explore_parallel_supervised(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
) -> Result<CheckpointedRun, CheckpointError> {
    run_parallel(spec, cfg, opts, None)
}

/// Continues a parallel run from the checkpoint at `path` (checksum and
/// spec/config fingerprint verified, as in [`crate::explore::resume`]).
pub fn resume_parallel(
    path: &Path,
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
) -> Result<CheckpointedRun, CheckpointError> {
    let ckpt = Checkpoint::load(path, spec, cfg)?;
    run_parallel(spec, cfg, opts, Some(ckpt))
}

fn run_parallel(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
    start: Option<Checkpoint>,
) -> Result<CheckpointedRun, CheckpointError> {
    // Observability shim mirroring the serial explorer's: counting at
    // this choke point keeps `explore.states_total` exactly equal to
    // the verdict's `ExploreStats.states` on every exit path.
    let mut span = vnet_obs::span("explore.parallel");
    let result = run_parallel_inner(spec, cfg, opts, start);
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

/// The uninstrumented level-synchronous core; see [`run_parallel`].
fn run_parallel_inner(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
    start: Option<Checkpoint>,
) -> Result<CheckpointedRun, CheckpointError> {
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        opts.threads
    };
    if let Err(detail) = cfg.validate_for_run() {
        return Err(CheckpointError::Config { detail });
    }

    let mut visited = Visited::new();
    let mut frontier: Vec<Ref>;
    let mut level: usize;
    // A resumed run must expand at least one level before honoring the
    // stop file: loading and re-seeding a large checkpoint can outlast
    // a short supervision timeout, and stopping at the first boundary
    // would flush exactly the snapshot just loaded — the supervisor's
    // timeout/resume loop would re-read an ever-larger checkpoint and
    // never converge. One level keeps the stop overrun bounded exactly
    // as a mid-level stop request does.
    let mut may_stop = start.is_none();
    match start {
        Some(ckpt) => {
            frontier = visited.seed(&ckpt)?;
            level = ckpt.level;
        }
        None => {
            let initial = GlobalState::initial(spec, cfg);
            let init_key = if cfg.symmetry {
                crate::symmetry::canonicalize(cfg, &initial).1
            } else {
                initial.encode()
            };
            let p = part_of(fx_hash_bytes(&init_key));
            let part = &mut visited.parts[p];
            let root = part
                .keys
                .intern(&init_key)
                .and_then(|(id, _)| Ok((id, part.rules.intern_ref(&[])?)))
                .map(|(id, rule)| {
                    let parent = (p as u32, id);
                    part.links.push(Link {
                        parent,
                        rule,
                        level: 0,
                    });
                    id
                })
                .map_err(|why| CheckpointError::Corrupt {
                    offset: 0,
                    detail: format!("intern arena rejected the initial state: {why}"),
                })?;
            frontier = vec![(p as u32, root)];
            level = 0;
        }
    }

    let started = Instant::now();
    let inject_left = AtomicU32::new(opts.inject.map_or(0, |i| i.times));
    let mut complete = true;
    let mut truncated: Option<DegradeReason> = None;
    let mut since_flush = 0usize;
    let mut restarts_used = 0u32;
    let mut resumable = true;
    let mut peak = visited.bytes();
    let fingerprint = crate::checkpoint::fingerprint(spec, cfg);

    // Run-lifetime buffers, one per worker: candidate buffers and
    // expansion scratch; and one claim result list per partition.
    let mut outs: Vec<WorkerOut> = (0..threads).map(|_| WorkerOut::new()).collect();
    let mut scratch: Vec<WorkScratch> = (0..threads).map(|_| WorkScratch::new(spec, cfg)).collect();
    let mut claimed: Vec<Vec<u32>> = (0..PARTS).map(|_| Vec::new()).collect();

    while !frontier.is_empty() {
        // ---- Level boundary: interrupts, flushes, budget, bounds. ----
        if let Some(pol) = &opts.policy {
            if may_stop && pol.stop_file.as_ref().is_some_and(|p| p.exists()) {
                visited.flush(spec, &frontier, fingerprint, level, &pol.path)?;
                return Ok(CheckpointedRun::Interrupted {
                    checkpoint: pol.path.clone(),
                    states: visited.len(),
                    level,
                });
            }
            let deadline_imminent = opts
                .budget
                .deadline
                .is_some_and(|d| d.saturating_sub(started.elapsed()) < pol.deadline_window);
            if since_flush > pol.every_states || deadline_imminent {
                visited.flush(spec, &frontier, fingerprint, level, &pol.path)?;
                since_flush = 0;
            }
        }
        // Cooperative cancellation and the memory budget are enforced
        // at level boundaries, like every other bound here: the overrun
        // after a cancel or a memory trip is at most one BFS level.
        if let Some(token) = &opts.budget.cancel {
            if let Some(reason) = token.reason() {
                truncated = Some(DegradeReason::Cancelled { reason });
            }
        }
        if let Some(limit) = opts.budget.mem_limit {
            if truncated.is_none() && visited.bytes() > limit {
                truncated = Some(DegradeReason::MemLimit {
                    limit,
                    peak: visited.bytes(),
                });
            }
        }
        if let Some(limit) = opts.budget.node_limit {
            if truncated.is_none() && visited.len() as u64 > limit {
                truncated = Some(DegradeReason::NodeLimit { limit });
            }
        }
        if let Some(deadline) = opts.budget.deadline {
            if truncated.is_none() && started.elapsed() >= deadline {
                truncated = Some(DegradeReason::DeadlineExpired { deadline });
            }
        }
        if truncated.is_none() {
            if let Some(max) = cfg.max_depth {
                if level >= max {
                    truncated = Some(DegradeReason::Bound {
                        what: format!("depth limit of {max} reached"),
                    });
                }
            }
            if visited.len() >= cfg.max_states {
                truncated = Some(DegradeReason::Bound {
                    what: format!("state limit of {} reached", cfg.max_states),
                });
            }
        }
        if truncated.is_some() {
            complete = false;
            break;
        }

        // ---- Expand: contiguous frontier slices, retried on panic. ----
        let workers = threads.min(frontier.len());
        let slice = frontier.len().div_ceil(workers);
        let mut pending: Vec<usize> = (0..workers).collect();
        let mut wave = 0u32;
        loop {
            let failed = expand_wave(
                spec,
                cfg,
                opts,
                &visited,
                &frontier,
                slice,
                level,
                &inject_left,
                &pending,
                &mut outs,
                &mut scratch,
            );
            if failed.is_empty() {
                break;
            }
            if restarts_used >= opts.max_restarts {
                let lost_states = failed
                    .iter()
                    .map(|&w| {
                        frontier
                            .len()
                            .min((w + 1) * slice)
                            .saturating_sub(w * slice)
                    })
                    .sum();
                truncated = Some(DegradeReason::WorkerLoss {
                    lost_states,
                    restarts: restarts_used,
                });
                break;
            }
            restarts_used += 1;
            vnet_obs::counter("explore.worker_restarts_total").inc();
            std::thread::sleep(opts.backoff.saturating_mul(1 << (wave.min(8))));
            wave += 1;
            pending = failed;
        }
        if truncated.is_some() {
            // Worker loss exhausted the restart budget mid-level: the
            // level did not complete, so the level counter stays put and
            // no checkpoint is flushed (the last boundary checkpoint
            // remains valid).
            complete = false;
            resumable = false;
            break;
        }
        let outs_now = &outs[..workers];
        if let Some(defect) = outs_now.iter().find_map(|o| o.defect.clone()) {
            complete = false;
            truncated = Some(defect);
            break;
        }
        peak = peak.max(visited.bytes() + outs_now.iter().map(WorkerOut::heap_bytes).sum::<u64>());
        if vnet_obs::metrics_enabled() {
            let candidates: usize = outs_now.iter().map(|o| o.order.len()).sum();
            vnet_obs::counter("explore.parallel.candidates_total").add(candidates as u64);
        }

        // ---- Claim: one worker per partition, candidates in order. ----
        let (invariants, exhausted) = claim_level(
            spec,
            cfg,
            &mut visited,
            outs_now,
            &frontier,
            level,
            &mut claimed,
        );
        if let Some(why) = exhausted {
            truncated.get_or_insert(exhaustion_reason(why));
        }
        peak = peak.max(visited.bytes());

        // ---- Resolve the level's findings: the first in order wins. ----
        let first = outs
            .iter_mut()
            .take(workers)
            .filter_map(|o| o.finding.take())
            .chain(invariants)
            .min_by_key(Finding::order);
        if let Some(f) = first {
            let stats = ExploreStats {
                states: visited.len(),
                levels: level,
                complete: false,
                provenance: Provenance::Exact,
                peak_bytes: peak,
                spill_bytes: 0,
            };
            return Ok(CheckpointedRun::Finished(finding_verdict(
                spec, cfg, &visited, f, level, stats,
            )));
        }
        if truncated.is_some() {
            // An exhausted arena dropped some claims: the visited set no
            // longer matches any level boundary, so nothing is flushed.
            complete = false;
            resumable = false;
            break;
        }

        // ---- Commit: winners in candidate order form the frontier. ----
        let mut next = Vec::new();
        let mut cursor = [0usize; PARTS];
        for out in &outs[..workers] {
            for &p in &out.order {
                let p = p as usize;
                let id = claimed[p][cursor[p]];
                cursor[p] += 1;
                if id != LOST {
                    next.push((p as u32, id));
                }
            }
        }
        frontier = next;
        since_flush += frontier.len();
        level += 1;
        may_stop = true;
    }

    // A truncated run is resumable — flush its level-boundary snapshot —
    // unless the level it stopped in was left half claimed.
    if let Some(pol) = &opts.policy {
        if truncated.is_some() && resumable {
            visited.flush(spec, &frontier, fingerprint, level, &pol.path)?;
        }
    }

    Ok(CheckpointedRun::Finished(Verdict::NoDeadlock(ExploreStats {
        states: visited.len(),
        levels: level,
        complete,
        provenance: match truncated {
            None => Provenance::Exact,
            Some(reason) => Provenance::Degraded { reason },
        },
        peak_bytes: peak,
        // The thread-parallel explorer keeps its partitions entirely in
        // RAM; out-of-core runs go through the serial or process-shard
        // explorers.
        spill_bytes: 0,
    })))
}

/// Expands the slices of the `pending` workers on their own threads.
/// Returns the workers that panicked; their output is discarded and
/// the slice can simply be expanded again.
#[allow(clippy::too_many_arguments)]
fn expand_wave(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
    visited: &Visited,
    frontier: &[Ref],
    slice: usize,
    level: usize,
    inject_left: &AtomicU32,
    pending: &[usize],
    outs: &mut [WorkerOut],
    scratch: &mut [WorkScratch],
) -> Vec<usize> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = outs
            .iter_mut()
            .zip(scratch.iter_mut())
            .enumerate()
            .filter(|(w, _)| pending.contains(w))
            .map(|(w, (out, scratch))| {
                let range = w * slice..frontier.len().min((w + 1) * slice);
                let handle = scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        out.clear();
                        for pos in range {
                            if let Some(inj) = opts.inject {
                                if inj.level == level
                                    && inject_left
                                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                            n.checked_sub(1)
                                        })
                                        .is_ok()
                                {
                                    std::panic::panic_any(format!(
                                        "injected worker fault at level {level}"
                                    ));
                                }
                            }
                            expand_one(spec, cfg, visited, frontier, pos, w, out, scratch);
                        }
                        if vnet_obs::metrics_enabled() {
                            if let Some(c) = scratch.canon.as_mut() {
                                c.flush_metrics();
                            }
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
    })
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
    scratch: &mut WorkScratch,
) {
    let WorkScratch {
        rules,
        gs,
        key,
        canon,
    } = scratch;
    if !GlobalState::decode_into(visited.key(frontier[pos]), cfg, gs) {
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
        // Symmetry mode derives the canonical *key* without
        // materializing any permuted state; a plain run keys the
        // successor by its own bytes.
        let key = interned_key(canon.as_mut(), succ, key);
        let hash = fx_hash_bytes(key);
        let p = part_of(hash);
        // A state of an earlier level would lose its claim: drop it
        // here, where the lookup runs in parallel and costs no buffer.
        if visited.parts[p].keys.lookup_hashed(key, hash).is_some() {
            return true;
        }
        let buf = &mut bufs[p];
        match buf.keys.intern_hashed(key, hash) {
            Ok((_, true)) => {}
            Ok((_, false)) => return true,
            Err(why) => {
                defect.get_or_insert(exhaustion_reason(why));
                return false;
            }
        }
        let rule = buf.rules.len();
        label.encode_into(&mut buf.rules);
        buf.cands.push(Cand {
            hash,
            rule: rule as u32,
            rlen: (buf.rules.len() - rule) as u32,
            pos: pos as u32,
        });
        order.push(p as u8);
        true
    });
    // Only the slice's first deadlock or model error can be the level's
    // first finding; later ones are not recorded.
    if out.finding.is_some() {
        return;
    }
    let (kind, rule, detail) = match outcome {
        ExpandOutcome::Bug { rule, detail } => (FindingKind::Bug, rule, detail),
        ExpandOutcome::Done(0) if !gs.is_quiescent(spec) => {
            (FindingKind::Deadlock, String::new(), String::new())
        }
        // A stop is a defect of this slice's buffers, already recorded.
        ExpandOutcome::Done(_) | ExpandOutcome::Stopped => return,
    };
    out.finding = Some(Finding {
        kind,
        at: (w, out.order.len()),
        state: frontier[pos],
        rule,
        detail,
    });
}

/// Claims a level's candidates: each partition on one thread, scanning
/// the workers' buffers in worker order, so the first occurrence of a
/// key wins. `claimed[p]` receives, per candidate of partition `p` in
/// that scan order, the new id or [`LOST`]. Fresh states are SWMR
/// checked here; the violations come back as findings, with the first
/// arena exhaustion, if any.
fn claim_level(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    visited: &mut Visited,
    outs: &[WorkerOut],
    frontier: &[Ref],
    level: usize,
    claimed: &mut [Vec<u32>],
) -> (Vec<Finding>, Option<InternError>) {
    let workers = outs.len();
    let mut tasks: Vec<Vec<(usize, &mut Part, &mut Vec<u32>)>> =
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
                    let mut exhausted = None;
                    let mut check = cfg.swmr.as_ref().map(|_| GlobalState::initial(spec, cfg));
                    for (p, part, res) in task {
                        res.clear();
                        for (w, out) in outs.iter().enumerate() {
                            let buf = &out.bufs[p];
                            for (i, c) in buf.cands.iter().enumerate() {
                                let key = buf.keys.get(i as u32);
                                // After an exhaustion nothing more is
                                // claimed: keys and links stay aligned.
                                let fresh = match exhausted {
                                    Some(_) => Ok(None),
                                    None => part.keys.intern_hashed(key, c.hash).and_then(
                                        |(id, new)| {
                                            if !new {
                                                return Ok(None);
                                            }
                                            let rule = part.rules.intern_ref(buf.rule(c))?;
                                            part.links.push(Link {
                                                parent: frontier[c.pos as usize],
                                                rule,
                                                level: level as u32 + 1,
                                            });
                                            Ok(Some(id))
                                        },
                                    ),
                                };
                                let id = match fresh {
                                    Ok(Some(id)) => id,
                                    Ok(None) => {
                                        res.push(LOST);
                                        continue;
                                    }
                                    Err(why) => {
                                        exhausted = Some(why);
                                        res.push(LOST);
                                        continue;
                                    }
                                };
                                res.push(id);
                                let (Some(swmr), Some(gs)) = (&cfg.swmr, check.as_mut()) else {
                                    continue;
                                };
                                // SWMR is permutation-invariant, so the
                                // canonical representative stands in for
                                // the concrete successor.
                                if !GlobalState::decode_into(key, cfg, gs) {
                                    continue;
                                }
                                if let Some(detail) = swmr.check(gs, spec) {
                                    findings.push(Finding {
                                        kind: FindingKind::Invariant,
                                        // The buffer index for now; the
                                        // caller turns it into a sequence
                                        // number.
                                        at: (w, i),
                                        state: (p as u32, id),
                                        rule: String::new(),
                                        detail,
                                    });
                                }
                            }
                        }
                    }
                    (findings, exhausted)
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
                if exhausted.is_none() {
                    exhausted = e;
                }
            }
            // A claim thread has no injected faults; a panic here is a
            // defect, surfaced as exhaustion of the level's claims.
            Err(_) => exhausted = exhausted.or(Some(InternError::AllocFailed)),
        }
    }
    // Invariant findings carry their buffer index; the emission sequence
    // number is the position of that buffer entry in the worker's order.
    for f in &mut findings {
        let (w, i) = f.at;
        let p = f.state.0 as u8;
        let seq = outs[w]
            .order
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == p)
            .nth(i)
            .map_or(usize::MAX, |(s, _)| s);
        f.at = (w, seq);
    }
    (findings, exhausted)
}

/// The verdict for a level's first finding, its witness rebuilt from
/// the parent links.
fn finding_verdict(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    visited: &Visited,
    f: Finding,
    level: usize,
    stats: ExploreStats,
) -> Verdict {
    let last = GlobalState::decode(visited.key(f.state), cfg)
        .unwrap_or_else(|| GlobalState::initial(spec, cfg));
    let mut trace = rebuild(spec, cfg, visited, f.state, last);
    match f.kind {
        FindingKind::Deadlock => Verdict::Deadlock {
            depth: level,
            trace,
            stats,
        },
        FindingKind::Bug => {
            // The recorded rule/detail name canonical indices under
            // symmetry; re-derive them from the concrete terminal the
            // de-canonicalized trace reaches.
            let (rule, detail) = if cfg.symmetry {
                crate::trace::concrete_bug(spec, cfg, &trace.last).unwrap_or((f.rule, f.detail))
            } else {
                (f.rule, f.detail)
            };
            trace.steps.push(rule);
            Verdict::ModelError {
                trace,
                detail,
                stats,
            }
        }
        FindingKind::Invariant => {
            // Keep the violation text consistent with the concrete
            // terminal the trace replays to.
            let detail = if cfg.symmetry {
                cfg.swmr
                    .as_ref()
                    .and_then(|s| s.check(&trace.last, spec))
                    .unwrap_or(f.detail)
            } else {
                f.detail
            };
            Verdict::InvariantViolation {
                trace,
                detail,
                stats,
            }
        }
    }
}

/// Walks the parent links from `state` to the root. Outside symmetry
/// mode the stored labels already form a concrete execution; under
/// symmetry they reference canonical indices, so the trace is
/// de-canonicalized from the chain of canonical keys instead.
fn rebuild(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    visited: &Visited,
    state: Ref,
    last: GlobalState,
) -> Trace {
    let mut steps = Vec::new();
    let mut chain = Vec::new();
    let mut cur = state;
    let mut label = String::new();
    // The step cap guards against parent cycles, which cannot arise
    // from this explorer's claims but could from a crafted checkpoint.
    loop {
        chain.push(visited.key(cur).to_vec());
        let Some(part) = visited.parts.get(cur.0 as usize) else {
            break;
        };
        let Some(link) = part.links.get(cur.1 as usize) else {
            break;
        };
        if part.rules.is_root(link.rule)
            || !part.rules.render_into(spec, link.rule, &mut label)
            || steps.len() > visited.len()
        {
            break;
        }
        steps.push(label.clone());
        cur = link.parent;
    }
    steps.reverse();
    chain.reverse();
    if cfg.symmetry {
        match crate::trace::decanonicalize_chain(spec, cfg, &chain) {
            Ok(t) => t,
            Err(why) => crate::trace::decanonicalize_failed(&why, last),
        }
    } else {
        Trace { steps, last }
    }
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InjectionBudget, McConfig};
    use vnet_protocol::protocols;

    #[test]
    fn parallel_matches_serial_on_a_complete_space() {
        let spec = protocols::msi_blocking_cache();
        let mut cfg = McConfig::general(&spec).with_budget(InjectionBudget::PerCache(1));
        cfg.n_caches = 2;
        cfg.n_addrs = 1;
        cfg.n_dirs = 1;
        let serial = crate::explore(&spec, &cfg);
        let parallel = explore_parallel(&spec, &cfg, 4);
        let (s, p) = (serial.stats(), parallel.stats());
        assert_eq!(s.states, p.states, "state counts must agree");
        assert_eq!(s.levels, p.levels);
        assert!(s.complete && p.complete);
    }

    #[test]
    fn parallel_finds_the_figure3_deadlock_at_the_same_depth() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let serial = crate::explore(&spec, &cfg);
        let parallel = explore_parallel(&spec, &cfg, 4);
        let Verdict::Deadlock { depth: ds, .. } = serial else {
            panic!()
        };
        let Verdict::Deadlock { depth: dp, trace, .. } = parallel else {
            panic!("parallel missed the deadlock")
        };
        assert_eq!(ds, dp, "BFS depth must be identical");
        assert_eq!(trace.len(), dp);
    }

    #[test]
    fn parallel_respects_bounds() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec).with_limits(usize::MAX, Some(3));
        match explore_parallel(&spec, &cfg, 2) {
            Verdict::NoDeadlock(stats) => {
                assert!(!stats.complete);
                assert!(stats.levels <= 3);
            }
            other => panic!("{}", other.summary()),
        }
    }

    #[test]
    fn witness_trace_is_deterministic_across_runs_and_thread_counts() -> Result<(), String> {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let mut seen: Option<Vec<String>> = None;
        for threads in [1, 2, 4, 4, 7] {
            let steps = match explore_parallel(&spec, &cfg, threads) {
                Verdict::Deadlock { trace, .. } => trace.steps,
                other => return Err(format!("figure3 must deadlock, got {}", other.summary())),
            };
            match &seen {
                None => seen = Some(steps),
                Some(first) => assert_eq!(
                    first, &steps,
                    "witness must not depend on scheduling ({threads} threads)"
                ),
            }
        }
        Ok(())
    }

    #[test]
    fn injected_worker_panic_is_retried_transparently() -> Result<(), String> {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let clean = explore_parallel(&spec, &cfg, 4);
        let opts = ParallelOpts::new()
            .with_threads(4)
            .with_injection(PanicInjection { level: 3, times: 2 });
        let v = match explore_parallel_supervised(&spec, &cfg, &opts) {
            Ok(CheckpointedRun::Finished(v)) => v,
            other => return Err(format!("unexpected outcome {other:?}")),
        };
        let (
            Verdict::Deadlock { depth, trace, .. },
            Verdict::Deadlock {
                depth: d0,
                trace: t0,
                ..
            },
        ) = (&v, &clean)
        else {
            return Err(format!(
                "faulted run lost the deadlock: {} vs {}",
                v.summary(),
                clean.summary()
            ));
        };
        assert_eq!(depth, d0, "retry must preserve the verdict depth");
        assert_eq!(trace.steps, t0.steps, "retry must preserve the witness");
        Ok(())
    }

    #[test]
    fn persistent_worker_loss_degrades_instead_of_hanging() -> Result<(), String> {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let mut opts = ParallelOpts::new()
            .with_threads(2)
            .with_injection(PanicInjection {
                level: 2,
                times: u32::MAX,
            });
        opts.max_restarts = 2;
        opts.backoff = Duration::from_millis(1);
        let v = match explore_parallel_supervised(&spec, &cfg, &opts) {
            Ok(CheckpointedRun::Finished(v)) => v,
            other => return Err(format!("unexpected outcome {other:?}")),
        };
        let Verdict::NoDeadlock(stats) = &v else {
            return Err(format!(
                "expected a degraded bounded verdict, got {}",
                v.summary()
            ));
        };
        assert!(!stats.complete);
        assert!(
            matches!(
                &stats.provenance,
                Provenance::Degraded {
                    reason: DegradeReason::WorkerLoss { restarts: 2, .. }
                }
            ),
            "wrong provenance: {:?}",
            stats.provenance
        );
        Ok(())
    }

    #[test]
    fn findings_resolve_to_the_serial_explorers_first() -> Result<(), String> {
        // A directory that grants M to every requestor without
        // invalidating anyone: two stores make two writers, reachable
        // along many paths at the same depth.
        use vnet_protocol::{acts, CoreOp, Guard, MsgType, ProtocolBuilder, Target};
        let mut b = ProtocolBuilder::new("broken-grants");
        b.msg("GetM", MsgType::Request)
            .msg("Data", MsgType::DataResponse);
        b.cache_stable(&["I", "M"]).cache_transient(&["IM"]);
        b.dir_stable(&["I"]);
        b.cache_on_core(
            "I",
            CoreOp::Store,
            acts().send("GetM", Target::Dir).goto("IM"),
        );
        b.cache_on_msg_if("IM", "Data", Guard::AckZero, acts().goto("M"));
        b.dir_on_msg("I", "GetM", acts().send_data("Data", Target::Req));
        let spec = b.build();
        let mut cfg = McConfig::general(&spec)
            .with_budget(InjectionBudget::PerCache(1))
            .with_swmr(crate::invariant::Swmr::by_convention(&spec));
        cfg.n_caches = 3;
        cfg.n_addrs = 1;
        cfg.n_dirs = 1;
        let Verdict::InvariantViolation { trace, detail, .. } = crate::explore(&spec, &cfg) else {
            return Err("the serial explorer must find the SWMR violation".into());
        };
        for threads in [1, 2, 4] {
            match explore_parallel(&spec, &cfg, threads) {
                Verdict::InvariantViolation {
                    trace: t,
                    detail: d,
                    ..
                } => {
                    assert_eq!(t.steps, trace.steps, "{threads} threads: witness diverged");
                    assert_eq!(t.last, trace.last, "{threads} threads: terminal diverged");
                    assert_eq!(d, detail, "{threads} threads: detail diverged");
                }
                other => return Err(format!("{threads} threads: {}", other.summary())),
            }
        }
        // The Figure-3 deadlock, likewise, with several workers.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let serial = crate::explore(&spec, &cfg);
        let Verdict::Deadlock { trace, .. } = &serial else {
            return Err(format!("figure3 must deadlock, got {}", serial.summary()));
        };
        for threads in [1, 3] {
            let Verdict::Deadlock { trace: t, .. } = explore_parallel(&spec, &cfg, threads) else {
                return Err(format!("{threads} threads missed the deadlock"));
            };
            assert_eq!(
                (&t.steps, &t.last),
                (&trace.steps, &trace.last),
                "{threads} threads"
            );
        }
        Ok(())
    }
}
