//! The model checker's verdicts and its serial entry points.
//!
//! [`explore`] and its variants run the one BFS kernel
//! (`crate::kernel`) with one partition and one worker: successors
//! are claimed in first-reach order as they are generated, budgets are
//! metered per claim, and a checkpoint is one section in claim order.
//! The threaded entry points ([`crate::parallel`]) run the same kernel
//! with 64 partitions. The counterexample and fallback helpers here
//! are shared by every explorer, the process-sharded one included.

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy};
use crate::config::McConfig;
use crate::parallel::ParallelOpts;
use crate::trace::Trace;
use std::path::{Path, PathBuf};
use vnet_graph::{Budget, DegradeReason, Provenance};
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
    pub(crate) fn bounded(states: usize, levels: usize, peak_bytes: u64, spill_bytes: u64) -> Self {
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

/// What a counterexample is. Declaration order breaks a tie between
/// findings at one position: a deadlock or model error of one state is
/// detected before the first successor of the next state is claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FindingKind {
    /// A controller received an undefined message.
    Bug,
    /// No rule is enabled and work is in flight.
    Deadlock,
    /// SWMR is violated.
    Invariant,
}

/// The verdict for a counterexample whose witness is `trace`, found at
/// BFS depth `depth`. A model error appends its failing `rule` to the
/// trace. Under symmetry the recorded rule and detail name canonical
/// indices, so both are re-derived from the concrete terminal that the
/// de-canonicalized trace reaches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn counterexample(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    kind: FindingKind,
    rule: String,
    detail: String,
    mut trace: Trace,
    depth: usize,
    stats: ExploreStats,
) -> Verdict {
    match kind {
        FindingKind::Deadlock => Verdict::Deadlock {
            trace,
            depth,
            stats,
        },
        FindingKind::Bug => {
            let concrete = match cfg.symmetry {
                true => crate::trace::concrete_bug(spec, cfg, &trace.last),
                false => None,
            };
            let (rule, detail) = concrete.unwrap_or((rule, detail));
            trace.steps.push(rule);
            Verdict::ModelError {
                trace,
                detail,
                stats,
            }
        }
        FindingKind::Invariant => {
            let detail = match (cfg.symmetry, &cfg.swmr) {
                (true, Some(swmr)) => swmr.check(&trace.last, spec).unwrap_or(detail),
                _ => detail,
            };
            Verdict::InvariantViolation {
                trace,
                detail,
                stats,
            }
        }
    }
}

/// The verdict of a run made without a checkpoint policy. Such a run
/// does no file IO and has no stop file, so neither fallback arm is
/// reachable; each fails soft with a degraded bounded verdict rather
/// than a panic.
pub(crate) fn settle(run: Result<CheckpointedRun, CheckpointError>) -> Verdict {
    let (states, levels, what) = match run {
        Ok(CheckpointedRun::Finished(v)) => return v,
        Ok(CheckpointedRun::Interrupted { states, level, .. }) => {
            (states, level, "run interrupted".to_string())
        }
        Err(e) => (0, 0, format!("checkpoint error: {e}")),
    };
    Verdict::NoDeadlock(ExploreStats {
        states,
        levels,
        complete: false,
        provenance: Provenance::Degraded {
            reason: DegradeReason::Bound { what },
        },
        peak_bytes: 0,
        spill_bytes: 0,
    })
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
    settle(serial(spec, cfg, budget, None, None, on_level))
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
///
/// Budget granularity: without a policy, exhaustion stops the search at
/// the very next claim. With a policy, the current level is finished
/// first — a flushable snapshot must sit at a level boundary — so the
/// overrun is bounded by one BFS level and the checkpoint is always
/// consistent. A cancellation stops at the next state either way and
/// flushes the unexpanded rest of the level with the states already
/// claimed from it.
pub fn explore_checkpointed(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    policy: &CheckpointPolicy,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    serial(spec, cfg, budget, None, Some(policy), on_level)
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
    serial(spec, cfg, budget, Some(ckpt), policy, on_level)
}

/// The kernel with one partition and one worker.
fn serial(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    budget: &Budget,
    start: Option<Checkpoint>,
    policy: Option<&CheckpointPolicy>,
    on_level: impl FnMut(usize, usize),
) -> Result<CheckpointedRun, CheckpointError> {
    let mut opts = ParallelOpts::new().with_threads(1).with_budget(budget.clone());
    opts.policy = policy.cloned();
    crate::kernel::run(spec, cfg, 1, &opts, start, on_level)
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
        // The config is refused before anything is written to the path.
        let policy = CheckpointPolicy::new(std::env::temp_dir().join("vnet-never-written.ckpt"));
        match explore_checkpointed(&spec, &cfg, &budget, &policy, |_, _| {}) {
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
