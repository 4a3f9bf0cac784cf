//! The threaded entry points: the BFS kernel (`crate::kernel`) with
//! `threads` workers and 64-section checkpoints. One worker runs the
//! serial explorer's loop and store; more expand each level in
//! parallel over 64 visited-set partitions. Claims follow the serial
//! explorer's first-reach order, so a run prints the serial witness,
//! and a flush does not depend on the thread count. Used by `vnet mc
//! --parallel N` and the long bounded sweeps (`vnet campaign`).

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy};
use crate::config::McConfig;
use crate::explore::{settle, CheckpointedRun, Verdict};
use std::path::Path;
use std::time::Duration;
use vnet_graph::Budget;
use vnet_protocol::ProtocolSpec;

/// Sections per threaded checkpoint (and visited-set partitions with
/// more than one worker).
const SECTIONS: usize = 64;

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
    /// remaining slice is abandoned with [`vnet_graph::DegradeReason::WorkerLoss`].
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

/// The worker count a `threads` setting runs with: 0 picks the
/// available parallelism (4 when the host does not say).
pub(crate) fn worker_count(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    }
}

/// Parallel variant of [`crate::explore()`]. `threads = 0` picks the
/// available parallelism. Workers are panic-isolated with the default
/// restart budget; see [`explore_parallel_supervised`] for the full
/// supervisor surface (budgets, checkpoints, fault injection).
pub fn explore_parallel(spec: &ProtocolSpec, cfg: &McConfig, threads: usize) -> Verdict {
    let opts = ParallelOpts::new().with_threads(threads);
    settle(explore_parallel_supervised(spec, cfg, &opts))
}

/// The supervised parallel explorer: panic-isolated workers, bounded
/// restarts with backoff, optional budget, checkpoints, and fault
/// injection. Worker loss beyond the restart budget degrades the
/// verdict ([`vnet_graph::DegradeReason::WorkerLoss`]) instead of failing the run.
pub fn explore_parallel_supervised(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ParallelOpts,
) -> Result<CheckpointedRun, CheckpointError> {
    crate::kernel::run(spec, cfg, SECTIONS, opts, None, |_, _| {})
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
    crate::kernel::run(spec, cfg, SECTIONS, opts, Some(ckpt), |_, _| {})
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InjectionBudget, McConfig};
    use vnet_graph::{DegradeReason, Provenance};
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

    #[test]
    fn resumed_flush_does_not_depend_on_the_thread_count() -> Result<(), String> {
        // One worker keeps one partition and deals its states into the
        // 64 sections at flush; after a resume from either layout it
        // must flush what a 64-partition store flushes.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let dir = std::env::temp_dir().join(format!("vnet-par-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let budget = |n| Budget::unlimited().with_node_limit(n);
        let serial = dir.join("serial.ckpt");
        let policy = CheckpointPolicy::new(&serial);
        crate::explore_checkpointed(&spec, &cfg, &budget(2_000), &policy, |_, _| {})
            .map_err(|e| e.to_string())?;
        let threaded = dir.join("threaded.ckpt");
        let opts = ParallelOpts::new()
            .with_threads(2)
            .with_budget(budget(2_000))
            .with_policy(CheckpointPolicy::new(&threaded));
        explore_parallel_supervised(&spec, &cfg, &opts).map_err(|e| e.to_string())?;
        for snapshot in [&serial, &threaded] {
            let mut flushed = Vec::new();
            for threads in [1, 2, 4] {
                let copy = dir.join(format!("resumed-{threads}.ckpt"));
                std::fs::copy(snapshot, &copy).map_err(|e| e.to_string())?;
                let opts = ParallelOpts::new()
                    .with_threads(threads)
                    .with_budget(budget(6_000))
                    .with_policy(CheckpointPolicy::new(&copy));
                match resume_parallel(&copy, &spec, &cfg, &opts) {
                    Ok(CheckpointedRun::Finished(Verdict::NoDeadlock(s))) if !s.complete => {}
                    other => return Err(format!("{threads} threads: {other:?}")),
                }
                flushed.push(std::fs::read(&copy).map_err(|e| e.to_string())?);
            }
            assert!(
                flushed.windows(2).all(|w| w[0] == w[1]),
                "{}: resumed flushes differ across 1, 2 and 4 threads",
                snapshot.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
