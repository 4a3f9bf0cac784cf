//! One `mc` run's two requests: [`McRequest`], what the run checks,
//! and [`RunPlan`], how it runs.
//!
//! An [`McRequest`] holds the VN choice, the scenario, its dimensions
//! and symmetry — everything that decides the [`McConfig`] a run
//! checks, and nothing that only picks an explorer or an output mode
//! (`--machine`, `--parameterized`). A [`RunPlan`] holds the rest of
//! the run: the explorer (serial, `--parallel`, `--shard-procs`), the
//! budget, spill, checkpoints, resume and fault injection. [`run`]
//! executes a plan.
//!
//! Every front-end goes through these two types. `vnet mc` parses its
//! argv with [`McRequest::from_args`] and [`RunPlan::from_args`], and
//! its `__shard-worker` processes parse theirs with the first. Shard
//! workers, campaign children and the daemon's process dispatch are
//! handed the argv the two `to_args` render ([`RunPlan::mc_argv`]), and
//! every path turns a request into a config with [`McRequest::config`].
//! So no two front-ends can check one (protocol, VN map, scenario) cell
//! under different configs, a shard worker's checkpoint fingerprint is
//! its supervisor's, and a child runs the way its parent planned.
//!
//! [`run`]: crate::explore::run

use crate::config::{InjectionBudget, McConfig, VnMap};
use crate::parallel::PanicInjection;
use crate::spill::SpillConfig;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;
use vnet_core::{analyze, VnOutcome};
use vnet_graph::Budget;
use vnet_protocol::ProtocolSpec;

/// The value following flag `name` in `args`, if the flag is present.
fn value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a String>, String> {
    let at = args.iter().position(|a| a == name);
    at.map(|i| {
        args.get(i + 1)
            .ok_or_else(|| format!("{name} needs a value"))
    })
    .transpose()
}

/// The parsed value of flag `name`, if it is present.
fn parsed<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for {name}: `{v}`"))
        })
        .transpose()
}

/// The path following flag `name`, if it is present.
fn path(args: &[String], name: &str) -> Result<Option<PathBuf>, String> {
    Ok(value(args, name)?.map(PathBuf::from))
}

/// A `<first>:<second>` injection flag; `want` names the two parts in
/// the refusal of a value without the colon, `first` and `second` in
/// the refusal of a part that does not parse.
fn pair<A: FromStr, B: FromStr>(
    args: &[String],
    name: &str,
    want: &str,
    first: &str,
    second: &str,
) -> Result<Option<(A, B)>, String> {
    let Some(text) = value(args, name)? else {
        return Ok(None);
    };
    let (a, b) = text
        .split_once(':')
        .ok_or_else(|| format!("bad injection `{text}` (want {want})"))?;
    let a = a.parse().map_err(|_| format!("bad {first} in `{text}`"))?;
    let b = b.parse().map_err(|_| format!("bad {second} in `{text}`"))?;
    Ok(Some((a, b)))
}

/// VN-mapping selection for an `mc` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VnChoice {
    /// The analyzer's minimal mapping (one VN per message for Class 2).
    #[default]
    Minimal,
    /// Everything on one VN (`--single-vn`).
    Single,
    /// One VN per message name (`--unique-vns`).
    Unique,
}

/// What decides an `mc` run's [`McConfig`]. The default is the Table I
/// cell: the Figure-3 scenario under the analyzer's minimal VN map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McRequest {
    /// The VN map to check under.
    pub vns: VnChoice,
    /// Explore the free-running general scenario (`--general`: uniform
    /// per-cache budget, unordered ICN) instead of the directed
    /// Figure-3 script.
    pub general: bool,
    /// `--caches`: resizes the general scenario.
    pub caches: Option<usize>,
    /// `--addrs`: resizes the general scenario.
    pub addrs: Option<usize>,
    /// `--dirs`: resizes the general scenario.
    pub dirs: Option<usize>,
    /// `--per-cache`: the general scenario's per-cache injection budget.
    pub per_cache: Option<u8>,
    /// Fold states equivalent under cache × address permutations
    /// (`--symmetry`; requires the general scenario).
    pub symmetry: bool,
}

impl McRequest {
    /// The general scenario under symmetry reduction, with this
    /// request's VN choice and dimensions.
    pub fn with_symmetry(self) -> Self {
        McRequest {
            general: true,
            symmetry: true,
            ..self
        }
    }

    /// Parses the configuration flags out of an `mc` argv, ignoring
    /// every other flag. `--unique-vns` wins over `--single-vn`.
    pub fn from_args(args: &[String]) -> Result<McRequest, String> {
        let has = |name: &str| args.iter().any(|a| a == name);
        let (caches, addrs, dirs, per_cache) = (
            parsed(args, "--caches")?,
            parsed(args, "--addrs")?,
            parsed(args, "--dirs")?,
            parsed::<usize>(args, "--per-cache")?,
        );
        let per_cache = per_cache
            .map(|n| u8::try_from(n).map_err(|_| "--per-cache must fit in a byte".to_string()))
            .transpose()?;
        let vns = if has("--unique-vns") {
            VnChoice::Unique
        } else if has("--single-vn") {
            VnChoice::Single
        } else {
            VnChoice::Minimal
        };
        Ok(McRequest {
            vns,
            general: has("--general"),
            caches,
            addrs,
            dirs,
            per_cache,
            symmetry: has("--symmetry"),
        })
    }

    /// The flags [`McRequest::from_args`] parses back to this request.
    pub fn to_args(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self.vns {
            VnChoice::Minimal => {}
            VnChoice::Single => out.push("--single-vn".to_string()),
            VnChoice::Unique => out.push("--unique-vns".to_string()),
        }
        if self.general {
            out.push("--general".to_string());
        }
        if self.symmetry {
            out.push("--symmetry".to_string());
        }
        for (flag, v) in [
            ("--caches", self.caches),
            ("--addrs", self.addrs),
            ("--dirs", self.dirs),
            ("--per-cache", self.per_cache.map(usize::from)),
        ] {
            if let Some(n) = v {
                out.push(flag.to_string());
                out.push(n.to_string());
            }
        }
        out
    }

    /// The config this request checks `spec` under, validated fail-closed
    /// (codec limits, and the symmetry preconditions: `--symmetry`
    /// without `--general` is refused, because the Figure-3 script names
    /// specific caches). The flag is `true` when the analyzer found
    /// `spec` to be Class 2 and the minimal choice fell back to one VN
    /// per message.
    pub fn config(&self, spec: &ProtocolSpec) -> Result<(McConfig, bool), String> {
        let resized = self.caches.is_some()
            || self.addrs.is_some()
            || self.dirs.is_some()
            || self.per_cache.is_some();
        if resized && !self.general {
            // The directed Figure-3 script is written for the stock
            // 3/2/2 dimensions.
            return Err(
                "--caches/--addrs/--dirs/--per-cache resize the general scenario; add --general"
                    .into(),
            );
        }
        let (cfg, class2) = self.build(spec);
        cfg.validate_for_run()?;
        Ok((cfg, class2))
    }

    /// [`McRequest::config`] without the checks, for callers whose
    /// explorer validates the config before it touches a state.
    pub(crate) fn build(&self, spec: &ProtocolSpec) -> (McConfig, bool) {
        let n = spec.messages().len();
        let (vns, class2) = match self.vns {
            VnChoice::Single => (VnMap::single(n), false),
            VnChoice::Unique => (VnMap::one_per_message(n), false),
            VnChoice::Minimal => match analyze(spec).outcome() {
                VnOutcome::Assigned { assignment, .. } => {
                    (VnMap::from_assignment(assignment, n), false)
                }
                VnOutcome::Class2(_) => (VnMap::one_per_message(n), true),
            },
        };
        let scenario = if self.general {
            McConfig::general(spec)
        } else {
            McConfig::figure3(spec)
        };
        let mut cfg = scenario.with_vns(vns);
        cfg.n_caches = self.caches.unwrap_or(cfg.n_caches);
        cfg.n_addrs = self.addrs.unwrap_or(cfg.n_addrs);
        cfg.n_dirs = self.dirs.unwrap_or(cfg.n_dirs);
        if let Some(b) = self.per_cache {
            cfg = cfg.with_budget(InjectionBudget::PerCache(b));
        }
        cfg.symmetry = self.symmetry;
        (cfg, class2)
    }
}

/// Which explorer a [`RunPlan`] runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Explorer {
    /// The BFS kernel with one worker. Its checkpoints have one
    /// section.
    #[default]
    Serial,
    /// The BFS kernel with this many worker threads (`--parallel`; 0
    /// picks the available parallelism). Its checkpoints have 64
    /// sections whatever the count, one included.
    Threads(usize),
    /// `procs` worker processes coordinating through `dir`
    /// (`--shard-procs`, `--shard-dir`; see [`crate::procshard`]).
    Shards {
        /// Worker processes, one per hash partition of the visited set.
        procs: u32,
        /// The run's working directory; re-running with it resumes.
        dir: PathBuf,
    },
}

/// How one `mc` run executes: everything [`crate::run`] needs beside
/// the spec and the [`McConfig`]. It has one parser,
/// [`RunPlan::from_args`], and one renderer, [`RunPlan::to_args`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// The explorer.
    pub explorer: Explorer,
    /// Work, deadline and memory limits (`--budget`, `--mem-budget`).
    /// The serial explorer meters them per claim; the threaded one and
    /// the process shards check them at level boundaries, and the
    /// shards split the memory limit evenly across their workers.
    pub budget: Budget,
    /// Out-of-core tier for the serial explorer's visited keys
    /// (`--spill-dir`, which triggers at [`SpillConfig::for_budget`]).
    pub spill: Option<SpillConfig>,
    /// Where progress is flushed (`--checkpoint`, rewritten
    /// atomically). Flushes happen at BFS level boundaries, the only
    /// points at which the visited set, frontier and level are a
    /// consistent snapshot: after [`RunPlan::checkpoint_every`] new
    /// states, once the budget deadline is 2 s away, and on budget
    /// exhaustion, so a starved run can be continued under a fresh
    /// budget. A plan parsed from flags keeps checkpointing to the file
    /// it resumes from unless `--checkpoint` redirects it.
    pub checkpoint: Option<PathBuf>,
    /// Flush at the first level boundary after this many new states
    /// since the last flush (`--checkpoint-interval`; 0 = every level).
    pub checkpoint_every: usize,
    /// Cooperative-interrupt file (`--stop-file`, honored with a
    /// checkpoint): when it exists at a level boundary, the run flushes
    /// a final checkpoint and steps aside without a verdict. It stands
    /// in for a SIGINT handler, which the hermetic build has no binding
    /// for; periodic flushes make even SIGKILL survivable.
    pub stop_file: Option<PathBuf>,
    /// The checkpoint the run continues from (`--resume`). Process
    /// shards resume from their directory instead.
    pub resume: Option<PathBuf>,
    /// Worker-thread panics to inject (`--inject-worker-panic`).
    pub inject_panic: Option<PanicInjection>,
    /// `(round, shard)`: the shard worker whose first process aborts
    /// in that round after renaming its segment
    /// (`--inject-shard-kill`).
    pub inject_kill: Option<(u32, u32)>,
    /// How many times lost worker threads may be restarted before the
    /// run degrades with [`vnet_graph::DegradeReason::WorkerLoss`]. Not
    /// a flag.
    pub max_restarts: u32,
    /// Sleep before the first restart wave; doubles per wave. Not a
    /// flag.
    pub backoff: Duration,
    /// What an [`Explorer::Shards`] run's workers re-load: the protocol
    /// argument (a built-in name or a `.vnp` path that resolves to the
    /// run's spec) and the request its config was built from. Not a
    /// flag: `vnet mc` sets it from its own argv.
    pub shard_cell: Option<(String, McRequest)>,
}

/// The default `--checkpoint-interval`.
const CHECKPOINT_EVERY: usize = 50_000;

impl Default for RunPlan {
    /// A serial run without limits, checkpoints or injection.
    fn default() -> Self {
        RunPlan {
            explorer: Explorer::Serial,
            budget: Budget::unlimited(),
            spill: None,
            checkpoint: None,
            checkpoint_every: CHECKPOINT_EVERY,
            stop_file: None,
            resume: None,
            inject_panic: None,
            inject_kill: None,
            max_restarts: 3,
            backoff: Duration::from_millis(10),
            shard_cell: None,
        }
    }
}

impl RunPlan {
    /// Parses the execution flags out of an `mc` argv, ignoring every
    /// other flag, and refuses the combinations no explorer runs.
    pub fn from_args(args: &[String]) -> Result<RunPlan, String> {
        let mut budget = match value(args, "--budget")? {
            Some(text) => Budget::parse_clauses(text)?,
            None => Budget::unlimited(),
        };
        let threads: Option<usize> = parsed(args, "--parallel")?;
        // Fail closed on an explicit zero: silently promoting it to
        // "auto" would hide a typo in a script that meant a real
        // thread count.
        if threads == Some(0) {
            return Err(
                "--parallel needs a positive thread count (omit the flag for the serial \
                 explorer)"
                    .into(),
            );
        }
        let resume = path(args, "--resume")?;
        let checkpoint = path(args, "--checkpoint")?;
        let checkpoint_every = parsed(args, "--checkpoint-interval")?.unwrap_or(CHECKPOINT_EVERY);
        if checkpoint_every == 0 {
            return Err("--checkpoint-interval must be positive".into());
        }
        let stop_file = path(args, "--stop-file")?;
        let inject_panic = RunPlan::inject_panic_flag(args)?;
        if inject_panic.is_some() && threads.is_none() {
            return Err("--inject-worker-panic needs --parallel".into());
        }
        let mem_budget = RunPlan::mem_budget_flag(args)?;
        let spill_dir = path(args, "--spill-dir")?;
        let shard_procs = RunPlan::shard_procs_flag(args)?;
        let shard_dir = path(args, "--shard-dir")?;
        let inject_kill = pair(
            args,
            "--inject-shard-kill",
            "<round>:<shard>",
            "round",
            "shard",
        )?;
        if shard_procs.is_some() != shard_dir.is_some() {
            return Err("--shard-procs and --shard-dir go together".into());
        }
        if shard_procs.is_some() {
            if threads.is_some() {
                return Err("--shard-procs and --parallel are mutually exclusive".into());
            }
            if resume.is_some() {
                return Err(
                    "--shard-procs resumes from its --shard-dir; --resume is for the \
                     serial and thread-parallel explorers"
                        .into(),
                );
            }
            if spill_dir.is_some() {
                return Err(
                    "--shard-procs workers spill inside --shard-dir; drop --spill-dir".into(),
                );
            }
        } else if inject_kill.is_some() {
            return Err("--inject-shard-kill needs --shard-procs".into());
        }
        let spill = match (spill_dir, mem_budget) {
            (None, _) => None,
            (Some(_), None) => return Err(SPILL_NEEDS_BUDGET.into()),
            (Some(_), Some(_)) if threads.is_some() => {
                return Err(
                    "--spill-dir applies to the serial explorer; the thread-parallel \
                     explorer keeps its shards in RAM"
                        .into(),
                )
            }
            (Some(dir), Some(b)) => Some(SpillConfig::for_budget(dir, b)),
        };
        if let Some(b) = mem_budget {
            budget = budget.with_mem_limit(b);
        }
        let explorer = match (shard_procs, shard_dir, threads) {
            (Some(procs), Some(dir), _) => Explorer::Shards { procs, dir },
            (_, _, Some(n)) => Explorer::Threads(n),
            _ => Explorer::Serial,
        };
        Ok(RunPlan {
            explorer,
            budget,
            spill,
            checkpoint: checkpoint.or_else(|| resume.clone()),
            checkpoint_every,
            stop_file,
            resume,
            inject_panic,
            inject_kill,
            ..RunPlan::default()
        })
    }

    /// The flags [`RunPlan::from_args`] parses back to this plan. Not
    /// rendered, so not carried across: a cancel token, the restart
    /// policy, [`RunPlan::shard_cell`], and a spill threshold other than
    /// [`SpillConfig::for_budget`]'s.
    pub fn to_args(&self) -> Vec<String> {
        let (threads, shards) = match &self.explorer {
            Explorer::Serial => (None, None),
            Explorer::Threads(n) => (Some(n.to_string()), None),
            Explorer::Shards { procs, dir } => (None, Some((procs.to_string(), dir))),
        };
        let shown = |p: Option<&PathBuf>| p.map(|p| p.display().to_string());
        let every = self.checkpoint_every;
        [
            ("--parallel", threads),
            ("--shard-procs", shards.as_ref().map(|(n, _)| n.clone())),
            ("--shard-dir", shown(shards.map(|(_, dir)| dir))),
            ("--budget", self.budget.to_clauses()),
            ("--mem-budget", self.budget.mem_limit.map(|b| b.to_string())),
            ("--spill-dir", shown(self.spill.as_ref().map(|s| &s.dir))),
            ("--resume", shown(self.resume.as_ref())),
            (
                "--checkpoint",
                shown(self.checkpoint.as_ref()).filter(|_| self.checkpoint != self.resume),
            ),
            (
                "--checkpoint-interval",
                (every != CHECKPOINT_EVERY).then(|| every.to_string()),
            ),
            ("--stop-file", shown(self.stop_file.as_ref())),
            (
                "--inject-worker-panic",
                self.inject_panic
                    .map(|i| format!("{}:{}", i.level, i.times)),
            ),
            (
                "--inject-shard-kill",
                self.inject_kill
                    .map(|(round, shard)| format!("{round}:{shard}")),
            ),
        ]
        .into_iter()
        .filter_map(|(flag, v)| Some([flag.to_string(), v?]))
        .flatten()
        .collect()
    }

    /// The argv of a `vnet mc --machine` child that checks `spec_arg`
    /// (a built-in name or a `.vnp` path) under `request` and runs as
    /// this plan says.
    pub fn mc_argv(&self, spec_arg: &str, request: &McRequest) -> Vec<String> {
        let mut argv = vec![
            "mc".to_string(),
            spec_arg.to_string(),
            "--machine".to_string(),
        ];
        argv.extend(request.to_args());
        argv.extend(self.to_args());
        argv
    }

    /// `--mem-budget`, refused when zero.
    pub fn mem_budget_flag(args: &[String]) -> Result<Option<u64>, String> {
        match parsed(args, "--mem-budget")? {
            Some(0) => Err("--mem-budget must be positive".into()),
            b => Ok(b),
        }
    }

    /// `--shard-procs`, refused when zero.
    pub fn shard_procs_flag(args: &[String]) -> Result<Option<u32>, String> {
        match parsed(args, "--shard-procs")? {
            Some(0) => Err("--shard-procs needs a positive process count".into()),
            n => Ok(n),
        }
    }

    /// `--inject-worker-panic <level>:<times>`.
    pub fn inject_panic_flag(args: &[String]) -> Result<Option<PanicInjection>, String> {
        let p = pair(
            args,
            "--inject-worker-panic",
            "<level>:<times>",
            "injection level",
            "injection count",
        )?;
        Ok(p.map(|(level, times)| PanicInjection { level, times }))
    }
}

/// The refusal of `--spill-dir` without the budget that triggers it.
pub const SPILL_NEEDS_BUDGET: &str = "--spill-dir needs --mem-budget (the spill trigger)";

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    fn argv(flags: &[&str]) -> Vec<String> {
        ["mc", "CHI"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn bad_flags_fail_closed_with_the_cli_messages() -> Result<(), String> {
        let err = |flags: &[&str]| match McRequest::from_args(&argv(flags)) {
            Ok(r) => r.config(&protocols::chi()).err(),
            Err(e) => Some(e),
        };
        assert_eq!(
            err(&["--caches", "x"]).as_deref(),
            Some("bad value for --caches: `x`")
        );
        assert_eq!(err(&["--dirs"]).as_deref(), Some("--dirs needs a value"));
        assert_eq!(
            err(&["--general", "--per-cache", "256"]).as_deref(),
            Some("--per-cache must fit in a byte")
        );
        assert!(err(&["--caches", "4"]).is_some_and(|e| e.contains("add --general")));
        assert!(err(&["--symmetry"]).is_some_and(|e| e.contains("per-cache budget")));
        assert!(err(&["--general", "--caches", "9"]).is_some_and(|e| e.contains("n_caches")));
        assert_eq!(err(&["--general", "--caches", "4", "--symmetry"]), None);
        Ok(())
    }

    #[test]
    fn minimal_choice_reports_class2_fallback() -> Result<(), String> {
        let spec = protocols::chi();
        let (cfg, class2) = McRequest::default().config(&spec)?;
        assert!(!class2);
        assert_eq!(cfg.vns.n_vns(), 2);
        let (cfg, _) = McRequest {
            vns: VnChoice::Unique,
            ..McRequest::default()
        }
        .config(&spec)?;
        assert_eq!(cfg.vns.n_vns(), spec.messages().len());
        let blocking = protocols::msi_blocking_cache();
        let (cfg, class2) = McRequest::default().config(&blocking)?;
        assert!(class2);
        assert_eq!(cfg.vns, VnMap::one_per_message(blocking.messages().len()));
        Ok(())
    }
}
