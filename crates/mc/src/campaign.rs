//! Supervised campaign runner for the Table I sweep.
//!
//! A *campaign* model-checks every protocol spec in a directory (the
//! repo ships the twelve `protocols/*.vnp` Table I subjects) under one
//! supervisor that keeps a single bad run from taking down the sweep:
//!
//! * **Isolation.** Each protocol runs either on its own thread
//!   ([`Isolation::Thread`]) or in its own child process
//!   ([`Isolation::Process`], re-invoking the current executable as
//!   `vnet mc <spec> --machine`). A panicking, hanging, or crashing run
//!   costs only its own slot.
//! * **Timeout + retry with backoff.** Every attempt gets a wall-clock
//!   timeout; failed or timed-out attempts are retried with doubling
//!   backoff up to a bounded retry count, after which the protocol is
//!   reported as failed — the campaign itself always completes.
//! * **Checkpoint lineage.** With a checkpoint directory configured,
//!   attempts write periodic checkpoints and retries resume from them,
//!   so work survives timeouts and crashes; each run's report records
//!   how many times it resumed.
//! * **Cooperative interrupt.** A stop file (the safe-Rust stand-in for
//!   a SIGINT handler; see DESIGN.md) ends the campaign between
//!   protocols, leaving a partial report marked `interrupted`.
//!
//! The result is a machine-readable JSON report: per-protocol verdict
//! kind, depth, state count, provenance (exact vs degraded, including
//! [`DegradeReason::WorkerLoss`](vnet_graph::DegradeReason::WorkerLoss)
//! from panic-isolated workers), retry and resume counts, and wall
//! time.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vnet_graph::Budget;
use vnet_protocol::{dsl, protocols, ProtocolSpec};

use crate::checkpoint::CheckpointPolicy;
use crate::config::McConfig;
use crate::explore::{CheckpointedRun, Verdict};
use crate::parallel::{
    explore_parallel_supervised, resume_parallel, worker_count, PanicInjection, ParallelOpts,
};
use crate::request::McRequest;

/// How each protocol run is isolated from the campaign supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// Run on a dedicated thread in this process. A timed-out run is
    /// asked to stop via its checkpoint stop file and abandoned; a
    /// panicking run is caught and retried.
    Thread,
    /// Re-invoke the current executable (`vnet mc <spec> --machine`) as
    /// a child process. The strongest isolation: a timed-out child is
    /// killed outright, and even aborts/signals cannot touch the
    /// supervisor.
    Process,
}

/// One protocol to check: a display name plus the argument `vnet mc`
/// would take (a built-in protocol name or a path to a `.vnp` file).
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// Short name used for the report and checkpoint file names.
    pub name: String,
    /// Built-in protocol name or `.vnp` path.
    pub arg: String,
}

/// Lists every `*.vnp` spec in `dir`, sorted by file name — the
/// campaign's default work list (`protocols/` holds the Table I set).
pub fn discover(dir: &Path) -> Result<Vec<CampaignEntry>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for item in rd {
        let item = item.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = item.path();
        if path.extension().and_then(|e| e.to_str()) != Some("vnp") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("spec")
            .to_string();
        entries.push(CampaignEntry {
            name,
            arg: path.display().to_string(),
        });
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    if entries.is_empty() {
        return Err(format!("{}: no .vnp specs found", dir.display()));
    }
    Ok(entries)
}

/// Supervisor knobs for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Isolation mode for each run.
    pub isolation: Isolation,
    /// Wall-clock timeout per attempt.
    pub timeout: Duration,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Worker threads per run (0 = available parallelism).
    pub threads: usize,
    /// Exploration budget forwarded to each run.
    pub budget: Budget,
    /// Where per-protocol checkpoints live; `None` disables resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Campaign-level stop file, checked between protocols.
    pub stop_file: Option<PathBuf>,
    /// Deterministic worker-fault injection, forwarded to
    /// thread-isolated runs (tests and the CI smoke job).
    pub inject: Option<PanicInjection>,
    /// Per-run memory budget in bytes. Thread-isolated runs take it as
    /// a budget limit; process-isolated children get `--mem-budget`.
    pub mem_budget: Option<u64>,
    /// Out-of-core spill root (process isolation only): each child runs
    /// the serial spilling explorer with its own `<dir>/<protocol>`
    /// segment directory instead of the thread-parallel one.
    pub spill_dir: Option<PathBuf>,
    /// Process-shard fan-out (process isolation only): each child runs
    /// `--shard-procs <n>` with a `<checkpoint_dir>/<protocol>.shards`
    /// working directory, so retries resume shard-by-shard.
    pub shard_procs: Option<u32>,
    /// What each run checks: the Table I cell (the Figure-3 scenario
    /// under the analyzer's minimal VN map) by default. Thread-isolated
    /// runs build their config from it ([`CampaignConfig::config_of`]);
    /// process-isolated children get it as flags.
    pub request: McRequest,
}

impl CampaignConfig {
    /// Defaults: thread isolation, 120 s timeout, 2 retries, 250 ms
    /// backoff, available parallelism, unlimited budget, no
    /// checkpoints, no stop file, no injection.
    pub fn new() -> Self {
        CampaignConfig {
            isolation: Isolation::Thread,
            timeout: Duration::from_secs(120),
            max_retries: 2,
            backoff: Duration::from_millis(250),
            threads: 0,
            budget: Budget::unlimited(),
            checkpoint_dir: None,
            stop_file: None,
            inject: None,
            mem_budget: None,
            spill_dir: None,
            shard_procs: None,
            request: McRequest::default(),
        }
    }

    /// Selects the isolation mode.
    pub fn with_isolation(mut self, i: Isolation) -> Self {
        self.isolation = i;
        self
    }

    /// Overrides the per-attempt timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Overrides the retry count.
    pub fn with_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Overrides the worker-thread count per run.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Overrides the exploration budget.
    pub fn with_budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Enables checkpointing (and resume-on-retry) under `dir`.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the campaign-level stop file.
    pub fn with_stop_file(mut self, p: impl Into<PathBuf>) -> Self {
        self.stop_file = Some(p.into());
        self
    }

    /// Enables worker-fault injection (thread isolation only).
    pub fn with_injection(mut self, i: PanicInjection) -> Self {
        self.inject = Some(i);
        self
    }

    /// Caps each run's accounted memory footprint.
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Sends process-isolated children out-of-core under `dir`.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Runs process-isolated children with `n` shard processes each.
    pub fn with_shard_procs(mut self, n: u32) -> Self {
        self.shard_procs = Some(n);
        self
    }

    /// Sweeps the general scenario under symmetry reduction.
    pub fn with_symmetry(mut self) -> Self {
        self.request = self.request.with_symmetry();
        self
    }

    /// The config a run of `spec` checks under [`CampaignConfig::request`].
    /// It is not validated here: every explorer validates its config
    /// fail-closed before it touches a state.
    pub fn config_of(&self, spec: &ProtocolSpec) -> McConfig {
        self.request.build(spec).0
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig::new()
    }
}

/// The campaign's record of one protocol.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: String,
    /// Verdict kind (`deadlock`, `no-deadlock`, `model-error`,
    /// `invariant-violation`), or `None` when every attempt failed.
    pub kind: Option<String>,
    /// Counterexample depth, or deepest completed level for
    /// `no-deadlock`.
    pub depth: usize,
    /// Distinct states visited.
    pub states: usize,
    /// BFS levels completed.
    pub levels: usize,
    /// `true` when the state space was exhausted (no budget cut).
    pub complete: bool,
    /// `exact`, or `degraded: <reason>` (e.g. worker loss).
    pub provenance: String,
    /// Attempts beyond the first.
    pub retries: u32,
    /// Attempts that resumed from a checkpoint.
    pub resumes: u32,
    /// Wall time across all attempts, in milliseconds.
    pub wall_ms: u64,
    /// Why the run failed, when `kind` is `None`.
    pub error: Option<String>,
    /// Flow-abstraction verdict for this protocol under the campaign's
    /// configuration (see [`crate::flows`]), computed supervisor-side:
    /// `flow-free-all-n ...` certifies deadlock freedom for every system
    /// size, anything else is bounded-only. `None` when the spec failed
    /// to load.
    pub parameterized: Option<String>,
}

impl RunReport {
    /// `true` when the run produced a verdict.
    pub fn completed(&self) -> bool {
        self.kind.is_some()
    }
}

/// The whole campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One report per protocol, in work-list order.
    pub runs: Vec<RunReport>,
    /// `true` when the stop file ended the campaign early.
    pub interrupted: bool,
    /// Total wall time in milliseconds.
    pub wall_ms: u64,
}

impl CampaignReport {
    /// `true` when every protocol produced a verdict and the campaign
    /// was not interrupted.
    pub fn all_completed(&self) -> bool {
        !self.interrupted && self.runs.iter().all(RunReport::completed)
    }

    /// `true` when any verdict carries degraded provenance.
    pub fn any_degraded(&self) -> bool {
        self.runs
            .iter()
            .any(|r| r.completed() && r.provenance != "exact")
    }

    /// Renders the machine-readable JSON report (hand-rolled; the build
    /// is dependency-free by design).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"interrupted\": {},\n  \"wall_ms\": {},\n  \"runs\": [",
            self.interrupted, self.wall_ms
        );
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"protocol\": \"{}\", \"kind\": {}, \"depth\": {}, \"states\": {}, \
                 \"levels\": {}, \"complete\": {}, \
                 \"provenance\": \"{}\", \"retries\": {}, \"resumes\": {}, \"wall_ms\": {}, \
                 \"error\": {}, \"parameterized\": {}}}",
                if i == 0 { "" } else { "," },
                json_escape(&r.protocol),
                match &r.kind {
                    Some(k) => format!("\"{}\"", json_escape(k)),
                    None => "null".into(),
                },
                r.depth,
                r.states,
                r.levels,
                r.complete,
                json_escape(&r.provenance),
                r.retries,
                r.resumes,
                r.wall_ms,
                match &r.error {
                    Some(e) => format!("\"{}\"", json_escape(e)),
                    None => "null".into(),
                },
                match &r.parameterized {
                    Some(p) => format!("\"{}\"", json_escape(p)),
                    None => "null".into(),
                },
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The Table I model-checking configuration for a spec: the Figure-3
/// scenario under the analyzer's minimal VN mapping (one VN per message
/// for Class 2 protocols, which no ordered mapping can save).
pub fn table1_config(spec: &ProtocolSpec) -> McConfig {
    CampaignConfig::new().config_of(spec)
}

/// The symmetry-reduced Table I configuration, what `vnet campaign
/// --symmetry` sweeps: the general scenario (uniform per-cache budget,
/// unordered ICN — the preconditions symmetry reduction is sound
/// under) with the same VN resolution as [`table1_config`].
pub fn table1_sym_config(spec: &ProtocolSpec) -> McConfig {
    CampaignConfig::new().with_symmetry().config_of(spec)
}

/// Loads a campaign entry: a built-in protocol name or a `.vnp` path.
pub fn load_spec(arg: &str) -> Result<ProtocolSpec, String> {
    if let Some(p) = protocols::by_name(arg) {
        return Ok(p);
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
    let spec = dsl::parse(&text).map_err(|e| format!("{arg}: {e}"))?;
    spec.validate().map_err(|e| format!("{arg}: {e}"))?;
    Ok(spec)
}

/// The flat result a run boils down to — what crosses the isolation
/// boundary (a channel for threads, a `mc-result` stdout line for
/// processes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineResult {
    /// Verdict kind, as in [`RunReport::kind`].
    pub kind: String,
    /// Counterexample depth or deepest completed level.
    pub depth: usize,
    /// Distinct states visited.
    pub states: usize,
    /// BFS levels completed.
    pub levels: usize,
    /// `true` when the state space was exhausted (no budget cut).
    pub complete: bool,
    /// `exact`, or `degraded: <reason>`.
    pub provenance: String,
}

/// Flattens a verdict to its machine result.
pub fn measure(v: &Verdict) -> MachineResult {
    let stats = v.stats();
    let (kind, depth) = match v {
        Verdict::NoDeadlock(s) => ("no-deadlock", s.levels),
        Verdict::Deadlock { depth, .. } => ("deadlock", *depth),
        Verdict::ModelError { .. } => ("model-error", stats.levels),
        Verdict::InvariantViolation { .. } => ("invariant-violation", stats.levels),
    };
    let provenance = match &stats.provenance {
        vnet_graph::Provenance::Exact => "exact".to_string(),
        vnet_graph::Provenance::Degraded { reason } => format!("degraded: {reason}"),
    };
    MachineResult {
        kind: kind.to_string(),
        depth,
        states: stats.states,
        levels: stats.levels,
        complete: stats.complete,
        provenance,
    }
}

/// Renders the `mc-result` line `vnet mc --machine` prints; the
/// process-isolated campaign parses it back with
/// [`parse_machine_line`]. `provenance` is the last field and runs to
/// end of line (degrade reasons contain spaces).
pub fn machine_line(v: &Verdict) -> String {
    let m = measure(v);
    format!(
        "mc-result kind={} depth={} states={} levels={} complete={} provenance={}",
        m.kind, m.depth, m.states, m.levels, m.complete, m.provenance
    )
}

/// Parses an `mc-result` line out of a child's stdout.
pub fn parse_machine_line(output: &str) -> Option<MachineResult> {
    let line = output
        .lines()
        .find_map(|l| l.trim().strip_prefix("mc-result "))?;
    let (fields, provenance) = line.split_once("provenance=")?;
    let mut kind = None;
    let mut depth = None;
    let mut states = None;
    let mut levels = None;
    let mut complete = None;
    for tok in fields.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        match k {
            "kind" => kind = Some(v.to_string()),
            "depth" => depth = v.parse().ok(),
            "states" => states = v.parse().ok(),
            "levels" => levels = v.parse().ok(),
            "complete" => complete = v.parse().ok(),
            _ => {}
        }
    }
    let kind = kind?;
    let depth = depth?;
    // Pre-levels producers omit the two newer fields; fall back to the
    // best implied values so old lines keep parsing.
    let levels = levels.unwrap_or(depth);
    let complete = complete.unwrap_or(kind == "no-deadlock");
    Some(MachineResult {
        kind,
        depth,
        states: states?,
        levels,
        complete,
        provenance: provenance.trim().to_string(),
    })
}

/// How one supervised attempt ended.
enum Attempt {
    /// A verdict was produced.
    Done(MachineResult),
    /// The run died (panic, signal, bad exit) with this description.
    Crashed(String),
    /// The timeout fired; `checkpointed` says whether a resumable
    /// checkpoint is known to be safe to pick up.
    TimedOut { checkpointed: bool },
}

/// Runs the whole campaign. `cfg_of` maps each loaded spec to its
/// checker configuration (thread isolation; [`table1_config`] is the
/// Table I default), and `progress` observes each finished protocol.
pub fn run_campaign(
    entries: &[CampaignEntry],
    cc: &CampaignConfig,
    cfg_of: impl Fn(&ProtocolSpec) -> McConfig,
    mut progress: impl FnMut(&RunReport),
) -> CampaignReport {
    let started = Instant::now();
    if let Some(dir) = &cc.checkpoint_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut runs = Vec::new();
    let mut interrupted = false;
    for entry in entries {
        if let Some(sf) = &cc.stop_file {
            if sf.exists() {
                interrupted = true;
                break;
            }
        }
        let r = run_one(entry, cc, &cfg_of);
        progress(&r);
        runs.push(r);
    }
    CampaignReport {
        runs,
        interrupted,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// One protocol under the retry/backoff/resume supervisor.
fn run_one(
    entry: &CampaignEntry,
    cc: &CampaignConfig,
    cfg_of: &impl Fn(&ProtocolSpec) -> McConfig,
) -> RunReport {
    let started = Instant::now();
    // The flow-abstraction verdict is a pure function of the spec and
    // config, so the supervisor computes it directly — no isolation
    // needed — and stamps it on the report regardless of how the
    // explicit-state run fares.
    let parameterized = load_spec(&entry.arg)
        .ok()
        .map(|spec| crate::flows::check_parameterized(&spec, &cfg_of(&spec)).summary());
    let report = |kind, depth, states, levels, complete, provenance, retries, resumes, error| {
        RunReport {
            protocol: entry.name.clone(),
            kind,
            depth,
            states,
            levels,
            complete,
            provenance,
            retries,
            resumes,
            wall_ms: started.elapsed().as_millis() as u64,
            error,
            parameterized: parameterized.clone(),
        }
    };

    // Thread isolation needs the spec in-process; load it once. A spec
    // that fails to load fails the run immediately — retrying a parse
    // error is pointless.
    let loaded = match cc.isolation {
        Isolation::Thread => match load_spec(&entry.arg) {
            Ok(spec) => {
                let cfg = cfg_of(&spec);
                Some((spec, cfg))
            }
            Err(e) => {
                return report(None, 0, 0, 0, false, String::new(), 0, 0, Some(e));
            }
        },
        Isolation::Process => None,
    };

    // Per-attempt checkpoint generations. A timed-out attempt whose
    // stop-file ack never arrived may still be running (threads cannot
    // be killed) and may flush to its checkpoint path at any later
    // level boundary. Rather than poisoning resume for the rest of the
    // run, later attempts move to a fresh generation path, leaving the
    // stale writer its own file — and its own stop file, which stays in
    // place so the stale run still terminates at its next boundary.
    // Resume loads the newest generation on disk: flushes are atomic
    // (tmp + rename), so even a file a stale writer is about to replace
    // is always complete, and a torn one is rejected by checksum.
    let dir = cc.checkpoint_dir.as_deref();
    let path_for =
        |g: u32| dir.map(|d| d.join(format!("{}.g{g}.ckpt", entry.name)));
    let mut gen: u32 = 0;
    let mut retries = 0;
    let mut resumes = 0;
    let mut last_err = String::new();
    for attempt in 0..=cc.max_retries {
        if attempt > 0 {
            let wave = (attempt - 1).min(8);
            std::thread::sleep(cc.backoff.saturating_mul(1 << wave));
        }
        let write = path_for(gen);
        // Resume from the largest generation on disk, not the newest:
        // a stale writer's late flush can leave the deepest exploration
        // in an abandoned generation, and serialized size grows with
        // the visited set. (Any valid checkpoint resumes correctly —
        // this only picks the one that wastes the least work.)
        let resume_from = if attempt > 0 {
            (0..=gen)
                .filter_map(path_for)
                .filter(|p| p.exists())
                .max_by_key(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        } else {
            None
        };
        if resume_from.is_some() {
            resumes += 1;
        }
        let outcome = match (&cc.isolation, &loaded) {
            (Isolation::Thread, Some((spec, cfg))) => {
                attempt_thread(spec, cfg, cc, write.as_deref(), resume_from.as_deref())
            }
            (Isolation::Process, _) => {
                attempt_process(entry, cc, write.as_deref(), resume_from.as_deref())
            }
            // Thread isolation always has a loaded spec (early return
            // above); fail soft rather than loud if that ever changes.
            (Isolation::Thread, None) => Attempt::Crashed("spec not loaded".into()),
        };
        match outcome {
            Attempt::Done(m) => {
                return report(
                    Some(m.kind),
                    m.depth,
                    m.states,
                    m.levels,
                    m.complete,
                    m.provenance,
                    retries,
                    resumes,
                    None,
                );
            }
            Attempt::Crashed(detail) => {
                last_err = detail;
                retries += 1;
            }
            Attempt::TimedOut { checkpointed } => {
                last_err = format!("attempt timed out after {:?}", cc.timeout);
                retries += 1;
                if !checkpointed {
                    // The attempt never acked the stop file, so it may
                    // still hold this generation's path; abandon the
                    // path to it and move on.
                    gen += 1;
                }
            }
        }
    }
    // `retries` counted every failed attempt; the ones granted beyond
    // the first attempt are one fewer.
    report(
        None,
        0,
        0,
        0,
        false,
        String::new(),
        retries.saturating_sub(1),
        resumes,
        Some(last_err),
    )
}

/// What a panic payload said, for the report.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One attempt on a dedicated thread. The supervisor waits on a channel
/// with the timeout; a timed-out run is asked to stop via the stop file
/// and given a short grace period to flush its checkpoint.
fn attempt_thread(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    cc: &CampaignConfig,
    ckpt: Option<&Path>,
    resume_from: Option<&Path>,
) -> Attempt {
    // The stop file is per generation path. Clearing it here is safe:
    // a previous attempt on this same path acked the stop (or there was
    // none) and has exited — an un-acked writer got the path abandoned
    // to it, stop file and all.
    let stop = ckpt.map(|p| p.with_extension("stop"));
    if let Some(s) = &stop {
        let _ = std::fs::remove_file(s);
    }
    let budget = match cc.mem_budget {
        Some(b) => cc.budget.clone().with_mem_limit(b),
        None => cc.budget.clone(),
    };
    let mut opts = ParallelOpts::new()
        .with_threads(cc.threads)
        .with_budget(budget);
    if let Some(p) = ckpt {
        let mut policy = CheckpointPolicy::new(p);
        if let Some(s) = &stop {
            policy = policy.with_stop_file(s.clone());
        }
        opts = opts.with_policy(policy);
    }
    if let Some(i) = cc.inject {
        opts = opts.with_injection(i);
    }

    let (tx, rx) = mpsc::channel();
    let spec = spec.clone();
    let cfg = cfg.clone();
    let resume_owned = resume_from.map(Path::to_path_buf);
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match &resume_owned {
                Some(p) => resume_parallel(p, &spec, &cfg, &opts),
                None => explore_parallel_supervised(&spec, &cfg, &opts),
            }
        }));
        let _ = tx.send(run.map_err(|p| panic_text(p.as_ref())));
    });

    match rx.recv_timeout(cc.timeout) {
        Ok(Ok(Ok(CheckpointedRun::Finished(v)))) => Attempt::Done(measure(&v)),
        Ok(Ok(Ok(CheckpointedRun::Interrupted { .. }))) => {
            // Only the stop file produces this, and we cleared it at
            // attempt start — treat a stray interrupt as a crash.
            Attempt::Crashed("run interrupted unexpectedly".into())
        }
        Ok(Ok(Err(e))) => Attempt::Crashed(format!("checkpoint error: {e}")),
        Ok(Err(panic_msg)) => Attempt::Crashed(format!("run panicked: {panic_msg}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Attempt::Crashed("worker thread vanished".into())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Cooperative stop: threads cannot be killed, so ask the
            // run to flush and exit at its next level boundary.
            let Some(s) = &stop else {
                return Attempt::TimedOut { checkpointed: false };
            };
            let _ = std::fs::write(s, b"campaign timeout\n");
            // The run can only flush at its next level boundary, and
            // level time scales with the workload the timeout was
            // sized for — so the grace window scales with it, with a
            // floor that covers one large BFS level on a heavily
            // loaded machine: an ack saves this attempt's progress to
            // the current generation, so patience here is cheaper than
            // abandoning the work. A missed ack makes the supervisor
            // abandon this generation's checkpoint path to the
            // still-running attempt; the stop file stays, so it exits
            // at its next boundary.
            let grace = cc.timeout.max(Duration::from_millis(5_000));
            match rx.recv_timeout(grace) {
                Ok(Ok(Ok(CheckpointedRun::Interrupted { .. }))) => {
                    Attempt::TimedOut { checkpointed: true }
                }
                // Finished just past the wire — take the verdict.
                Ok(Ok(Ok(CheckpointedRun::Finished(v)))) => Attempt::Done(measure(&v)),
                // Still running (stuck inside a level), or died during
                // the flush: the checkpoint path may still be in use.
                _ => Attempt::TimedOut { checkpointed: false },
            }
        }
    }
}

/// One attempt in a child process: `vnet mc <spec> --machine`, stdout
/// parsed for the `mc-result` line, killed on timeout.
fn attempt_process(
    entry: &CampaignEntry,
    cc: &CampaignConfig,
    ckpt: Option<&Path>,
    resume_from: Option<&Path>,
) -> Attempt {
    use std::process::{Command, Stdio};

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return Attempt::Crashed(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("mc")
        .arg(&entry.arg)
        .arg("--machine")
        .args(cc.request.to_args());
    // Explorer selection, one per child: process shards when fanned
    // out, the serial out-of-core explorer when spilling, otherwise
    // the thread-parallel explorer.
    if let Some(n) = cc.shard_procs {
        let shard_dir = cc
            .checkpoint_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("{}.shards", entry.name));
        cmd.arg("--shard-procs")
            .arg(n.to_string())
            .arg("--shard-dir")
            .arg(shard_dir);
    } else if let Some(d) = &cc.spill_dir {
        cmd.arg("--spill-dir").arg(d.join(&entry.name));
    } else {
        // The child refuses `--parallel 0`, so the auto default is
        // resolved here, by the kernel's own rule.
        cmd.arg("--parallel")
            .arg(worker_count(cc.threads).to_string());
    }
    if let Some(b) = cc.mem_budget {
        cmd.arg("--mem-budget").arg(b.to_string());
    }
    if let Some(clauses) = cc.budget.to_clauses() {
        cmd.arg("--budget").arg(clauses);
    }
    // A resumed child flushes onward checkpoints to the file it
    // resumed from; a fresh one writes the attempt's generation path.
    // (In process isolation the two only diverge after a kill that
    // beat the first flush.) Shard children carry their resume state
    // in the shard directory itself — `--resume` never applies.
    match (cc.shard_procs, resume_from, ckpt) {
        (Some(_), _, Some(p)) | (None, None, Some(p)) => {
            cmd.arg("--checkpoint").arg(p);
        }
        (None, Some(p), _) => {
            cmd.arg("--resume").arg(p);
        }
        _ => {}
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return Attempt::Crashed(format!("spawn failed: {e}")),
    };

    let deadline = Instant::now() + cc.timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    // The child flushes checkpoints atomically (tmp +
                    // rename), so an existing file is complete and
                    // safe to resume from — the child is dead.
                    let checkpointed =
                        resume_from.or(ckpt).is_some_and(|p| p.exists());
                    return Attempt::TimedOut { checkpointed };
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Attempt::Crashed(format!("wait failed: {e}"));
            }
        }
    };

    let mut output = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read as _;
        let _ = out.read_to_string(&mut output);
    }
    if let Some(m) = parse_machine_line(&output) {
        return Attempt::Done(m);
    }
    match status.code() {
        Some(code) => Attempt::Crashed(format!(
            "child exited with code {code} and no mc-result line"
        )),
        None => {
            #[cfg(unix)]
            let detail = {
                use std::os::unix::process::ExitStatusExt as _;
                match status.signal() {
                    Some(sig) => format!("child killed by signal {sig}"),
                    None => "child died without exit code".to_string(),
                }
            };
            #[cfg(not(unix))]
            let detail = "child died without exit code".to_string();
            Attempt::Crashed(detail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str) -> CampaignEntry {
        CampaignEntry {
            name: name.to_string(),
            arg: name.to_string(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vnet-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    /// A tiny-bounded config so campaign tests stay fast: the verdicts
    /// are bounded no-deadlocks, which is fine — the campaign machinery
    /// is what is under test.
    fn small_cfg(spec: &ProtocolSpec) -> McConfig {
        use crate::config::VnMap;
        McConfig::figure3(spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()))
            .with_limits(2_000, Some(6))
    }

    #[test]
    fn machine_line_round_trips() {
        let spec = protocols::msi_blocking_cache();
        let cfg = small_cfg(&spec).with_limits(500, Some(4));
        let v = crate::explore::explore(&spec, &cfg);
        let line = machine_line(&v);
        let parsed = parse_machine_line(&line);
        assert!(parsed.is_some(), "unparseable line: {line}");
        assert!(matches!(parsed, Some(m) if m == measure(&v)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_machine_line("").is_none());
        assert!(parse_machine_line("mc-result kind=deadlock").is_none());
        assert!(parse_machine_line("mc-result depth=x states=1 provenance=exact").is_none());
        // Degrade reasons contain spaces and survive the round trip.
        let m = parse_machine_line(
            "mc-result kind=no-deadlock depth=3 states=10 provenance=degraded: node limit of 10 reached",
        );
        assert!(
            matches!(&m, Some(m) if m.provenance == "degraded: node limit of 10 reached"),
            "{m:?}"
        );
    }

    #[test]
    fn thread_campaign_sweeps_and_reports() {
        let entries = [entry("MSI-blocking-cache"), entry("MESI-blocking-cache")];
        let cc = CampaignConfig::new().with_threads(2).with_retries(0);
        let mut seen = Vec::new();
        let rep = run_campaign(&entries, &cc, small_cfg, |r| seen.push(r.protocol.clone()));
        assert!(rep.all_completed(), "{}", rep.to_json());
        assert_eq!(seen, ["MSI-blocking-cache", "MESI-blocking-cache"]);
        assert!(rep.runs.iter().all(|r| r.states > 0));
        let json = rep.to_json();
        assert!(
            json.contains("\"protocol\": \"MSI-blocking-cache\""),
            "{json}"
        );
        assert!(json.contains("\"interrupted\": false"), "{json}");
        // The supervisor stamps every run with the flow-abstraction
        // verdict; the Figure-3 script is an explicit injection script,
        // so these degrade to the inapplicable (bounded-only) summary.
        assert!(
            rep.runs
                .iter()
                .all(|r| matches!(&r.parameterized, Some(p) if p.starts_with("flow-"))),
            "{json}"
        );
        assert!(json.contains("\"parameterized\": \"flow-inapplicable"), "{json}");
    }

    #[test]
    fn unloadable_spec_fails_its_slot_only() {
        let entries = [entry("no-such-protocol"), entry("MSI-blocking-cache")];
        let cc = CampaignConfig::new().with_threads(1).with_retries(0);
        let rep = run_campaign(&entries, &cc, small_cfg, |_| {});
        assert!(!rep.all_completed());
        assert_eq!(rep.runs.len(), 2);
        assert!(!rep.runs[0].completed());
        assert!(rep.runs[0].error.is_some());
        assert!(rep.runs[1].completed());
    }

    #[test]
    fn injected_worker_loss_degrades_but_campaign_survives() {
        let entries = [entry("MSI-blocking-cache")];
        let dir = tmpdir("loss");
        let cc = CampaignConfig::new()
            .with_threads(2)
            .with_retries(0)
            .with_checkpoint_dir(&dir)
            .with_injection(PanicInjection {
                level: 2,
                times: u32::MAX,
            });
        let rep = run_campaign(&entries, &cc, small_cfg, |_| {});
        let _ = std::fs::remove_dir_all(&dir);
        assert!(rep.all_completed(), "{}", rep.to_json());
        assert!(rep.any_degraded(), "{}", rep.to_json());
        let r = &rep.runs[0];
        assert!(
            r.provenance.contains("worker loss"),
            "provenance: {}",
            r.provenance
        );
    }

    #[test]
    fn stop_file_interrupts_between_protocols() {
        let dir = tmpdir("stop");
        let stop = dir.join("stop");
        let _ = std::fs::write(&stop, b"halt\n");
        let entries = [entry("MSI-blocking-cache")];
        let cc = CampaignConfig::new().with_stop_file(&stop);
        let rep = run_campaign(&entries, &cc, small_cfg, |_| {});
        let _ = std::fs::remove_dir_all(&dir);
        assert!(rep.interrupted);
        assert!(rep.runs.is_empty());
        assert!(!rep.all_completed());
        assert!(rep.to_json().contains("\"interrupted\": true"));
    }

    #[test]
    fn discover_finds_the_table1_specs() -> Result<(), String> {
        // The repo root is two levels up from this crate.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../protocols");
        let entries = discover(&dir)?;
        assert_eq!(entries.len(), 12, "Table I has 12 specs");
        assert!(entries.windows(2).all(|w| w[0].name <= w[1].name));
        assert!(entries.iter().any(|e| e.name == "MSI-blocking-cache"));
        Ok(())
    }
}
