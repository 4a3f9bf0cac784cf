//! Runs one admitted request under its merged budget.
//!
//! Everything here is deterministic given the request: protocol
//! resolution is by built-in name or inline DSL only (the daemon never
//! opens files named by a client), and each workload is the same kernel
//! the CLI runs, handed the request's [`Budget`] — which carries the
//! admission deadline's [`CancelToken`](vnet_graph::CancelToken) and
//! the per-request memory cap.
//!
//! Determinism is also what makes results cacheable: [`store_key`]
//! derives the content address of an `analyze`/`mc` request from the
//! normalized DSL text of its spec (and, for `mc`, the resolved
//! [`McConfig`](vnet_mc::McConfig) fingerprint), and exact-provenance
//! results carry a [`StoreEntry`] the server writes through to the
//! durable result store. Only `provenance: "exact"` results are ever
//! stored — a degraded or cancelled result depends on the budget that
//! cut it, which is not part of the key.

use crate::json::Json;
use crate::proto::{Command, ProtocolRef, Request, VnChoice};
use std::path::{Path, PathBuf};
use vnet_core::{analyze, analyze_budgeted, VnOutcome};
use vnet_graph::{Budget, Provenance};
use vnet_mc::McConfig;
use vnet_protocol::{dsl, protocols, ProtocolSpec};
use vnet_store::{Key, RecordKind};

/// Why a request could not run, with a machine-readable `reason` for
/// the structured `error` response (`bad_request`, `spawn_failed`,
/// `worker_overrun`, ...).
#[derive(Debug)]
pub struct ExecError {
    pub reason: &'static str,
    pub detail: String,
}

impl ExecError {
    fn new(reason: &'static str, detail: impl Into<String>) -> Self {
        ExecError { reason, detail: detail.into() }
    }
}

impl From<String> for ExecError {
    fn from(detail: String) -> Self {
        ExecError::new("bad_request", detail)
    }
}

/// A result the server should write through to the durable store.
pub struct StoreEntry {
    pub key: Key,
    pub kind: RecordKind,
    /// The response fields as one rendered JSON object; replayed on a
    /// cache hit with `provenance: "cached"` substituted.
    pub body: String,
}

/// The payload of a finished request: result fields plus the kernel's
/// provenance (the worker turns a cancelled provenance into a
/// `cancelled` response, everything else into `ok`).
pub struct ExecResult {
    /// Response fields to merge into the JSON object.
    pub fields: Vec<(&'static str, Json)>,
    /// Exact, degraded, or cancelled.
    pub provenance: Provenance,
    /// Write-through payload, present only for exact results.
    pub store: Option<StoreEntry>,
}

impl ExecResult {
    fn new(fields: Vec<(&'static str, Json)>, provenance: Provenance) -> Self {
        ExecResult { fields, provenance, store: None }
    }

    fn with_store(mut self, key: Key, kind: RecordKind) -> Self {
        if self.provenance.is_exact() {
            self.store = Some(StoreEntry { key, kind, body: body_of(&self.fields) });
        }
        self
    }
}

/// Renders result fields as the canonical store body (a JSON object;
/// `Json::Obj` is a `BTreeMap`, so the rendering is deterministic).
fn body_of(fields: &[(&'static str, Json)]) -> String {
    Json::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()).render()
}

/// Resolves the request's protocol. Built-in lookup is exact; inline
/// DSL is parsed and validated fail-closed.
pub fn resolve_protocol(proto: &ProtocolRef) -> Result<ProtocolSpec, String> {
    match proto {
        ProtocolRef::None => Err("request needs a protocol".into()),
        ProtocolRef::Builtin(name) => protocols::by_name(name)
            .ok_or_else(|| format!("unknown protocol `{name}` (see `vnet list`)")),
        ProtocolRef::Inline(text) => {
            let spec = dsl::parse(text).map_err(|e| format!("bad spec: {e}"))?;
            spec.validate().map_err(|e| format!("bad spec: {e}"))?;
            Ok(spec)
        }
    }
}

/// The model-checking configuration an `mc` request resolves to: the
/// Figure-3 scenario under the requested VN mapping, or — with
/// `symmetry: true` — the general scenario under cache × address
/// symmetry reduction (the Figure-3 injection script names specific
/// caches and would break the symmetry). Shared by the runner and the
/// cache-key derivation so they can never disagree.
pub fn mc_config(spec: &ProtocolSpec, vns: VnChoice, symmetry: bool) -> Result<McConfig, String> {
    use vnet_mc::VnMap;
    let n_msgs = spec.messages().len();
    let vn_map = match vns {
        VnChoice::Single => VnMap::single(n_msgs),
        VnChoice::Unique => VnMap::one_per_message(n_msgs),
        VnChoice::Minimal => match analyze(spec).outcome() {
            VnOutcome::Assigned { assignment, .. } => VnMap::from_assignment(assignment, n_msgs),
            VnOutcome::Class2(_) => VnMap::one_per_message(n_msgs),
        },
    };
    if symmetry {
        McConfig::general(spec).with_vns(vn_map).with_symmetry()
    } else {
        Ok(McConfig::figure3(spec).with_vns(vn_map))
    }
}

/// Content address of an `analyze` result: the normalized DSL export
/// of the spec, nothing else (the analyzer has no other inputs).
pub fn analyze_store_key(spec: &ProtocolSpec) -> Key {
    Key::derive(&[b"analyze/1", dsl::to_text(spec).as_bytes()])
}

/// Content address of an `mc` result: normalized spec text plus every
/// [`McConfig`] field that shapes the reachable state space (the same
/// fingerprint bytes checkpoints are keyed by — the VN map is in
/// there, so each `vns` choice gets its own key). A `parameterized`
/// request carries extra flow-abstraction fields in its body, so it
/// addresses a distinct record — a cached plain result must never
/// replay with a parameterized claim (or the claim silently missing).
pub fn mc_store_key(spec: &ProtocolSpec, cfg: &McConfig, parameterized: bool) -> Key {
    let mut parts: Vec<&[u8]> = vec![b"mc/1"];
    let text = dsl::to_text(spec);
    parts.push(text.as_bytes());
    let fp = cfg.fingerprint_bytes();
    parts.push(&fp);
    if parameterized {
        parts.push(b"parameterized/1");
    }
    Key::derive(&parts)
}

/// The store key a request would be cached under, or `None` when the
/// request is not cacheable (sim, ping, batch, checkpointing mc, a
/// protocol that fails to resolve). Used by admission for inline
/// cache-hit answers, and kept in exact lockstep with the keys the
/// runners attach to their results.
pub fn store_key(req: &Request) -> Option<Key> {
    match &req.cmd {
        Command::Analyze => {
            let spec = resolve_protocol(&req.protocol).ok()?;
            Some(analyze_store_key(&spec))
        }
        // A checkpointing run's response names a server-side
        // checkpoint path; replaying that from cache would be a lie.
        Command::Mc { checkpoint: false, vns, symmetry, parameterized, .. } => {
            let spec = resolve_protocol(&req.protocol).ok()?;
            let cfg = mc_config(&spec, *vns, *symmetry).ok()?;
            Some(mc_store_key(&spec, &cfg, *parameterized))
        }
        _ => None,
    }
}

/// Executes `req` under `budget`. `Err` means the request could not run
/// at all (client error); `Ok` carries the result and its provenance.
/// `ckpt_path` is where an `mc` request with `checkpoint: true` flushes.
/// `on_level` observes BFS level boundaries of inline `mc` runs
/// (`(level, states so far)` — the server turns it into streaming
/// progress events).
pub fn execute(
    req: &Request,
    budget: &Budget,
    ckpt_path: Option<&Path>,
    on_level: &mut dyn FnMut(usize, usize),
) -> Result<ExecResult, ExecError> {
    match &req.cmd {
        Command::Ping => Ok(ExecResult::new(vec![], Provenance::Exact)),
        // Answered inline by the server; queued ones are no-ops.
        Command::Metrics | Command::Gc { .. } => Ok(ExecResult::new(vec![], Provenance::Exact)),
        // Batches are unpacked by the server's worker, never executed
        // whole; a stray one is a client error.
        Command::Batch { .. } => {
            Err(ExecError::new("bad_request", "batch cannot nest inside batch"))
        }
        Command::Panic => panic!("injected test fault (cmd=panic)"),
        Command::Analyze => run_analyze(req, budget),
        Command::Mc {
            vns,
            checkpoint,
            process,
            symmetry,
            parameterized,
            ..
        } => {
            let mode = McMode {
                vns: *vns,
                checkpoint: *checkpoint,
                symmetry: *symmetry,
                parameterized: *parameterized,
            };
            if *process {
                run_mc_process(req, budget, mode, ckpt_path)
            } else {
                run_mc(req, budget, mode, ckpt_path, on_level)
            }
        }
        Command::Sim {
            ops,
            seed,
            max_cycles,
            faults,
        } => run_sim(req, budget, *ops, *seed, *max_cycles, faults.as_deref()),
    }
}

fn run_analyze(req: &Request, budget: &Budget) -> Result<ExecResult, ExecError> {
    let spec = resolve_protocol(&req.protocol)?;
    let report = analyze_budgeted(&spec, budget);
    let provenance = report.outcome().provenance().clone();
    let mut fields = vec![("protocol", Json::str(spec.name()))];
    match report.outcome() {
        VnOutcome::Class2(_) => {
            fields.push(("class", Json::num(2)));
            fields.push(("min_vns", Json::Null));
        }
        VnOutcome::Assigned { assignment, .. } => {
            fields.push(("min_vns", Json::num(assignment.n_vns() as u64)));
            let map: Vec<Json> = (0..assignment.n_vns())
                .map(|vn| {
                    Json::Arr(
                        assignment
                            .messages_in(vn)
                            .map(|m| Json::str(spec.message_name(m)))
                            .collect(),
                    )
                })
                .collect();
            fields.push(("vns", Json::Arr(map)));
        }
    }
    fields.push((
        "textbook_vns",
        Json::num(vnet_core::textbook::textbook_vn_count(&spec) as u64),
    ));
    let key = analyze_store_key(&spec);
    Ok(ExecResult::new(fields, provenance).with_store(key, RecordKind::Analyze))
}

/// Response fields for a `parameterized: true` mc request: the
/// flow-abstraction verdict (see `vnet_mc::flows`), computed in the
/// daemon — it is a pure function of spec + config, so the explorer
/// (inline or child process) never needs to know. `parameterized` echoes
/// the request mode; the actual claim and its fail-closed provenance
/// ride in `param_verdict` / `param_provenance`.
fn param_fields(spec: &ProtocolSpec, cfg: &McConfig) -> Vec<(&'static str, Json)> {
    let fv = vnet_mc::check_parameterized(spec, cfg);
    vec![
        ("parameterized", Json::Bool(true)),
        ("param_verdict", Json::str(fv.verdict_token())),
        ("param_provenance", Json::str(fv.provenance_string())),
    ]
}

/// The mode knobs of one `mc` request, bundled so the runner
/// signatures stay readable as the flag set grows.
#[derive(Clone, Copy)]
struct McMode {
    vns: VnChoice,
    checkpoint: bool,
    symmetry: bool,
    parameterized: bool,
}

fn run_mc(
    req: &Request,
    budget: &Budget,
    mode: McMode,
    ckpt_path: Option<&Path>,
    on_level: &mut dyn FnMut(usize, usize),
) -> Result<ExecResult, ExecError> {
    use vnet_mc::{
        checkpoint::CheckpointPolicy, explore_budgeted_with, explore_checkpointed,
        CheckpointedRun, Verdict,
    };
    let spec = resolve_protocol(&req.protocol)?;
    let cfg =
        mc_config(&spec, mode.vns, mode.symmetry).map_err(|e| ExecError::new("bad_request", e))?;

    let mut ckpt_field: Option<PathBuf> = None;
    let run = match (mode.checkpoint, ckpt_path) {
        (true, Some(path)) => {
            ckpt_field = Some(path.to_path_buf());
            let policy = CheckpointPolicy::new(path.to_path_buf());
            explore_checkpointed(&spec, &cfg, budget, &policy, on_level)
                .map_err(|e| format!("checkpoint error: {e}"))?
        }
        _ => CheckpointedRun::Finished(explore_budgeted_with(&spec, &cfg, budget, on_level)),
    };

    let verdict = match run {
        CheckpointedRun::Finished(v) => v,
        // No stop file is configured on service policies, so this arm
        // is unreachable; answer truthfully anyway.
        CheckpointedRun::Interrupted { states, level, .. } => {
            return Ok(ExecResult::new(
                vec![
                    ("verdict", Json::str("interrupted")),
                    ("states", Json::num(states as u64)),
                    ("levels", Json::num(level as u64)),
                ],
                Provenance::Exact,
            ));
        }
    };

    let stats = verdict.stats().clone();
    let mut fields = vec![("protocol", Json::str(spec.name()))];
    match &verdict {
        Verdict::NoDeadlock(_) => fields.push(("verdict", Json::str("no_deadlock"))),
        Verdict::Deadlock { depth, .. } => {
            fields.push(("verdict", Json::str("deadlock")));
            fields.push(("depth", Json::num(*depth as u64)));
        }
        Verdict::ModelError { detail, .. } => {
            fields.push(("verdict", Json::str("model_error")));
            fields.push(("detail", Json::str(detail.clone())));
        }
        Verdict::InvariantViolation { detail, .. } => {
            fields.push(("verdict", Json::str("invariant_violation")));
            fields.push(("detail", Json::str(detail.clone())));
        }
    }
    fields.push(("states", Json::num(stats.states as u64)));
    fields.push(("levels", Json::num(stats.levels as u64)));
    fields.push(("complete", Json::Bool(stats.complete)));
    if mode.parameterized {
        fields.extend(param_fields(&spec, &cfg));
    }
    let mut result = ExecResult::new(fields, stats.provenance);
    match ckpt_field {
        Some(p) => {
            // A checkpointing response names a server-side path —
            // never cached (the path is not content).
            result.fields.push(("checkpoint", Json::str(p.display().to_string())));
        }
        None => {
            result = result
                .with_store(mc_store_key(&spec, &cfg, mode.parameterized), RecordKind::Mc);
        }
    }
    Ok(result)
}

/// Serial numbers for inline-spec scratch files: process id plus a
/// counter keeps concurrent workers (and respawned daemons) apart.
static SPEC_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Bounded attempts for a process-dispatched mc child that dies by
/// signal (OOM killer, crash): the first run plus two respawns.
const MAX_WORKER_ATTEMPTS: u32 = 3;
/// Base backoff between respawns; doubles per attempt (25, 50 ms).
const WORKER_BACKOFF_MS: u64 = 25;

/// The executable spawned for `dispatch: "process"` children. The env
/// override exists for tests (the test binary is not `vnet`) and for
/// the spawn-failure drill; production use never sets it.
fn worker_exe() -> Result<PathBuf, ExecError> {
    if let Ok(p) = std::env::var("VNET_SERVE_WORKER_EXE") {
        return Ok(PathBuf::from(p));
    }
    std::env::current_exe()
        .map_err(|e| ExecError::new("spawn_failed", format!("cannot find own executable: {e}")))
}

/// How long past its own deadline a child may run before the
/// supervisor's grace kill fires. Env-tunable so the unit test does
/// not wait 30 s.
fn worker_grace() -> std::time::Duration {
    let ms = std::env::var("VNET_SERVE_WORKER_GRACE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(30_000);
    std::time::Duration::from_millis(ms)
}

/// How one supervised child ended.
enum ChildEnd {
    Exited(std::process::ExitStatus),
    Cancelled(vnet_graph::CancelReason),
    /// The grace kill fired: the child overran its deadline plus grace.
    Overrun,
}

/// Polls a child to completion, killing it on cooperative cancellation
/// or when `hard_deadline` (deadline + grace) passes.
fn supervise_child(
    child: &mut std::process::Child,
    budget: &Budget,
    hard_deadline: Option<std::time::Instant>,
) -> Result<ChildEnd, ExecError> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(ChildEnd::Exited(status)),
            Ok(None) => {
                let cancelled = budget.cancel.as_ref().is_some_and(|t| t.is_cancelled());
                let overrun =
                    hard_deadline.is_some_and(|d| std::time::Instant::now() >= d);
                if cancelled || overrun {
                    let _ = child.kill();
                    let _ = child.wait();
                    if cancelled {
                        let reason = budget
                            .cancel
                            .as_ref()
                            .and_then(|t| t.reason())
                            .unwrap_or(vnet_graph::CancelReason::Shutdown);
                        return Ok(ChildEnd::Cancelled(reason));
                    }
                    return Ok(ChildEnd::Overrun);
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(ExecError::new("worker_failed", format!("worker wait failed: {e}")));
            }
        }
    }
}

/// Cancel-aware backoff sleep between worker respawns. Returns the
/// cancel reason if cancellation fired mid-sleep.
fn backoff_sleep(budget: &Budget, dur: std::time::Duration) -> Option<vnet_graph::CancelReason> {
    let until = std::time::Instant::now() + dur;
    while std::time::Instant::now() < until {
        if let Some(t) = budget.cancel.as_ref() {
            if let Some(reason) = t.reason() {
                return Some(reason);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    None
}

/// Runs an `mc` request in a dedicated child process (`vnet mc
/// <protocol> --machine`), so memory blowups, OOM kills, and panics in
/// the explorer cost one child instead of the daemon. The child result
/// arrives on the same machine line the campaign supervisor parses.
///
/// Supervision policy, fail-closed at every step:
/// * the binary cannot be spawned → `error{spawn_failed}`, no retry
///   (a missing binary does not heal);
/// * the child is killed by a signal (OOM killer, crash) → respawn
///   with doubling backoff, at most [`MAX_WORKER_ATTEMPTS`] attempts,
///   then degrade as `Provenance::Degraded(WorkerLoss)` — an honest
///   "the work was lost", never a fabricated verdict;
/// * the child exits cleanly but prints no `mc-result` line → error,
///   no retry (the child is deterministic; it would fail identically);
/// * the child overruns its deadline plus grace → grace kill,
///   `error{worker_overrun}`.
fn run_mc_process(
    req: &Request,
    budget: &Budget,
    mode: McMode,
    ckpt_path: Option<&Path>,
) -> Result<ExecResult, ExecError> {
    use std::process::{Command as Proc, Stdio};
    use vnet_graph::DegradeReason;
    use vnet_mc::campaign::parse_machine_line;

    // The child re-resolves the protocol: built-ins by name, inline
    // DSL via a scratch file (validated here first, so a client error
    // never burns a process spawn).
    let spec = resolve_protocol(&req.protocol)?;
    let cfg =
        mc_config(&spec, mode.vns, mode.symmetry).map_err(|e| ExecError::new("bad_request", e))?;
    let mut scratch: Option<PathBuf> = None;
    let arg = match &req.protocol {
        ProtocolRef::Builtin(name) => name.clone(),
        ProtocolRef::Inline(text) => {
            let seq = SPEC_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("vnet-serve-spec-{}-{seq}.vnp", std::process::id()));
            std::fs::write(&path, text)
                .map_err(|e| ExecError::from(format!("cannot stage spec: {e}")))?;
            let arg = path.display().to_string();
            scratch = Some(path);
            arg
        }
        ProtocolRef::None => return Err(ExecError::from("request needs a protocol".to_string())),
    };
    // Tidy the scratch file on every exit path below.
    let cleanup = |r: Result<ExecResult, ExecError>| {
        if let Some(p) = &scratch {
            let _ = std::fs::remove_file(p);
        }
        r
    };

    let exe = match worker_exe() {
        Ok(p) => p,
        Err(e) => return cleanup(Err(e)),
    };

    let cancelled_result = |reason| {
        ExecResult::new(
            vec![("protocol", Json::str(spec.name()))],
            Provenance::Degraded {
                reason: DegradeReason::Cancelled { reason },
            },
        )
    };

    const LOSS_DETAIL: &str = "worker killed without a result (OOM killer or signal)";
    let mut restarts: u32 = 0;
    loop {
        let mut cmd = Proc::new(&exe);
        cmd.arg("mc").arg(&arg).arg("--machine");
        match mode.vns {
            VnChoice::Single => {
                cmd.arg("--single-vn");
            }
            VnChoice::Unique => {
                cmd.arg("--unique-vns");
            }
            VnChoice::Minimal => {}
        }
        if mode.symmetry {
            cmd.arg("--general").arg("--symmetry");
        }
        let mut clauses = Vec::new();
        if let Some(d) = budget.deadline {
            clauses.push(format!("{}ms", d.as_millis().max(1)));
        }
        if let Some(n) = budget.node_limit {
            clauses.push(format!("nodes={n}"));
        }
        if !clauses.is_empty() {
            cmd.arg("--budget").arg(clauses.join(","));
        }
        if let Some(b) = budget.mem_limit {
            cmd.arg("--mem-budget").arg(b.to_string());
        }
        if mode.checkpoint {
            if let Some(p) = ckpt_path {
                cmd.arg("--checkpoint").arg(p);
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                // A binary that cannot be spawned is an operator
                // problem, not a crashed worker: structured error, no
                // retry, no `panicked` masquerade.
                return cleanup(Err(ExecError::new(
                    "spawn_failed",
                    format!("cannot spawn worker `{}`: {e}", exe.display()),
                )));
            }
        };

        // The child self-limits via the forwarded budget; the
        // supervisor only steps in for cooperative cancellation
        // (drain/shutdown) and for a child that overruns its own
        // deadline by the grace window.
        let hard_deadline = budget
            .deadline
            .map(|d| std::time::Instant::now() + d + worker_grace());
        let status = match supervise_child(&mut child, budget, hard_deadline) {
            Ok(ChildEnd::Exited(status)) => status,
            Ok(ChildEnd::Cancelled(reason)) => {
                return cleanup(Ok(cancelled_result(reason)));
            }
            Ok(ChildEnd::Overrun) => {
                return cleanup(Err(ExecError::new(
                    "worker_overrun",
                    "worker process overran its deadline and was grace-killed",
                )));
            }
            Err(e) => return cleanup(Err(e)),
        };

        let mut output = String::new();
        if let Some(mut out) = child.stdout.take() {
            use std::io::Read as _;
            let _ = out.read_to_string(&mut output);
        }

        let m = match parse_machine_line(&output) {
            Some(m) => m,
            None => match status.code() {
                // A clean exit without a result is deterministic
                // (bad flags, usage error): retrying reruns the same
                // failure, so report it straight away.
                Some(code) => {
                    return cleanup(Err(ExecError::new(
                        "worker_failed",
                        format!("worker exited with code {code} and no mc-result line"),
                    )));
                }
                // Killed by a signal (OOM killer, crash): this is the
                // retryable worker-loss case.
                None => {
                    restarts += 1;
                    vnet_obs::counter("serve.worker_retries_total").inc();
                    if restarts >= MAX_WORKER_ATTEMPTS {
                        vnet_obs::counter("serve.worker_loss_total").inc();
                        return cleanup(Ok(ExecResult::new(
                            vec![
                                ("protocol", Json::str(spec.name())),
                                ("worker_error", Json::str(LOSS_DETAIL)),
                            ],
                            Provenance::Degraded {
                                reason: DegradeReason::WorkerLoss {
                                    lost_states: 0,
                                    restarts,
                                },
                            },
                        )));
                    }
                    let backoff = std::time::Duration::from_millis(
                        WORKER_BACKOFF_MS << (restarts - 1).min(8),
                    );
                    if let Some(reason) = backoff_sleep(budget, backoff) {
                        return cleanup(Ok(cancelled_result(reason)));
                    }
                    continue;
                }
            },
        };

        // The machine line flattens provenance to a string; rebuild
        // the two cases the response schema distinguishes.
        let provenance = if m.provenance == "exact" {
            Provenance::Exact
        } else {
            Provenance::Degraded {
                reason: DegradeReason::Bound {
                    what: m
                        .provenance
                        .strip_prefix("degraded: ")
                        .unwrap_or(&m.provenance)
                        .to_string(),
                },
            }
        };
        let mut fields =
            mc_result_fields(spec.name(), &m.kind, m.depth, m.states, m.levels, m.complete);
        if mode.parameterized {
            // Computed in the daemon, not the child: the flow verdict
            // is a pure function of spec + config, so the child's
            // machine line stays unchanged across versions.
            fields.extend(param_fields(&spec, &cfg));
        }
        let mut result = ExecResult::new(fields, provenance);
        if mode.checkpoint {
            if let Some(p) = ckpt_path {
                result.fields.push(("checkpoint", Json::str(p.display().to_string())));
            }
        } else {
            // Same key derivation as the inline path: a process-run
            // result and an inline result of the same request are the
            // same record.
            result = result
                .with_store(mc_store_key(&spec, &cfg, mode.parameterized), RecordKind::Mc);
        }
        return cleanup(Ok(result));
    }
}

/// Result fields for an mc verdict reported on a machine line. Shared
/// by the process-dispatch path and the campaign write-through, so a
/// campaign-written store record is byte-identical to a daemon-written
/// one and either replays as the same cache hit.
pub fn mc_result_fields(
    protocol: &str,
    kind: &str,
    depth: usize,
    states: usize,
    levels: usize,
    complete: bool,
) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("protocol", Json::str(protocol)),
        (
            "verdict",
            Json::str(match kind {
                "no-deadlock" => "no_deadlock".to_string(),
                "deadlock" => "deadlock".to_string(),
                "model-error" => "model_error".to_string(),
                other => other.replace('-', "_"),
            }),
        ),
    ];
    if kind == "deadlock" {
        fields.push(("depth", Json::num(depth as u64)));
    }
    fields.push(("states", Json::num(states as u64)));
    fields.push(("levels", Json::num(levels as u64)));
    fields.push(("complete", Json::Bool(complete)));
    fields
}

/// The canonical store body for an mc machine-line verdict.
pub fn mc_result_body(
    protocol: &str,
    kind: &str,
    depth: usize,
    states: usize,
    levels: usize,
    complete: bool,
) -> String {
    body_of(&mc_result_fields(protocol, kind, depth, states, levels, complete))
}

fn run_sim(
    req: &Request,
    budget: &Budget,
    ops: usize,
    seed: u64,
    max_cycles: u64,
    faults: Option<&str>,
) -> Result<ExecResult, ExecError> {
    use vnet_mc::VnMap;
    use vnet_sim::{FaultPlan, SimConfig, Simulator, Topology, Workload};
    let spec = resolve_protocol(&req.protocol)?;
    let plan = match faults {
        Some(text) => FaultPlan::parse(text).map_err(|e| ExecError::from(e.to_string()))?,
        None => FaultPlan::none(),
    };
    let topology = Topology::Mesh(2, 3);
    let n_dirs = 2;
    let n_msgs = spec.messages().len();
    let vns = match vnet_sim::sim::minimal_vn_map(&spec) {
        Some(m) => m,
        None => VnMap::one_per_message(n_msgs),
    };
    let mut cfg = SimConfig::new(&spec, topology, 2, n_dirs).with_vns(vns);
    if !plan.is_empty() {
        cfg = cfg.with_faults(plan, seed);
    }
    let workload = Workload::uniform_random(cfg.n_caches(), 2, ops, seed);
    let (r, provenance) = Simulator::new(spec, cfg).run_budgeted(workload, max_cycles, budget);
    if let Some(detail) = &r.model_error {
        return Err(ExecError::from(format!(
            "specification bug under simulation: {detail}"
        )));
    }
    let fields = vec![
        ("cycles", Json::num(r.cycles)),
        ("n_vns", Json::num(r.n_vns as u64)),
        ("completed", Json::num(r.completed_transactions as u64)),
        ("unfinished", Json::num(r.unfinished_ops as u64)),
        ("deadlocked", Json::Bool(r.deadlocked)),
    ];
    Ok(ExecResult::new(fields, provenance))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cmd: Command, protocol: &str) -> Request {
        Request {
            id: Some("t".into()),
            cmd,
            protocol: ProtocolRef::Builtin(protocol.into()),
            budget: Budget::unlimited(),
        }
    }

    fn run(r: &Request, budget: &Budget) -> Result<ExecResult, ExecError> {
        execute(r, budget, None, &mut |_, _| {})
    }

    fn mc_cmd(vns: VnChoice, process: bool) -> Command {
        Command::Mc {
            vns,
            checkpoint: false,
            process,
            progress: false,
            symmetry: false,
            parameterized: false,
        }
    }

    fn mc_sym_cmd(vns: VnChoice) -> Command {
        Command::Mc {
            vns,
            checkpoint: false,
            process: false,
            progress: false,
            symmetry: true,
            parameterized: false,
        }
    }

    fn mc_param_cmd(vns: VnChoice, symmetry: bool) -> Command {
        Command::Mc {
            vns,
            checkpoint: false,
            process: false,
            progress: false,
            symmetry,
            parameterized: true,
        }
    }

    #[test]
    fn symmetry_mc_runs_and_addresses_its_own_store_record() {
        let plain = req(mc_cmd(VnChoice::Unique, false), "MSI-nonblocking-cache");
        let sym = req(mc_sym_cmd(VnChoice::Unique), "MSI-nonblocking-cache");
        // Symmetry selects the general scenario: a distinct state
        // space, hence a distinct content address.
        assert_ne!(store_key(&plain).unwrap(), store_key(&sym).unwrap());
        let budget = Budget::unlimited().with_node_limit(20_000);
        let out = run(&sym, &budget).unwrap();
        assert!(out
            .fields
            .iter()
            .any(|(k, v)| *k == "verdict" && v.as_str() == Some("no_deadlock")));
    }

    #[test]
    fn parameterized_mc_addresses_its_own_record_and_reports_the_flow_verdict() {
        let plain = req(mc_cmd(VnChoice::Minimal, false), "MSI-nonblocking-cache");
        let par = req(mc_param_cmd(VnChoice::Minimal, false), "MSI-nonblocking-cache");
        // The parameterized body carries extra claim fields, so it must
        // address its own record; the plain key derivation is untouched.
        assert_ne!(store_key(&plain).unwrap(), store_key(&par).unwrap());

        // Figure-3 names specific caches — the abstraction is
        // inapplicable and must degrade fail-closed, not claim more.
        let out = run(&par, &Budget::unlimited()).unwrap();
        let field = |k: &str| {
            out.fields
                .iter()
                .find(|(f, _)| *f == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("parameterized").and_then(|v| v.as_bool()), Some(true));
        assert!(
            matches!(field("param_verdict"), Some(v) if v.as_str() == Some("inapplicable")),
            "{:?}",
            out.fields
        );
        assert!(
            matches!(field("param_provenance"), Some(v)
                if v.as_str().is_some_and(|s| s.starts_with("bounded-only"))),
            "{:?}",
            out.fields
        );
        let entry = out.store.expect("exact parameterized mc results are cacheable");
        assert_eq!(entry.key, store_key(&par).unwrap());
        assert!(entry.body.contains("param_verdict"), "{}", entry.body);

        // The general scenario under the analyzer's minimal map is
        // where the abstraction applies: certified for all N.
        let sym = req(mc_param_cmd(VnChoice::Minimal, true), "MSI-nonblocking-cache");
        let budget = Budget::unlimited().with_node_limit(20_000);
        let out = run(&sym, &budget).unwrap();
        let field = |k: &str| {
            out.fields
                .iter()
                .find(|(f, _)| *f == k)
                .map(|(_, v)| v.clone())
        };
        assert!(
            matches!(field("param_verdict"), Some(v) if v.as_str() == Some("free-all-n")),
            "{:?}",
            out.fields
        );
        assert!(
            matches!(field("param_provenance"), Some(v) if v.as_str() == Some("parameterized")),
            "{:?}",
            out.fields
        );
    }

    #[test]
    fn analyze_chi_says_two_vns_and_carries_a_store_entry() {
        let r = req(Command::Analyze, "CHI");
        let out = run(&r, &Budget::unlimited()).unwrap();
        assert!(out.provenance.is_exact());
        assert!(out
            .fields
            .iter()
            .any(|(k, v)| *k == "min_vns" && v.as_u64() == Some(2)));
        let entry = out.store.expect("exact analyze results are cacheable");
        assert_eq!(entry.kind, RecordKind::Analyze);
        assert_eq!(entry.key, store_key(&r).expect("analyze requests have keys"));
        let body = crate::json::parse(&entry.body).expect("store body is valid JSON");
        assert_eq!(
            body.get("min_vns").and_then(Json::as_u64),
            Some(2),
            "{body:?}"
        );
    }

    #[test]
    fn unknown_protocol_is_a_client_error() {
        let r = req(Command::Analyze, "NOPE");
        match run(&r, &Budget::unlimited()) {
            Err(e) => {
                assert_eq!(e.reason, "bad_request");
                assert!(e.detail.contains("unknown protocol"), "{}", e.detail);
            }
            Ok(_) => panic!("unknown protocol should not resolve"),
        }
    }

    #[test]
    fn cancelled_budget_reports_cancelled_provenance() {
        use vnet_graph::{CancelReason, CancelToken, DegradeReason};
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let budget = Budget::unlimited().with_cancel(token);
        let r = req(mc_cmd(VnChoice::Single, false), "MESI-nonblocking-cache");
        let out = run(&r, &budget).unwrap();
        assert!(matches!(
            out.provenance,
            Provenance::Degraded {
                reason: DegradeReason::Cancelled {
                    reason: CancelReason::Shutdown
                }
            }
        ));
        assert!(out.store.is_none(), "non-exact results must not be stored");
    }

    #[test]
    fn mem_budget_degrades_the_explorer() {
        use vnet_graph::DegradeReason;
        let budget = Budget::unlimited().with_mem_limit(10_000);
        let r = req(mc_cmd(VnChoice::Unique, false), "MESI-nonblocking-cache");
        let out = run(&r, &budget).unwrap();
        assert!(matches!(
            out.provenance,
            Provenance::Degraded {
                reason: DegradeReason::MemLimit { .. }
            }
        ));
        assert!(out.store.is_none(), "non-exact results must not be stored");
    }

    #[test]
    fn exact_mc_attaches_the_same_key_the_admission_lookup_derives() {
        let r = req(mc_cmd(VnChoice::Unique, false), "MSI-nonblocking-cache");
        let out = run(&r, &Budget::unlimited()).unwrap();
        assert!(out.provenance.is_exact());
        let entry = out.store.expect("exact mc results are cacheable");
        assert_eq!(entry.kind, RecordKind::Mc);
        assert_eq!(entry.key, store_key(&r).expect("mc requests have keys"));
        // Different VN choices address different records.
        let other = req(mc_cmd(VnChoice::Single, false), "MSI-nonblocking-cache");
        assert_ne!(store_key(&other).unwrap(), entry.key);
    }

    #[test]
    fn progress_callback_observes_level_boundaries() {
        let mut levels = Vec::new();
        let r = req(mc_cmd(VnChoice::Unique, false), "MSI-nonblocking-cache");
        let mut hook = |level: usize, states: usize| levels.push((level, states));
        let out = execute(&r, &Budget::unlimited(), None, &mut hook).unwrap();
        assert!(out.provenance.is_exact());
        assert!(!levels.is_empty(), "inline mc must report level boundaries");
        assert!(
            levels.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "levels and states must be monotone: {levels:?}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn spawn_failure_is_a_structured_error_not_a_panic() {
        let r = req(mc_cmd(VnChoice::Unique, true), "MSI-nonblocking-cache");
        // Serialized env mutation: worker-exe tests share the process.
        let _guard = env_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("VNET_SERVE_WORKER_EXE", "/nonexistent/vnet-binary");
        let out = run(&r, &Budget::unlimited());
        std::env::remove_var("VNET_SERVE_WORKER_EXE");
        match out {
            Err(e) => {
                assert_eq!(e.reason, "spawn_failed", "{}", e.detail);
                assert!(e.detail.contains("/nonexistent/vnet-binary"), "{}", e.detail);
            }
            Ok(_) => panic!("spawning a nonexistent binary must fail"),
        }
    }

    #[cfg(unix)]
    fn env_lock() -> &'static std::sync::Mutex<()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
    }

    #[cfg(unix)]
    fn fake_worker(tag: &str, script_body: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt as _;
        let path = std::env::temp_dir().join(format!(
            "vnet-serve-fake-worker-{tag}-{}.sh",
            std::process::id()
        ));
        std::fs::write(&path, format!("#!/bin/sh\n{script_body}\n")).unwrap();
        let mut perms = std::fs::metadata(&path).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&path, perms).unwrap();
        path
    }

    #[cfg(unix)]
    #[test]
    fn grace_kill_fires_on_a_child_that_overruns_its_deadline() {
        // A worker that ignores its budget and sleeps forever: the
        // supervisor must grace-kill it at deadline + grace, not hang.
        let script = fake_worker("overrun", "sleep 30");
        let _guard = env_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("VNET_SERVE_WORKER_EXE", &script);
        std::env::set_var("VNET_SERVE_WORKER_GRACE_MS", "100");
        let budget = Budget::unlimited().with_deadline(std::time::Duration::from_millis(50));
        let r = req(mc_cmd(VnChoice::Unique, true), "MSI-nonblocking-cache");
        let started = std::time::Instant::now();
        let out = run(&r, &budget);
        let elapsed = started.elapsed();
        std::env::remove_var("VNET_SERVE_WORKER_EXE");
        std::env::remove_var("VNET_SERVE_WORKER_GRACE_MS");
        let _ = std::fs::remove_file(&script);
        match out {
            Err(e) => {
                assert_eq!(e.reason, "worker_overrun", "{}", e.detail);
                assert!(e.detail.contains("grace-killed"), "{}", e.detail);
            }
            Ok(_) => panic!("an overrunning child must not produce a result"),
        }
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "grace kill must fire promptly, took {elapsed:?}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn signal_killed_children_retry_then_degrade_as_worker_loss() {
        use vnet_graph::DegradeReason;
        // A worker that SIGKILLs itself on every attempt: bounded
        // respawns, then an honest WorkerLoss degradation.
        let script = fake_worker("selfkill", "kill -9 $$");
        let _guard = env_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("VNET_SERVE_WORKER_EXE", &script);
        let r = req(mc_cmd(VnChoice::Unique, true), "MSI-nonblocking-cache");
        let out = run(&r, &Budget::unlimited());
        std::env::remove_var("VNET_SERVE_WORKER_EXE");
        let _ = std::fs::remove_file(&script);
        let out = out.expect("worker loss degrades, it does not error");
        match out.provenance {
            Provenance::Degraded {
                reason: DegradeReason::WorkerLoss { restarts, .. },
            } => assert_eq!(restarts, MAX_WORKER_ATTEMPTS),
            other => panic!("expected WorkerLoss, got {other:?}"),
        }
        assert!(out.store.is_none(), "degraded results must not be stored");
    }

    #[cfg(unix)]
    #[test]
    fn clean_exit_without_result_is_an_error_not_a_retry() {
        let script = fake_worker("usage", "exit 3");
        let _guard = env_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::env::set_var("VNET_SERVE_WORKER_EXE", &script);
        let started = std::time::Instant::now();
        let r = req(mc_cmd(VnChoice::Unique, true), "MSI-nonblocking-cache");
        let out = run(&r, &Budget::unlimited());
        std::env::remove_var("VNET_SERVE_WORKER_EXE");
        let _ = std::fs::remove_file(&script);
        match out {
            Err(e) => {
                assert_eq!(e.reason, "worker_failed", "{}", e.detail);
                assert!(e.detail.contains("code 3"), "{}", e.detail);
            }
            Ok(_) => panic!("a clean exit without a result is an error"),
        }
        // No backoff loop for deterministic failures.
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }
}
