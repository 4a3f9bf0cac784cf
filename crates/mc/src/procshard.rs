//! Process-sharded exploration: the visited set is statically
//! partitioned across N worker *processes* (`fx_hash(key) % N`), each
//! owning one shard of the state space and persisting it as a
//! version-2 checkpoint shard section after every BFS level.
//!
//! ## Why processes
//!
//! The thread-parallel explorer ([`crate::parallel`]) dies as one unit:
//! a SIGKILL — the OOM killer's verdict of choice — discards every
//! shard's progress at once. Here each shard's section file is updated
//! atomically (tmp + rename) once per round, so a killed or panicking
//! worker is simply re-spawned and replays only its own current round;
//! sibling shards keep their work. The supervisor itself is equally
//! disposable: `round.bin` records the last committed round, and
//! re-running the same command resumes from it.
//!
//! ## Round protocol
//!
//! Round `r` claims BFS level `r` and expands it:
//!
//! 1. **Claim.** Worker `s` loads its section (`shard-s.sec`), then the
//!    candidate successors every shard routed to it in round `r-1`
//!    (`out-{r-1}-{from}-{s}.box`). Candidates are sorted by
//!    `(key, parent shard, parent index, label)` and fresh keys are
//!    claimed at level `r` — a total order, so replays after a
//!    mid-round death reproduce the identical claim sequence.
//! 2. **Check.** Every level-`r` claim is decoded and SWMR-checked.
//! 3. **Expand.** Each claim's successors are routed to their owner
//!    shard's outbox for round `r+1`. Deadlocks and model errors are
//!    reported, not acted on — the supervisor resolves the globally
//!    minimal finding so the verdict is independent of N.
//! 4. **Persist.** Section, outboxes, then the result record — in that
//!    order, each atomic. The result record is the round's commit
//!    marker for this shard; anything torn before it is recomputed.
//!
//! A worker that crashed *after* renaming its section re-derives the
//! same claims from the `level == r` suffix already in the section (the
//! sorted order makes the persisted prefix and the recomputed remainder
//! coincide), so recovery is bit-identical to an undisturbed run.
//!
//! Every artifact carries an FNV-1a checksum; a torn or damaged file
//! reads as absent and is regenerated or refused, never trusted.
//!
//! ## Determinism
//!
//! For a fixed shard count the entire directory evolution is a pure
//! function of (spec, config): kill any subset of workers or the
//! supervisor at any point and the finished run's verdict, statistics,
//! and merged checkpoint are byte-identical. Across *different* shard
//! counts the claim levels and per-level claim sets are invariant, so
//! verdict kind, depth, and total state count match too (a serial
//! counterexample run may report fewer states only because it stops
//! mid-level; rounds here commit whole levels).

use crate::checkpoint::{
    self, decode_shard_section, CheckpointError, CheckpointPolicy, ShardEncoder, ShardEntry,
};
use crate::codec::{put_varint, read_varint};
use crate::config::McConfig;
use crate::explore::{CheckpointedRun, ExploreStats, Verdict};
use crate::intern::LabelTable;
use crate::rules::{expand, ExpandOutcome, Scratch};
use crate::spill::{sweep_stale_tmp, SpillArena, SpillConfig};
use crate::state::GlobalState;
use crate::trace::Trace;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;
use vnet_graph::{fx_hash_bytes, Budget, DegradeReason, Provenance};
use vnet_protocol::ProtocolSpec;

/// Supervisor options for [`explore_procshard`].
#[derive(Debug, Clone)]
pub struct ProcOpts {
    /// Number of shard worker processes (the `N` of `hash % N`).
    pub shards: u32,
    /// Working directory holding shard sections, outboxes, and round
    /// state. Re-running with the same directory resumes the run.
    pub dir: PathBuf,
    /// The protocol argument workers re-load (`vnet` built-in name or
    /// `.vnp` path) — it must resolve to the supervisor's `spec`.
    pub spec_arg: String,
    /// The VN-selection flag to forward (`--unique-vns`/`--single-vn`),
    /// so workers derive the supervisor's exact `McConfig`.
    pub vn_flag: Option<String>,
    /// Extra configuration flags to forward verbatim (`--general`,
    /// `--symmetry`), so workers derive the supervisor's exact
    /// `McConfig` and the shard-directory fingerprints match.
    pub cfg_flags: Vec<String>,
    /// Budget enforced at round boundaries (deadline and node limit).
    pub budget: Budget,
    /// Per-shard, per-round respawn budget before the run degrades
    /// with [`DegradeReason::WorkerLoss`].
    pub max_restarts: u32,
    /// Checkpoint policy: where to flush the *merged* v2 checkpoint on
    /// interruption/truncation, and the cooperative stop file.
    pub policy: Option<CheckpointPolicy>,
    /// Total memory budget, split evenly across shards; each worker
    /// spills its cold visited keys once its slice fills.
    pub mem_budget: Option<u64>,
    /// Test hook: `(round, shard)` whose *first* spawn aborts after
    /// renaming its section — a deterministic mid-round SIGKILL.
    pub inject_kill: Option<(u32, u32)>,
}

impl ProcOpts {
    /// Options for `shards` workers coordinating through `dir`,
    /// re-loading the protocol from `spec_arg`.
    pub fn new(shards: u32, dir: impl Into<PathBuf>, spec_arg: impl Into<String>) -> Self {
        ProcOpts {
            shards,
            dir: dir.into(),
            spec_arg: spec_arg.into(),
            vn_flag: None,
            cfg_flags: Vec::new(),
            budget: Budget::unlimited(),
            max_restarts: 2,
            policy: None,
            mem_budget: None,
            inject_kill: None,
        }
    }
}

/// Worker-side options (parsed from the hidden `__shard-worker` CLI).
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// The shared working directory.
    pub dir: PathBuf,
    /// This worker's shard index.
    pub shard: u32,
    /// Total shard count.
    pub of: u32,
    /// The round to execute.
    pub round: u32,
    /// Memory budget for the whole run; this worker takes `1/of`.
    pub mem_budget: Option<u64>,
    /// Abort after the section rename (supervisor crash injection).
    pub crash: bool,
}

/// `fx_hash(key) % n` — the static shard partition. Stable across runs
/// and processes: the hash has no per-process seed.
fn shard_of(key: &[u8], n: u32) -> u32 {
    (fx_hash_bytes(key) % n as u64) as u32
}

// ---------------------------------------------------------------------
// Checksummed atomic file IO.
// ---------------------------------------------------------------------

fn sec_path(dir: &Path, s: u32) -> PathBuf {
    dir.join(format!("shard-{s}.sec"))
}
fn out_path(dir: &Path, round: u32, from: u32, to: u32) -> PathBuf {
    dir.join(format!("out-{round}-{from}-{to}.box"))
}
fn res_path(dir: &Path, round: u32, s: u32) -> PathBuf {
    dir.join(format!("res-{round}-{s}.res"))
}
fn round_path(dir: &Path) -> PathBuf {
    dir.join("round.bin")
}
fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.bin")
}
fn done_path(dir: &Path) -> PathBuf {
    dir.join("done.bin")
}

/// Writes `[fnv1a(payload)][payload]` via tmp + rename: readers see the
/// old file or the new one, never a torn hybrid.
fn write_checked(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend(checkpoint::fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)
}

/// Reads a [`write_checked`] file; any defect — missing, short, bad
/// checksum — reads as `None` so callers regenerate or refuse.
fn read_checked(path: &Path) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 8 {
        return None;
    }
    let stored = u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ]);
    if checkpoint::fnv1a(&bytes[8..]) != stored {
        return None;
    }
    Some(bytes[8..].to_vec())
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

fn corrupt(detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        offset: 0,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------
// Result records (the per-shard round commit marker).
// ---------------------------------------------------------------------

/// Finding kinds, ordered by nothing — resolution is by state key.
const FIND_DEADLOCK: u8 = 1;
const FIND_MODEL_ERROR: u8 = 2;
const FIND_INVARIANT: u8 = 3;

#[derive(Debug, Clone)]
struct Finding {
    kind: u8,
    /// Index of the implicated entry in the reporting shard's section.
    idx: u32,
    detail: String,
    /// The offending rule (model errors only).
    rule: String,
}

#[derive(Debug, Clone)]
struct ResRecord {
    /// States claimed in this round (recovered + fresh).
    claimed: u64,
    /// Total entries in the shard section after the round.
    total: u64,
    /// Worker's accounted heap high-water mark.
    peak: u64,
    /// Cumulative bytes the worker spilled to disk.
    spilled: u64,
    finding: Option<Finding>,
}

fn encode_res(r: &ResRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_varint(&mut out, r.claimed);
    put_varint(&mut out, r.total);
    put_varint(&mut out, r.peak);
    put_varint(&mut out, r.spilled);
    match &r.finding {
        None => out.push(0),
        Some(f) => {
            out.push(f.kind);
            put_varint(&mut out, f.idx as u64);
            put_varint(&mut out, f.detail.len() as u64);
            out.extend_from_slice(f.detail.as_bytes());
            put_varint(&mut out, f.rule.len() as u64);
            out.extend_from_slice(f.rule.as_bytes());
        }
    }
    out
}

fn take_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    let s = std::str::from_utf8(&buf[*pos..end]).ok()?.to_string();
    *pos = end;
    Some(s)
}

fn decode_res(buf: &[u8]) -> Option<ResRecord> {
    let mut pos = 0usize;
    let claimed = read_varint(buf, &mut pos)?;
    let total = read_varint(buf, &mut pos)?;
    let peak = read_varint(buf, &mut pos)?;
    let spilled = read_varint(buf, &mut pos)?;
    let tag = *buf.get(pos)?;
    pos += 1;
    let finding = match tag {
        0 => None,
        FIND_DEADLOCK | FIND_MODEL_ERROR | FIND_INVARIANT => {
            let idx = read_varint(buf, &mut pos)?;
            if idx > u32::MAX as u64 {
                return None;
            }
            let detail = take_str(buf, &mut pos)?;
            let rule = take_str(buf, &mut pos)?;
            Some(Finding {
                kind: tag,
                idx: idx as u32,
                detail,
                rule,
            })
        }
        _ => return None,
    };
    if pos != buf.len() {
        return None;
    }
    Some(ResRecord {
        claimed,
        total,
        peak,
        spilled,
        finding,
    })
}

// ---------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------

/// One candidate successor routed to this shard.
struct Cand {
    key: Vec<u8>,
    pshard: u32,
    pidx: u32,
    label: String,
}

fn parse_outbox(buf: &[u8], from: u32, out: &mut Vec<Cand>) -> Result<(), String> {
    let mut pos = 0usize;
    let count = read_varint(buf, &mut pos).ok_or("outbox: bad count")?;
    if count > buf.len() as u64 {
        return Err("outbox: impossible count".into());
    }
    for _ in 0..count {
        let klen = read_varint(buf, &mut pos).ok_or("outbox: bad key length")? as usize;
        let kend = pos.checked_add(klen).filter(|&e| e <= buf.len());
        let Some(kend) = kend else {
            return Err("outbox: key overruns".into());
        };
        let key = buf[pos..kend].to_vec();
        pos = kend;
        let pidx = read_varint(buf, &mut pos).ok_or("outbox: bad parent index")?;
        if pidx > u32::MAX as u64 {
            return Err("outbox: parent index out of range".into());
        }
        let label = take_str(buf, &mut pos).ok_or("outbox: bad label")?;
        out.push(Cand {
            key,
            pshard: from,
            pidx: pidx as u32,
            label,
        });
    }
    if pos != buf.len() {
        return Err("outbox: trailing bytes".into());
    }
    Ok(())
}

/// Accounted worker footprint: the key arena plus the flat per-entry
/// metadata (parent ref 8B, label id 4B, level 4B).
fn worker_footprint(keys: &SpillArena, entries: usize) -> u64 {
    keys.heap_bytes() + (entries as u64).saturating_mul(16)
}

/// Executes one shard round. Invoked by the hidden `__shard-worker` CLI
/// command; errors go to stderr and a nonzero exit, which the
/// supervisor treats like any other worker death.
pub fn run_worker(spec: &ProtocolSpec, cfg: &McConfig, w: &WorkerOpts) -> Result<(), String> {
    let n = w.of;
    if n == 0 || w.shard >= n {
        return Err(format!("shard {} out of range (of {n})", w.shard));
    }
    cfg.validate_for_run()?;

    // Visited keys: a spillable arena so the shard honors its slice of
    // the run's memory budget the same way the serial explorer does.
    let spill = w.mem_budget.map(|b| {
        let slice = (b / n as u64).max(64 << 10);
        SpillConfig::new(
            w.dir.join(format!("spill-{}", w.shard)),
            slice.saturating_mul(4) / 5,
        )
    });
    let mut keys = SpillArena::new(spill);
    let mut labels = LabelTable::new();
    let _ = labels.intern("");
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut label_ids: Vec<u32> = Vec::new();
    let mut levels: Vec<u32> = Vec::new();
    let mut peak = 0u64;

    if let Some(bytes) = read_checked(&sec_path(&w.dir, w.shard)) {
        let (sec_labels, entries) =
            decode_shard_section(&bytes, 0).map_err(|e| format!("shard section: {e}"))?;
        let lids: Vec<u32> = sec_labels.iter().map(|l| labels.intern(l)).collect();
        for (i, e) in entries.iter().enumerate() {
            match keys.intern(&e.key) {
                Ok((_, true)) => {}
                Ok((_, false)) => return Err(format!("duplicate key at section entry {i}")),
                Err(why) => return Err(format!("intern arena: {why}")),
            }
            parents.push((e.parent_shard, e.parent_idx));
            label_ids.push(lids.get(e.label as usize).copied().unwrap_or(0));
            levels.push(e.level);
            if i % 1024 == 1023 {
                let now = worker_footprint(&keys, parents.len());
                peak = peak.max(now);
                let _ = keys.maybe_spill(now);
            }
        }
    }

    // Candidates: round 0 is the initial state (owned by exactly one
    // shard); later rounds read every producer's outbox for this shard.
    let mut cands: Vec<Cand> = Vec::new();
    if w.round == 0 {
        let initial = GlobalState::initial(spec, cfg);
        let key = if cfg.symmetry {
            crate::symmetry::canonicalize(cfg, &initial).1
        } else {
            initial.encode()
        };
        if shard_of(&key, n) == w.shard {
            cands.push(Cand {
                key,
                pshard: w.shard,
                pidx: 0,
                label: String::new(),
            });
        }
    } else {
        for from in 0..n {
            let path = out_path(&w.dir, w.round - 1, from, w.shard);
            let bytes = read_checked(&path)
                .ok_or_else(|| format!("missing or corrupt outbox {}", path.display()))?;
            parse_outbox(&bytes, from, &mut cands)?;
        }
    }
    // The total order that makes replay deterministic: a worker killed
    // mid-claim left a *prefix* of this sequence in its section.
    cands.sort_by(|a, b| {
        (&a.key, a.pshard, a.pidx, &a.label).cmp(&(&b.key, b.pshard, b.pidx, &b.label))
    });

    // Recover claims this round already made before a crash (the
    // `level == round` suffix of the section), then claim the rest.
    let mut new_frontier: Vec<u32> = (0..levels.len() as u32)
        .filter(|&i| levels[i as usize] == w.round)
        .collect();
    let mut claimed = new_frontier.len() as u64;
    for c in &cands {
        match keys.intern(&c.key) {
            Ok((id, true)) => {
                parents.push((c.pshard, c.pidx));
                label_ids.push(labels.intern(&c.label));
                levels.push(w.round);
                new_frontier.push(id);
                claimed += 1;
                if claimed.is_multiple_of(512) {
                    let now = worker_footprint(&keys, parents.len());
                    peak = peak.max(now);
                    let _ = keys.maybe_spill(now);
                }
            }
            Ok((_, false)) => {}
            Err(why) => return Err(format!("intern arena: {why}")),
        }
    }
    peak = peak.max(worker_footprint(&keys, parents.len()));

    // Check, then expand. The frontier is iterated in id order — which
    // is sorted-key order — so the first finding in a shard is the
    // minimal-key finding, and the supervisor's cross-shard minimum is
    // independent of both the shard count and replay history.
    let mut finding: Option<Finding> = None;
    let mut scratch_key: Vec<u8> = Vec::with_capacity(128);
    if let Some(swmr) = &cfg.swmr {
        for &idx in &new_frontier {
            if !keys.get_into(idx, &mut scratch_key) {
                return Err(format!("claimed state {idx} unreadable"));
            }
            let Some(gs) = GlobalState::decode(&scratch_key, cfg) else {
                return Err(format!("claimed state {idx} failed to decode"));
            };
            if let Some(detail) = swmr.check(&gs, spec) {
                finding = Some(Finding {
                    kind: FIND_INVARIANT,
                    idx,
                    detail,
                    rule: String::new(),
                });
                break;
            }
        }
    }

    let mut outboxes: Vec<Vec<u8>> = (0..n).map(|_| Vec::new()).collect();
    let mut out_counts = vec![0u64; n as usize];
    if finding.is_none() {
        let mut expand_scratch = Scratch::new(spec, cfg);
        let mut key_buf: Vec<u8> = Vec::with_capacity(128);
        let mut label_buf = String::new();
        let mut canon = cfg
            .symmetry
            .then(|| crate::symmetry::Canonicalizer::new(cfg));
        'frontier: for &idx in &new_frontier {
            if !keys.get_into(idx, &mut scratch_key) {
                return Err(format!("frontier state {idx} unreadable"));
            }
            let Some(gs) = GlobalState::decode(&scratch_key, cfg) else {
                return Err(format!("frontier state {idx} failed to decode"));
            };
            let outcome = expand(spec, cfg, &gs, &mut expand_scratch, |sstate, label| {
                // Key-only canonicalization: no permuted state is ever
                // materialized on the expansion path.
                match canon.as_mut() {
                    Some(c) => c.canonical_key_into(sstate, &mut key_buf),
                    None => sstate.encode_into(&mut key_buf),
                }
                let to = shard_of(&key_buf, n) as usize;
                label.render_into(spec, &mut label_buf);
                put_varint(&mut outboxes[to], key_buf.len() as u64);
                outboxes[to].extend_from_slice(&key_buf);
                put_varint(&mut outboxes[to], idx as u64);
                put_varint(&mut outboxes[to], label_buf.len() as u64);
                outboxes[to].extend_from_slice(label_buf.as_bytes());
                out_counts[to] += 1;
                true
            });
            match outcome {
                ExpandOutcome::Bug { rule, detail } => {
                    finding = Some(Finding {
                        kind: FIND_MODEL_ERROR,
                        idx,
                        detail,
                        rule,
                    });
                    break 'frontier;
                }
                ExpandOutcome::Done(0) => {
                    if !gs.is_quiescent(spec) {
                        finding = Some(Finding {
                            kind: FIND_DEADLOCK,
                            idx,
                            detail: String::new(),
                            rule: String::new(),
                        });
                        break 'frontier;
                    }
                }
                // The callback never requests a stop; treat one as a
                // no-successor state that did expand (fail soft).
                ExpandOutcome::Done(_) | ExpandOutcome::Stopped => {}
            }
        }
    }

    // Persist: section → (outboxes) → result record. The record is the
    // commit marker; everything before it is safely recomputable.
    let mut enc = ShardEncoder::new();
    for i in 0..parents.len() {
        if !keys.get_into(i as u32, &mut scratch_key) {
            return Err(format!("visited state {i} unreadable at write-back"));
        }
        enc.push(
            &scratch_key,
            parents[i].0,
            parents[i].1,
            labels.get(label_ids[i]),
            levels[i],
        );
    }
    let sec = sec_path(&w.dir, w.shard);
    write_checked(&sec, &enc.finish()).map_err(|e| format!("{}: {e}", sec.display()))?;

    if w.crash {
        // Crash injection: die exactly where a SIGKILL between renames
        // would — section updated, outboxes and result record absent.
        std::process::abort();
    }

    if finding.is_none() {
        for (to, body) in outboxes.iter().enumerate() {
            let mut full = Vec::with_capacity(10 + body.len());
            put_varint(&mut full, out_counts[to]);
            full.extend_from_slice(body);
            let path = out_path(&w.dir, w.round, w.shard, to as u32);
            write_checked(&path, &full).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let rec = ResRecord {
        claimed,
        total: parents.len() as u64,
        peak,
        spilled: keys.spill_stats().spilled_bytes,
        finding,
    };
    let path = res_path(&w.dir, w.round, w.shard);
    write_checked(&path, &encode_res(&rec)).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Supervisor.
// ---------------------------------------------------------------------

/// Explores `spec` under `cfg` with `opts.shards` worker processes.
///
/// The working directory is the run's durable state: re-invoking with
/// the same directory resumes after any crash — of a worker *or* of
/// this supervisor. A finished run leaves a `done` marker; a later
/// invocation with the same directory resets it and starts fresh.
pub fn explore_procshard(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    opts: &ProcOpts,
) -> Result<CheckpointedRun, CheckpointError> {
    let n = opts.shards;
    if n == 0 || n > 1 << 12 {
        return Err(corrupt(format!("shard count {n} out of range (1..=4096)")));
    }
    if let Err(detail) = cfg.validate_for_run() {
        return Err(CheckpointError::Config { detail });
    }
    std::fs::create_dir_all(&opts.dir).map_err(|e| io_err(&opts.dir, e))?;
    sweep_stale_tmp(&opts.dir);
    // Fail closed on a non-empty directory that carries no meta
    // marker: it is not a shard directory this run may claim, and
    // initializing into it would clobber whatever lives there.
    if !meta_path(&opts.dir).exists() {
        let occupied = std::fs::read_dir(&opts.dir)
            .map_err(|e| io_err(&opts.dir, e))?
            .next()
            .is_some();
        if occupied {
            return Err(corrupt(format!(
                "{} is non-empty but has no shard meta marker; refusing to initialize into it",
                opts.dir.display()
            )));
        }
    }
    if done_path(&opts.dir).exists() {
        reset_dir(&opts.dir, n);
    }

    let fp = checkpoint::fingerprint(spec, cfg);
    match read_checked(&meta_path(&opts.dir)) {
        Some(bytes) if bytes.len() == 12 => {
            let stored_fp = u64::from_le_bytes([
                bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
            ]);
            let stored_n = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            if stored_fp != fp {
                return Err(CheckpointError::SpecMismatch {
                    expected: fp,
                    found: stored_fp,
                });
            }
            if stored_n != n {
                return Err(corrupt(format!(
                    "shard directory was built for {stored_n} shard(s), not {n}"
                )));
            }
        }
        Some(_) => return Err(corrupt("shard directory meta record malformed")),
        // `read_checked` returns `None` for a missing file and for a
        // checksum-failing one alike; only the former may initialize.
        None if meta_path(&opts.dir).exists() => {
            return Err(corrupt("shard directory meta record unreadable"));
        }
        None => {
            let mut meta = Vec::with_capacity(12);
            meta.extend(fp.to_le_bytes());
            meta.extend(n.to_le_bytes());
            let path = meta_path(&opts.dir);
            write_checked(&path, &meta).map_err(|e| io_err(&path, e))?;
        }
    }

    let (mut round, mut claims) = match read_checked(&round_path(&opts.dir)) {
        Some(bytes) => {
            let mut pos = 0usize;
            let r = read_varint(&bytes, &mut pos).ok_or_else(|| corrupt("round record"))?;
            let c = read_varint(&bytes, &mut pos).ok_or_else(|| corrupt("round record"))?;
            if r > u32::MAX as u64 || pos != bytes.len() {
                return Err(corrupt("round record out of range"));
            }
            (r as u32, c)
        }
        None => (0u32, 0u64),
    };

    let started = Instant::now();
    let metrics = vnet_obs::metrics_enabled();
    let mut restarts_total: u32 = 0;
    let mut peak = 0u64;
    let mut spilled = 0u64;

    loop {
        if let Some(pol) = &opts.policy {
            if pol.stop_file.as_ref().is_some_and(|p| p.exists()) {
                if round > 0 {
                    merge_checkpoint(&opts.dir, n, fp, round - 1, claims, &pol.path)?;
                }
                return Ok(CheckpointedRun::Interrupted {
                    checkpoint: pol.path.clone(),
                    states: claims as usize,
                    level: round.saturating_sub(1) as usize,
                });
            }
        }

        // Bound/budget checks sit at round boundaries: the overrun is
        // at most one BFS level, exactly like the checkpointing serial
        // explorer, and the directory stays consistent for resume.
        let mut degrade: Option<DegradeReason> = None;
        if let Some(max) = cfg.max_depth {
            if round as usize >= max {
                degrade = Some(DegradeReason::Bound {
                    what: format!("depth limit of {max} reached"),
                });
            }
        }
        if degrade.is_none() && claims as usize >= cfg.max_states {
            degrade = Some(DegradeReason::Bound {
                what: format!("state limit of {} reached", cfg.max_states),
            });
        }
        if degrade.is_none() {
            if let Some(limit) = opts.budget.node_limit {
                if claims >= limit {
                    degrade = Some(DegradeReason::NodeLimit { limit });
                }
            }
        }
        if degrade.is_none() {
            if let Some(deadline) = opts.budget.deadline {
                if started.elapsed() >= deadline {
                    degrade = Some(DegradeReason::DeadlineExpired { deadline });
                }
            }
        }
        if let Some(reason) = degrade {
            if let Some(pol) = &opts.policy {
                if round > 0 {
                    merge_checkpoint(&opts.dir, n, fp, round - 1, claims, &pol.path)?;
                }
            }
            return Ok(finished(Verdict::NoDeadlock(stats_of(
                claims,
                round,
                false,
                Provenance::Degraded { reason },
                peak,
                spilled,
            ))));
        }

        let results = match run_round(opts, round, &mut restarts_total) {
            Ok(r) => r,
            Err(RoundFailure::WorkerLost { restarts }) => {
                return Ok(finished(Verdict::NoDeadlock(stats_of(
                    claims,
                    round,
                    false,
                    Provenance::Degraded {
                        reason: DegradeReason::WorkerLoss {
                            lost_states: 0,
                            restarts,
                        },
                    },
                    peak,
                    spilled,
                ))))
            }
            Err(RoundFailure::Infra(e)) => return Err(e),
        };

        let claimed_round: u64 = results.iter().map(|r| r.claimed).sum();
        claims += claimed_round;
        peak = peak.max(results.iter().map(|r| r.peak).sum());
        spilled = results.iter().map(|r| r.spilled).sum();
        if metrics {
            vnet_obs::counter("explore.procshard.rounds_total").inc();
        }

        // Cross-shard finding resolution: the minimal state key wins.
        // Keys partition cleanly across shards, so the minimum is
        // unique and independent of the shard count.
        let mut chosen: Option<(u32, Finding, Vec<u8>)> = None;
        for (s, rec) in results.iter().enumerate() {
            let Some(f) = &rec.finding else { continue };
            let bytes = read_checked(&sec_path(&opts.dir, s as u32))
                .ok_or_else(|| corrupt(format!("shard {s} section vanished")))?;
            let (_, entries) = decode_shard_section(&bytes, 0)?;
            let key = entries
                .get(f.idx as usize)
                .map(|e| e.key.clone())
                .ok_or_else(|| corrupt(format!("shard {s} finding index out of range")))?;
            if chosen.as_ref().is_none_or(|(_, _, k)| key < *k) {
                chosen = Some((s as u32, f.clone(), key));
            }
        }
        if let Some((s, f, _)) = chosen {
            let verdict = build_finding_verdict(
                &opts.dir,
                n,
                spec,
                cfg,
                s,
                &f,
                stats_of(claims, round, false, Provenance::Exact, peak, spilled),
            )?;
            let path = done_path(&opts.dir);
            write_checked(&path, &[f.kind]).map_err(|e| io_err(&path, e))?;
            if metrics {
                vnet_obs::counter("explore.spill_bytes").add(spilled);
            }
            return Ok(finished(verdict));
        }

        // Commit the round, then retire the outboxes it consumed and
        // its result records — neither is read again.
        let mut rec = Vec::with_capacity(12);
        put_varint(&mut rec, (round + 1) as u64);
        put_varint(&mut rec, claims);
        let path = round_path(&opts.dir);
        write_checked(&path, &rec).map_err(|e| io_err(&path, e))?;
        if round > 0 {
            for from in 0..n {
                for to in 0..n {
                    let _ = std::fs::remove_file(out_path(&opts.dir, round - 1, from, to));
                }
            }
        }
        for s in 0..n {
            let _ = std::fs::remove_file(res_path(&opts.dir, round, s));
        }

        if claimed_round == 0 {
            let path = done_path(&opts.dir);
            write_checked(&path, &[0]).map_err(|e| io_err(&path, e))?;
            if metrics {
                vnet_obs::counter("explore.spill_bytes").add(spilled);
            }
            return Ok(finished(Verdict::NoDeadlock(stats_of(
                claims,
                round,
                true,
                Provenance::Exact,
                peak,
                spilled,
            ))));
        }
        round += 1;
    }
}

fn finished(v: Verdict) -> CheckpointedRun {
    CheckpointedRun::Finished(v)
}

fn stats_of(
    claims: u64,
    round: u32,
    complete: bool,
    provenance: Provenance,
    peak: u64,
    spilled: u64,
) -> ExploreStats {
    ExploreStats {
        states: claims as usize,
        levels: round as usize,
        complete,
        provenance,
        peak_bytes: peak,
        spill_bytes: spilled,
    }
}

enum RoundFailure {
    WorkerLost { restarts: u32 },
    Infra(CheckpointError),
}

/// Runs every shard worker for `round`, re-spawning casualties, and
/// returns the per-shard result records in shard order.
fn run_round(
    opts: &ProcOpts,
    round: u32,
    restarts_total: &mut u32,
) -> Result<Vec<ResRecord>, RoundFailure> {
    let n = opts.shards;
    let mut records: Vec<Option<ResRecord>> = vec![None; n as usize];
    let mut attempts = vec![0u32; n as usize];

    // A supervisor resume may find some shards' records already on
    // disk: those rounds are committed per-shard and are not re-run.
    for s in 0..n {
        if let Some(rec) = read_checked(&res_path(&opts.dir, round, s)).and_then(|b| decode_res(&b))
        {
            records[s as usize] = Some(rec);
        }
    }

    loop {
        let pending: Vec<u32> = (0..n).filter(|&s| records[s as usize].is_none()).collect();
        if pending.is_empty() {
            // All records present; unwrap the options in shard order.
            let mut out = Vec::with_capacity(n as usize);
            for r in records {
                match r {
                    Some(rec) => out.push(rec),
                    None => return Err(RoundFailure::Infra(corrupt("round record lost"))),
                }
            }
            return Ok(out);
        }
        for &s in &pending {
            if attempts[s as usize] > opts.max_restarts {
                return Err(RoundFailure::WorkerLost {
                    restarts: *restarts_total,
                });
            }
        }

        let mut children: Vec<(u32, Child)> = Vec::with_capacity(pending.len());
        for &s in &pending {
            // The injected crash fires on the first spawn only; the
            // respawn is the recovery being tested.
            let crash = attempts[s as usize] == 0 && opts.inject_kill == Some((round, s));
            attempts[s as usize] += 1;
            if attempts[s as usize] > 1 {
                *restarts_total += 1;
                if vnet_obs::metrics_enabled() {
                    vnet_obs::counter("explore.procshard.restarts_total").inc();
                }
            }
            match spawn_worker(opts, s, round, crash) {
                Ok(child) => children.push((s, child)),
                Err(e) => {
                    return Err(RoundFailure::Infra(io_err(&opts.dir, e)));
                }
            }
        }
        for (s, mut child) in children {
            let ok = match child.wait() {
                Ok(status) => status.success(),
                Err(_) => false,
            };
            if ok {
                records[s as usize] =
                    read_checked(&res_path(&opts.dir, round, s)).and_then(|b| decode_res(&b));
            }
            // A failed or record-less worker stays pending and is
            // re-spawned on the next sweep (up to max_restarts).
        }
    }
}

fn spawn_worker(opts: &ProcOpts, shard: u32, round: u32, crash: bool) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("__shard-worker")
        .arg("--dir")
        .arg(&opts.dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--of")
        .arg(opts.shards.to_string())
        .arg("--round")
        .arg(round.to_string())
        .arg("--spec")
        .arg(&opts.spec_arg);
    if let Some(f) = &opts.vn_flag {
        cmd.arg(f);
    }
    for f in &opts.cfg_flags {
        cmd.arg(f);
    }
    if let Some(b) = opts.mem_budget {
        cmd.arg("--mem-budget").arg(b.to_string());
    }
    if crash {
        cmd.arg("--crash");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn()
}

/// Removes every artifact a previous *finished* run left behind so the
/// directory can host a fresh run. Only files this module writes are
/// touched.
fn reset_dir(dir: &Path, n: u32) {
    let _ = std::fs::remove_file(done_path(dir));
    let _ = std::fs::remove_file(round_path(dir));
    let _ = std::fs::remove_file(meta_path(dir));
    for s in 0..n {
        let _ = std::fs::remove_file(sec_path(dir, s));
        let _ = std::fs::remove_dir_all(dir.join(format!("spill-{s}")));
    }
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("out-") && name.ends_with(".box"))
                || (name.starts_with("res-") && name.ends_with(".res"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// One decoded shard section: its label strings and entries.
type Section = (Vec<String>, Vec<ShardEntry>);

/// Loads and decodes every shard section.
fn load_sections(dir: &Path, n: u32) -> Result<Vec<Section>, CheckpointError> {
    let mut out = Vec::with_capacity(n as usize);
    for s in 0..n {
        let path = sec_path(dir, s);
        match read_checked(&path) {
            Some(bytes) => out.push(decode_shard_section(&bytes, 0)?),
            // A shard that never claimed anything may not have written
            // a section yet (pre-round-0 interruption): empty is fine.
            None => out.push((Vec::new(), Vec::new())),
        }
    }
    Ok(out)
}

/// Walks parent references across shards from `start`, collecting rule
/// labels root-ward. Bounded by a visited set: a damaged section must
/// terminate the walk, not spin it.
fn walk_trace(
    sections: &[Section],
    start: (u32, u32),
) -> Result<Vec<String>, CheckpointError> {
    let mut steps = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let (mut s, mut i) = start;
    loop {
        if !seen.insert((s, i)) {
            break;
        }
        let (labels, entries) = sections
            .get(s as usize)
            .ok_or_else(|| corrupt(format!("trace walk reached missing shard {s}")))?;
        let e = entries
            .get(i as usize)
            .ok_or_else(|| corrupt(format!("trace walk reached missing entry {s}/{i}")))?;
        let label = labels
            .get(e.label as usize)
            .ok_or_else(|| corrupt(format!("trace walk hit missing label in shard {s}")))?;
        if label.is_empty() {
            break;
        }
        steps.push(label.clone());
        (s, i) = (e.parent_shard, e.parent_idx);
    }
    steps.reverse();
    Ok(steps)
}

/// Walks parent references across shards from `start`, collecting the
/// *state keys* root-ward (root inclusive). Under symmetry these are
/// canonical-representative keys and feed the de-canonicalizer.
fn walk_chain(
    sections: &[Section],
    start: (u32, u32),
) -> Result<Vec<Vec<u8>>, CheckpointError> {
    let mut chain = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let (mut s, mut i) = start;
    loop {
        if !seen.insert((s, i)) {
            break;
        }
        let (labels, entries) = sections
            .get(s as usize)
            .ok_or_else(|| corrupt(format!("trace walk reached missing shard {s}")))?;
        let e = entries
            .get(i as usize)
            .ok_or_else(|| corrupt(format!("trace walk reached missing entry {s}/{i}")))?;
        chain.push(e.key.clone());
        let label = labels
            .get(e.label as usize)
            .ok_or_else(|| corrupt(format!("trace walk hit missing label in shard {s}")))?;
        if label.is_empty() {
            break;
        }
        (s, i) = (e.parent_shard, e.parent_idx);
    }
    chain.reverse();
    Ok(chain)
}

/// Builds the terminal verdict for the round's minimal finding.
fn build_finding_verdict(
    dir: &Path,
    n: u32,
    spec: &ProtocolSpec,
    cfg: &McConfig,
    shard: u32,
    f: &Finding,
    stats: ExploreStats,
) -> Result<Verdict, CheckpointError> {
    let sections = load_sections(dir, n)?;
    let entry = sections
        .get(shard as usize)
        .and_then(|(_, es)| es.get(f.idx as usize))
        .ok_or_else(|| corrupt("finding entry out of range"))?;
    let last = GlobalState::decode(&entry.key, cfg)
        .ok_or_else(|| corrupt("finding state failed to decode"))?;
    let depth = entry.level as usize;
    // Under symmetry the stored parent chain links canonical
    // representatives; replay it into a concrete execution so the
    // trace's labels are enabled step by step from the real initial
    // state.
    let (mut steps, last) = if cfg.symmetry {
        let chain = walk_chain(&sections, (shard, f.idx))?;
        match crate::trace::decanonicalize_chain(spec, cfg, &chain) {
            Ok(t) => (t.steps, t.last),
            Err(why) => {
                let t = crate::trace::decanonicalize_failed(&why, last);
                (t.steps, t.last)
            }
        }
    } else {
        (walk_trace(&sections, (shard, f.idx))?, last)
    };
    Ok(match f.kind {
        FIND_DEADLOCK => Verdict::Deadlock {
            trace: Trace { steps, last },
            depth,
            stats,
        },
        FIND_MODEL_ERROR => {
            let (rule, detail) = if cfg.symmetry {
                crate::trace::concrete_bug(spec, cfg, &last)
                    .unwrap_or_else(|| (f.rule.clone(), f.detail.clone()))
            } else {
                (f.rule.clone(), f.detail.clone())
            };
            steps.push(rule);
            Verdict::ModelError {
                trace: Trace { steps, last },
                detail,
                stats,
            }
        }
        _ => {
            let detail = if cfg.symmetry {
                cfg.swmr
                    .as_ref()
                    .and_then(|sw| sw.check(&last, spec))
                    .unwrap_or_else(|| f.detail.clone())
            } else {
                f.detail.clone()
            };
            Verdict::InvariantViolation {
                trace: Trace { steps, last },
                detail,
                stats,
            }
        }
    })
}

/// Merges the shard sections into one checkpoint at
/// the last *committed* level: entries above it (a crashed worker's
/// uncommitted claims) are dropped — they are a suffix of each section
/// — and the frontier is every entry at the committed level, so a plain
/// serial `--resume` re-expands that level and continues the search.
fn merge_checkpoint(
    dir: &Path,
    n: u32,
    fp: u64,
    level: u32,
    claims: u64,
    path: &Path,
) -> Result<(), CheckpointError> {
    let sections = load_sections(dir, n)?;
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n as usize);
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    for (s, (labels, entries)) in sections.iter().enumerate() {
        let mut enc = ShardEncoder::new();
        for (i, e) in entries.iter().enumerate() {
            if e.level > level {
                break;
            }
            let label = labels
                .get(e.label as usize)
                .ok_or_else(|| corrupt(format!("shard {s} entry {i} label missing")))?;
            enc.push(&e.key, e.parent_shard, e.parent_idx, label, e.level);
            if e.level == level {
                frontier.push((s as u32, i as u32));
            }
        }
        encoded.push(enc.finish());
    }

    let level = level as usize;
    checkpoint::write(path, fp, level, claims, &encoded, frontier.into_iter())
}
