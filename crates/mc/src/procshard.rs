//! Process-sharded exploration: the visited set is statically
//! partitioned across N worker *processes* (`fx_hash(key) % N`), each
//! owning one shard of the state space for the whole run and persisting
//! it as an append-only chain of checksummed round segments.
//!
//! ## Why processes
//!
//! The thread-parallel explorer ([`crate::parallel`]) dies as one unit:
//! a SIGKILL — the OOM killer's verdict of choice — discards every
//! shard's progress at once. Here each shard commits one segment file
//! per round (tmp + rename), so a killed or panicking worker is simply
//! re-spawned, rebuilds its shard from its committed segments and
//! replays only its current round; sibling shards keep their work. The
//! supervisor itself is equally disposable: `round.bin` records the
//! last committed round, and re-running the same command resumes from
//! it.
//!
//! ## Persistent workers and the doorbell pipe
//!
//! The supervisor spawns each shard's `__shard-worker` once and keeps
//! it for the whole run. The worker builds its visited set from its
//! segments on start, then serves rounds: the supervisor writes
//! `round <r>` to its stdin, the worker answers `done <r>` on its
//! stdout. The pipe is only a doorbell — every state byte travels
//! through checksummed files, and the per-shard result record stays the
//! round's commit marker. EOF on the worker's stdout (or a missing
//! record) is a casualty: the supervisor reaps and re-spawns it under a
//! per-round restart budget. EOF on the worker's stdin ends the worker,
//! so a supervisor that exits — or is SIGKILLed — leaves no worker
//! behind once their current round is done.
//!
//! ## Round protocol
//!
//! Round `r` claims BFS level `r` and expands it:
//!
//! 1. **Claim.** Worker `s` reads the candidate successors every shard
//!    routed to it in round `r-1` (`out-{r-1}-{from}-{s}.box`), drops
//!    those its in-memory visited set has seen, keeps one candidate per
//!    remaining key — the least by `(parent shard, parent index, label)`
//!    — and claims those winners in key order. That is the order of a
//!    sort of every candidate by `(key, parent shard, parent index,
//!    label)`, a total order, so a replay reproduces the identical claim
//!    sequence; only the winners are sorted, and labels are rendered for
//!    the winners and to break a tie between candidates of one parent.
//! 2. **Commit the segment.** The round's claims, and only those, go to
//!    `seg-{s}-{r}.sec` (a checkpoint shard section). Entry indices run
//!    across segments in round order, so `(parent shard, parent index)`
//!    references need no rewriting.
//! 3. **Check.** Every level-`r` claim is decoded and SWMR-checked.
//! 4. **Expand.** Each claim's successors are routed to their owner
//!    shard's outbox for round `r+1`; a successor the expanding shard
//!    owns and has already visited is dropped on the spot. An outbox is
//!    a `u64` count, then per candidate its key (delta-coded against the
//!    outbox's previous key), its parent's entry index and its compact
//!    rule reference (`Label::encode_into`) — no label
//!    text. Deadlocks and model errors are reported, not acted on — the
//!    supervisor resolves the globally minimal finding so the verdict is
//!    independent of N.
//! 5. **Report.** Outboxes, then the result record — each atomic. The
//!    record is the round's commit marker for this shard; anything torn
//!    before it is recomputed.
//!
//! A worker that died *after* renaming its segment is re-spawned with
//! that segment already in its rebuilt shard: it skips the claim and
//! expands the segment's entries, which are exactly the claims the
//! sorted order would reproduce, so recovery is bit-identical to an
//! undisturbed run.
//!
//! Every artifact carries a checksum — `fnv64` (see
//! [`crate::checkpoint`]), or the word-at-a-time Fx hash for outboxes —
//! and a torn or damaged file reads as absent and is regenerated or
//! refused, never trusted. `meta.bin` records the round-file format
//! ([`SHARD_FORMAT`]); a directory left mid-run by a binary with another
//! format is refused, never misparsed.
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
use crate::codec::{decode_delta, encode_delta, put_varint, read_varint};
use crate::config::McConfig;
use crate::explore::{CheckpointedRun, ExploreStats, Verdict};
use crate::intern::StateArena;
use crate::rules::{expand, render_rule_ref, ExpandOutcome, RuleTable, Scratch};
use crate::spill::{sweep_stale_tmp, SpillArena, SpillConfig};
use crate::state::GlobalState;
use crate::symmetry::{interned_key, Canonicalizer};
use crate::trace::Trace;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
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
    /// Test hook: `(round, shard)` whose first process aborts in that
    /// round after renaming its segment — a deterministic mid-round
    /// SIGKILL.
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
    /// Memory budget for the whole run; this worker takes `1/of`.
    pub mem_budget: Option<u64>,
    /// Abort in this round after the segment rename (crash injection).
    pub crash_round: Option<u32>,
}

/// Version of the round-file formats (meta record, outboxes, result
/// records), stored in `meta.bin`. Format 2 outboxes carry compact rule
/// references instead of label text. Segments are checkpoint sections
/// and have their own format.
const SHARD_FORMAT: u32 = 2;

/// `fx_hash(key) % n` — the static shard partition. Stable across runs
/// and processes: the hash has no per-process seed.
fn shard_of(key: &[u8], n: u32) -> u32 {
    (fx_hash_bytes(key) % n as u64) as u32
}

// ---------------------------------------------------------------------
// Checksummed atomic file IO.
// ---------------------------------------------------------------------

fn seg_path(dir: &Path, s: u32, round: u32) -> PathBuf {
    dir.join(format!("seg-{s}-{round}.sec"))
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
/// old file or the new one, never a torn hybrid. The temp name carries
/// the writer's pid, so a worker left over from a killed supervisor and
/// its successor never write through the same temp file.
fn write_checked(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    write_summed(path, payload, checkpoint::fnv1a)
}

/// Reads a [`write_checked`] file; any defect — missing, short, bad
/// checksum — reads as `None` so callers regenerate or refuse.
fn read_checked(path: &Path) -> Option<Vec<u8>> {
    read_summed(path, checkpoint::fnv1a)
}

/// [`write_checked`] for outboxes, the bulk of a round's bytes: the
/// checksum is the word-at-a-time Fx hash, about six times faster than
/// byte-serial `fnv64`, and still certain to catch any damage confined
/// to one 8-byte word (each word enters the hash through a bijection).
fn write_box(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    write_summed(path, payload, fx_hash_bytes)
}

/// Reads a [`write_box`] file, like [`read_checked`].
fn read_box(path: &Path) -> Option<Vec<u8>> {
    read_summed(path, fx_hash_bytes)
}

fn write_summed(path: &Path, payload: &[u8], sum: fn(&[u8]) -> u64) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&sum(payload).to_le_bytes())?;
    file.write_all(payload)?;
    drop(file);
    std::fs::rename(&tmp, path)
}

fn read_summed(path: &Path, sum: fn(&[u8]) -> u64) -> Option<Vec<u8>> {
    let mut bytes = std::fs::read(path).ok()?;
    if bytes.len() < 8 {
        return None;
    }
    let stored = u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ]);
    if sum(&bytes[8..]) != stored {
        return None;
    }
    bytes.drain(..8);
    Some(bytes)
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// The refusal of a shard directory left mid-run by a binary with
/// another round-file format.
fn stale_format(dir: &Path, found: &str) -> CheckpointError {
    corrupt(format!(
        "{} holds shard format {found}, not {SHARD_FORMAT}; use a fresh --shard-dir",
        dir.display()
    ))
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
    /// Index of the implicated entry in the reporting shard (entry
    /// indices run across its segments in round order).
    idx: u32,
    detail: String,
    /// The offending rule (model errors only).
    rule: String,
}

#[derive(Debug, Clone)]
struct ResRecord {
    /// States claimed in this round (recovered + fresh).
    claimed: u64,
    /// Segment entries this process wrote in the round: `claimed`, or
    /// 0 when a predecessor had already committed the segment.
    written: u64,
    /// Worker's accounted heap high-water mark.
    peak: u64,
    /// Cumulative bytes the worker process spilled to disk.
    spilled: u64,
    /// Symmetry canonicalizer tallies of the round: candidate images
    /// started and canonical keys produced (0 without `--symmetry`).
    sym_images: u64,
    sym_keys: u64,
    /// Bytes of the outboxes the round wrote.
    outbox_bytes: u64,
    finding: Option<Finding>,
}

fn encode_res(r: &ResRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    for v in [
        r.claimed,
        r.written,
        r.peak,
        r.spilled,
        r.sym_images,
        r.sym_keys,
        r.outbox_bytes,
    ] {
        put_varint(&mut out, v);
    }
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
    let mut fields = [0u64; 7];
    for f in &mut fields {
        *f = read_varint(buf, &mut pos)?;
    }
    let [claimed, written, peak, spilled, sym_images, sym_keys, outbox_bytes] = fields;
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
        written,
        peak,
        spilled,
        sym_images,
        sym_keys,
        outbox_bytes,
        finding,
    })
}

// ---------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------

/// One candidate successor routed to this shard. Its key is a span of
/// the round's key arena; its rule reference a span of `boxes[buf]`,
/// the outbox it arrived in.
struct Cand {
    hash: u64,
    key: (u32, u32),
    pshard: u32,
    pidx: u32,
    buf: u32,
    rule: (u32, u32),
}

/// A round's routed candidates: the outboxes as read, and every key
/// decoded once into one arena — no allocation per candidate.
#[derive(Default)]
struct Inbox {
    boxes: Vec<Vec<u8>>,
    keys: Vec<u8>,
    cands: Vec<Cand>,
}

impl Inbox {
    fn key(&self, c: &Cand) -> &[u8] {
        &self.keys[c.key.0 as usize..(c.key.0 + c.key.1) as usize]
    }

    fn rule(&self, c: &Cand) -> &[u8] {
        let (at, len) = (c.rule.0 as usize, c.rule.1 as usize);
        &self.boxes[c.buf as usize][at..at + len]
    }

    /// Renders `c`'s label into `out`.
    fn label(&self, spec: &ProtocolSpec, c: &Cand, out: &mut String) -> Result<(), String> {
        if render_rule_ref(spec, self.rule(c), out) {
            Ok(())
        } else {
            Err("outbox: malformed rule reference".into())
        }
    }

    /// Adds a candidate whose key is `key` and rule reference the
    /// span `rule` of outbox `buf`.
    fn push(&mut self, key: &[u8], pshard: u32, pidx: u32, buf: u32, rule: (u32, u32)) {
        let at = self.keys.len() as u32;
        self.keys.extend_from_slice(key);
        self.cands.push(Cand {
            hash: fx_hash_bytes(key),
            key: (at, key.len() as u32),
            pshard,
            pidx,
            buf,
            rule,
        });
    }

    /// Reads outbox `bytes` from producer shard `from`: a `u64` count, then
    /// per candidate the key delta-coded against the previous key, the
    /// parent's entry index, and the length-prefixed compact rule
    /// reference.
    fn parse(&mut self, bytes: Vec<u8>, from: u32) -> Result<(), String> {
        let buf = self.boxes.len() as u32;
        let count = bytes
            .get(..8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .ok_or("outbox: no count")?;
        let mut pos = 8usize;
        if count > bytes.len() as u64 {
            return Err("outbox: impossible count".into());
        }
        let (mut prev, mut key) = (Vec::new(), Vec::new());
        for _ in 0..count {
            decode_delta(&prev, &bytes, &mut pos, &mut key).ok_or("outbox: bad key delta")?;
            let pidx = read_varint(&bytes, &mut pos).ok_or("outbox: bad parent index")?;
            if pidx > u32::MAX as u64 {
                return Err("outbox: parent index out of range".into());
            }
            let rlen = read_varint(&bytes, &mut pos).ok_or("outbox: bad rule length")?;
            let rule_end = usize::try_from(rlen)
                .ok()
                .and_then(|l| pos.checked_add(l))
                .filter(|&e| e <= bytes.len())
                .ok_or("outbox: rule reference overruns")?;
            self.push(&key, from, pidx as u32, buf, (pos as u32, rlen as u32));
            pos = rule_end;
            std::mem::swap(&mut prev, &mut key);
        }
        if pos != bytes.len() {
            return Err("outbox: trailing bytes".into());
        }
        self.boxes.push(bytes);
        Ok(())
    }
}

/// One shard worker's state, kept in memory across rounds: the visited
/// keys (spillable, so the shard honors its slice of the run's memory
/// budget the way the serial explorer does) and where each round's
/// claims start. Parents and labels live only in the segments — the
/// worker never reads them back.
struct Shard {
    keys: SpillArena,
    /// `starts[r]`: the entry index of round `r`'s first claim; its
    /// length is the number of rounds the shard holds.
    starts: Vec<u32>,
    /// Accounted heap high-water mark.
    peak: u64,
    canon: Option<Canonicalizer>,
    /// Per owner shard, the keys this round's expansion routed there
    /// and the entry index of the first parent that sent each: a repeat
    /// from a later parent can never win the owner's claim, so it is
    /// not written. Cleared each round, kept for its allocations.
    sent: Vec<(StateArena, Vec<u32>)>,
}

impl Shard {
    /// Rebuilds the shard from its committed segments, in round order
    /// up to the first one absent or damaged.
    fn rebuild(cfg: &McConfig, w: &WorkerOpts) -> Result<Shard, String> {
        let spill = w.mem_budget.map(|b| {
            let slice = (b / w.of as u64).max(64 << 10);
            SpillConfig::new(
                w.dir.join(format!("spill-{}", w.shard)),
                slice.saturating_mul(4) / 5,
            )
        });
        let mut shard = Shard {
            keys: SpillArena::new(spill),
            starts: Vec::new(),
            peak: 0,
            canon: cfg.symmetry.then(|| Canonicalizer::new(cfg)),
            sent: (0..w.of).map(|_| (StateArena::new(), Vec::new())).collect(),
        };
        loop {
            let round = shard.starts.len() as u32;
            let Some(bytes) = read_checked(&seg_path(&w.dir, w.shard, round)) else {
                return Ok(shard);
            };
            let (_, entries) = decode_shard_section(&bytes, 0)
                .map_err(|e| format!("segment for round {round}: {e}"))?;
            shard.starts.push(shard.keys.len() as u32);
            for (i, e) in entries.iter().enumerate() {
                if e.level != round || !shard.intern(&e.key)? {
                    return Err(format!(
                        "segment for round {round}: entry {i} is not a claim"
                    ));
                }
                if i % 512 == 511 {
                    shard.account();
                }
            }
        }
    }

    /// Interns `key`; `true` when it is new to the shard.
    fn intern(&mut self, key: &[u8]) -> Result<bool, String> {
        match self.keys.intern(key) {
            Ok((_, fresh)) => Ok(fresh),
            Err(why) => Err(format!("intern arena: {why}")),
        }
    }

    /// Updates the high-water mark and spills cold keys past the slice.
    fn account(&mut self) {
        let sent: u64 = self
            .sent
            .iter()
            .map(|(keys, from)| keys.heap_bytes() + (from.capacity() * 4) as u64)
            .sum();
        let now = self.keys.heap_bytes() + sent;
        self.peak = self.peak.max(now);
        let _ = self.keys.maybe_spill(now);
    }

    /// Round 0's only candidate, the initial state's key, if this shard
    /// owns it. Its canonical key is tallied by the owner alone, so the
    /// run's symmetry tallies match the serial explorer's.
    fn initial(&mut self, spec: &ProtocolSpec, cfg: &McConfig, w: &WorkerOpts) -> Option<Vec<u8>> {
        let initial = GlobalState::initial(spec, cfg);
        let key = match self.canon.as_mut() {
            Some(c) => c.canonicalize(cfg, &initial).1,
            None => initial.encode(),
        };
        if shard_of(&key, w.of) == w.shard {
            return Some(key);
        }
        if let Some(c) = self.canon.as_mut() {
            c.take_tallies();
        }
        None
    }

    /// The round's claims, as candidate indices: every key the shard
    /// has not visited, once, under the least `(parent shard, parent
    /// index, label)` among its candidates, in key order — what a sort
    /// of all candidates by `(key, parent shard, parent index, label)`
    /// yields, without sorting the losers. Labels are rendered only to
    /// break a tie between candidates of one parent.
    fn claims(&mut self, spec: &ProtocolSpec, inbox: &Inbox) -> Result<Vec<usize>, String> {
        // Round-local dedupe: the new keys, and the best candidate of each.
        let mut fresh = StateArena::new();
        let mut best: Vec<usize> = Vec::new();
        let (mut a, mut b) = (String::new(), String::new());
        for (i, c) in inbox.cands.iter().enumerate() {
            let key = inbox.key(c);
            if self.keys.lookup_hashed(key, c.hash).is_some() {
                continue;
            }
            let (id, new) = fresh
                .intern_hashed(key, c.hash)
                .map_err(|why| format!("round table: {why}"))?;
            if new {
                best.push(i);
                continue;
            }
            let held = &inbox.cands[best[id as usize]];
            let better = match (c.pshard, c.pidx).cmp(&(held.pshard, held.pidx)) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => {
                    inbox.label(spec, c, &mut a)?;
                    inbox.label(spec, held, &mut b)?;
                    a < b
                }
            };
            if better {
                best[id as usize] = i;
            }
        }
        best.sort_unstable_by(|&x, &y| inbox.key(&inbox.cands[x]).cmp(inbox.key(&inbox.cands[y])));
        Ok(best)
    }

    /// Executes round `round` and writes its segment (unless already
    /// committed), outboxes and result record.
    fn run_round(
        &mut self,
        spec: &ProtocolSpec,
        cfg: &McConfig,
        w: &WorkerOpts,
        round: u32,
    ) -> Result<(), String> {
        let n = w.of;
        let held = self.starts.len() as u32;
        let initial = if round == 0 {
            self.initial(spec, cfg, w)
        } else {
            None
        };
        let mut written = 0u64;
        if held == round {
            // Candidates: the initial state in round 0; later rounds
            // read every producer's outbox for this shard.
            let mut inbox = Inbox::default();
            if let Some(key) = initial {
                inbox.push(&key, w.shard, 0, 0, (0, 0));
                inbox.boxes.push(Vec::new());
            }
            if round > 0 {
                for from in 0..n {
                    let path = out_path(&w.dir, round - 1, from, w.shard);
                    let bytes = read_box(&path)
                        .ok_or_else(|| format!("missing or corrupt outbox {}", path.display()))?;
                    inbox.parse(bytes, from)?;
                }
            }
            let claims = self.claims(spec, &inbox)?;
            self.starts.push(self.keys.len() as u32);
            let mut enc = ShardEncoder::new();
            // The winners share a few hundred rules: render each once.
            let mut rules = RuleTable::new();
            let mut labels: Vec<String> = Vec::new();
            for &i in &claims {
                let c = &inbox.cands[i];
                let key = inbox.key(c);
                match self.keys.intern_hashed(key, c.hash) {
                    Ok((_, true)) => {}
                    Ok((_, false)) => return Err("a claimed key was already visited".into()),
                    Err(why) => return Err(format!("intern arena: {why}")),
                }
                let rule = rules
                    .intern_ref(inbox.rule(c))
                    .map_err(|why| format!("round rule table: {why}"))?;
                if rule as usize == labels.len() {
                    let mut label = String::new();
                    inbox.label(spec, c, &mut label)?;
                    labels.push(label);
                }
                enc.push(key, c.pshard, c.pidx, &labels[rule as usize], round);
                written += 1;
                if written.is_multiple_of(512) {
                    self.account();
                }
            }
            self.account();
            let seg = seg_path(&w.dir, w.shard, round);
            write_checked(&seg, &enc.finish()).map_err(|e| format!("{}: {e}", seg.display()))?;
            if w.crash_round == Some(round) {
                // Crash injection: die exactly where a SIGKILL between
                // renames would — segment committed, outboxes and
                // result record absent.
                std::process::abort();
            }
        } else if held != round + 1 {
            // `held == round + 1`: a predecessor died after committing
            // this round's segment; its entries are the round's claims.
            return Err(format!(
                "shard holds {held} round(s); cannot run round {round}"
            ));
        }
        let frontier = self.starts[round as usize]..self.keys.len() as u32;
        let claimed = frontier.len() as u64;

        // Check, then expand. The frontier is iterated in id order — which
        // is sorted-key order — so the first finding in a shard is the
        // minimal-key finding, and the supervisor's cross-shard minimum is
        // independent of both the shard count and replay history.
        let mut finding: Option<Finding> = None;
        let mut gs = GlobalState::initial(spec, cfg);
        if let Some(swmr) = &cfg.swmr {
            for idx in frontier.clone() {
                let Some(key) = self.keys.get(idx) else {
                    return Err(format!("claimed state {idx} unreadable"));
                };
                if !GlobalState::decode_into(key, cfg, &mut gs) {
                    return Err(format!("claimed state {idx} failed to decode"));
                }
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

        // Each outbox opens with its candidate count, filled in last.
        let mut outboxes: Vec<Vec<u8>> = (0..n).map(|_| vec![0; 8]).collect();
        let mut out_counts = vec![0u64; n as usize];
        if finding.is_none() {
            let mut expand_scratch = Scratch::new(spec, cfg);
            let mut key_buf: Vec<u8> = Vec::with_capacity(128);
            let mut rule_buf: Vec<u8> = Vec::with_capacity(32);
            // Each outbox delta-codes a key against its previous one.
            let mut prev_keys: Vec<Vec<u8>> = (0..n).map(|_| Vec::new()).collect();
            for (keys, from) in &mut self.sent {
                keys.clear();
                from.clear();
            }
            let mut overflow = None;
            'frontier: for idx in frontier {
                let Some(key) = self.keys.get(idx) else {
                    return Err(format!("frontier state {idx} unreadable"));
                };
                if !GlobalState::decode_into(key, cfg, &mut gs) {
                    return Err(format!("frontier state {idx} failed to decode"));
                }
                let (canon, keys, sent) = (&mut self.canon, &mut self.keys, &mut self.sent);
                let outcome = expand(spec, cfg, &gs, &mut expand_scratch, |sstate, label| {
                    // Key-only canonicalization: no permuted state is ever
                    // materialized on the expansion path.
                    let key = interned_key(canon.as_mut(), sstate, &mut key_buf);
                    let hash = fx_hash_bytes(key);
                    let to = (hash % n as u64) as u32;
                    // A successor this shard owns and has already visited
                    // would lose its claim next round: drop it here.
                    if to == w.shard && keys.lookup_hashed(key, hash).is_some() {
                        return true;
                    }
                    let to = to as usize;
                    let (routed, first) = &mut sent[to];
                    match routed.intern_hashed(key, hash) {
                        Ok((_, true)) => first.push(idx),
                        // Only a sibling of the first sender may still
                        // win, on the label tie-break.
                        Ok((id, false)) if first[id as usize] < idx => return true,
                        Ok(_) => {}
                        Err(why) => {
                            overflow.get_or_insert(why);
                            return false;
                        }
                    }
                    let out = &mut outboxes[to];
                    encode_delta(&prev_keys[to], key, out);
                    prev_keys[to].clear();
                    prev_keys[to].extend_from_slice(key);
                    put_varint(out, idx as u64);
                    rule_buf.clear();
                    label.encode_into(&mut rule_buf);
                    put_varint(out, rule_buf.len() as u64);
                    out.extend_from_slice(&rule_buf);
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
                    ExpandOutcome::Done(_) => {}
                    // The callback stops only when a routing table
                    // cannot grow: the round fails, like any worker death.
                    ExpandOutcome::Stopped => {
                        let why = overflow.map_or("stopped".into(), |e| e.to_string());
                        return Err(format!("routing table: {why}"));
                    }
                }
            }
            self.account();
        }

        // Report: outboxes, then the result record — the commit marker;
        // everything before it is safely recomputable.
        let mut outbox_bytes = 0u64;
        if finding.is_none() {
            for (to, body) in outboxes.iter_mut().enumerate() {
                body[..8].copy_from_slice(&out_counts[to].to_le_bytes());
                outbox_bytes += body.len() as u64;
                let path = out_path(&w.dir, round, w.shard, to as u32);
                write_box(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let (sym_images, sym_keys) = self
            .canon
            .as_mut()
            .map_or((0, 0), Canonicalizer::take_tallies);
        let rec = ResRecord {
            claimed,
            written,
            peak: self.peak,
            spilled: self.keys.spill_stats().spilled_bytes,
            sym_images,
            sym_keys,
            outbox_bytes,
            finding,
        };
        let path = res_path(&w.dir, round, w.shard);
        write_checked(&path, &encode_res(&rec)).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Serves one shard for a whole run. Invoked by the hidden
/// `__shard-worker` CLI command: rebuilds the shard from its committed
/// segments, then runs each `round <r>` line read from stdin and
/// answers `done <r>` on stdout, until stdin closes. Errors go to a
/// nonzero exit, which the supervisor treats like any other death.
pub fn run_worker(spec: &ProtocolSpec, cfg: &McConfig, w: &WorkerOpts) -> Result<(), String> {
    if w.of == 0 || w.shard >= w.of {
        return Err(format!("shard {} out of range (of {})", w.shard, w.of));
    }
    cfg.validate_for_run()?;
    let mut shard = Shard::rebuild(cfg, w)?;
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("doorbell: {e}"))?;
        let round = line
            .strip_prefix("round ")
            .and_then(|r| r.parse::<u32>().ok())
            .ok_or_else(|| format!("bad doorbell `{line}`"))?;
        shard.run_round(spec, cfg, w, round)?;
        writeln!(out, "done {round}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("doorbell: {e}"))?;
    }
    Ok(())
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
        Some(bytes) if bytes.len() == 16 => {
            let stored_fp = u64::from_le_bytes([
                bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
            ]);
            let stored_n = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
            let format = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
            if format != SHARD_FORMAT {
                return Err(stale_format(&opts.dir, &format.to_string()));
            }
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
        // Format 1 wrote a 12-byte meta record without a version; its
        // outboxes carry label text, which this binary must not parse.
        Some(bytes) if bytes.len() == 12 => return Err(stale_format(&opts.dir, "1")),
        Some(_) => return Err(corrupt("shard directory meta record malformed")),
        // `read_checked` returns `None` for a missing file and for a
        // checksum-failing one alike; only the former may initialize.
        None if meta_path(&opts.dir).exists() => {
            return Err(corrupt("shard directory meta record unreadable"));
        }
        None => {
            let mut meta = Vec::with_capacity(16);
            meta.extend(fp.to_le_bytes());
            meta.extend(n.to_le_bytes());
            meta.extend(SHARD_FORMAT.to_le_bytes());
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
    // Dropped on every return path below: closes the doorbell pipes
    // and reaps the workers.
    let mut pool = Pool::new(opts);
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

        let results = match pool.run_round(round) {
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
            let sum = |f: fn(&ResRecord) -> u64| results.iter().map(f).sum::<u64>();
            vnet_obs::counter("explore.procshard.entries_written_total").add(sum(|r| r.written));
            vnet_obs::counter("explore.procshard.outbox_bytes_total").add(sum(|r| r.outbox_bytes));
            if cfg.symmetry {
                vnet_obs::counter("explore.symmetry_images_total").add(sum(|r| r.sym_images));
                vnet_obs::counter("explore.symmetry_keys_total").add(sum(|r| r.sym_keys));
            }
        }

        // Cross-shard finding resolution: the minimal state key wins.
        // Keys partition cleanly across shards, so the minimum is
        // unique and independent of the shard count.
        if results.iter().any(|r| r.finding.is_some()) {
            let sections = load_sections(&opts.dir, n, round)?;
            let mut chosen: Option<(u32, &Finding, &[u8])> = None;
            for (s, rec) in results.iter().enumerate() {
                let Some(f) = &rec.finding else { continue };
                let key = sections[s]
                    .1
                    .get(f.idx as usize)
                    .map(|e| e.key.as_slice())
                    .ok_or_else(|| corrupt(format!("shard {s} finding index out of range")))?;
                if chosen.is_none_or(|(_, _, k)| key < k) {
                    chosen = Some((s as u32, f, key));
                }
            }
            if let Some((s, f, _)) = chosen {
                let verdict = build_finding_verdict(
                    &sections,
                    spec,
                    cfg,
                    s,
                    f,
                    stats_of(claims, round, false, Provenance::Exact, peak, spilled),
                )?;
                let path = done_path(&opts.dir);
                write_checked(&path, &[f.kind]).map_err(|e| io_err(&path, e))?;
                if metrics {
                    vnet_obs::counter("explore.spill_bytes").add(spilled);
                }
                return Ok(finished(verdict));
            }
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

/// One live shard worker and the two ends of its doorbell pipe.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// The supervisor's shard workers: at most one live process per shard,
/// spawned when first rung and kept across rounds. Dropping the pool
/// closes every doorbell pipe and reaps every worker.
struct Pool<'a> {
    opts: &'a ProcOpts,
    workers: Vec<Option<Worker>>,
    /// Whether each shard has had a process yet (a later one is a
    /// restart).
    spawned: Vec<bool>,
    restarts: u32,
    /// The pending `--inject-shard-kill` target: spawns of its shard
    /// carry the crash flag until that shard is rung for its round.
    kill: Option<(u32, u32)>,
}

impl<'a> Pool<'a> {
    fn new(opts: &'a ProcOpts) -> Self {
        Pool {
            opts,
            workers: (0..opts.shards).map(|_| None).collect(),
            spawned: vec![false; opts.shards as usize],
            restarts: 0,
            kill: opts.inject_kill,
        }
    }

    /// Runs `round` on every shard without a result record for it,
    /// re-spawning casualties, and returns the records in shard order.
    fn run_round(&mut self, round: u32) -> Result<Vec<ResRecord>, RoundFailure> {
        let n = self.opts.shards;
        let dir = &self.opts.dir;
        let read_rec = |s: u32| read_checked(&res_path(dir, round, s)).and_then(|b| decode_res(&b));
        // A supervisor resume may find some shards' records already on
        // disk: those rounds are committed per-shard and are not re-run.
        let mut records: Vec<Option<ResRecord>> = (0..n).map(read_rec).collect();
        let mut attempts = vec![0u32; n as usize];
        loop {
            let pending: Vec<u32> = (0..n).filter(|&s| records[s as usize].is_none()).collect();
            if pending.is_empty() {
                return Ok(records.into_iter().flatten().collect());
            }
            for &s in &pending {
                if attempts[s as usize] > self.opts.max_restarts {
                    return Err(RoundFailure::WorkerLost {
                        restarts: self.restarts,
                    });
                }
                attempts[s as usize] += 1;
                self.ring(s, round)?;
            }
            // A worker that died, answered out of turn or left no
            // record stays pending and is re-spawned on the next sweep.
            for &s in &pending {
                if self.answered(s, round) {
                    records[s as usize] = read_rec(s);
                }
                if records[s as usize].is_none() {
                    self.bury(s);
                }
            }
        }
    }

    /// Rings shard `s` for `round`, spawning its process first if it
    /// has none. A worker that cannot take the doorbell is buried.
    fn ring(&mut self, s: u32, round: u32) -> Result<(), RoundFailure> {
        if self.workers[s as usize].is_none() {
            let crash = self.kill.filter(|&(_, ks)| ks == s).map(|(r, _)| r);
            let worker = spawn_worker(self.opts, s, crash)
                .map_err(|e| RoundFailure::Infra(io_err(&self.opts.dir, e)))?;
            self.workers[s as usize] = Some(worker);
            if vnet_obs::metrics_enabled() {
                vnet_obs::counter("explore.procshard.spawns_total").inc();
            }
            if std::mem::replace(&mut self.spawned[s as usize], true) {
                self.restarts += 1;
                if vnet_obs::metrics_enabled() {
                    vnet_obs::counter("explore.procshard.restarts_total").inc();
                }
            }
        }
        if self.kill == Some((round, s)) {
            self.kill = None;
        }
        let rung = self.workers[s as usize].as_mut().is_some_and(|w| {
            writeln!(w.stdin, "round {round}")
                .and_then(|()| w.stdin.flush())
                .is_ok()
        });
        if !rung {
            self.bury(s);
        }
        Ok(())
    }

    /// Waits for shard `s`'s answer; `true` on `done <round>`.
    fn answered(&mut self, s: u32, round: u32) -> bool {
        let Some(w) = self.workers[s as usize].as_mut() else {
            return false;
        };
        let mut line = String::new();
        w.stdout.read_line(&mut line).is_ok() && line == format!("done {round}\n")
    }

    /// Kills and reaps shard `s`'s process, if it has one.
    fn bury(&mut self, s: u32) {
        if let Some(mut w) = self.workers[s as usize].take() {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        // Moving each child out drops its doorbell pipes: every worker
        // sees EOF and winds down in parallel, then all are reaped.
        let children: Vec<Child> = self
            .workers
            .iter_mut()
            .filter_map(Option::take)
            .map(|w| w.child)
            .collect();
        for mut child in children {
            let _ = child.wait();
        }
    }
}

fn spawn_worker(opts: &ProcOpts, shard: u32, crash_round: Option<u32>) -> std::io::Result<Worker> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("__shard-worker")
        .arg("--dir")
        .arg(&opts.dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--of")
        .arg(opts.shards.to_string())
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
    if let Some(r) = crash_round {
        cmd.arg("--crash-round").arg(r.to_string());
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn()?;
    match (child.stdin.take(), child.stdout.take()) {
        (Some(stdin), Some(stdout)) => Ok(Worker {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other("worker spawned without pipes"))
        }
    }
}

/// Removes every artifact a previous *finished* run left behind so the
/// directory can host a fresh run. Only files this module writes are
/// touched.
fn reset_dir(dir: &Path, n: u32) {
    let _ = std::fs::remove_file(done_path(dir));
    let _ = std::fs::remove_file(round_path(dir));
    let _ = std::fs::remove_file(meta_path(dir));
    for s in 0..n {
        let _ = std::fs::remove_dir_all(dir.join(format!("spill-{s}")));
    }
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("seg-") && name.ends_with(".sec"))
                || (name.starts_with("out-") && name.ends_with(".box"))
                || (name.starts_with("res-") && name.ends_with(".res"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// One shard's decoded segments: its label strings and entries.
type Section = (Vec<String>, Vec<ShardEntry>);

/// Loads every shard's segments for rounds `0..=upto`, concatenated in
/// round order — the shard's entries at their global indices. Every
/// worker commits a segment each round, so a missing one is damage.
fn load_sections(dir: &Path, n: u32, upto: u32) -> Result<Vec<Section>, CheckpointError> {
    let mut out = Vec::with_capacity(n as usize);
    for s in 0..n {
        let (mut labels, mut entries) = (Vec::new(), Vec::new());
        for round in 0..=upto {
            let bytes = read_checked(&seg_path(dir, s, round)).ok_or_else(|| {
                corrupt(format!(
                    "shard {s} segment for round {round} missing or damaged"
                ))
            })?;
            let (seg_labels, seg_entries) = decode_shard_section(&bytes, 0)?;
            let base = labels.len() as u32;
            labels.extend(seg_labels);
            entries.extend(seg_entries.into_iter().map(|mut e| {
                e.label += base;
                e
            }));
        }
        out.push((labels, entries));
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
    sections: &[Section],
    spec: &ProtocolSpec,
    cfg: &McConfig,
    shard: u32,
    f: &Finding,
    stats: ExploreStats,
) -> Result<Verdict, CheckpointError> {
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
        let chain = walk_chain(sections, (shard, f.idx))?;
        match crate::trace::decanonicalize_chain(spec, cfg, &chain) {
            Ok(t) => (t.steps, t.last),
            Err(why) => {
                let t = crate::trace::decanonicalize_failed(&why, last);
                (t.steps, t.last)
            }
        }
    } else {
        (walk_trace(sections, (shard, f.idx))?, last)
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

/// Merges the shard segments into one checkpoint at the last
/// *committed* level: segments above it (a crashed worker's uncommitted
/// claims) are not read, and the frontier is every entry at the
/// committed level, so a plain serial `--resume` re-expands that level
/// and continues the search.
fn merge_checkpoint(
    dir: &Path,
    n: u32,
    fp: u64,
    level: u32,
    claims: u64,
    path: &Path,
) -> Result<(), CheckpointError> {
    let sections = load_sections(dir, n, level)?;
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(n as usize);
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    for (s, (labels, entries)) in sections.iter().enumerate() {
        let mut enc = ShardEncoder::new();
        for (i, e) in entries.iter().enumerate() {
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
