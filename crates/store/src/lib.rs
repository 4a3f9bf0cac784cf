//! # vnet-store — durable content-addressed result store
//!
//! Analysis in this workspace is deterministic: a (normalized protocol
//! spec, analysis config) pair fully determines the VN assignment, the
//! certifier verdict, and the model-checking summary. This crate
//! persists those results once and replays them forever, keyed by a
//! canonical hash of the producing inputs.
//!
//! ## On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! <dir>/MANIFEST        marker file, exactly "vnet-store v1\n"
//! <dir>/results.log     append-only record log
//! <dir>/quarantine/     corrupt stretches preserved on recovery
//! ```
//!
//! ## Record framing
//!
//! Every record is framed and individually checksummed, following the
//! checkpoint-v2 discipline from `crates/mc/src/checkpoint.rs`:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"VSR1"
//! 4       16    key    (content-address, see [`Key::derive`])
//! 20      1     kind   (1 = analyze, 2 = mc)
//! 21      4     schema version, u32 LE
//! 25      4     body length N, u32 LE
//! 29      N     body (UTF-8, producer-defined)
//! 29+N    8     checksum, u64 LE = fnv64 over bytes [0, 29+N)
//! 37+N    8     commit marker b"VNETCMT1"
//! ```
//!
//! ## Commit-marker write order
//!
//! Appends are two-phase: the frame (through its checksum) is written
//! and flushed to disk first, and only then is the 8-byte commit
//! marker written and flushed. A record without its trailing marker is
//! by definition uncommitted.
//!
//! ## Fail-closed recovery
//!
//! [`Store::open`] scans the log front to back:
//!
//! * A structurally incomplete tail (torn write — the process died
//!   between the two flush points) is **rolled back**: the file is
//!   truncated to the end of the last committed record, restoring a
//!   byte-identical readable prefix. Rolled-back bytes are counted in
//!   `store.rolled_back_bytes`.
//! * A committed record whose checksum no longer matches (bit rot) is
//!   **quarantined, never silently dropped**: its raw bytes are copied
//!   to `quarantine/q-<offset>-<len>.bin`, it is skipped from the
//!   index, and `store.quarantined_total` is bumped. The log is then
//!   compacted to the surviving records so a subsequent open is clean.
//! * A record with an unknown kind or a newer schema version is kept
//!   in the log but never served (`skipped_unreadable` in the
//!   [`OpenReport`]): a result whose schema cannot be re-verified is
//!   not a certificate.
//!
//! A SIGKILL at any byte offset during a flush therefore leaves a
//! store that reopens to exactly the records that had completed their
//! marker flush — nothing more, nothing less.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Current record schema version. Records with a newer version are
/// preserved in the log but never served.
pub const SCHEMA_VERSION: u32 = 1;

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_BODY: &str = "vnet-store v1\n";
const LOG_NAME: &str = "results.log";
const QUARANTINE_DIR: &str = "quarantine";

const FRAME_MAGIC: &[u8; 4] = b"VSR1";
const COMMIT_MARKER: &[u8; 8] = b"VNETCMT1";
const HEADER_LEN: usize = 4 + 16 + 1 + 4 + 4;
/// Sanity cap on a single body so a corrupt length field cannot make
/// the scanner treat the rest of the log as one giant torn record.
const MAX_BODY_LEN: usize = 1 << 26; // 64 MiB

/// `fnv64`, the workspace's dependency-free checksum hash (same
/// function as `crates/mc/src/checkpoint.rs`, which keeps its copy
/// `pub(crate)`): the FNV-1a loop (offset basis `0xcbf2_9ce4_8422_2325`,
/// xor each byte, then multiply) with the multiplier `0x1000_0000_01b3`,
/// which is not the FNV-1a 64-bit prime `0x100_0000_01b3`. Its values
/// are not FNV-1a's; every record checksum and key is written with this
/// constant, so changing it is a format change.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Keys and record kinds.
// ---------------------------------------------------------------------

/// What a record holds. The numeric codes are part of the on-disk
/// format and must never be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// VN assignment + certifier verdict for a protocol spec.
    Analyze,
    /// Model-checking summary for a (spec, config) pair.
    Mc,
}

impl RecordKind {
    fn code(self) -> u8 {
        match self {
            RecordKind::Analyze => 1,
            RecordKind::Mc => 2,
        }
    }

    fn from_code(code: u8) -> Option<RecordKind> {
        match code {
            1 => Some(RecordKind::Analyze),
            2 => Some(RecordKind::Mc),
            _ => None,
        }
    }

    /// Stable lowercase name, used in `vnet store verify` reports.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Analyze => "analyze",
            RecordKind::Mc => "mc",
        }
    }
}

/// A 128-bit content address: two independent `fnv64` streams over the
/// same length-prefixed parts. Collisions would need both 64-bit
/// hashes to collide simultaneously.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key(pub [u8; 16]);

/// Result-semantics fingerprint folded into every derived key as an
/// implicit part 0. Bump the trailing counter whenever a change can
/// alter the *content* of a stored result for unchanged inputs (new
/// analyzer heuristics, mc exploration-order fixes, body schema
/// edits): every previously derived key then stops matching, so a
/// rebuilt binary re-computes instead of serving stale results. The
/// orphaned records are kept-but-not-served — still in the log, never
/// indexed under any live key — and `gc` evicts them oldest-first
/// under a byte budget.
pub const RESULT_FINGERPRINT: &str =
    concat!("vnet-results/", env!("CARGO_PKG_VERSION"), "/r1");

impl Key {
    /// Derives a key from an ordered list of byte parts, prefixed by
    /// the crate-wide [`RESULT_FINGERPRINT`]. Each part is
    /// length-prefixed before hashing so `["ab","c"]` and `["a","bc"]`
    /// cannot collide by concatenation.
    pub fn derive(parts: &[&[u8]]) -> Key {
        Key::derive_with_fingerprint(RESULT_FINGERPRINT, parts)
    }

    /// [`Key::derive`] under an explicit fingerprint. Exposed so tests
    /// can prove that a fingerprint bump misses the old entries; real
    /// callers should use `derive`.
    pub fn derive_with_fingerprint(fingerprint: &str, parts: &[&[u8]]) -> Key {
        let mut buf = Vec::new();
        for part in std::iter::once(&fingerprint.as_bytes()).chain(parts) {
            buf.extend((part.len() as u64).to_le_bytes());
            buf.extend(*part);
        }
        let h1 = fnv1a(&buf);
        // Second stream: perturb with a domain tag so the halves are
        // independent functions of the same input.
        buf.extend(b"vnet-store/k2");
        let h2 = fnv1a(&buf);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&h1.to_le_bytes());
        out[8..].copy_from_slice(&h2.to_le_bytes());
        Key(out)
    }

    /// Lowercase hex rendering (32 chars), used in logs and responses.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

/// A decoded, committed, checksum-verified record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    pub kind: RecordKind,
    pub schema: u32,
    pub body: String,
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why a store could not be opened or written. All paths fail closed:
/// no variant ever results in silently discarded committed data.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed; `context` names the operation.
    Io { context: &'static str, source: io::Error },
    /// The directory exists and is non-empty but carries no (or a
    /// foreign) `MANIFEST` marker — refusing to touch it.
    NotAStore { dir: PathBuf, detail: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::NotAStore { dir, detail } => {
                write!(f, "{} is not a vnet-store directory: {detail}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> StoreError {
    move |source| StoreError::Io { context, source }
}

// ---------------------------------------------------------------------
// Open-time recovery report.
// ---------------------------------------------------------------------

/// What [`Store::open`] found and did. `vnet store verify` renders
/// this and derives its exit code from it: quarantined records mean
/// committed data was damaged (exit 7); a rolled-back torn tail is
/// normal crash recovery (exit 0).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Committed, verified records retained in the log (including
    /// superseded duplicates of the same key).
    pub records: usize,
    /// Distinct keys served from the index.
    pub keys: usize,
    /// Log size after recovery, in bytes.
    pub log_bytes: u64,
    /// Bytes of uncommitted tail rolled back (torn write).
    pub rolled_back_bytes: u64,
    /// Committed-but-corrupt stretches moved to `quarantine/`.
    pub quarantined: usize,
    /// Committed records kept in the log but not served because their
    /// kind or schema version is unknown to this binary.
    pub skipped_unreadable: usize,
}

/// What [`Store::gc`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    pub kept: usize,
    pub evicted: usize,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

/// Classification of a directory for fail-closed CLI checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// Does not exist yet — safe to initialize.
    Missing,
    /// Exists and is empty — safe to initialize.
    Empty,
    /// Carries a valid `MANIFEST` marker.
    Store,
    /// Non-empty without a valid marker — refuse to touch.
    Foreign,
}

/// Classifies `dir` without opening the store.
pub fn dir_state(dir: &Path) -> Result<DirState, StoreError> {
    if !dir.exists() {
        return Ok(DirState::Missing);
    }
    let manifest = dir.join(MANIFEST_NAME);
    if manifest.is_file() {
        let body = fs::read_to_string(&manifest).map_err(io_err("read MANIFEST"))?;
        if body == MANIFEST_BODY {
            return Ok(DirState::Store);
        }
        return Ok(DirState::Foreign);
    }
    let mut entries = fs::read_dir(dir).map_err(io_err("read store dir"))?;
    if entries.next().is_none() {
        Ok(DirState::Empty)
    } else {
        Ok(DirState::Foreign)
    }
}

// ---------------------------------------------------------------------
// Scan machinery.
// ---------------------------------------------------------------------

struct ScannedRecord {
    key: Key,
    kind_code: u8,
    schema: u32,
    body: Vec<u8>,
    /// Byte offset of the frame within the scanned log.
    offset: u64,
}

enum FrameAt {
    /// Structurally complete and committed; checksum result included.
    Committed { rec: ScannedRecord, checksum_ok: bool, end: usize },
    /// Not a structurally complete committed frame at this offset.
    Invalid,
}

/// Attempts to parse one committed frame at `pos`. "Structurally
/// complete" requires the magic, an in-range body length, the full
/// frame, and the trailing commit marker — checksum validity is
/// reported separately so bit rot can be quarantined rather than
/// treated as a torn tail.
fn frame_at(buf: &[u8], pos: usize) -> FrameAt {
    let rest = &buf[pos..];
    if rest.len() < HEADER_LEN + 8 + 8 || &rest[..4] != FRAME_MAGIC {
        return FrameAt::Invalid;
    }
    let mut key = [0u8; 16];
    key.copy_from_slice(&rest[4..20]);
    let kind_code = rest[20];
    let schema = u32::from_le_bytes(rest[21..25].try_into().unwrap());
    let body_len = u32::from_le_bytes(rest[25..29].try_into().unwrap()) as usize;
    if body_len > MAX_BODY_LEN {
        return FrameAt::Invalid;
    }
    let total = HEADER_LEN + body_len + 8 + 8;
    if rest.len() < total {
        return FrameAt::Invalid;
    }
    let body_end = HEADER_LEN + body_len;
    if &rest[body_end + 8..total] != COMMIT_MARKER {
        return FrameAt::Invalid;
    }
    let stored = u64::from_le_bytes(rest[body_end..body_end + 8].try_into().unwrap());
    let checksum_ok = fnv1a(&rest[..body_end]) == stored;
    FrameAt::Committed {
        rec: ScannedRecord {
            key: Key(key),
            kind_code,
            schema,
            body: rest[HEADER_LEN..body_end].to_vec(),
            offset: pos as u64,
        },
        checksum_ok,
        end: pos + total,
    }
}

/// Finds the next offset `> pos` where a structurally complete
/// committed frame starts, or `None`.
fn next_frame_start(buf: &[u8], pos: usize) -> Option<usize> {
    let mut q = pos + 1;
    while q + HEADER_LEN + 16 <= buf.len() {
        if buf[q..q + 4] == *FRAME_MAGIC {
            if let FrameAt::Committed { .. } = frame_at(buf, q) {
                return Some(q);
            }
        }
        q += 1;
    }
    None
}

fn encode_frame(key: &Key, kind_code: u8, schema: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 16);
    out.extend(FRAME_MAGIC);
    out.extend(key.0);
    out.push(kind_code);
    out.extend(schema.to_le_bytes());
    out.extend((body.len() as u32).to_le_bytes());
    out.extend(body);
    let checksum = fnv1a(&out);
    out.extend(checksum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

struct IndexEntry {
    record: Record,
    /// Monotonic write sequence; gc evicts lowest-seq entries first.
    seq: u64,
    /// On-disk footprint of this entry's frame (including marker).
    frame_bytes: u64,
}

/// An open result store. Single-writer: callers that share a store
/// across threads wrap it in a `Mutex`.
pub struct Store {
    dir: PathBuf,
    log: File,
    index: HashMap<Key, IndexEntry>,
    log_bytes: u64,
    next_seq: u64,
    report: OpenReport,
    slow_append_us: Option<u64>,
}

impl Store {
    /// Opens `dir` as a store, creating it (and its `MANIFEST`) if the
    /// directory is missing or empty. A non-empty directory without a
    /// valid marker is refused fail-closed.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        match dir_state(dir)? {
            DirState::Store => {}
            DirState::Missing | DirState::Empty => {
                fs::create_dir_all(dir).map_err(io_err("create store dir"))?;
                let tmp = dir.join("MANIFEST.tmp");
                fs::write(&tmp, MANIFEST_BODY).map_err(io_err("write MANIFEST"))?;
                fs::rename(&tmp, dir.join(MANIFEST_NAME)).map_err(io_err("commit MANIFEST"))?;
                sync_dir(dir)?;
            }
            DirState::Foreign => {
                return Err(StoreError::NotAStore {
                    dir: dir.to_path_buf(),
                    detail: "non-empty directory without a vnet-store MANIFEST".to_string(),
                });
            }
        }
        Self::open_marked(dir)
    }

    /// Opens an existing store; never initializes. Used by
    /// `vnet store verify`/`gc`, which must not conjure an empty store
    /// out of a typo'd path.
    pub fn open_existing(dir: &Path) -> Result<Store, StoreError> {
        match dir_state(dir)? {
            DirState::Store => Self::open_marked(dir),
            DirState::Missing | DirState::Empty => Err(StoreError::NotAStore {
                dir: dir.to_path_buf(),
                detail: "no store initialized here".to_string(),
            }),
            DirState::Foreign => Err(StoreError::NotAStore {
                dir: dir.to_path_buf(),
                detail: "non-empty directory without a vnet-store MANIFEST".to_string(),
            }),
        }
    }

    fn open_marked(dir: &Path) -> Result<Store, StoreError> {
        let log_path = dir.join(LOG_NAME);
        let buf = match fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io { context: "read results.log", source: e }),
        };

        // Front-to-back scan: collect good records, quarantine
        // committed-but-corrupt stretches, roll back a torn tail.
        let mut good: Vec<ScannedRecord> = Vec::new();
        let mut quarantine: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut report = OpenReport::default();
        let mut pos = 0usize;
        while pos < buf.len() {
            match frame_at(&buf, pos) {
                FrameAt::Committed { rec, checksum_ok: true, end } => {
                    good.push(rec);
                    report.records += 1;
                    pos = end;
                }
                FrameAt::Committed { rec, checksum_ok: false, end } => {
                    quarantine.push((rec.offset, buf[pos..end].to_vec()));
                    pos = end;
                }
                FrameAt::Invalid => match next_frame_start(&buf, pos) {
                    Some(q) => {
                        // Mid-log damage with committed records after
                        // it: preserve the stretch, keep scanning.
                        quarantine.push((pos as u64, buf[pos..q].to_vec()));
                        pos = q;
                    }
                    None => {
                        // No committed frame ahead. If the tail still
                        // contains a commit marker it once held
                        // committed data — quarantine it; otherwise it
                        // is an uncommitted torn write — roll it back.
                        let tail = &buf[pos..];
                        if tail.windows(8).any(|w| w == COMMIT_MARKER) {
                            quarantine.push((pos as u64, tail.to_vec()));
                        } else {
                            report.rolled_back_bytes = tail.len() as u64;
                        }
                        pos = buf.len();
                    }
                },
            }
        }
        report.quarantined = quarantine.len();

        // Persist quarantined stretches before rewriting anything.
        if !quarantine.is_empty() {
            let qdir = dir.join(QUARANTINE_DIR);
            fs::create_dir_all(&qdir).map_err(io_err("create quarantine dir"))?;
            for (offset, bytes) in &quarantine {
                let name = format!("q-{offset:012}-{}.bin", bytes.len());
                let tmp = qdir.join(format!("{name}.tmp"));
                fs::write(&tmp, bytes).map_err(io_err("write quarantine file"))?;
                fs::rename(&tmp, qdir.join(&name)).map_err(io_err("commit quarantine file"))?;
            }
            sync_dir(&qdir)?;
        }

        // Rewrite the log iff recovery changed its readable content:
        // truncation suffices for a torn tail, compaction for
        // quarantined mid-log stretches.
        let retained: u64 = good
            .iter()
            .map(|r| (HEADER_LEN + r.body.len() + 16) as u64)
            .sum();
        if !quarantine.is_empty() {
            let tmp = dir.join("results.log.tmp");
            {
                let mut f = File::create(&tmp).map_err(io_err("create compacted log"))?;
                for rec in &good {
                    f.write_all(&encode_frame(&rec.key, rec.kind_code, rec.schema, &rec.body))
                        .map_err(io_err("write compacted log"))?;
                    f.write_all(COMMIT_MARKER).map_err(io_err("write compacted log"))?;
                }
                f.sync_data().map_err(io_err("sync compacted log"))?;
            }
            fs::rename(&tmp, &log_path).map_err(io_err("commit compacted log"))?;
            sync_dir(dir)?;
        } else if report.rolled_back_bytes > 0 {
            let f = OpenOptions::new()
                .write(true)
                .open(&log_path)
                .map_err(io_err("open results.log for rollback"))?;
            f.set_len(retained).map_err(io_err("roll back torn tail"))?;
            f.sync_data().map_err(io_err("sync rolled-back log"))?;
        }

        // Build the index; later writes of the same key win.
        let mut index: HashMap<Key, IndexEntry> = HashMap::new();
        let mut next_seq = 0u64;
        for rec in good {
            let frame_bytes = (HEADER_LEN + rec.body.len() + 16) as u64;
            let readable = RecordKind::from_code(rec.kind_code)
                .filter(|_| rec.schema <= SCHEMA_VERSION)
                .and_then(|kind| {
                    String::from_utf8(rec.body.clone())
                        .ok()
                        .map(|body| Record { kind, schema: rec.schema, body })
                });
            match readable {
                Some(record) => {
                    index.insert(rec.key, IndexEntry { record, seq: next_seq, frame_bytes });
                    next_seq += 1;
                }
                None => report.skipped_unreadable += 1,
            }
        }
        report.keys = index.len();
        report.log_bytes = retained;

        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(io_err("open results.log for append"))?;

        let slow_append_us = std::env::var("VNET_STORE_SLOW_APPEND_US")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&us| us > 0);

        vnet_obs::gauge("store.records").set(index.len() as i64);
        vnet_obs::gauge("store.bytes").set(retained as i64);
        vnet_obs::counter("store.quarantined_total").add(report.quarantined as u64);
        vnet_obs::counter("store.rolled_back_bytes").add(report.rolled_back_bytes);

        Ok(Store {
            dir: dir.to_path_buf(),
            log,
            index,
            log_bytes: retained,
            next_seq,
            report,
            slow_append_us,
        })
    }

    /// What recovery found and did when this handle was opened.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Distinct keys currently served.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Log size in bytes (committed frames only).
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Looks up a record. Only returns entries whose checksum, kind,
    /// and schema version verified at open time.
    pub fn get(&self, key: &Key) -> Option<&Record> {
        match self.index.get(key) {
            Some(entry) => {
                vnet_obs::counter("store.hits_total").inc();
                Some(&entry.record)
            }
            None => {
                vnet_obs::counter("store.misses_total").inc();
                None
            }
        }
    }

    /// Appends a record under `key`, superseding any previous record
    /// with the same key. Returns `Ok(false)` without touching disk if
    /// an identical record is already stored. Commit order: frame
    /// bytes → flush → marker → flush; a crash between the flushes
    /// leaves an uncommitted tail that the next open rolls back.
    pub fn put(&mut self, key: Key, kind: RecordKind, body: &str) -> Result<bool, StoreError> {
        if let Some(entry) = self.index.get(&key) {
            if entry.record.kind == kind
                && entry.record.schema == SCHEMA_VERSION
                && entry.record.body == body
            {
                vnet_obs::counter("store.dedup_total").inc();
                return Ok(false);
            }
        }
        let frame = encode_frame(&key, kind.code(), SCHEMA_VERSION, body.as_bytes());
        self.append(&frame).map_err(io_err("append record frame"))?;
        self.log.sync_data().map_err(io_err("sync record frame"))?;
        self.append(COMMIT_MARKER).map_err(io_err("append commit marker"))?;
        self.log.sync_data().map_err(io_err("sync commit marker"))?;

        let frame_bytes = (frame.len() + 8) as u64;
        self.log_bytes += frame_bytes;
        self.index.insert(
            key,
            IndexEntry {
                record: Record { kind, schema: SCHEMA_VERSION, body: body.to_string() },
                seq: self.next_seq,
                frame_bytes,
            },
        );
        self.next_seq += 1;
        vnet_obs::counter("store.writes_total").inc();
        vnet_obs::gauge("store.records").set(self.index.len() as i64);
        vnet_obs::gauge("store.bytes").set(self.log_bytes as i64);
        Ok(true)
    }

    /// Writes `bytes` to the log. With `VNET_STORE_SLOW_APPEND_US`
    /// set, writes one byte at a time with a flush and a sleep between
    /// bytes — a crash-injection hook that lets tests SIGKILL the
    /// writer at an arbitrary byte offset mid-flush.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.slow_append_us {
            None => self.log.write_all(bytes),
            Some(us) => {
                for b in bytes {
                    self.log.write_all(std::slice::from_ref(b))?;
                    self.log.flush()?;
                    std::thread::sleep(std::time::Duration::from_micros(us));
                }
                Ok(())
            }
        }
    }

    /// Compacts the log to the newest record per key and, if
    /// `max_bytes` is given, evicts oldest-written entries until the
    /// log fits. Quarantined files are never touched.
    pub fn gc(&mut self, max_bytes: Option<u64>) -> Result<GcReport, StoreError> {
        let bytes_before = self.log_bytes;
        let mut order: Vec<(&Key, &IndexEntry)> = self.index.iter().collect();
        order.sort_by_key(|(_, e)| e.seq);

        let mut evict = 0usize;
        if let Some(cap) = max_bytes {
            let mut total: u64 = order.iter().map(|(_, e)| e.frame_bytes).sum();
            while total > cap && evict < order.len() {
                total -= order[evict].1.frame_bytes;
                evict += 1;
            }
        }
        let keep: Vec<Key> = order[evict..].iter().map(|(k, _)| **k).collect();
        let evicted_keys: Vec<Key> = order[..evict].iter().map(|(k, _)| **k).collect();

        let log_path = self.dir.join(LOG_NAME);
        let tmp = self.dir.join("results.log.tmp");
        let mut new_bytes = 0u64;
        {
            let mut f = File::create(&tmp).map_err(io_err("create gc log"))?;
            for key in &keep {
                let entry = &self.index[key];
                let frame = encode_frame(
                    key,
                    entry.record.kind.code(),
                    entry.record.schema,
                    entry.record.body.as_bytes(),
                );
                f.write_all(&frame).map_err(io_err("write gc log"))?;
                f.write_all(COMMIT_MARKER).map_err(io_err("write gc log"))?;
                new_bytes += (frame.len() + 8) as u64;
            }
            f.sync_data().map_err(io_err("sync gc log"))?;
        }
        fs::rename(&tmp, &log_path).map_err(io_err("commit gc log"))?;
        sync_dir(&self.dir)?;

        for key in &evicted_keys {
            self.index.remove(key);
        }
        self.log = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .map_err(io_err("reopen results.log after gc"))?;
        self.log_bytes = new_bytes;

        vnet_obs::counter("store.gc_runs_total").inc();
        vnet_obs::counter("store.evicted_total").add(evicted_keys.len() as u64);
        vnet_obs::gauge("store.records").set(self.index.len() as i64);
        vnet_obs::gauge("store.bytes").set(new_bytes as i64);

        Ok(GcReport {
            kept: keep.len(),
            evicted: evicted_keys.len(),
            bytes_before,
            bytes_after: new_bytes,
        })
    }
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    // Directory fsync so renames are durable; best-effort on platforms
    // where directories cannot be opened.
    if let Ok(f) = File::open(dir) {
        f.sync_all().map_err(io_err("sync store dir"))?;
    }
    Ok(())
}

/// Reads the raw log bytes (test/verify helper; `None` if absent).
pub fn read_log_bytes(dir: &Path) -> Option<Vec<u8>> {
    let mut f = File::open(dir.join(LOG_NAME)).ok()?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf).ok()?;
    Some(buf)
}

/// Lists quarantine file names (sorted), empty if none exist.
pub fn quarantine_files(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir.join(QUARANTINE_DIR)) {
        for e in entries.flatten() {
            if let Some(name) = e.file_name().to_str() {
                if name.starts_with("q-") && name.ends_with(".bin") {
                    out.push(name.to_string());
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vnet-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Known answers pin the checksum's multiplier, `0x1000_0000_01b3`:
    /// changing it would change every record checksum and key. The
    /// standard FNV-1a 64-bit value of "a" is `0xaf63_dc4c_8601_ec8c`.
    #[test]
    fn checksum_multiplier_is_pinned_by_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_ne!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c, "not stock FNV-1a");
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let k1 = Key::derive(&[b"analyze/1", b"spec-a"]);
        let k2 = Key::derive(&[b"mc/1", b"spec-a", b"cfg"]);
        {
            let mut s = Store::open(&dir).unwrap();
            assert!(s.put(k1, RecordKind::Analyze, "{\"vns\":3}").unwrap());
            assert!(s.put(k2, RecordKind::Mc, "{\"verdict\":\"pass\"}").unwrap());
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&k1).unwrap().body, "{\"vns\":3}");
        assert_eq!(s.get(&k1).unwrap().kind, RecordKind::Analyze);
        assert_eq!(s.get(&k2).unwrap().body, "{\"verdict\":\"pass\"}");
        assert_eq!(s.open_report().records, 2);
        assert_eq!(s.open_report().quarantined, 0);
        assert_eq!(s.open_report().rolled_back_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_put_dedupes_and_same_key_overrides() {
        let dir = tmp_dir("dedup");
        let k = Key::derive(&[b"analyze/1", b"spec"]);
        let mut s = Store::open(&dir).unwrap();
        assert!(s.put(k, RecordKind::Analyze, "v1").unwrap());
        let bytes = s.log_bytes();
        assert!(!s.put(k, RecordKind::Analyze, "v1").unwrap());
        assert_eq!(s.log_bytes(), bytes, "identical put must not grow the log");
        assert!(s.put(k, RecordKind::Analyze, "v2").unwrap());
        assert_eq!(s.get(&k).unwrap().body, "v2");
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(&k).unwrap().body, "v2", "latest write wins across reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_rolls_back_at_every_truncation_point() {
        let dir = tmp_dir("torn");
        let k1 = Key::derive(&[b"a"]);
        let k2 = Key::derive(&[b"b"]);
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(k1, RecordKind::Analyze, "committed-one").unwrap();
        }
        let committed = read_log_bytes(&dir).unwrap();
        // Append a second record, then truncate at every possible
        // prefix of its bytes: reopen must always recover exactly the
        // first record and restore the byte-identical prefix.
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(k2, RecordKind::Mc, "committed-two").unwrap();
        }
        let full = read_log_bytes(&dir).unwrap();
        for cut in committed.len()..full.len() {
            fs::write(dir.join(LOG_NAME), &full[..cut]).unwrap();
            let s = Store::open(&dir).unwrap();
            assert_eq!(s.len(), 1, "cut at {cut}");
            assert!(s.get(&k1).is_some(), "cut at {cut}");
            assert_eq!(
                read_log_bytes(&dir).unwrap(),
                committed,
                "cut at {cut}: prefix must be byte-identical"
            );
            assert_eq!(s.open_report().rolled_back_bytes, (cut - committed.len()) as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_quarantined_not_dropped() {
        let dir = tmp_dir("rot");
        let k1 = Key::derive(&[b"a"]);
        let k2 = Key::derive(&[b"b"]);
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(k1, RecordKind::Analyze, "first-record-body").unwrap();
            s.put(k2, RecordKind::Mc, "second-record-body").unwrap();
        }
        let mut bytes = read_log_bytes(&dir).unwrap();
        // Flip a byte inside the first record's body.
        bytes[HEADER_LEN + 3] ^= 0xff;
        fs::write(dir.join(LOG_NAME), &bytes).unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 1, "corrupt record must not be served");
        assert!(s.get(&k2).is_some(), "later good record must survive");
        assert_eq!(s.open_report().quarantined, 1);
        let q = quarantine_files(&dir);
        assert_eq!(q.len(), 1, "corrupt bytes must be preserved: {q:?}");
        drop(s);
        // The compacted log reopens clean.
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.open_report().quarantined, 0);
        assert_eq!(s.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_directory_is_refused() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("precious.txt"), "user data").unwrap();
        match Store::open(&dir) {
            Err(StoreError::NotAStore { .. }) => {}
            Err(other) => panic!("expected NotAStore, got {other:?}"),
            Ok(_) => panic!("expected NotAStore, got a store"),
        }
        assert_eq!(
            fs::read_to_string(dir.join("precious.txt")).unwrap(),
            "user data",
            "refused open must not touch the directory"
        );
        assert!(matches!(dir_state(&dir).unwrap(), DirState::Foreign));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_existing_refuses_missing_dir() {
        let dir = tmp_dir("missing");
        assert!(matches!(
            Store::open_existing(&dir),
            Err(StoreError::NotAStore { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_compacts_and_evicts_oldest() {
        let dir = tmp_dir("gc");
        let mut s = Store::open(&dir).unwrap();
        let keys: Vec<Key> = (0..4u8)
            .map(|i| Key::derive(&[b"k", &[i]]))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            s.put(*k, RecordKind::Analyze, &format!("body-{i}-padpadpad")).unwrap();
        }
        // Rewrite key 0 so it becomes the newest entry.
        s.put(keys[0], RecordKind::Analyze, "body-0-rewritten").unwrap();
        let per_frame = (HEADER_LEN + "body-0-rewritten".len() + 16) as u64;
        let report = s.gc(Some(per_frame * 2 + 8)).unwrap();
        assert_eq!(report.kept + report.evicted, 4);
        assert!(report.evicted >= 1);
        assert!(
            s.get(&keys[0]).is_some(),
            "most recently written key must survive eviction"
        );
        assert!(report.bytes_after <= report.bytes_before);
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), report.kept);
        assert_eq!(s.open_report().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_derivation_is_stable_and_prefix_safe() {
        let a = Key::derive(&[b"ab", b"c"]);
        let b = Key::derive(&[b"a", b"bc"]);
        assert_ne!(a, b, "length prefixing must prevent concatenation collisions");
        assert_eq!(a, Key::derive(&[b"ab", b"c"]));
        assert_eq!(a.to_hex().len(), 32);
        assert_ne!(a.0[..8], a.0[8..], "halves must be independent streams");
        assert_eq!(
            a,
            Key::derive_with_fingerprint(RESULT_FINGERPRINT, &[b"ab", b"c"]),
            "derive must be the fingerprinted derivation under the live fingerprint"
        );
    }

    #[test]
    fn fingerprint_bump_misses_old_entries_but_keeps_them() {
        let dir = tmp_dir("fingerprint-bump");
        // A record written by "yesterday's build" under its fingerprint.
        let old = Key::derive_with_fingerprint("vnet-results/0.1.0/r0", &[b"analyze/1", b"spec"]);
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(old, RecordKind::Analyze, "stale-result").unwrap();
        }
        // Today's build derives a different key for the same inputs, so
        // the lookup misses and the result is recomputed...
        let new = Key::derive(&[b"analyze/1", b"spec"]);
        assert_ne!(old, new, "a fingerprint bump must change every derived key");
        let s = Store::open(&dir).unwrap();
        assert!(s.get(&new).is_none(), "stale entry must not be served");
        // ...while the stale record itself is kept, not destroyed: it
        // still opens, checksums, and answers under its original key.
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&old).unwrap().body, "stale-result");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_kind_is_kept_but_not_served() {
        let dir = tmp_dir("unknown-kind");
        let k = Key::derive(&[b"future"]);
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(k, RecordKind::Analyze, "body").unwrap();
        }
        let mut bytes = read_log_bytes(&dir).unwrap();
        // Rewrite the kind byte to an unknown code and re-seal the
        // checksum so the frame stays committed and valid.
        bytes[20] = 99;
        let body_end = HEADER_LEN + "body".len();
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..body_end + 8].copy_from_slice(&sum.to_le_bytes());
        fs::write(dir.join(LOG_NAME), &bytes).unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 0, "unknown kind must not be served");
        assert_eq!(s.open_report().skipped_unreadable, 1);
        assert_eq!(s.open_report().quarantined, 0, "valid frame is not corruption");
        assert_eq!(
            read_log_bytes(&dir).unwrap(),
            bytes,
            "unknown-kind record must be preserved in the log"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
