//! Crash-tolerant checkpoints for the explorers.
//!
//! The paper's Murphi sweeps ran for up to 72 hours; a panic, OOM-kill,
//! or Ctrl-C anywhere in such a run used to lose every explored state.
//! This module serializes explorer progress — the visited/parent map,
//! the BFS frontier, the completed level, and the budget spent — to a
//! checksummed on-disk format that a later process can
//! [`Checkpoint::load`] and continue from. All three explorers write
//! and read the same format, so a snapshot taken by one resumes under
//! any other.
//!
//! ## Format (version 2)
//!
//! ```text
//! magic        8 bytes  b"VNETCKPT"
//! version      u32 LE   (2)
//! fingerprint  u64 LE   fnv64 over the spec's canonical DSL text and
//!                       the McConfig fields that shape the state space
//! payload_len  u64 LE
//! payload      payload_len bytes (see below)
//! checksum     u64 LE   fnv64 over everything above (magic..payload)
//! ```
//!
//! `fnv64` is the FNV-1a loop (offset basis `0xcbf2_9ce4_8422_2325`,
//! xor each byte, then multiply) with the multiplier
//! `0x1000_0000_01b3`, not the FNV-1a 64-bit prime `0x100_0000_01b3`:
//! its values are not FNV-1a's, and a stock FNV-1a does not verify
//! these files.
//!
//! The payload:
//!
//! ```text
//! level        u64 LE
//! nodes_spent  u64 LE
//! n_shards     u32 LE
//! manifest     n_shards × (section_len u64 LE, section fnv64 u64 LE)
//! sections     the shard sections, concatenated
//! frontier     u64 LE count, then count × (shard u32 LE, index u32 LE)
//! ```
//!
//! Each shard section is self-contained: a label table, then its
//! entries in the order the writer claimed them, each key
//! delta-compressed against its predecessor ([`crate::codec`]) with a
//! full restart every 16 entries, and each parent named by
//! `(shard, index)` instead of a second key copy. The serial explorer
//! writes one section in claim (id) order, so its parents and frontier
//! are plain ids; the thread-parallel explorer writes one section per
//! visited shard; the process-sharded explorer writes one per worker.
//! `write` is the only code that lays out a checkpoint file.
//!
//! Version 1 (a flat, uncompressed layout written by earlier builds) is
//! refused with [`CheckpointError::UnsupportedVersion`]; such a run has
//! to be started again.
//!
//! ## Fail-closed loading
//!
//! [`Checkpoint::load`] never panics and never returns a best-effort
//! partial read: truncation, a flipped bit, an unknown version, a
//! fingerprint that does not match the (spec, config) pair being
//! resumed, a duplicate key, or a parent or frontier reference outside
//! the visited set all yield a positioned [`CheckpointError`]. A
//! resumed run is only ever continued from a checkpoint that
//! round-trips exactly.
//!
//! Writes go through a temp file + atomic rename, so a crash *during*
//! checkpointing leaves the previous checkpoint intact rather than a
//! half-written file.

use crate::config::McConfig;
use crate::state::GlobalState;
use std::io::Write;
use std::path::{Path, PathBuf};
use vnet_protocol::ProtocolSpec;

/// The on-disk magic that starts every checkpoint file.
pub const MAGIC: &[u8; 8] = b"VNETCKPT";

/// The one format version this build reads and writes.
pub const VERSION: u32 = 2;

/// Why a checkpoint could not be written or loaded. Every variant that
/// stems from file *content* carries the byte offset at which the
/// problem was detected, mirroring the positioned errors of the DSL
/// parser's bad-spec corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written at all.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error text.
        detail: String,
    },
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic {
        /// What the first bytes actually were (possibly fewer than 8).
        found: Vec<u8>,
    },
    /// The version field names a format this build does not speak.
    UnsupportedVersion {
        /// The version in the file.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The file ends before a field it promised.
    Truncated {
        /// Byte offset at which more data was needed.
        offset: usize,
        /// What was being read.
        detail: String,
    },
    /// The bytes are structurally invalid (bad checksum, impossible
    /// count, out-of-range index, …).
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
        /// What is wrong.
        detail: String,
    },
    /// The checkpoint was taken under a different (spec, config) pair
    /// than the one being resumed.
    SpecMismatch {
        /// Fingerprint of the (spec, config) pair being resumed.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The run's configuration is unusable (e.g. symmetry with an
    /// explicit injection script, or sizes beyond the state codec's
    /// limits). Raised before any state is explored — fail closed, not
    /// a panic.
    Config {
        /// What is wrong with the configuration.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint io error at {}: {detail}", path.display())
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:02x?}, want {MAGIC:02x?})")
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(f, "checkpoint version {found} unsupported (this build reads {supported})")
            }
            CheckpointError::Truncated { offset, detail } => {
                write!(f, "checkpoint truncated at byte {offset}: {detail}")
            }
            CheckpointError::Corrupt { offset, detail } => {
                write!(f, "checkpoint corrupt at byte {offset}: {detail}")
            }
            CheckpointError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this spec/config \
                 ({expected:#018x}); refusing to resume"
            ),
            CheckpointError::Config { detail } => {
                write!(f, "unusable configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One visited-map entry: a claimed state key with its parent link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitedEntry {
    /// The canonical state key.
    pub key: Vec<u8>,
    /// Index within [`Checkpoint::entries`] of the parent entry (the
    /// initial state points at itself).
    pub parent: u32,
    /// The rule label taken from the parent (empty for the initial
    /// state).
    pub label: String,
    /// The BFS level at which the state was claimed.
    pub level: u32,
}

/// A complete explorer snapshot, taken at a BFS level boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the (spec, config) pair the snapshot belongs to.
    pub fingerprint: u64,
    /// Completed BFS levels.
    pub level: usize,
    /// Budget units spent so far (cumulative across resumes).
    pub nodes_spent: u64,
    /// The visited/parent map: every section's entries, in file order.
    /// Keys are unique and every parent index is in range.
    pub entries: Vec<VisitedEntry>,
    /// The next frontier, in BFS order, as indices into `entries`.
    /// Every frontier key decodes to a state of the run's config.
    pub frontier: Vec<u32>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running `fnv64` (module docs): the FNV-1a loop
/// with the multiplier `0x1000_0000_01b3`, which is not the FNV-1a
/// prime. Every checkpoint, shard round file and fingerprint is written
/// with this constant, so changing it is a format change.
fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// `fnv64` of `bytes` (see [`fnv1a_update`]), the repo's
/// dependency-free checksum/fingerprint hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// The (spec, config) fingerprint recorded in every checkpoint: a hash
/// of the protocol's canonical DSL text and of every [`McConfig`] field
/// that shapes the reachable state space. Two runs with equal
/// fingerprints explore the same space, so resuming one from the
/// other's checkpoint is sound.
pub fn fingerprint(spec: &ProtocolSpec, cfg: &McConfig) -> u64 {
    let mut bytes = vnet_protocol::dsl::to_text(spec).into_bytes();
    bytes.extend(cfg.fingerprint_bytes());
    fnv1a(&bytes)
}

/// Writes a checkpoint file: the envelope around a payload of `level`,
/// `nodes_spent`, the shard manifest, the `sections` (each built by a
/// [`ShardEncoder`]) and the `(shard, index)` frontier references. The
/// bytes stream through a temp file that is renamed over `path`, so a
/// crash mid-write leaves any previous checkpoint intact. This is the
/// only function that writes a checkpoint.
pub(crate) fn write(
    path: &Path,
    fingerprint: u64,
    level: usize,
    nodes_spent: u64,
    sections: &[Vec<u8>],
    frontier: impl ExactSizeIterator<Item = (u32, u32)>,
) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let sections_len: usize = sections.iter().map(Vec::len).sum();
    let payload_len = 28 + 16 * sections.len() + sections_len + 8 * frontier.len();

    let mut head = Vec::with_capacity(48 + 16 * sections.len());
    head.extend(MAGIC);
    put_u32(&mut head, VERSION);
    put_u64(&mut head, fingerprint);
    put_u64(&mut head, payload_len as u64);
    put_u64(&mut head, level as u64);
    put_u64(&mut head, nodes_spent);
    put_u32(&mut head, sections.len() as u32);
    for sec in sections {
        put_u64(&mut head, sec.len() as u64);
        put_u64(&mut head, fnv1a(sec));
    }
    let mut tail = Vec::with_capacity(8 + 8 * frontier.len());
    put_u64(&mut tail, frontier.len() as u64);
    for (shard, idx) in frontier {
        put_u32(&mut tail, shard);
        put_u32(&mut tail, idx);
    }

    let stream = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let mut sum = FNV_OFFSET;
        let parts = std::iter::once(&head).chain(sections).chain([&tail]);
        for part in parts {
            sum = fnv1a_update(sum, part);
            out.write_all(part)?;
        }
        out.write_all(&sum.to_le_bytes())?;
        out.flush()
    };
    stream().map_err(|e| CheckpointError::Io {
        path: tmp.clone(),
        detail: e.to_string(),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })
}

// ---------------------------------------------------------------------
// Primitive little-endian writers/readers.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend(v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend(v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend(b);
}

/// Bounds-checked cursor over untrusted bytes. Every read either
/// advances or returns a positioned error — no panics, no partial reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` within the whole file, for error positions.
    base: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], base: usize) -> Self {
        Reader { buf, pos: 0, base }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated {
                offset: self.offset(),
                detail: format!(
                    "{what} needs {n} byte(s), {} left",
                    self.buf.len() - self.pos
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length-prefixed byte string. `min_unit` guards against a
    /// corrupt length field demanding more than the file can hold.
    fn bytes(&mut self, what: &str) -> Result<&'a [u8], CheckpointError> {
        let at = self.offset();
        let len = self.u32(what)? as usize;
        if len > self.buf.len() - self.pos {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!(
                    "{what} claims {len} byte(s) but only {} remain",
                    self.buf.len() - self.pos
                ),
            });
        }
        self.take(len, what)
    }

    /// A LEB128 varint ([`crate::codec`]).
    fn varint(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let at = self.offset();
        match crate::codec::read_varint(self.buf, &mut self.pos) {
            Some(v) => Ok(v),
            None => Err(CheckpointError::Truncated {
                offset: at,
                detail: format!("{what}: bad or truncated varint"),
            }),
        }
    }

    /// An element count that must leave at least `min_elem` bytes per
    /// element — rejects corrupt counts before any allocation.
    fn count(&mut self, what: &str, min_elem: usize) -> Result<usize, CheckpointError> {
        let at = self.offset();
        let n = self.u64(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_elem.max(1)).is_none_or(|need| need > remaining) {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("{what} count {n} impossible with {remaining} byte(s) left"),
            });
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Shard sections.
// ---------------------------------------------------------------------

/// Keys restart the delta chain this often within a shard section, so a
/// corrupt delta cannot poison more than one block and decoding never
/// needs more than one chain in memory.
const SHARD_RESTART: u64 = 16;

/// Streaming encoder for one shard section: a label table in
/// first-use order, then entries whose keys are delta-compressed against
/// their predecessor and whose parents are `(shard, index)` references.
/// The process-sharded explorer also persists each worker's round
/// segments in this encoding.
pub(crate) struct ShardEncoder {
    labels: Vec<u8>,
    label_idx: std::collections::HashMap<String, u32, vnet_graph::FxBuildHasher>,
    n_labels: u32,
    entries: Vec<u8>,
    count: u64,
    prev_key: Vec<u8>,
}

impl ShardEncoder {
    pub(crate) fn new() -> Self {
        ShardEncoder {
            labels: Vec::new(),
            label_idx: std::collections::HashMap::default(),
            n_labels: 0,
            entries: Vec::new(),
            count: 0,
            prev_key: Vec::new(),
        }
    }

    /// Appends one entry. Keys must arrive in the section's final order
    /// (the delta reference is simply the previous key).
    pub(crate) fn push(&mut self, key: &[u8], parent_shard: u32, parent_idx: u32, label: &str, level: u32) {
        let label_id = match self.label_idx.get(label) {
            Some(&id) => id,
            None => {
                let id = self.n_labels;
                self.n_labels += 1;
                put_bytes(&mut self.labels, label.as_bytes());
                self.label_idx.insert(label.to_string(), id);
                id
            }
        };
        let reference: &[u8] = if self.count.is_multiple_of(SHARD_RESTART) {
            &[]
        } else {
            &self.prev_key
        };
        crate::codec::encode_delta(reference, key, &mut self.entries);
        crate::codec::put_varint(&mut self.entries, parent_shard as u64);
        crate::codec::put_varint(&mut self.entries, parent_idx as u64);
        crate::codec::put_varint(&mut self.entries, label_id as u64);
        crate::codec::put_varint(&mut self.entries, level as u64);
        self.prev_key.clear();
        self.prev_key.extend_from_slice(key);
        self.count += 1;
    }

    /// Serializes the section.
    pub(crate) fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.labels.len() + self.entries.len());
        put_u32(&mut out, self.n_labels);
        out.extend(&self.labels);
        put_u64(&mut out, self.count);
        out.extend(&self.entries);
        out
    }
}

/// One decoded shard entry; the parent is still a
/// `(shard, index)` reference (globalized by the caller).
pub(crate) struct ShardEntry {
    pub(crate) key: Vec<u8>,
    pub(crate) parent_shard: u32,
    pub(crate) parent_idx: u32,
    pub(crate) label: u32,
    pub(crate) level: u32,
}

/// Decodes one shard section. `base` is the section's byte offset in
/// the surrounding file, for error positions.
pub(crate) fn decode_shard_section(
    bytes: &[u8],
    base: usize,
) -> Result<(Vec<String>, Vec<ShardEntry>), CheckpointError> {
    let mut r = Reader::new(bytes, base);
    let n_labels = r.u32("shard label count")? as usize;
    if n_labels > bytes.len() {
        return Err(CheckpointError::Corrupt {
            offset: base,
            detail: format!("shard label count {n_labels} impossible"),
        });
    }
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let at = r.offset();
        match std::str::from_utf8(r.bytes("shard label")?) {
            Ok(s) => labels.push(s.to_string()),
            Err(e) => {
                return Err(CheckpointError::Corrupt {
                    offset: at,
                    detail: format!("shard label is not UTF-8: {e}"),
                })
            }
        }
    }
    let n_entries = r.count("shard entries", 5)?;
    let mut entries = Vec::with_capacity(n_entries);
    let mut prev_key: Vec<u8> = Vec::new();
    let mut key = Vec::new();
    for i in 0..n_entries {
        let at = r.offset();
        let reference: &[u8] = if (i as u64).is_multiple_of(SHARD_RESTART) {
            &[]
        } else {
            &prev_key
        };
        if crate::codec::decode_delta(reference, r.buf, &mut r.pos, &mut key).is_none() {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("shard entry {i}: malformed key delta"),
            });
        }
        let parent_shard = r.varint("entry parent shard")?;
        let parent_idx = r.varint("entry parent index")?;
        let label = r.varint("entry label id")?;
        let level = r.varint("entry level")?;
        if parent_shard > u32::MAX as u64
            || parent_idx > u32::MAX as u64
            || level > u32::MAX as u64
            || label as usize >= labels.len()
        {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("shard entry {i}: field out of range"),
            });
        }
        entries.push(ShardEntry {
            key: key.clone(),
            parent_shard: parent_shard as u32,
            parent_idx: parent_idx as u32,
            label: label as u32,
            level: level as u32,
        });
        std::mem::swap(&mut prev_key, &mut key);
    }
    if r.pos != r.buf.len() {
        return Err(CheckpointError::Corrupt {
            offset: r.offset(),
            detail: format!("{} unread byte(s) in shard section", r.buf.len() - r.pos),
        });
    }
    Ok((labels, entries))
}

// ---------------------------------------------------------------------
// Checkpoint decode and file IO.
// ---------------------------------------------------------------------

impl Checkpoint {
    /// Decodes and fully validates a checkpoint against the (spec,
    /// config) pair being resumed. Fails closed on any defect.
    pub fn from_bytes(
        bytes: &[u8],
        spec: &ProtocolSpec,
        cfg: &McConfig,
    ) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic {
                found: bytes[..bytes.len().min(MAGIC.len())].to_vec(),
            });
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..], MAGIC.len());
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let stored_fp = r.u64("fingerprint")?;
        let at = r.offset();
        let payload_len = r.u64("payload length")? as usize;
        let header_end = r.offset();
        // The file must be exactly header + payload + 8-byte checksum.
        let want = header_end + payload_len + 8;
        if bytes.len() < want {
            return Err(CheckpointError::Truncated {
                offset: bytes.len(),
                detail: format!("file is {} byte(s), payload promises {want}", bytes.len()),
            });
        }
        if bytes.len() > want {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("{} trailing byte(s) after checksum", bytes.len() - want),
            });
        }
        let stored_sum = {
            let b = &bytes[want - 8..];
            u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
        };
        let computed = fnv1a(&bytes[..want - 8]);
        if stored_sum != computed {
            return Err(CheckpointError::Corrupt {
                offset: want - 8,
                detail: format!("checksum {stored_sum:#018x} != computed {computed:#018x}"),
            });
        }
        let expected_fp = fingerprint(spec, cfg);
        if stored_fp != expected_fp {
            return Err(CheckpointError::SpecMismatch {
                expected: expected_fp,
                found: stored_fp,
            });
        }

        let mut r = Reader::new(&bytes[header_end..want - 8], header_end);
        let level = r.u64("level")? as usize;
        let nodes_spent = r.u64("nodes spent")?;
        let at = r.offset();
        let n_shards = r.u32("shard count")? as usize;
        if n_shards == 0 || n_shards > (1 << 16) {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("shard count {n_shards} out of range"),
            });
        }
        let mut manifest = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let len = r.u64("shard section length")? as usize;
            let sum = r.u64("shard section checksum")?;
            manifest.push((len, sum));
        }
        // Decode every section, tracking per-shard entry offsets so
        // `(shard, index)` references can be globalized.
        let mut sections = Vec::with_capacity(n_shards);
        let mut offsets = Vec::with_capacity(n_shards + 1);
        let mut total = 0usize;
        for (i, &(len, sum)) in manifest.iter().enumerate() {
            let at = r.offset();
            let bytes = r.take(len, "shard section")?;
            let computed = fnv1a(bytes);
            if computed != sum {
                return Err(CheckpointError::Corrupt {
                    offset: at,
                    detail: format!(
                        "shard {i} checksum {sum:#018x} != computed {computed:#018x}"
                    ),
                });
            }
            let section = decode_shard_section(bytes, at)?;
            offsets.push(total);
            total += section.1.len();
            sections.push(section);
        }
        offsets.push(total);
        if total > u32::MAX as usize {
            return Err(CheckpointError::Corrupt {
                offset: at,
                detail: format!("{total} entries exceed the id space"),
            });
        }
        let global = |shard: u32, idx: u32| -> Option<u32> {
            let s = shard as usize;
            (s < n_shards && (idx as usize) < offsets[s + 1] - offsets[s])
                .then(|| (offsets[s] + idx as usize) as u32)
        };
        let mut entries = Vec::with_capacity(total);
        for (si, (labels, shard)) in sections.into_iter().enumerate() {
            for (ei, e) in shard.into_iter().enumerate() {
                let Some(parent) = global(e.parent_shard, e.parent_idx) else {
                    return Err(CheckpointError::Corrupt {
                        offset: 0,
                        detail: format!(
                            "shard {si} entry {ei} parent ({}, {}) out of range",
                            e.parent_shard, e.parent_idx
                        ),
                    });
                };
                entries.push(VisitedEntry {
                    key: e.key,
                    parent,
                    label: labels[e.label as usize].clone(),
                    level: e.level,
                });
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(entries.len());
        if let Some(i) = entries.iter().position(|e| !seen.insert(e.key.as_slice())) {
            return Err(CheckpointError::Corrupt {
                offset: 0,
                detail: format!("visited entry {i} duplicates an earlier key"),
            });
        }
        let n_frontier = r.count("frontier references", 8)?;
        let mut frontier = Vec::with_capacity(n_frontier);
        let mut scratch = GlobalState::initial(spec, cfg);
        for i in 0..n_frontier {
            let at = r.offset();
            let shard = r.u32("frontier shard")?;
            let idx = r.u32("frontier index")?;
            let Some(id) = global(shard, idx) else {
                return Err(CheckpointError::Corrupt {
                    offset: at,
                    detail: format!("frontier reference {i} ({shard}, {idx}) out of range"),
                });
            };
            if !GlobalState::decode_into(&entries[id as usize].key, cfg, &mut scratch) {
                return Err(CheckpointError::Corrupt {
                    offset: at,
                    detail: format!("frontier reference {i}: key does not decode"),
                });
            }
            frontier.push(id);
        }
        if r.pos != r.buf.len() {
            return Err(CheckpointError::Corrupt {
                offset: r.offset(),
                detail: format!("{} unread byte(s) in payload", r.buf.len() - r.pos),
            });
        }
        Ok(Checkpoint {
            fingerprint: stored_fp,
            level,
            nodes_spent,
            entries,
            frontier,
        })
    }

    /// Reads, validates, and decodes the checkpoint at `path` for the
    /// given (spec, config) pair.
    pub fn load(
        path: &Path,
        spec: &ProtocolSpec,
        cfg: &McConfig,
    ) -> Result<Checkpoint, CheckpointError> {
        // A crash mid-flush can strand `<path>.tmp`; the rename is the
        // commit point, so such a file is garbage by construction and
        // is cleared on resume rather than left to accumulate.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        Checkpoint::from_bytes(&bytes, spec, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McConfig;
    use vnet_protocol::protocols;

    /// A fresh scratch directory per test, so parallel tests never
    /// share (or delete) each other's files.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vnet-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    /// Known answers pin the checksum's multiplier, `0x1000_0000_01b3`:
    /// changing it would change every checkpoint's bytes. The standard
    /// FNV-1a 64-bit value of "a" is `0xaf63_dc4c_8601_ec8c`.
    #[test]
    fn checksum_multiplier_is_pinned_by_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_eq!(fnv1a(b"VNETCKPT"), 0xcbd8_c9ae_948e_bfd6);
        assert_ne!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c, "not stock FNV-1a");
        // The running form folds in pieces to the same value.
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    /// Writes `ckpt` to `path` as one section in entry order.
    fn write_single(ckpt: &Checkpoint, path: &Path) -> Result<(), CheckpointError> {
        let mut enc = ShardEncoder::new();
        for e in &ckpt.entries {
            enc.push(&e.key, 0, e.parent, &e.label, e.level);
        }
        let frontier = ckpt.frontier.iter().map(|&i| (0, i));
        let (fp, level, nodes) = (ckpt.fingerprint, ckpt.level, ckpt.nodes_spent);
        write(path, fp, level, nodes, &[enc.finish()], frontier)
    }

    /// The bytes [`write_single`] produces for `ckpt`.
    fn encode(ckpt: &Checkpoint, tag: &str) -> Vec<u8> {
        let dir = scratch(tag);
        let path = dir.join("c.ckpt");
        let written = write_single(ckpt, &path);
        assert!(written.is_ok(), "{written:?}");
        let bytes = std::fs::read(&path).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    /// The initial state plus `level_states` level-1 successors; the
    /// frontier is the initial state.
    fn sample(level_states: usize) -> (ProtocolSpec, McConfig, Checkpoint) {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let initial = GlobalState::initial(&spec, &cfg);
        let mut entries = vec![VisitedEntry {
            key: initial.encode(),
            parent: 0,
            label: String::new(),
            level: 0,
        }];
        for i in 0..level_states {
            let mut s = initial.clone();
            s.set_used_injections(1 + i as u32);
            entries.push(VisitedEntry {
                key: s.encode(),
                parent: 0,
                label: format!("rule-{i}"),
                level: 1,
            });
        }
        let ckpt = Checkpoint {
            fingerprint: fingerprint(&spec, &cfg),
            level: 1,
            nodes_spent: level_states as u64,
            entries,
            frontier: vec![0],
        };
        (spec, cfg, ckpt)
    }

    #[test]
    fn roundtrips_bit_exactly() -> Result<(), CheckpointError> {
        let (spec, cfg, ckpt) = sample(40);
        let bytes = encode(&ckpt, "roundtrip");
        let back = Checkpoint::from_bytes(&bytes, &spec, &cfg)?;
        assert_eq!(back, ckpt);
        // Same progress ⇒ byte-identical re-encode.
        assert_eq!(encode(&back, "roundtrip"), bytes);
        Ok(())
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (spec, cfg, ckpt) = sample(2);
        let bytes = encode(&ckpt, "truncation");
        for cut in 0..bytes.len() {
            let r = Checkpoint::from_bytes(&bytes[..cut], &spec, &cfg);
            assert!(
                matches!(
                    r,
                    Err(CheckpointError::BadMagic { .. }
                        | CheckpointError::Truncated { .. }
                        | CheckpointError::Corrupt { .. })
                ),
                "cut at {cut} not rejected: {r:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_detected() {
        // Any one-bit flip must fail the checksum (or an earlier check);
        // sample every 7th byte to keep the test fast.
        let (spec, cfg, ckpt) = sample(2);
        let bytes = encode(&ckpt, "bitflip");
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Checkpoint::from_bytes(&bad, &spec, &cfg).is_err(),
                "bit flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn other_versions_and_wrong_spec_are_structured_errors() {
        let (spec, cfg, ckpt) = sample(1);
        let bytes = encode(&ckpt, "version");
        for version in [1u32, 99] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            let r = Checkpoint::from_bytes(&bad, &spec, &cfg);
            assert!(
                matches!(
                    r,
                    Err(CheckpointError::UnsupportedVersion { found, supported: VERSION })
                        if found == version
                ),
                "{r:?}"
            );
        }

        // Same bytes, different config ⇒ fingerprint mismatch (the
        // checksum is fine; the guard is the fingerprint).
        let other_cfg = McConfig::general(&spec);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes, &spec, &other_cfg),
            Err(CheckpointError::SpecMismatch { .. })
        ));
        let other_spec = protocols::mesi_blocking_cache();
        let other_cfg = McConfig::figure3(&other_spec);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes, &other_spec, &other_cfg),
            Err(CheckpointError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (spec, cfg, ckpt) = sample(1);
        let mut bad = encode(&ckpt, "garbage");
        bad.extend([0u8; 4]);
        assert!(matches!(
            Checkpoint::from_bytes(&bad, &spec, &cfg),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn file_roundtrip_and_io_error() -> Result<(), CheckpointError> {
        let (spec, cfg, ckpt) = sample(3);
        let dir = scratch("file");
        let path = dir.join("roundtrip.ckpt");
        write_single(&ckpt, &path)?;
        assert_eq!(Checkpoint::load(&path, &spec, &cfg)?, ckpt);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            Checkpoint::load(&dir.join("missing.ckpt"), &spec, &cfg),
            Err(CheckpointError::Io { .. })
        ));
        Ok(())
    }

    #[test]
    fn fingerprint_is_sensitive_to_spec_and_config() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let base = fingerprint(&spec, &cfg);
        assert_eq!(base, fingerprint(&spec, &cfg.clone()));
        let mut bigger = cfg.clone();
        bigger.n_caches += 1;
        assert_ne!(base, fingerprint(&spec, &bigger));
        let other = protocols::mesi_blocking_cache();
        assert_ne!(base, fingerprint(&other, &McConfig::figure3(&other)));
        // Truncation knobs are not part of the fingerprint: a resumed
        // run may raise (or lower) the bounds.
        assert_eq!(
            base,
            fingerprint(&spec, &cfg.clone().with_limits(1000, Some(4)))
        );
    }
}
