//! Out-of-core state storage: a spillable interning arena.
//!
//! [`SpillArena`] wraps the hot [`StateArena`] with a cold tier on
//! disk. When the explorer's accounted footprint crosses the spill
//! threshold, the entire hot arena is streamed to a *segment* file —
//! each blob delta-encoded against its predecessor (see
//! [`crate::codec`]), with a full-blob restart point every
//! [`RESTART_INTERVAL`] entries so random access decodes at most a
//! handful of deltas — and the hot tier is reset. What stays in RAM per
//! cold state is one packed `(fingerprint32, id)` slot in an
//! open-addressing filter (~11 bytes at ¾ load) plus one restart offset
//! per interval, instead of the full key bytes, offsets, and table
//! slots (~60–100 bytes): the memory the budget meter sees drops by
//! 3–5× per spill while lookups stay *exact* — a fingerprint hit is
//! always verified against the decoded blob on disk, so dedup, claim
//! order, and therefore verdicts and witnesses are bit-identical to an
//! in-RAM run.
//!
//! Ids are global and stable across spills: the hot tier interns at
//! `base + local`, and a spill only moves bytes, never renumbers.
//! Segment files are written via temp file + rename (a crash mid-spill
//! leaves no torn segment behind; stale `.tmp` files are swept when the
//! directory is first opened) and deleted when the arena drops.

use crate::codec::{decode_delta, encode_delta};
use crate::intern::{InternError, StateArena, StateId};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use vnet_graph::fx_hash_bytes;

/// Entries per full-blob restart point in a segment file.
pub const RESTART_INTERVAL: u32 = 16;

/// Vacant marker in the fingerprint filter (a real slot packs the id in
/// the low 32 bits, and ids never reach `u32::MAX`).
const VACANT: u64 = u64::MAX;

/// Where and when the arena spills.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for segment files (created on first use).
    pub dir: PathBuf,
    /// Spill when the owner's accounted bytes exceed this.
    pub threshold_bytes: u64,
    /// Never spill a hot tier smaller than this — tiny segments would
    /// fragment the cold tier without relieving real pressure.
    pub min_hot_bytes: u64,
}

impl SpillConfig {
    /// A config spilling into `dir` when accounted bytes exceed
    /// `threshold_bytes`, with the default 32 KiB minimum hot tier.
    pub fn new(dir: impl Into<PathBuf>, threshold_bytes: u64) -> Self {
        SpillConfig {
            dir: dir.into(),
            threshold_bytes,
            min_hot_bytes: 32 << 10,
        }
    }
}

/// One on-disk segment of cold blobs `[first, first + count)`.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    file: File,
    first: u32,
    count: u32,
    /// Byte offset of each restart block, plus the end offset.
    restarts: Vec<u64>,
}

/// Running totals for the `explore.spill_*` metrics, drained by the
/// owning explorer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Bytes written to segment files (compressed).
    pub spilled_bytes: u64,
    /// Raw blob bytes those segments represent.
    pub raw_bytes: u64,
    /// Cold-tier disk reads (lookup verifications + blob fetches).
    pub reads: u64,
    /// Spill events.
    pub spills: u64,
}

impl SpillStats {
    /// Compressed size as a percentage of raw size (100 = no gain).
    pub fn compress_ratio_pct(&self) -> u64 {
        self.spilled_bytes
            .saturating_mul(100)
            .checked_div(self.raw_bytes)
            .unwrap_or(100)
    }
}

/// A [`StateArena`] with an optional disk tier. With no
/// [`SpillConfig`] it is a zero-overhead wrapper; with one, cold
/// states live in delta-compressed segment files behind the
/// fingerprint filter.
#[derive(Debug)]
pub struct SpillArena {
    hot: StateArena,
    /// Global id of hot-local id 0; equals the cold-state count.
    base: u32,
    /// Open-addressing filter over cold states: `fp32 << 32 | id`.
    /// Indexed by `fp32 & mask`; power-of-two length, ¾ load.
    filter: Vec<u64>,
    segments: Vec<Segment>,
    cfg: Option<SpillConfig>,
    dir_ready: bool,
    seq: u32,
    stats: SpillStats,
    /// Scratch for cold decodes (kept across calls to avoid realloc).
    block: Vec<u8>,
    prev: Vec<u8>,
    cur: Vec<u8>,
}

impl SpillArena {
    /// An arena that spills per `cfg`, or a plain in-RAM arena when
    /// `cfg` is `None`.
    pub fn new(cfg: Option<SpillConfig>) -> Self {
        SpillArena {
            hot: StateArena::new(),
            base: 0,
            filter: Vec::new(),
            segments: Vec::new(),
            cfg,
            dir_ready: false,
            seq: 0,
            stats: SpillStats::default(),
            block: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
        }
    }

    /// Total distinct blobs (cold + hot).
    pub fn len(&self) -> usize {
        self.base as usize + self.hot.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative spill statistics.
    pub fn spill_stats(&self) -> SpillStats {
        self.stats
    }

    /// `true` once at least one segment has been written.
    pub fn has_spilled(&self) -> bool {
        !self.segments.is_empty()
    }

    /// Hot-tier table load, for the `explore.intern_load_pct` gauge.
    pub fn load_factor_pct(&self) -> u64 {
        self.hot.load_factor_pct()
    }

    /// Exact heap bytes: the hot arena plus the cold tier's in-RAM
    /// index (filter slots and restart offsets). Segment bytes live on
    /// disk and are deliberately not charged against the memory budget.
    pub fn heap_bytes(&self) -> u64 {
        let restarts: usize = self.segments.iter().map(|s| s.restarts.capacity()).sum();
        self.hot.heap_bytes()
            + (self.filter.capacity() * 8) as u64
            + (restarts * 8) as u64
            + (self.block.capacity() + self.prev.capacity() + self.cur.capacity()) as u64
    }

    /// Interns `bytes` under a stable global id. Exact dedup across
    /// both tiers: a cold hit is verified against the decoded blob, so
    /// a fingerprint collision can never alias two distinct states.
    pub fn intern(&mut self, bytes: &[u8]) -> Result<(StateId, bool), InternError> {
        self.intern_hashed(bytes, fx_hash_bytes(bytes))
    }

    /// [`SpillArena::intern`] with `hash = fx_hash_bytes(bytes)`
    /// supplied by a caller that already computed it.
    pub(crate) fn intern_hashed(
        &mut self,
        bytes: &[u8],
        hash: u64,
    ) -> Result<(StateId, bool), InternError> {
        if self.base > 0 {
            if let Some(id) = self.lookup_cold(bytes, hash) {
                return Ok((id, false));
            }
        }
        match self.hot.intern_hashed(bytes, hash) {
            Ok((local, fresh)) => match local.checked_add(self.base) {
                Some(gid) => Ok((gid, fresh)),
                None => Err(InternError::AddressSpace),
            },
            Err(e) => Err(e),
        }
    }

    /// The id of `bytes` if present in either tier.
    pub fn lookup(&mut self, bytes: &[u8]) -> Option<StateId> {
        self.lookup_hashed(bytes, fx_hash_bytes(bytes))
    }

    /// [`SpillArena::lookup`] with `hash = fx_hash_bytes(bytes)`.
    pub(crate) fn lookup_hashed(&mut self, bytes: &[u8], hash: u64) -> Option<StateId> {
        if let Some(local) = self.hot.lookup_hashed(bytes, hash) {
            return local.checked_add(self.base);
        }
        if self.base > 0 {
            return self.lookup_cold(bytes, hash);
        }
        None
    }

    /// The blob of `id`: borrowed from the hot arena, or read back into
    /// the arena's cold-read buffer. `None` for ids never interned or
    /// cold reads that fail (callers treat both as corruption).
    pub fn get(&mut self, id: StateId) -> Option<&[u8]> {
        if id >= self.base {
            let local = id - self.base;
            return ((local as usize) < self.hot.len()).then(|| self.hot.get(local));
        }
        self.read_cold(id)?;
        Some(&self.cur)
    }

    /// Copies the blob of `id` into `out`; `false` where
    /// [`SpillArena::get`] gives `None`.
    pub fn get_into(&mut self, id: StateId, out: &mut Vec<u8>) -> bool {
        out.clear();
        match self.get(id) {
            Some(blob) => {
                out.extend_from_slice(blob);
                true
            }
            None => false,
        }
    }

    /// Spills the hot tier if `accounted_now` exceeds the configured
    /// threshold and the hot tier is big enough to be worth writing.
    /// Returns `Ok(true)` when a segment was written. IO failure leaves
    /// the arena fully intact in RAM — the caller may keep going and
    /// let the memory budget degrade the run honestly.
    pub fn maybe_spill(&mut self, accounted_now: u64) -> std::io::Result<bool> {
        let Some(cfg) = &self.cfg else {
            return Ok(false);
        };
        if accounted_now <= cfg.threshold_bytes
            || (self.hot.data_len() as u64) < cfg.min_hot_bytes
            || self.hot.is_empty()
        {
            return Ok(false);
        }
        self.spill()?;
        Ok(true)
    }

    /// Streams every blob in id order (cold segments, then hot) through
    /// `f(id, bytes)`, stopping at the first error.
    pub fn for_each<E>(
        &mut self,
        mut f: impl FnMut(StateId, &[u8]) -> Result<(), E>,
    ) -> Result<Result<(), E>, std::io::Error> {
        // Cold tier: sequential decode, no restart seeks needed.
        for si in 0..self.segments.len() {
            let seg = &self.segments[si];
            let (first, count) = (seg.first, seg.count);
            self.block.clear();
            let mut fh = &self.segments[si].file;
            fh.seek(SeekFrom::Start(0))?;
            fh.read_to_end(&mut self.block)?;
            self.stats.reads += 1;
            let mut pos = 0usize;
            self.prev.clear();
            for i in 0..count {
                if i % RESTART_INTERVAL == 0 {
                    self.prev.clear();
                }
                let ok = decode_delta(&self.prev, &self.block, &mut pos, &mut self.cur);
                if ok.is_none() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("segment {} undecodable at entry {i}", si),
                    ));
                }
                if let Err(e) = f(first + i, &self.cur) {
                    return Ok(Err(e));
                }
                std::mem::swap(&mut self.prev, &mut self.cur);
            }
        }
        for local in 0..self.hot.len() as u32 {
            if let Err(e) = f(self.base + local, self.hot.get(local)) {
                return Ok(Err(e));
            }
        }
        Ok(Ok(()))
    }

    /// Cold-tier lookup: probe the fingerprint filter, verify each
    /// candidate against the decoded blob.
    fn lookup_cold(&mut self, bytes: &[u8], hash: u64) -> Option<StateId> {
        if self.filter.is_empty() {
            return None;
        }
        let fp = (hash >> 32) as u32;
        let mask = self.filter.len() - 1;
        let mut slot = fp as usize & mask;
        loop {
            let packed = self.filter[slot];
            if packed == VACANT {
                return None;
            }
            if (packed >> 32) as u32 == fp {
                let id = packed as u32;
                if self.read_cold(id).is_some() && self.cur == bytes {
                    return Some(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Decodes cold blob `id` into `self.cur`. `None` on any IO or
    /// format defect (fail soft; callers surface it as corruption).
    fn read_cold(&mut self, id: StateId) -> Option<()> {
        let si = self
            .segments
            .partition_point(|s| s.first + s.count <= id)
            .min(self.segments.len().checked_sub(1)?);
        let seg = &self.segments[si];
        if id < seg.first || id >= seg.first + seg.count {
            return None;
        }
        let rel = id - seg.first;
        let block_idx = (rel / RESTART_INTERVAL) as usize;
        let start = *seg.restarts.get(block_idx)?;
        let end = *seg.restarts.get(block_idx + 1)?;
        self.block.clear();
        let need = (end - start) as usize;
        if self.block.try_reserve(need).is_err() {
            return None;
        }
        self.block.resize(need, 0);
        let mut fh = &seg.file;
        fh.seek(SeekFrom::Start(start)).ok()?;
        fh.read_exact(&mut self.block).ok()?;
        self.stats.reads += 1;
        let mut pos = 0usize;
        self.prev.clear();
        for _ in 0..rel % RESTART_INTERVAL {
            decode_delta(&self.prev, &self.block, &mut pos, &mut self.cur)?;
            std::mem::swap(&mut self.prev, &mut self.cur);
        }
        decode_delta(&self.prev, &self.block, &mut pos, &mut self.cur)
    }

    /// Writes the hot tier to a new segment and resets it.
    fn spill(&mut self) -> std::io::Result<()> {
        let dir = match &self.cfg {
            Some(c) => c.dir.clone(),
            None => return Ok(()),
        };
        if !self.dir_ready {
            std::fs::create_dir_all(&dir)?;
            sweep_stale_tmp(&dir);
            self.dir_ready = true;
        }
        let n = self.hot.len() as u32;
        // Grow the filter first (everything before the file write is
        // undoable), keeping ≤ ¾ load after inserting `n` more ids.
        self.reserve_filter(n as usize)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::OutOfMemory, "filter growth"))?;

        let path = dir.join(format!("seg-{}-{}.spill", std::process::id(), self.seq));
        let tmp = path.with_extension("spill.tmp");
        let mut restarts: Vec<u64> = Vec::with_capacity((n / RESTART_INTERVAL + 2) as usize);
        let mut raw = 0u64;
        {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            let mut off = 0u64;
            let mut enc: Vec<u8> = Vec::with_capacity(256);
            let mut prev: &[u8] = &[];
            for local in 0..n {
                if local % RESTART_INTERVAL == 0 {
                    restarts.push(off);
                    prev = &[];
                }
                let blob = self.hot.get(local);
                raw += blob.len() as u64;
                enc.clear();
                encode_delta(prev, blob, &mut enc);
                w.write_all(&enc)?;
                off += enc.len() as u64;
                prev = blob;
            }
            restarts.push(off);
            w.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        let file = File::open(&path)?;
        let written = *restarts.last().unwrap_or(&0);

        // Point of no return: index the new cold ids.
        let mask = self.filter.len() - 1;
        for local in 0..n {
            let fp = (fx_hash_bytes(self.hot.get(local)) >> 32) as u32;
            let mut slot = fp as usize & mask;
            while self.filter[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            self.filter[slot] = ((fp as u64) << 32) | (self.base + local) as u64;
        }
        self.segments.push(Segment {
            path,
            file,
            first: self.base,
            count: n,
            restarts,
        });
        self.base += n;
        self.seq += 1;
        self.hot = StateArena::new();
        self.stats.spilled_bytes += written;
        self.stats.raw_bytes += raw;
        self.stats.spills += 1;
        Ok(())
    }

    /// Ensures the filter can absorb `extra` more entries at ≤ ¾ load.
    fn reserve_filter(&mut self, extra: usize) -> Result<(), InternError> {
        let need = self.base as usize + extra;
        let mut len = self.filter.len().max(64);
        while need * 4 > len * 3 {
            len *= 2;
        }
        if len == self.filter.len() {
            return Ok(());
        }
        let mut fresh: Vec<u64> = Vec::new();
        if fresh.try_reserve_exact(len).is_err() {
            return Err(InternError::AllocFailed);
        }
        fresh.resize(len, VACANT);
        let mask = len - 1;
        for &packed in &self.filter {
            if packed == VACANT {
                continue;
            }
            let mut slot = ((packed >> 32) as u32) as usize & mask;
            while fresh[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            fresh[slot] = packed;
        }
        self.filter = fresh;
        Ok(())
    }
}

impl Drop for SpillArena {
    fn drop(&mut self) {
        for seg in &self.segments {
            let _ = std::fs::remove_file(&seg.path);
        }
        if let Some(cfg) = &self.cfg {
            // Best-effort: removes the directory only if it is empty
            // (other runs may share it).
            let _ = std::fs::remove_dir(&cfg.dir);
        }
    }
}

/// Removes stale `.tmp` files a killed spill or checkpoint flush left
/// behind in `dir`. Renames are atomic, so any surviving `.tmp` is by
/// construction torn garbage — quarantining would just accumulate it.
pub fn sweep_stale_tmp(dir: &std::path::Path) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.flatten() {
        let p = entry.path();
        if p.extension().and_then(|e| e.to_str()) == Some("tmp") {
            let _ = std::fs::remove_file(&p);
        }
    }
}
