//! The global model-checking state, stored as its canonical encoding.
//!
//! A [`GlobalState`] *is* the byte string the explorers intern: one
//! buffer whose shape a [`McConfig`] fixes when the state is built.
//!
//! - the cache lines, `n_caches × n_addrs`, row-major by cache, 5 bytes
//!   each: state, needed acks, readers, then the deferred writer and its
//!   ack count (`0xff, 0` for none);
//! - the directory lines, one per address, 4 bytes each: state, owner
//!   (`0xff` for none), sharers, pending;
//! - the per-cache injection budgets (empty under an explicit script);
//! - the bitmask of scripted injections already issued, a little-endian
//!   `u32`;
//! - every queue as a one-byte separator followed by its messages, 6
//!   bytes each: first the `2 · n_vns` global buffers (separator `0xfe`),
//!   then the `n_endpoints · n_vns` endpoint FIFOs (`0xfd`). Message ids
//!   stay below both separators, so the encoding is self-delimiting.
//!
//! Beside the buffer sits an index of every queue's separator offset.
//! Reading a queue is a slice of the buffer; pushing or popping a
//! message splices six bytes and shifts the offsets of the later queues.
//! So encoding is a borrow ([`GlobalState::as_bytes`]) or one copy,
//! decoding ([`GlobalState::decode_into`]) is one validating scan plus
//! one copy, and copying a state copies only its encoded length. The
//! buffer is allocated once, at the longest encoding the config allows
//! (every queue full), and never grows. Queue capacities are enforced by
//! [`GlobalState::push_back`] and checked by decoding.
//!
//! The bytes are the encoding of the nested representation this layout
//! replaced, so keys, checkpoints and witnesses are unchanged, and the
//! derived `Eq` and `Hash` mean "same encoding" for states of one config.

use crate::config::{InjectionBudget, McConfig};
use vnet_protocol::{ProtocolSpec, StateId};

/// An endpoint of the system: a cache or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// Cache `i`.
    Cache(u8),
    /// Directory `i`.
    Dir(u8),
}

impl Node {
    /// Flat endpoint index (caches first, then directories).
    pub fn index(self, n_caches: usize) -> usize {
        match self {
            Node::Cache(i) => i as usize,
            Node::Dir(i) => n_caches + i as usize,
        }
    }

    /// The node's encoding byte: `i` for a cache, `0x80 | i` for a
    /// directory.
    fn code(self) -> u8 {
        match self {
            Node::Cache(i) => i,
            Node::Dir(i) => 0x80 | i,
        }
    }

    /// Inverse of [`Node::code`].
    fn from_code(v: u8) -> Node {
        if v & 0x80 != 0 {
            Node::Dir(v & 0x7f)
        } else {
            Node::Cache(v)
        }
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Cache(i) => write!(f, "C{}", i + 1),
            Node::Dir(i) => write!(f, "Dir{}", i + 1),
        }
    }
}

/// A message instance in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Msg {
    /// The static message name.
    pub msg: u8,
    /// The cache-block address.
    pub addr: u8,
    /// Sender.
    pub src: Node,
    /// Destination.
    pub dst: Node,
    /// The transaction's original requestor (a cache index).
    pub requestor: u8,
    /// Carried ack count.
    pub ack: i8,
}

/// Bytes per encoded cache line.
const LINE_LEN: usize = 5;
/// Bytes per encoded directory line.
const DIR_LEN: usize = 4;
/// Bytes per encoded message.
pub(crate) const MSG_LEN: usize = 6;

/// Separator byte ahead of each global buffer in the encoding.
const GLOBAL_SEP: u8 = 0xfe;
/// Separator byte ahead of each endpoint FIFO in the encoding. Message
/// ids stay below both separators.
const FIFO_SEP: u8 = 0xfd;

/// The largest queue capacity a state can hold.
pub(crate) const MAX_QUEUE_CAPACITY: usize = u8::MAX as usize;

impl Msg {
    /// Pretty form, e.g. `Fwd-GetM(X) C1→C2 req=C3 ack=1`.
    pub fn display(&self, spec: &ProtocolSpec) -> String {
        let mut s = String::new();
        self.display_into(spec, &mut s);
        s
    }

    /// [`Msg::display`] into a caller-provided buffer (appends), for
    /// label rendering without a fresh allocation per message.
    pub fn display_into(&self, spec: &ProtocolSpec, out: &mut String) {
        use std::fmt::Write;
        let addr = (b'X' + self.addr) as char;
        let _ = write!(
            out,
            "{}({}) {}\u{2192}{} req=C{}",
            spec.message_name(vnet_protocol::MsgId(self.msg as usize)),
            addr,
            self.src,
            self.dst,
            self.requestor + 1
        );
        if self.ack != 0 {
            let _ = write!(out, " ack={}", self.ack);
        }
    }

    pub(crate) fn encode(&self) -> [u8; MSG_LEN] {
        debug_assert!(
            self.msg < FIFO_SEP,
            "message ids must stay below the separators"
        );
        [
            self.msg,
            self.addr,
            self.src.code(),
            self.dst.code(),
            self.requestor,
            self.ack as u8,
        ]
    }

    /// Reads the message at the front of `b`, which holds at least
    /// [`MSG_LEN`] bytes.
    pub(crate) fn decode(b: &[u8]) -> Msg {
        Msg {
            msg: b[0],
            addr: b[1],
            src: Node::from_code(b[2]),
            dst: Node::from_code(b[3]),
            requestor: b[4],
            ack: b[5] as i8,
        }
    }
}

/// Per-(cache, address) protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CacheLine {
    /// FSM state.
    pub state: u8,
    /// Outstanding invalidation-ack balance (may go negative while acks
    /// race the data).
    pub needed_acks: i8,
    /// Deferred-reader set (bitmask over cache ids).
    pub readers: u8,
    /// Deferred writer: `(cache id, stored ack count)`.
    pub writer: Option<(u8, i8)>,
}

impl CacheLine {
    fn encode(&self) -> [u8; LINE_LEN] {
        let (w, a) = match self.writer {
            None => (0xff, 0),
            Some((w, a)) => (w, a as u8),
        };
        [self.state, self.needed_acks as u8, self.readers, w, a]
    }

    fn decode(b: &[u8]) -> CacheLine {
        CacheLine {
            state: b[0],
            needed_acks: b[1] as i8,
            readers: b[2],
            writer: match (b[3], b[4]) {
                (0xff, 0) => None,
                (w, a) => Some((w, a as i8)),
            },
        }
    }
}

/// Per-address directory state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DirLine {
    /// FSM state.
    pub state: u8,
    /// Recorded owner cache.
    pub owner: Option<u8>,
    /// Sharer set (bitmask over cache ids).
    pub sharers: u8,
    /// Outstanding snoop-ack count.
    pub pending: i8,
}

impl DirLine {
    fn encode(&self) -> [u8; DIR_LEN] {
        [
            self.state,
            self.owner.unwrap_or(0xff),
            self.sharers,
            self.pending as u8,
        ]
    }

    fn decode(b: &[u8]) -> DirLine {
        DirLine {
            state: b[0],
            owner: if b[1] == 0xff { None } else { Some(b[1]) },
            sharers: b[2],
            pending: b[3] as i8,
        }
    }
}

/// The shape a config fixes for every state of a run, with the byte
/// offsets of the fixed-size sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Layout {
    n_caches: usize,
    n_addrs: usize,
    /// Global buffers: queues `0..n_global`.
    n_global: usize,
    /// Endpoint FIFOs: queues `n_global..n_global + n_fifos`.
    n_fifos: usize,
    global_cap: usize,
    endpoint_cap: usize,
    /// Offset of the directory lines (the cache lines start at 0).
    dirs_at: usize,
    /// Offset of the budgets.
    budgets_at: usize,
    /// Offset of the injection mask; the first separator follows it.
    mask_at: usize,
}

impl Layout {
    fn of(cfg: &McConfig) -> Layout {
        let n_vns = cfg.vns.n_vns();
        let n_budgets = match cfg.budget {
            InjectionBudget::PerCache(_) => cfg.n_caches,
            InjectionBudget::Explicit(_) => 0,
        };
        let dirs_at = cfg.n_caches * cfg.n_addrs * LINE_LEN;
        let budgets_at = dirs_at + cfg.n_addrs * DIR_LEN;
        Layout {
            n_caches: cfg.n_caches,
            n_addrs: cfg.n_addrs,
            n_global: n_vns * 2,
            n_fifos: cfg.n_endpoints() * n_vns,
            global_cap: cfg.global_capacity.min(MAX_QUEUE_CAPACITY),
            endpoint_cap: cfg.endpoint_capacity.min(MAX_QUEUE_CAPACITY),
            dirs_at,
            budgets_at,
            mask_at: budgets_at + n_budgets,
        }
    }

    fn n_queues(&self) -> usize {
        self.n_global + self.n_fifos
    }

    fn cap(&self, q: usize) -> usize {
        if q < self.n_global {
            self.global_cap
        } else {
            self.endpoint_cap
        }
    }

    fn sep(&self, q: usize) -> u8 {
        if q < self.n_global {
            GLOBAL_SEP
        } else {
            FIFO_SEP
        }
    }

    /// Length of everything ahead of the first separator.
    fn header_len(&self) -> usize {
        self.mask_at + 4
    }

    /// Length of the encoding with every queue empty.
    fn empty_len(&self) -> usize {
        self.header_len() + self.n_queues()
    }

    /// Length of the encoding with every queue full.
    fn max_len(&self) -> usize {
        let slots = self.n_global * self.global_cap + self.n_fifos * self.endpoint_cap;
        self.empty_len() + slots * MSG_LEN
    }

    /// Checks that `bytes` encodes a state of this shape and writes each
    /// queue's separator offset into `seps` (whose last entry becomes the
    /// length). Returns `false`, with `seps` unspecified, on a wrong
    /// separator, a truncated message, a queue over its capacity or
    /// trailing bytes.
    fn index(&self, bytes: &[u8], seps: &mut [u32]) -> bool {
        let Some((len, queues)) = seps.split_last_mut() else {
            return false;
        };
        let mut pos = self.header_len();
        for (q, sep) in queues.iter_mut().enumerate() {
            if bytes.get(pos) != Some(&self.sep(q)) {
                return false;
            }
            *sep = pos as u32;
            let end = pos + 1 + self.cap(q) * MSG_LEN;
            pos += 1;
            while bytes.get(pos).is_some_and(|&b| b < FIFO_SEP) {
                pos += MSG_LEN;
                // A queue longer than its capacity is no reachable state.
                if pos > end || pos > bytes.len() {
                    return false;
                }
            }
        }
        *len = pos as u32;
        pos == bytes.len()
    }
}

/// A read-only view of one queue: its messages, head first, as they sit
/// in the state's encoding.
#[derive(Debug, Clone, Copy)]
pub struct Queue<'a> {
    bytes: &'a [u8],
}

impl<'a> Queue<'a> {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.bytes.len() / MSG_LEN
    }

    /// `true` when the queue holds no message.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The head message.
    pub fn first(&self) -> Option<Msg> {
        self.bytes.get(..MSG_LEN).map(Msg::decode)
    }

    /// The messages, head first.
    pub fn iter(&self) -> impl Iterator<Item = Msg> + 'a {
        self.bytes.chunks_exact(MSG_LEN).map(Msg::decode)
    }

    /// The encoded messages, 6 bytes each, without the separator.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// The complete system state: its canonical encoding plus an index of
/// where each queue starts (module docs).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct GlobalState {
    layout: Layout,
    /// The canonical encoding; its capacity is the layout's `max_len`.
    bytes: Vec<u8>,
    /// `seps[q]`: offset of queue `q`'s separator; the last entry is
    /// the encoding's length.
    seps: Box<[u32]>,
}

impl Clone for GlobalState {
    /// Clones at full capacity, so the clone never reallocates either.
    fn clone(&self) -> Self {
        let mut bytes = Vec::with_capacity(self.layout.max_len());
        bytes.extend_from_slice(&self.bytes);
        GlobalState {
            layout: self.layout,
            bytes,
            seps: self.seps.clone(),
        }
    }
}

impl GlobalState {
    /// A state of `layout` with default lines, zero budgets and empty
    /// queues.
    fn blank(layout: Layout) -> Self {
        let mut gs = GlobalState {
            layout,
            bytes: Vec::with_capacity(layout.max_len()),
            seps: vec![0; layout.n_queues() + 1].into(),
        };
        gs.reset();
        gs
    }

    /// Overwrites every section with [`GlobalState::blank`]'s contents.
    fn reset(&mut self) {
        let l = self.layout;
        self.bytes.clear();
        for _ in 0..l.n_caches * l.n_addrs {
            self.bytes.extend_from_slice(&CacheLine::default().encode());
        }
        for _ in 0..l.n_addrs {
            self.bytes.extend_from_slice(&DirLine::default().encode());
        }
        self.bytes.resize(l.header_len(), 0);
        self.clear_queues();
    }

    /// The initial state: every controller in its initial state, all
    /// buffers empty, full budgets.
    pub fn initial(spec: &ProtocolSpec, cfg: &McConfig) -> Self {
        let mut gs = GlobalState::blank(Layout::of(cfg));
        let cache_init = spec.cache().initial().index() as u8;
        let dir_init = spec.directory().initial().index() as u8;
        let l = gs.layout;
        gs.bytes[..l.dirs_at]
            .chunks_exact_mut(LINE_LEN)
            .for_each(|b| b[0] = cache_init);
        gs.bytes[l.dirs_at..l.budgets_at]
            .chunks_exact_mut(DIR_LEN)
            .for_each(|b| b[0] = dir_init);
        if let InjectionBudget::PerCache(b) = cfg.budget {
            gs.budgets_mut().fill(b);
        }
        gs
    }

    /// Number of caches.
    pub fn n_caches(&self) -> usize {
        self.layout.n_caches
    }

    /// Number of addresses.
    pub fn n_addrs(&self) -> usize {
        self.layout.n_addrs
    }

    fn line_at(&self, c: usize, a: usize) -> usize {
        debug_assert!(c < self.n_caches() && a < self.layout.n_addrs);
        (c * self.layout.n_addrs + a) * LINE_LEN
    }

    fn dir_at(&self, a: usize) -> usize {
        debug_assert!(a < self.layout.n_addrs);
        self.layout.dirs_at + a * DIR_LEN
    }

    /// Cache `c`'s line for address `a`.
    pub fn line(&self, c: usize, a: usize) -> CacheLine {
        let at = self.line_at(c, a);
        CacheLine::decode(&self.bytes[at..at + LINE_LEN])
    }

    /// Overwrites cache `c`'s line for address `a`.
    pub fn set_line(&mut self, c: usize, a: usize, line: CacheLine) {
        let at = self.line_at(c, a);
        self.bytes[at..at + LINE_LEN].copy_from_slice(&line.encode());
    }

    /// Applies `f` to cache `c`'s line for address `a` and stores the
    /// result, returning what `f` returns.
    pub fn update_line<R>(&mut self, c: usize, a: usize, f: impl FnOnce(&mut CacheLine) -> R) -> R {
        let mut line = self.line(c, a);
        let r = f(&mut line);
        self.set_line(c, a, line);
        r
    }

    /// Cache `c`'s lines, by address.
    pub fn row(&self, c: usize) -> impl Iterator<Item = CacheLine> + '_ {
        let at = self.line_at(c, 0);
        self.bytes[at..at + self.layout.n_addrs * LINE_LEN]
            .chunks_exact(LINE_LEN)
            .map(CacheLine::decode)
    }

    /// The home directory line for address `a`.
    pub fn dir(&self, a: usize) -> DirLine {
        let at = self.dir_at(a);
        DirLine::decode(&self.bytes[at..at + DIR_LEN])
    }

    /// Overwrites the directory line for address `a`.
    pub fn set_dir(&mut self, a: usize, dir: DirLine) {
        let at = self.dir_at(a);
        self.bytes[at..at + DIR_LEN].copy_from_slice(&dir.encode());
    }

    /// Applies `f` to the directory line for address `a` and stores the
    /// result, returning what `f` returns.
    pub fn update_dir<R>(&mut self, a: usize, f: impl FnOnce(&mut DirLine) -> R) -> R {
        let mut dir = self.dir(a);
        let r = f(&mut dir);
        self.set_dir(a, dir);
        r
    }

    /// Every directory line, by address.
    pub fn dirs(&self) -> impl Iterator<Item = DirLine> + '_ {
        self.bytes[self.layout.dirs_at..self.layout.budgets_at]
            .chunks_exact(DIR_LEN)
            .map(DirLine::decode)
    }

    /// Remaining per-cache budgets (uniform mode); empty in explicit mode.
    pub fn budgets(&self) -> &[u8] {
        &self.bytes[self.layout.budgets_at..self.layout.mask_at]
    }

    /// Mutable [`GlobalState::budgets`].
    pub fn budgets_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[self.layout.budgets_at..self.layout.mask_at]
    }

    /// Bitmask of already-issued scripted injections (explicit mode).
    pub fn used_injections(&self) -> u32 {
        let at = self.layout.mask_at;
        let mut mask = [0; 4];
        mask.copy_from_slice(&self.bytes[at..at + 4]);
        u32::from_le_bytes(mask)
    }

    /// Overwrites [`GlobalState::used_injections`].
    pub fn set_used_injections(&mut self, mask: u32) {
        let at = self.layout.mask_at;
        self.bytes[at..at + 4].copy_from_slice(&mask.to_le_bytes());
    }

    /// Number of global buffers (`2 · n_vns`); they are queues
    /// `0..n_global_bufs()`, buffer `vn * 2 + b` at queue `vn * 2 + b`.
    pub fn n_global_bufs(&self) -> usize {
        self.layout.n_global
    }

    /// Number of endpoint FIFOs (`n_endpoints · n_vns`).
    pub fn n_endpoint_fifos(&self) -> usize {
        self.layout.n_fifos
    }

    /// Number of queues: the global buffers, then the endpoint FIFOs.
    pub fn n_queues(&self) -> usize {
        self.layout.n_queues()
    }

    /// Queue index of endpoint FIFO `fi` (`endpoint * n_vns + vn`).
    pub fn fifo_queue(&self, fi: usize) -> usize {
        self.layout.n_global + fi
    }

    /// The messages in queue `q`, head first.
    pub fn queue(&self, q: usize) -> Queue<'_> {
        Queue {
            bytes: &self.bytes[self.seps[q] as usize + 1..self.seps[q + 1] as usize],
        }
    }

    /// `true` when queue `q` holds as many messages as its capacity.
    pub fn is_full(&self, q: usize) -> bool {
        let held = (self.seps[q + 1] - self.seps[q] - 1) as usize;
        held >= self.layout.cap(q) * MSG_LEN
    }

    /// Moves the separators after queue `q` by `delta` bytes (a
    /// wrapping add, so a negated delta moves them back).
    fn shift_after(&mut self, q: usize, delta: u32) {
        for s in &mut self.seps[q + 1..] {
            *s = s.wrapping_add(delta);
        }
    }

    /// Appends `m` to queue `q`; returns `false`, writing nothing, when
    /// the queue is full.
    pub fn push_back(&mut self, q: usize, m: Msg) -> bool {
        if self.is_full(q) {
            return false;
        }
        let at = self.seps[q + 1] as usize;
        let len = self.bytes.len();
        self.bytes.extend_from_slice(&[0; MSG_LEN]);
        self.bytes.copy_within(at..len, at + MSG_LEN);
        self.bytes[at..at + MSG_LEN].copy_from_slice(&m.encode());
        self.shift_after(q, MSG_LEN as u32);
        true
    }

    /// Removes the message of queue `q` that starts at byte `at`.
    fn remove(&mut self, q: usize, at: usize) -> Msg {
        let m = Msg::decode(&self.bytes[at..at + MSG_LEN]);
        self.bytes.copy_within(at + MSG_LEN.., at);
        self.bytes.truncate(self.bytes.len() - MSG_LEN);
        self.shift_after(q, (MSG_LEN as u32).wrapping_neg());
        m
    }

    /// Removes and returns the head of queue `q`.
    pub fn pop_front(&mut self, q: usize) -> Option<Msg> {
        let head = self.seps[q] as usize + 1;
        (head < self.seps[q + 1] as usize).then(|| self.remove(q, head))
    }

    /// Removes and returns the tail of queue `q`.
    pub fn pop_back(&mut self, q: usize) -> Option<Msg> {
        let tail = (self.seps[q + 1] as usize).checked_sub(MSG_LEN)?;
        (tail > self.seps[q] as usize).then(|| self.remove(q, tail))
    }

    /// Empties every queue.
    pub fn clear_queues(&mut self) {
        let l = self.layout;
        self.bytes.truncate(l.header_len());
        for q in 0..l.n_queues() {
            self.seps[q] = self.bytes.len() as u32;
            self.bytes.push(l.sep(q));
        }
        self.seps[l.n_queues()] = self.bytes.len() as u32;
    }

    /// `true` if nothing is in flight and every controller sits in a
    /// stable state — the good kind of "nothing enabled".
    pub fn is_quiescent(&self, spec: &ProtocolSpec) -> bool {
        if self.messages_in_flight() != 0 {
            return false;
        }
        let l = self.layout;
        let cache_stable = self.bytes[..l.dirs_at]
            .chunks_exact(LINE_LEN)
            .all(|b| !spec.cache().state(StateId(b[0] as usize)).is_transient());
        let dir_stable = self.bytes[l.dirs_at..l.budgets_at]
            .chunks_exact(DIR_LEN)
            .all(|b| !spec.directory().state(StateId(b[0] as usize)).is_transient());
        cache_stable && dir_stable
    }

    /// Copies `other` into `self`: its encoded length and queue index,
    /// with no allocation for states of one config; a state of another
    /// shape is cloned instead.
    pub fn copy_from(&mut self, other: &GlobalState) {
        if self.layout != other.layout {
            *self = other.clone();
            return;
        }
        self.bytes.clear();
        self.bytes.extend_from_slice(&other.bytes);
        self.seps.copy_from_slice(&other.seps);
    }

    /// The canonical byte encoding, borrowed: what the explorers intern.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Canonical byte encoding for hashing/deduplication.
    pub fn encode(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// [`GlobalState::encode`] into a caller-owned buffer (cleared
    /// first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.bytes);
    }

    /// Inverse of [`GlobalState::encode`]: reconstructs the state from
    /// its canonical bytes, given the config that fixes the shapes
    /// (cache/directory counts, budget mode, VN count, queue
    /// capacities). The encoding is self-delimiting under a fixed
    /// config — message ids stay below the `0xfe`/`0xfd` buffer
    /// separators and messages are exactly 6 bytes, so a separator at a
    /// message boundary is unambiguous. Returns `None` on any
    /// structural mismatch, including a queue holding more messages
    /// than its capacity, instead of panicking; the explorers treat
    /// that as corruption.
    pub fn decode(bytes: &[u8], cfg: &McConfig) -> Option<GlobalState> {
        let mut gs = GlobalState::blank(Layout::of(cfg));
        GlobalState::decode_into(bytes, cfg, &mut gs).then_some(gs)
    }

    /// [`GlobalState::decode`] into a reused state: one scan that checks
    /// the structure and indexes the queues, then one copy. Returns
    /// `false` on the same malformed input `decode` rejects, leaving
    /// `out` a valid but unspecified state of `cfg`. Decoding into a
    /// state of the same config allocates nothing.
    pub fn decode_into(bytes: &[u8], cfg: &McConfig, out: &mut GlobalState) -> bool {
        let layout = Layout::of(cfg);
        if out.layout != layout {
            *out = GlobalState::blank(layout);
        }
        if !layout.index(bytes, &mut out.seps) {
            out.reset();
            return false;
        }
        out.bytes.clear();
        out.bytes.extend_from_slice(bytes);
        true
    }

    /// Total number of in-flight messages.
    pub fn messages_in_flight(&self) -> usize {
        (self.bytes.len() - self.layout.empty_len()) / MSG_LEN
    }

    /// Multi-line human dump (used in traces).
    pub fn dump(&self, spec: &ProtocolSpec, cfg: &McConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in 0..self.n_caches() {
            let states: Vec<String> = self
                .row(c)
                .enumerate()
                .map(|(a, l)| {
                    let name = &spec.cache().state(StateId(l.state as usize)).name;
                    let addr = (b'X' + a as u8) as char;
                    let mut s = format!("{addr}:{name}");
                    if l.needed_acks != 0 {
                        s.push_str(&format!("(acks {})", l.needed_acks));
                    }
                    s
                })
                .collect();
            let _ = writeln!(out, "  C{} {}", c + 1, states.join(" "));
        }
        for (a, d) in self.dirs().enumerate() {
            let name = &spec.directory().state(StateId(d.state as usize)).name;
            let addr = (b'X' + a as u8) as char;
            let owner = d.owner.map_or("-".to_string(), |o| format!("C{}", o + 1));
            let _ = writeln!(
                out,
                "  Dir-{addr} (Dir{}) {name} owner={owner} sharers={:#05b}",
                cfg.home_of(a) + 1,
                d.sharers
            );
        }
        let show = |q: usize| -> Option<String> {
            let msgs = self.queue(q);
            (!msgs.is_empty()).then(|| {
                let shown: Vec<String> = msgs.iter().map(|m| m.display(spec)).collect();
                shown.join(" | ")
            })
        };
        for i in 0..self.n_global_bufs() {
            if let Some(msgs) = show(i) {
                let _ = writeln!(out, "  glob[vn{} b{}]: {msgs}", i / 2, i % 2);
            }
        }
        let n_vns = cfg.vns.n_vns();
        for i in 0..self.n_endpoint_fifos() {
            if let Some(msgs) = show(self.fifo_queue(i)) {
                let ep = i / n_vns;
                let vn = i % n_vns;
                let node = if ep < cfg.n_caches {
                    format!("C{}", ep + 1)
                } else {
                    format!("Dir{}", ep - cfg.n_caches + 1)
                };
                let _ = writeln!(out, "  in[{node} vn{vn}]: {msgs}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InjectionBudget, McConfig, VnMap};
    use crate::rules::{expand, ExpandOutcome, Scratch};
    use vnet_protocol::protocols;

    #[test]
    fn initial_state_is_quiescent() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let s = GlobalState::initial(&spec, &cfg);
        assert!(s.is_quiescent(&spec));
        assert_eq!(s.messages_in_flight(), 0);
        assert_eq!(s.budgets(), [2, 2, 2]);
    }

    #[test]
    fn explicit_budget_has_no_uniform_budgets() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let s = GlobalState::initial(&spec, &cfg);
        assert!(s.budgets().is_empty());
        assert_eq!(s.used_injections(), 0);
    }

    #[test]
    fn encoding_distinguishes_states() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let s0 = GlobalState::initial(&spec, &cfg);
        let mut s1 = s0.clone();
        s1.update_line(0, 0, |l| l.state = 5);
        assert_ne!(s0.encode(), s1.encode());
        let mut s2 = s0.clone();
        s2.push_back(
            0,
            Msg {
                msg: 0,
                addr: 0,
                src: Node::Cache(0),
                dst: Node::Dir(0),
                requestor: 0,
                ack: 0,
            },
        );
        assert_ne!(s0.encode(), s2.encode());
    }

    #[test]
    fn encoding_is_stable() {
        let spec = protocols::chi();
        let cfg = McConfig::general(&spec);
        let s = GlobalState::initial(&spec, &cfg);
        assert_eq!(s.encode(), s.clone().encode());
    }

    #[test]
    fn buffer_boundaries_are_unambiguous() {
        // A message at the tail of buffer 0 must encode differently from
        // the same message at the head of buffer 1.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let m = Msg {
            msg: 1,
            addr: 0,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        let mut a = GlobalState::initial(&spec, &cfg);
        a.push_back(0, m);
        let mut b = GlobalState::initial(&spec, &cfg);
        b.push_back(1, m);
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn decode_inverts_encode() {
        // Shapes from several protocols and both budget modes; states
        // mutated with in-flight messages in global and endpoint
        // buffers, deferred writers, and spent budgets.
        for (spec, cfg) in [
            (
                protocols::msi_blocking_cache(),
                McConfig::figure3(&protocols::msi_blocking_cache()),
            ),
            (
                protocols::msi_blocking_cache(),
                McConfig::general(&protocols::msi_blocking_cache()),
            ),
            (protocols::chi(), McConfig::general(&protocols::chi())),
        ] {
            let mut s = GlobalState::initial(&spec, &cfg);
            let round = |s: &GlobalState, cfg: &McConfig| {
                let enc = s.encode();
                let back = GlobalState::decode(&enc, cfg).expect("decode failed");
                assert_eq!(&back, s);
                assert_eq!(back.encode(), enc);
            };
            round(&s, &cfg);
            s.update_line(0, 0, |l| {
                l.state = 2;
                l.writer = Some((1, -1));
            });
            s.update_dir(0, |d| {
                d.owner = Some(0);
                d.pending = -2;
            });
            if !s.budgets().is_empty() {
                s.budgets_mut()[0] = 0;
            }
            s.set_used_injections(0x01020304);
            let m = Msg {
                msg: 1,
                addr: 0,
                src: Node::Cache(1),
                dst: Node::Dir(0),
                requestor: 1,
                ack: -1,
            };
            s.push_back(0, m);
            s.push_back(0, m);
            let last = s.n_queues() - 1;
            s.push_back(last, m);
            round(&s, &cfg);
        }
    }

    #[test]
    fn decode_rejects_malformed_bytes() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let enc = GlobalState::initial(&spec, &cfg).encode();
        // Truncation, trailing garbage, and a corrupted separator must
        // all come back None, never panic.
        assert!(GlobalState::decode(&enc[..enc.len() - 1], &cfg).is_none());
        let mut long = enc.clone();
        long.push(0);
        assert!(GlobalState::decode(&long, &cfg).is_none());
        let mut bad_sep = enc.clone();
        let sep_at = bad_sep.iter().position(|&b| b == 0xfe).unwrap();
        bad_sep[sep_at] = 0xfd;
        assert!(GlobalState::decode(&bad_sep, &cfg).is_none());
        assert!(GlobalState::decode(&[], &cfg).is_none());
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let s = GlobalState::initial(&spec, &cfg);
        let mut buf = vec![0xAA; 512];
        s.encode_into(&mut buf);
        assert_eq!(buf, s.encode());
    }

    #[test]
    fn node_display_and_index() {
        assert_eq!(Node::Cache(0).to_string(), "C1");
        assert_eq!(Node::Dir(1).to_string(), "Dir2");
        assert_eq!(Node::Cache(2).index(3), 2);
        assert_eq!(Node::Dir(0).index(3), 3);
    }

    #[test]
    fn budget_is_part_of_identity() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec).with_budget(InjectionBudget::PerCache(1));
        let s0 = GlobalState::initial(&spec, &cfg);
        let mut s1 = s0.clone();
        s1.budgets_mut()[0] = 0;
        assert_ne!(s0.encode(), s1.encode());
    }

    fn probe_msg(msg: u8) -> Msg {
        Msg {
            msg,
            addr: 1,
            src: Node::Cache(2),
            dst: Node::Dir(1),
            requestor: 2,
            ack: 1,
        }
    }

    #[test]
    fn queues_are_fifo_and_bounded_by_their_capacity() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let mut s = GlobalState::initial(&spec, &cfg);
        let q = s.fifo_queue(0);
        for i in 0..cfg.endpoint_capacity as u8 {
            assert!(s.push_back(q, probe_msg(i)));
        }
        assert!(s.is_full(q));
        assert!(
            !s.push_back(q, probe_msg(9)),
            "a full queue refuses the push"
        );
        assert_eq!(s.queue(q).len(), cfg.endpoint_capacity);
        assert_eq!(s.pop_front(q).map(|m| m.msg), Some(0));
        assert_eq!(
            s.pop_back(q).map(|m| m.msg),
            Some(cfg.endpoint_capacity as u8 - 1)
        );
        assert_eq!(s.queue(q).first().map(|m| m.msg), Some(1));
        assert_eq!(s.messages_in_flight(), cfg.endpoint_capacity - 2);
    }

    /// A state that held and released a message equals (and hashes
    /// like) one that never held it.
    #[test]
    fn released_slots_leave_no_trace_in_equality() {
        let spec = protocols::chi();
        let cfg = McConfig::general(&spec);
        let s0 = GlobalState::initial(&spec, &cfg);
        let mut s = s0.clone();
        for q in [0, s.fifo_queue(0)] {
            s.push_back(q, probe_msg(1));
            s.push_back(q, probe_msg(2));
            s.pop_front(q);
            s.pop_back(q);
        }
        assert_eq!(s, s0);
        s.push_back(0, probe_msg(3));
        s.clear_queues();
        assert_eq!(s, s0);
    }

    /// A queue holding one message more than its capacity is no state of
    /// the config: `decode` and `decode_into` refuse it.
    #[test]
    fn decode_rejects_a_queue_over_its_capacity() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let mut s = GlobalState::initial(&spec, &cfg);
        let q = s.fifo_queue(0);
        while s.push_back(q, probe_msg(1)) {}
        let full = s.encode();
        assert_eq!(GlobalState::decode(&full, &cfg).as_ref(), Some(&s));
        // Splice one more message in after the FIFO's last one.
        let fifo_sep = full.iter().position(|&b| b == 0xfd).unwrap_or(full.len());
        let at = fifo_sep + 1 + 6 * cfg.endpoint_capacity;
        let mut over = full.clone();
        over.splice(at..at, probe_msg(1).encode());
        assert!(GlobalState::decode(&over, &cfg).is_none());
        let mut reused = s.clone();
        assert!(!GlobalState::decode_into(&over, &cfg, &mut reused));
        assert!(GlobalState::decode_into(&full, &cfg, &mut reused));
        assert_eq!(reused, s);
    }

    /// The nested representation the byte-backed state replaced — a
    /// vector per cache row and a deque per queue — with its own encoder
    /// and decoder, kept as the oracle the byte-backed state must agree
    /// with.
    mod nested {
        use super::super::{CacheLine, DirLine, GlobalState, Msg, Node};
        use crate::config::{InjectionBudget, McConfig};
        use std::collections::VecDeque;

        #[derive(Debug, PartialEq, Eq)]
        pub struct Nested {
            caches: Vec<Vec<CacheLine>>,
            dirs: Vec<DirLine>,
            budgets: Vec<u8>,
            used_injections: u32,
            global_bufs: Vec<VecDeque<Msg>>,
            endpoint_fifos: Vec<VecDeque<Msg>>,
        }

        impl Nested {
            /// The nested view of `gs`, read through its accessors.
            pub fn of(gs: &GlobalState) -> Nested {
                let queues = |qs: std::ops::Range<usize>| -> Vec<VecDeque<Msg>> {
                    qs.map(|q| gs.queue(q).iter().collect()).collect()
                };
                Nested {
                    caches: (0..gs.n_caches()).map(|c| gs.row(c).collect()).collect(),
                    dirs: gs.dirs().collect(),
                    budgets: gs.budgets().to_vec(),
                    used_injections: gs.used_injections(),
                    global_bufs: queues(0..gs.n_global_bufs()),
                    endpoint_fifos: queues(gs.n_global_bufs()..gs.n_queues()),
                }
            }

            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                for row in &self.caches {
                    for l in row {
                        out.push(l.state);
                        out.push(l.needed_acks as u8);
                        out.push(l.readers);
                        match l.writer {
                            None => out.extend([0xff, 0]),
                            Some((w, a)) => out.extend([w, a as u8]),
                        }
                    }
                }
                for d in &self.dirs {
                    out.push(d.state);
                    out.push(d.owner.map_or(0xff, |o| o));
                    out.push(d.sharers);
                    out.push(d.pending as u8);
                }
                out.extend(&self.budgets);
                out.extend(self.used_injections.to_le_bytes());
                let enc_msg = |out: &mut Vec<u8>, m: &Msg| {
                    out.push(m.msg);
                    out.push(m.addr);
                    for n in [m.src, m.dst] {
                        out.push(match n {
                            Node::Cache(i) => i,
                            Node::Dir(i) => 0x80 | i,
                        });
                    }
                    out.push(m.requestor);
                    out.push(m.ack as u8);
                };
                for buf in &self.global_bufs {
                    out.push(0xfe);
                    buf.iter().for_each(|m| enc_msg(&mut out, m));
                }
                for fifo in &self.endpoint_fifos {
                    out.push(0xfd);
                    fifo.iter().for_each(|m| enc_msg(&mut out, m));
                }
                out
            }

            /// The historical decoder: any number of messages per queue.
            pub fn decode(bytes: &[u8], cfg: &McConfig) -> Option<Nested> {
                let mut pos = 0usize;
                let mut take = |n: usize| -> Option<&[u8]> {
                    let s = bytes.get(pos..pos + n)?;
                    pos += n;
                    Some(s)
                };
                let mut caches = Vec::new();
                for _ in 0..cfg.n_caches {
                    let mut row = Vec::new();
                    for _ in 0..cfg.n_addrs {
                        let b = take(5)?;
                        row.push(CacheLine {
                            state: b[0],
                            needed_acks: b[1] as i8,
                            readers: b[2],
                            writer: match (b[3], b[4]) {
                                (0xff, 0) => None,
                                (w, a) => Some((w, a as i8)),
                            },
                        });
                    }
                    caches.push(row);
                }
                let mut dirs = Vec::new();
                for _ in 0..cfg.n_addrs {
                    let b = take(4)?;
                    dirs.push(DirLine {
                        state: b[0],
                        owner: if b[1] == 0xff { None } else { Some(b[1]) },
                        sharers: b[2],
                        pending: b[3] as i8,
                    });
                }
                let n_budgets = match &cfg.budget {
                    InjectionBudget::PerCache(_) => cfg.n_caches,
                    InjectionBudget::Explicit(_) => 0,
                };
                let budgets = take(n_budgets)?.to_vec();
                let ui = take(4)?;
                let used_injections = u32::from_le_bytes([ui[0], ui[1], ui[2], ui[3]]);
                let node = |v: u8| {
                    if v & 0x80 != 0 {
                        Node::Dir(v & 0x7f)
                    } else {
                        Node::Cache(v)
                    }
                };
                let mut dec_buf = |sep: u8| -> Option<VecDeque<Msg>> {
                    if *bytes.get(pos)? != sep {
                        return None;
                    }
                    pos += 1;
                    let mut buf = VecDeque::new();
                    while pos < bytes.len() && bytes[pos] < 0xfd {
                        let b = bytes.get(pos..pos + 6)?;
                        buf.push_back(Msg {
                            msg: b[0],
                            addr: b[1],
                            src: node(b[2]),
                            dst: node(b[3]),
                            requestor: b[4],
                            ack: b[5] as i8,
                        });
                        pos += 6;
                    }
                    Some(buf)
                };
                let n_vns = cfg.vns.n_vns();
                let mut global_bufs = Vec::new();
                for _ in 0..n_vns * 2 {
                    global_bufs.push(dec_buf(0xfe)?);
                }
                let mut endpoint_fifos = Vec::new();
                for _ in 0..cfg.n_endpoints() * n_vns {
                    endpoint_fifos.push(dec_buf(0xfd)?);
                }
                (pos == bytes.len()).then_some(Nested {
                    caches,
                    dirs,
                    budgets,
                    used_injections,
                    global_bufs,
                    endpoint_fifos,
                })
            }
        }
    }

    /// Every Table I protocol in the Figure-3 scenario under one VN per
    /// message (the most queues), and in the general scenario under its
    /// textbook map; plus the benchmark's symmetric 4-cache shape.
    fn oracle_shapes() -> Vec<(String, vnet_protocol::ProtocolSpec, McConfig)> {
        let mut out = Vec::new();
        for spec in protocols::all() {
            let unique = VnMap::one_per_message(spec.messages().len());
            let fig3 = McConfig::figure3(&spec).with_vns(unique);
            let general = McConfig::general(&spec);
            out.push((format!("{} fig3 unique", spec.name()), spec.clone(), fig3));
            out.push((format!("{} general", spec.name()), spec.clone(), general));
        }
        let msi = protocols::msi_blocking_cache();
        let sym4 = McConfig {
            n_caches: 4,
            n_dirs: 1,
            symmetry: true,
            ..McConfig::general(&msi)
        }
        .with_budget(InjectionBudget::PerCache(1));
        out.push(("MSI-blocking sym-4c".into(), msi, sym4));
        out
    }

    /// A seeded pseudo-random walk of `steps` rules through the real
    /// successor relation, so the oracle sees reachable states with
    /// queues at every depth.
    fn walk(
        spec: &vnet_protocol::ProtocolSpec,
        cfg: &McConfig,
        seed: u64,
        steps: usize,
    ) -> GlobalState {
        let mut cur = GlobalState::initial(spec, cfg);
        let mut next = cur.clone();
        let mut scratch = Scratch::new(spec, cfg);
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..steps {
            let mut seen = 0u64;
            let outcome = expand(spec, cfg, &cur, &mut scratch, |succ, _| {
                seen += 1;
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                // Reservoir pick: each successor survives with 1/seen.
                if (x >> 33).is_multiple_of(seen) {
                    next.copy_from(succ);
                }
                true
            });
            if seen == 0 || !matches!(outcome, ExpandOutcome::Done(_)) {
                break;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    #[test]
    fn flat_codec_matches_the_nested_oracle() -> Result<(), String> {
        for (name, spec, cfg) in oracle_shapes() {
            let mut reused = GlobalState::initial(&spec, &cfg);
            let mut in_flight = 0;
            for seed in 0..32u64 {
                let gs = walk(&spec, &cfg, seed, 6 + (seed as usize % 8) * 4);
                in_flight += gs.messages_in_flight();
                let oracle = nested::Nested::of(&gs);
                let bytes = gs.encode();
                if bytes != oracle.encode() {
                    return Err(format!(
                        "{name} seed {seed}: flat and nested encodings differ"
                    ));
                }
                if nested::Nested::decode(&bytes, &cfg).as_ref() != Some(&oracle) {
                    return Err(format!("{name} seed {seed}: nested decode disagrees"));
                }
                // `reused` still holds the previous seed's state.
                if !GlobalState::decode_into(&bytes, &cfg, &mut reused) || reused != gs {
                    return Err(format!(
                        "{name} seed {seed}: decode_into does not round-trip"
                    ));
                }
                if GlobalState::decode(&bytes, &cfg).as_ref() != Some(&gs) {
                    return Err(format!("{name} seed {seed}: decode does not round-trip"));
                }
            }
            if in_flight == 0 {
                return Err(format!("{name}: no walk left a message in flight"));
            }
        }
        Ok(())
    }

    /// Checks one state against the oracle: its bytes are the nested
    /// encoding of what its accessors read, and the historical decoder
    /// reads those bytes back as the same nested state.
    fn agrees_with_oracle(gs: &GlobalState, cfg: &McConfig) -> Result<(), String> {
        let read = nested::Nested::of(gs);
        if gs.as_bytes() != read.encode().as_slice() {
            return Err("bytes differ from the nested encoding of the reads".into());
        }
        if nested::Nested::decode(gs.as_bytes(), cfg).as_ref() != Some(&read) {
            return Err("accessor reads differ from the nested decoding".into());
        }
        let n_msgs: usize = (0..gs.n_queues()).map(|q| gs.queue(q).len()).sum();
        if n_msgs != gs.messages_in_flight() {
            return Err("queue lengths do not sum to the messages in flight".into());
        }
        Ok(())
    }

    /// Every successor of every state on the seeded walks — each rule
    /// fired, not only the one the walk takes — is checked against the
    /// oracle, so every queue splice and line write of the successor
    /// relation is covered.
    #[test]
    fn every_fired_rule_agrees_with_the_nested_oracle() -> Result<(), String> {
        for (name, spec, cfg) in oracle_shapes() {
            let mut scratch = Scratch::new(&spec, &cfg);
            let mut fired = 0usize;
            for seed in 0..8u64 {
                let mut cur = GlobalState::initial(&spec, &cfg);
                for step in 0..6 + (seed as usize % 8) * 4 {
                    agrees_with_oracle(&cur, &cfg)
                        .map_err(|e| format!("{name} seed {seed} step {step}: {e}"))?;
                    let mut bad = None;
                    expand(&spec, &cfg, &cur, &mut scratch, |succ, label| {
                        fired += 1;
                        if let Err(e) = agrees_with_oracle(succ, &cfg) {
                            bad = Some(format!("after `{}`: {e}", label.render(&spec)));
                        }
                        bad.is_none()
                    });
                    if let Some(e) = bad {
                        return Err(format!("{name} seed {seed} step {step}: {e}"));
                    }
                    cur = walk(&spec, &cfg, seed, step + 1);
                }
            }
            if fired == 0 {
                return Err(format!("{name}: no rule fired"));
            }
        }
        Ok(())
    }

    /// Random pushes and pops on several queues of one state, mirrored
    /// on a deque per queue: the views, the full flags and the encoding
    /// stay in step with the model after every operation.
    #[test]
    fn queue_splices_match_a_deque_model() {
        use std::collections::VecDeque;
        let spec = protocols::chi();
        let cfg = McConfig::general(&spec);
        let mut s = GlobalState::initial(&spec, &cfg);
        let mut model: Vec<VecDeque<Msg>> = vec![VecDeque::new(); s.n_queues()];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let q = (x >> 8) as usize % s.n_queues();
            match x % 3 {
                0 => assert_eq!(s.pop_front(q), model[q].pop_front()),
                1 => assert_eq!(s.pop_back(q), model[q].pop_back()),
                _ => {
                    let m = probe_msg((i % 200) as u8);
                    let pushed = model[q].len() < cap_of(&cfg, &s, q);
                    if pushed {
                        model[q].push_back(m);
                    }
                    assert_eq!(s.push_back(q, m), pushed);
                }
            }
            for (p, want) in model.iter().enumerate() {
                assert!(s.queue(p).iter().eq(want.iter().copied()), "queue {p} after op {i}");
                assert_eq!(s.is_full(p), want.len() >= cap_of(&cfg, &s, p));
            }
            assert_eq!(GlobalState::decode(s.as_bytes(), &cfg).as_ref(), Some(&s));
        }
    }

    fn cap_of(cfg: &McConfig, s: &GlobalState, q: usize) -> usize {
        if q < s.n_global_bufs() {
            cfg.global_capacity
        } else {
            cfg.endpoint_capacity
        }
    }

    /// Damage inside a queue fails closed: a message id byte of `0xff`
    /// (no separator), any separator-or-above id byte in the last queue,
    /// a truncated final message and one trailing byte of any kind are
    /// all refused. An id byte equal to a separator elsewhere can
    /// re-split the queues into another well-formed encoding; there the
    /// byte-backed decoder reads exactly what the historical one reads.
    #[test]
    fn decode_rejects_damage_inside_queues() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let mut s = GlobalState::initial(&spec, &cfg);
        let last = s.n_queues() - 1;
        let queues = [0, 1, s.fifo_queue(0), last];
        for q in queues {
            s.push_back(q, probe_msg(1));
            s.push_back(q, probe_msg(2));
        }
        let enc = s.encode();
        assert_eq!(GlobalState::decode(&enc, &cfg).as_ref(), Some(&s));
        let same_reading = |bytes: &[u8], what: &str| -> bool {
            let flat = GlobalState::decode(bytes, &cfg);
            let oracle = nested::Nested::decode(bytes, &cfg);
            assert_eq!(
                flat.as_ref().map(GlobalState::encode),
                oracle.as_ref().map(nested::Nested::encode),
                "{what}: the decoders disagree"
            );
            let mut reused = s.clone();
            assert_eq!(GlobalState::decode_into(bytes, &cfg, &mut reused), flat.is_some());
            // A failed decode leaves a usable state behind.
            assert_eq!(
                GlobalState::decode(reused.as_bytes(), &cfg).as_ref(),
                Some(&reused)
            );
            flat.is_some()
        };
        let rejected = |bytes: &[u8], what: &str| {
            assert!(!same_reading(bytes, what), "{what} accepted");
        };
        for q in queues {
            let head = s.seps[q] as usize + 1;
            for msg in [0, 1] {
                for bad in [0xfd, 0xfe, 0xff] {
                    let mut damaged = enc.clone();
                    damaged[head + msg * MSG_LEN] = bad;
                    let what = format!("id byte {bad:#x} in message {msg} of queue {q}");
                    if bad == 0xff || q == last {
                        rejected(&damaged, &what);
                    } else {
                        same_reading(&damaged, &what);
                    }
                }
            }
        }
        rejected(&enc[..enc.len() - 1], "a truncated final message");
        for extra in [0x00, 0x7f, 0xfd, 0xfe, 0xff] {
            let mut long = enc.clone();
            long.push(extra);
            rejected(&long, &format!("trailing byte {extra:#x}"));
        }
    }
}
