//! The global model-checking state and its canonical encoding.
//!
//! A [`GlobalState`] has one fixed layout per [`McConfig`], set when the
//! state is built. Every section is a flat slice of `Copy` values:
//!
//! - the cache lines, `n_caches × n_addrs`, row-major by cache;
//! - the directory lines, one per address;
//! - the per-cache injection budgets (empty under an explicit script)
//!   and the bitmask of scripted injections already issued;
//! - every queue as a length plus a fixed run of message slots: first
//!   the `2 · n_vns` global buffers (`global_capacity` slots each), then
//!   the `n_endpoints · n_vns` endpoint FIFOs (`endpoint_capacity` slots
//!   each). The successor rules never fill a queue past its capacity,
//!   so the slots always suffice.
//!
//! Copying a state is therefore a handful of slice copies, and decoding
//! into a reused state ([`GlobalState::decode_into`]) allocates nothing.
//! Slots past a queue's length are kept zeroed, so the derived `Eq` and
//! `Hash` mean "same encoding" for states of one config.
//!
//! The canonical byte encoding does not depend on the layout: it writes
//! the lines, directories, budgets and injection mask, then each queue's
//! messages after a one-byte separator (`0xfe` per global buffer, `0xfd`
//! per endpoint FIFO), never the empty slots. Keys, checkpoints and
//! witnesses written by the nested representation this layout replaced
//! read back unchanged.

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

/// The value every unused queue slot holds.
const EMPTY_SLOT: Msg = Msg {
    msg: 0,
    addr: 0,
    src: Node::Cache(0),
    dst: Node::Cache(0),
    requestor: 0,
    ack: 0,
};

/// Separator byte ahead of each global buffer in the encoding.
const GLOBAL_SEP: u8 = 0xfe;
/// Separator byte ahead of each endpoint FIFO in the encoding. Message
/// ids stay below both separators.
const FIFO_SEP: u8 = 0xfd;

/// The largest queue capacity a state can hold: queue lengths are `u8`.
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

    pub(crate) fn encode(&self) -> [u8; 6] {
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

    pub(crate) fn decode(b: [u8; 6]) -> Msg {
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
    fn encode(&self) -> [u8; 5] {
        let (w, a) = match self.writer {
            None => (0xff, 0),
            Some((w, a)) => (w, a as u8),
        };
        [self.state, self.needed_acks as u8, self.readers, w, a]
    }

    fn decode(b: [u8; 5]) -> CacheLine {
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
    fn encode(&self) -> [u8; 4] {
        [
            self.state,
            self.owner.unwrap_or(0xff),
            self.sharers,
            self.pending as u8,
        ]
    }

    fn decode(b: [u8; 4]) -> DirLine {
        DirLine {
            state: b[0],
            owner: if b[1] == 0xff { None } else { Some(b[1]) },
            sharers: b[2],
            pending: b[3] as i8,
        }
    }
}

/// The shape a config fixes for every state of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Layout {
    n_caches: usize,
    n_addrs: usize,
    n_budgets: usize,
    /// Global buffers: queues `0..n_global`.
    n_global: usize,
    /// Endpoint FIFOs: queues `n_global..n_global + n_fifos`.
    n_fifos: usize,
    global_cap: usize,
    endpoint_cap: usize,
}

impl Layout {
    fn of(cfg: &McConfig) -> Layout {
        let n_vns = cfg.vns.n_vns();
        Layout {
            n_caches: cfg.n_caches,
            n_addrs: cfg.n_addrs,
            n_budgets: match cfg.budget {
                InjectionBudget::PerCache(_) => cfg.n_caches,
                InjectionBudget::Explicit(_) => 0,
            },
            n_global: n_vns * 2,
            n_fifos: cfg.n_endpoints() * n_vns,
            global_cap: cfg.global_capacity.min(MAX_QUEUE_CAPACITY),
            endpoint_cap: cfg.endpoint_capacity.min(MAX_QUEUE_CAPACITY),
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

    /// Index of queue `q`'s first slot.
    fn start(&self, q: usize) -> usize {
        if q < self.n_global {
            q * self.global_cap
        } else {
            self.n_global * self.global_cap + (q - self.n_global) * self.endpoint_cap
        }
    }

    fn n_slots(&self) -> usize {
        self.n_global * self.global_cap + self.n_fifos * self.endpoint_cap
    }
}

/// The complete system state, in the fixed layout of the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalState {
    layout: Layout,
    /// `lines[c * n_addrs + a]` — cache `c`'s line for address `a`.
    lines: Box<[CacheLine]>,
    /// `dirs[a]` — the home directory line for address `a`.
    dirs: Box<[DirLine]>,
    /// Remaining per-cache budget (uniform mode) — empty in explicit mode.
    budgets: Box<[u8]>,
    /// Bitmask of already-used explicit injections (explicit mode).
    used_injections: u32,
    /// Length of each queue.
    lens: Box<[u8]>,
    /// Every queue's slots, queue after queue.
    slots: Box<[Msg]>,
}

impl GlobalState {
    /// A state of `layout` with every section zeroed.
    fn blank(layout: Layout) -> Self {
        GlobalState {
            layout,
            lines: vec![CacheLine::default(); layout.n_caches * layout.n_addrs].into(),
            dirs: vec![DirLine::default(); layout.n_addrs].into(),
            budgets: vec![0; layout.n_budgets].into(),
            used_injections: 0,
            lens: vec![0; layout.n_queues()].into(),
            slots: vec![EMPTY_SLOT; layout.n_slots()].into(),
        }
    }

    /// The initial state: every controller in its initial state, all
    /// buffers empty, full budgets.
    pub fn initial(spec: &ProtocolSpec, cfg: &McConfig) -> Self {
        let mut gs = GlobalState::blank(Layout::of(cfg));
        let cache_init = spec.cache().initial().index() as u8;
        let dir_init = spec.directory().initial().index() as u8;
        gs.lines.iter_mut().for_each(|l| l.state = cache_init);
        gs.dirs.iter_mut().for_each(|d| d.state = dir_init);
        if let InjectionBudget::PerCache(b) = cfg.budget {
            gs.budgets.fill(b);
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

    /// Cache `c`'s line for address `a`.
    pub fn line(&self, c: usize, a: usize) -> &CacheLine {
        &self.lines[c * self.layout.n_addrs + a]
    }

    /// Mutable [`GlobalState::line`].
    pub fn line_mut(&mut self, c: usize, a: usize) -> &mut CacheLine {
        &mut self.lines[c * self.layout.n_addrs + a]
    }

    /// Cache `c`'s lines, indexed by address.
    pub fn row(&self, c: usize) -> &[CacheLine] {
        let n = self.layout.n_addrs;
        &self.lines[c * n..(c + 1) * n]
    }

    /// The home directory line for address `a`.
    pub fn dir(&self, a: usize) -> &DirLine {
        &self.dirs[a]
    }

    /// Mutable [`GlobalState::dir`].
    pub fn dir_mut(&mut self, a: usize) -> &mut DirLine {
        &mut self.dirs[a]
    }

    /// Every directory line, indexed by address.
    pub fn dirs(&self) -> &[DirLine] {
        &self.dirs
    }

    /// Remaining per-cache budgets (uniform mode); empty in explicit mode.
    pub fn budgets(&self) -> &[u8] {
        &self.budgets
    }

    /// Mutable [`GlobalState::budgets`].
    pub fn budgets_mut(&mut self) -> &mut [u8] {
        &mut self.budgets
    }

    /// Bitmask of already-issued scripted injections (explicit mode).
    pub fn used_injections(&self) -> u32 {
        self.used_injections
    }

    /// Overwrites [`GlobalState::used_injections`].
    pub fn set_used_injections(&mut self, mask: u32) {
        self.used_injections = mask;
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
    pub fn queue(&self, q: usize) -> &[Msg] {
        let start = self.layout.start(q);
        &self.slots[start..start + self.lens[q] as usize]
    }

    /// `true` when queue `q` holds as many messages as it has slots.
    pub fn is_full(&self, q: usize) -> bool {
        self.lens[q] as usize >= self.layout.cap(q)
    }

    /// Appends `m` to queue `q`; returns `false`, writing nothing, when
    /// the queue is full.
    pub fn push_back(&mut self, q: usize, m: Msg) -> bool {
        if self.is_full(q) {
            return false;
        }
        let len = self.lens[q] as usize;
        self.slots[self.layout.start(q) + len] = m;
        self.lens[q] += 1;
        true
    }

    /// Removes and returns the head of queue `q`, zeroing the slot the
    /// queue no longer uses.
    pub fn pop_front(&mut self, q: usize) -> Option<Msg> {
        let len = self.lens[q] as usize;
        let start = self.layout.start(q);
        let run = self.slots.get_mut(start..start + len)?;
        let (&head, _) = run.split_first()?;
        run.copy_within(1.., 0);
        run[len - 1] = EMPTY_SLOT;
        self.lens[q] -= 1;
        Some(head)
    }

    /// Removes and returns the tail of queue `q`, zeroing its slot.
    pub fn pop_back(&mut self, q: usize) -> Option<Msg> {
        let len = (self.lens[q] as usize).checked_sub(1)?;
        let slot = &mut self.slots[self.layout.start(q) + len];
        let tail = std::mem::replace(slot, EMPTY_SLOT);
        self.lens[q] -= 1;
        Some(tail)
    }

    /// Empties every queue.
    pub fn clear_queues(&mut self) {
        self.lens.fill(0);
        self.slots.fill(EMPTY_SLOT);
    }

    /// `true` if nothing is in flight and every controller sits in a
    /// stable state — the good kind of "nothing enabled".
    pub fn is_quiescent(&self, spec: &ProtocolSpec) -> bool {
        if self.lens.iter().any(|&l| l != 0) {
            return false;
        }
        let cache_stable = self
            .lines
            .iter()
            .all(|l| !spec.cache().state(StateId(l.state as usize)).is_transient());
        let dir_stable = self.dirs.iter().all(|l| {
            !spec
                .directory()
                .state(StateId(l.state as usize))
                .is_transient()
        });
        cache_stable && dir_stable
    }

    /// Copies `other` into `self`. States of one config share a layout,
    /// so this is one slice copy per section and no allocation; a state
    /// of another shape is cloned instead.
    pub fn copy_from(&mut self, other: &GlobalState) {
        if self.layout != other.layout {
            *self = other.clone();
            return;
        }
        self.lines.copy_from_slice(&other.lines);
        self.dirs.copy_from_slice(&other.dirs);
        self.budgets.copy_from_slice(&other.budgets);
        self.used_injections = other.used_injections;
        self.lens.copy_from_slice(&other.lens);
        self.slots.copy_from_slice(&other.slots);
    }

    /// Canonical byte encoding for hashing/deduplication.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// [`GlobalState::encode`] into a caller-owned buffer (cleared
    /// first). The explorers reuse one scratch buffer across millions
    /// of successor checks, so the dedup path allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        for l in self.lines.iter() {
            out.extend_from_slice(&l.encode());
        }
        for d in self.dirs.iter() {
            out.extend_from_slice(&d.encode());
        }
        out.extend_from_slice(&self.budgets);
        out.extend_from_slice(&self.used_injections.to_le_bytes());
        for q in 0..self.layout.n_queues() {
            out.push(if q < self.layout.n_global {
                GLOBAL_SEP
            } else {
                FIFO_SEP
            });
            for m in self.queue(q) {
                out.extend_from_slice(&m.encode());
            }
        }
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
        gs.fill_from(bytes)?;
        Some(gs)
    }

    /// [`GlobalState::decode`] into a reused state: returns `false` on
    /// the same malformed input `decode` rejects, leaving `out` valid but
    /// unspecified. Decoding into a state of the same config allocates
    /// nothing.
    pub fn decode_into(bytes: &[u8], cfg: &McConfig, out: &mut GlobalState) -> bool {
        let layout = Layout::of(cfg);
        if out.layout != layout {
            *out = GlobalState::blank(layout);
        }
        out.fill_from(bytes).is_some()
    }

    /// Overwrites every section from `bytes`.
    fn fill_from(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = Reader { bytes, pos: 0 };
        for l in self.lines.iter_mut() {
            *l = CacheLine::decode(r.array()?);
        }
        for d in self.dirs.iter_mut() {
            *d = DirLine::decode(r.array()?);
        }
        let n_budgets = self.budgets.len();
        self.budgets.copy_from_slice(r.take(n_budgets)?);
        self.used_injections = u32::from_le_bytes(r.array()?);
        let layout = self.layout;
        for q in 0..layout.n_queues() {
            let sep = if q < layout.n_global {
                GLOBAL_SEP
            } else {
                FIFO_SEP
            };
            if r.array::<1>()? != [sep] {
                return None;
            }
            let start = layout.start(q);
            let run = &mut self.slots[start..start + layout.cap(q)];
            let mut len = 0;
            while r.peek().is_some_and(|b| b < FIFO_SEP) {
                // A queue longer than its capacity is no reachable state.
                *run.get_mut(len)? = Msg::decode(r.array()?);
                len += 1;
            }
            run[len..].fill(EMPTY_SLOT);
            self.lens[q] = len as u8;
        }
        (r.pos == bytes.len()).then_some(())
    }

    /// Total number of in-flight messages.
    pub fn messages_in_flight(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Multi-line human dump (used in traces).
    pub fn dump(&self, spec: &ProtocolSpec, cfg: &McConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in 0..self.n_caches() {
            let states: Vec<String> = self
                .row(c)
                .iter()
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
        for (a, d) in self.dirs.iter().enumerate() {
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

/// A bounds-checked cursor over encoded bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        s1.line_mut(0, 0).state = 5;
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
            s.line_mut(0, 0).state = 2;
            s.line_mut(0, 0).writer = Some((1, -1));
            s.dir_mut(0).owner = Some(0);
            s.dir_mut(0).pending = -2;
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
        assert_eq!(s.queue(q)[0].msg, 1);
        assert_eq!(s.messages_in_flight(), cfg.endpoint_capacity - 2);
    }

    /// Freed slots are zeroed, so a state that held and released a
    /// message equals (and hashes like) one that never held it.
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

    /// The nested representation the flat layout replaced — a vector
    /// per cache row and a deque per queue — with its own encoder and
    /// decoder, kept as the oracle the flat codec must agree with.
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
                    qs.map(|q| gs.queue(q).iter().copied().collect()).collect()
                };
                Nested {
                    caches: (0..gs.n_caches()).map(|c| gs.row(c).to_vec()).collect(),
                    dirs: gs.dirs().to_vec(),
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
}
