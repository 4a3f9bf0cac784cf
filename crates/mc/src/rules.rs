//! Successor generation: the guarded-command rules of the model.
//!
//! Three rule families, mirroring the paper's ICN construction:
//!
//! 1. **inject** — a cache performs a core operation (budget permitting);
//! 2. **advance** — the head of a global buffer moves to its
//!    destination's input FIFO (capacity permitting);
//! 3. **consume** — a controller processes the head of one of its input
//!    FIFOs (unless the table says *stall*, which blocks that FIFO).
//!
//! Sends are placed into the global buffers of their VN: both choices
//! are explored in [`IcnOrder::Unordered`] mode; a static per-(src,dst)
//! choice is used in [`IcnOrder::PointToPoint`] mode.

use crate::config::{IcnOrder, InjectionBudget, McConfig};
use crate::exec::{apply_entry, core_entry, matching_cell, ExecError};
use crate::intern::{InternError, StateArena};
use crate::state::{GlobalState, Msg, Node};
use vnet_protocol::{Cell, CoreOp, MsgId, ProtocolSpec};

/// One enabled transition out of a state.
#[derive(Debug, Clone)]
pub struct Successor {
    /// Human-readable rule label (used in counterexample traces).
    pub label: String,
    /// The resulting state.
    pub state: GlobalState,
}

/// The result of expanding a state.
#[derive(Debug)]
pub enum Expansion {
    /// All enabled successors (possibly empty).
    Ok(Vec<Successor>),
    /// A controller received a message its table does not define — a
    /// protocol-specification bug, reported with the offending rule.
    Bug {
        /// The rule that exposed the bug.
        rule: String,
        /// Details (message and state).
        detail: String,
    },
}

/// A successor's rule identity, renderable to the human label on
/// demand. Rules fire orders of magnitude more often than labels are
/// read, so the explorers keep a compact reference per claim and
/// render text only for a checkpoint or a witness.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// A cache performed a core operation.
    Inject {
        /// Cache index.
        cache: u8,
        /// Address index.
        addr: u8,
        /// The operation.
        op: vnet_protocol::CoreOp,
    },
    /// A global-buffer head moved to its destination's input FIFO.
    Advance {
        /// Virtual network.
        vn: usize,
        /// Buffer within the VN (0 or 1).
        b: usize,
        /// The message that moved.
        msg: Msg,
    },
    /// A controller processed an input-FIFO head.
    Consume {
        /// The message consumed.
        msg: Msg,
    },
}

/// A borrowed rule label: the rule plus the buffer placements chosen
/// for its sends. Render with [`Label::render_into`] only when the
/// label text is actually needed (checkpoint, tie-break, trace).
#[derive(Debug, Clone, Copy)]
pub struct Label<'a> {
    kind: &'a RuleKind,
    /// `(message id, vn, buffer)` per send, in send order.
    choices: &'a [(u8, u16, u8)],
}

impl Label<'_> {
    /// Renders the label text (exactly the historical trace format).
    pub fn render(&self, spec: &ProtocolSpec) -> String {
        let mut out = String::new();
        self.render_into(spec, &mut out);
        out
    }

    /// [`Label::render`] into a caller-owned buffer (cleared first).
    pub fn render_into(&self, spec: &ProtocolSpec, out: &mut String) {
        render_parts(spec, self.kind, self.choices.iter().copied(), out);
    }

    /// Appends the label's compact rule reference: what the explorers
    /// carry per candidate successor instead of label text, rendered by
    /// [`render_rule_ref`] only where text is needed. An inject is
    /// `[0, cache, addr, op]`, an advance `[1, vn lo, vn hi, buffer,
    /// msg×6]`, a consume `[2, msg×6]`; then the send count and
    /// `[msg, vn lo, vn hi, buffer]` per send. The empty reference
    /// stands for the initial state's empty label.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self.kind {
            RuleKind::Inject { cache, addr, op } => {
                let op = CoreOp::all().iter().position(|o| o == op).unwrap_or(0);
                out.extend([0, *cache, *addr, op as u8]);
            }
            RuleKind::Advance { vn, b, msg } => {
                out.push(1);
                out.extend((*vn as u16).to_le_bytes());
                out.push(*b as u8);
                out.extend(msg.encode());
            }
            RuleKind::Consume { msg } => {
                out.push(2);
                out.extend(msg.encode());
            }
        }
        out.push(self.choices.len() as u8);
        for &(m, vn, b) in self.choices {
            out.push(m);
            out.extend(vn.to_le_bytes());
            out.push(b);
        }
    }
}

/// Renders a rule reference written by [`Label::encode_into`] into
/// `out` (cleared first). Returns `false` — with `out` unspecified — for
/// a malformed reference or one naming a message `spec` lacks, so a
/// damaged file fails closed instead of panicking.
pub(crate) fn render_rule_ref(spec: &ProtocolSpec, bytes: &[u8], out: &mut String) -> bool {
    out.clear();
    if bytes.is_empty() {
        return true;
    }
    let n_msgs = spec.messages().len();
    let msg_at = |at: usize| -> Option<Msg> {
        let m = Msg::decode(bytes.get(at..at + 6)?);
        ((m.msg as usize) < n_msgs).then_some(m)
    };
    let (kind, rest) = match bytes[0] {
        0 if bytes.len() >= 4 => match CoreOp::all().get(bytes[3] as usize) {
            Some(&op) => (
                RuleKind::Inject {
                    cache: bytes[1],
                    addr: bytes[2],
                    op,
                },
                4,
            ),
            None => return false,
        },
        1 => match msg_at(4) {
            Some(msg) => (
                RuleKind::Advance {
                    vn: u16::from_le_bytes([bytes[1], bytes[2]]) as usize,
                    b: bytes[3] as usize,
                    msg,
                },
                10,
            ),
            None => return false,
        },
        2 => match msg_at(1) {
            Some(msg) => (RuleKind::Consume { msg }, 7),
            None => return false,
        },
        _ => return false,
    };
    let Some((&count, sends)) = bytes.get(rest..).and_then(<[u8]>::split_first) else {
        return false;
    };
    if sends.len() != count as usize * 4 || sends.chunks_exact(4).any(|c| c[0] as usize >= n_msgs) {
        return false;
    }
    let choices = sends
        .chunks_exact(4)
        .map(|c| (c[0], u16::from_le_bytes([c[1], c[2]]), c[3]));
    render_parts(spec, &kind, choices, out);
    true
}

/// First byte of an interned rule that is literal label text (read
/// from a checkpoint) rather than a compact reference; no compact
/// reference starts with it.
const LITERAL: u8 = 0xff;

/// The rule labels of claimed states, interned. The explorers intern
/// each claim's compact rule reference ([`Label::encode_into`]); labels
/// read back from a checkpoint are interned as literal text. A run sees
/// a few hundred distinct labels, each shared by thousands of states,
/// so a state stores a `u32` id and label text is rendered only for a
/// checkpoint or a witness — never per claim.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleTable {
    arena: StateArena,
}

impl RuleTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        RuleTable::default()
    }

    /// Interns a compact rule reference; the empty reference is the
    /// initial state's empty label.
    pub(crate) fn intern_ref(&mut self, rule: &[u8]) -> Result<u32, InternError> {
        self.arena.intern(rule).map(|(id, _)| id)
    }

    /// Interns literal label text (the empty label as the empty
    /// reference, so [`RuleTable::is_root`] holds for it either way).
    pub(crate) fn intern_text(&mut self, label: &str) -> Result<u32, InternError> {
        if label.is_empty() {
            return self.intern_ref(&[]);
        }
        let mut bytes = Vec::with_capacity(1 + label.len());
        bytes.push(LITERAL);
        bytes.extend_from_slice(label.as_bytes());
        self.intern_ref(&bytes)
    }

    /// `true` for the empty label, which only the initial state carries.
    pub(crate) fn is_root(&self, id: u32) -> bool {
        self.arena.get(id).is_empty()
    }

    /// Renders label `id` into `out` (cleared first). `false` for an id
    /// never interned or a damaged reference.
    pub(crate) fn render_into(&self, spec: &ProtocolSpec, id: u32, out: &mut String) -> bool {
        if id as usize >= self.arena.len() {
            return false;
        }
        match self.arena.get(id).split_first() {
            Some((&LITERAL, text)) => match std::str::from_utf8(text) {
                Ok(t) => {
                    out.clear();
                    out.push_str(t);
                    true
                }
                Err(_) => false,
            },
            _ => render_rule_ref(spec, self.arena.get(id), out),
        }
    }

    /// Every label's text, indexed by id — each rendered once, for a
    /// checkpoint flush. `Err(id)` names a damaged reference.
    pub(crate) fn texts(&self, spec: &ProtocolSpec) -> Result<Vec<String>, u32> {
        (0..self.arena.len() as u32)
            .map(|id| {
                let mut text = String::new();
                self.render_into(spec, id, &mut text)
                    .then_some(text)
                    .ok_or(id)
            })
            .collect()
    }

    /// Exact heap bytes held.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.arena.heap_bytes()
    }
}

/// The label text of `kind` with its send placements `choices`.
fn render_parts(
    spec: &ProtocolSpec,
    kind: &RuleKind,
    choices: impl ExactSizeIterator<Item = (u8, u16, u8)>,
    out: &mut String,
) {
    use std::fmt::Write;
    out.clear();
    match kind {
        RuleKind::Inject { cache, addr, op } => {
            let _ = write!(out, "inject C{} {op} {}", cache + 1, addr_name(*addr));
        }
        RuleKind::Advance { vn, b, msg } => {
            let _ = write!(out, "advance vn{vn}.b{b} ");
            msg.display_into(spec, out);
        }
        RuleKind::Consume { msg } => {
            out.push_str("consume ");
            msg.display_into(spec, out);
            let _ = write!(out, " at {}", msg.dst);
        }
    }
    if choices.len() > 0 {
        out.push_str(" [");
        for (i, (m, vn, b)) in choices.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}\u{2192}vn{vn}b{b}",
                spec.message_name(MsgId(m as usize))
            );
        }
        out.push(']');
    }
}

/// Reusable buffers for [`expand`]: one successor scratch state, the
/// placement log and the send list. Create once per run (or per worker
/// thread); the expansion hot path then allocates nothing.
pub struct Scratch {
    next: GlobalState,
    choices: Vec<(u8, u16, u8)>,
    sends: Vec<Msg>,
}

impl Scratch {
    /// A scratch shaped for `spec`/`cfg`.
    pub fn new(spec: &ProtocolSpec, cfg: &McConfig) -> Self {
        Scratch {
            next: GlobalState::initial(spec, cfg),
            choices: Vec::new(),
            sends: Vec::new(),
        }
    }
}

/// The result of a callback-driven expansion.
#[derive(Debug)]
pub enum ExpandOutcome {
    /// Expansion ran to completion; the count is the number of
    /// successors produced (0 means no rule was enabled).
    Done(usize),
    /// The callback returned `false`; remaining rules were skipped.
    Stopped,
    /// A controller received a message its table does not define.
    Bug {
        /// The rule that exposed the bug.
        rule: String,
        /// Details (message and state).
        detail: String,
    },
}

/// Expands `gs`, invoking `f(successor, label)` for each enabled
/// transition in the same order [`successors`] produces them. The
/// successor reference points into `scratch` and is only valid for the
/// duration of the call — encode or clone it before returning. Return
/// `false` from `f` to stop the expansion early.
///
/// Each rule's table cell is looked up on `gs` itself, so a rule that
/// stalls or does not apply costs no state copy.
pub fn expand<F>(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    gs: &GlobalState,
    scratch: &mut Scratch,
    mut f: F,
) -> ExpandOutcome
where
    F: FnMut(&GlobalState, Label<'_>) -> bool,
{
    let Scratch {
        next,
        choices,
        sends,
    } = scratch;
    let mut count = 0usize;
    let inject_bug = |kind: &RuleKind, e: ExecError| ExpandOutcome::Bug {
        rule: Label { kind, choices: &[] }.render(spec),
        detail: e.display(spec),
    };

    // --- inject ---
    match &cfg.budget {
        InjectionBudget::PerCache(_) => {
            for c in 0..cfg.n_caches as u8 {
                if gs.budgets()[c as usize] == 0 {
                    continue;
                }
                for a in 0..cfg.n_addrs as u8 {
                    for op in vnet_protocol::CoreOp::all() {
                        let Some(entry) = core_entry(spec, gs, c, a, op) else {
                            continue;
                        };
                        let kind = RuleKind::Inject { cache: c, addr: a, op };
                        next.copy_from(gs);
                        next.budgets_mut()[c as usize] -= 1;
                        let fired = apply_entry(cfg, next, Node::Cache(c), a, None, entry, sends);
                        if let Err(e) = fired {
                            return inject_bug(&kind, e);
                        }
                        choices.clear();
                        if !place(cfg, &kind, next, sends, 0, choices, &mut count, &mut f) {
                            return ExpandOutcome::Stopped;
                        }
                    }
                }
            }
        }
        InjectionBudget::Explicit(list) => {
            // Scripted injections issue in list order: only the first
            // unissued entry is eligible.
            let i = gs.used_injections().trailing_ones() as usize;
            if let Some(&(c, a, op)) = list.get(i) {
                let (c, a) = (c as u8, a as u8);
                if let Some(entry) = core_entry(spec, gs, c, a, op) {
                    let kind = RuleKind::Inject { cache: c, addr: a, op };
                    next.copy_from(gs);
                    next.set_used_injections(gs.used_injections() | 1 << i);
                    let fired = apply_entry(cfg, next, Node::Cache(c), a, None, entry, sends);
                    if let Err(e) = fired {
                        return inject_bug(&kind, e);
                    }
                    choices.clear();
                    if !place(cfg, &kind, next, sends, 0, choices, &mut count, &mut f) {
                        return ExpandOutcome::Stopped;
                    }
                }
            }
        }
    }

    // --- advance ---
    let n_vns = cfg.vns.n_vns();
    for bi in 0..gs.n_global_bufs() {
        let Some(m) = gs.queue(bi).first() else { continue };
        let vn = bi / 2;
        let fifo = gs.fifo_queue(m.dst.index(cfg.n_caches) * n_vns + vn);
        if gs.is_full(fifo) {
            continue;
        }
        next.copy_from(gs);
        next.pop_front(bi);
        let pushed = next.push_back(fifo, m);
        debug_assert!(pushed, "the destination FIFO had a free slot");
        count += 1;
        let kind = RuleKind::Advance { vn, b: bi % 2, msg: m };
        if !f(next, Label { kind: &kind, choices: &[] }) {
            return ExpandOutcome::Stopped;
        }
    }

    // --- consume ---
    for fi in 0..gs.n_endpoint_fifos() {
        let q = gs.fifo_queue(fi);
        let Some(m) = gs.queue(q).first() else { continue };
        let entry = match matching_cell(spec, gs, &m) {
            Some(Cell::Entry(entry)) => entry,
            Some(Cell::Stall) => continue,
            None => {
                let state_name = match m.dst {
                    Node::Cache(c) => {
                        let s = gs.line(c as usize, m.addr as usize).state;
                        spec.cache().state(vnet_protocol::StateId(s as usize)).name.clone()
                    }
                    Node::Dir(_) => {
                        let s = gs.dir(m.addr as usize).state;
                        spec.directory()
                            .state(vnet_protocol::StateId(s as usize))
                            .name
                            .clone()
                    }
                };
                return ExpandOutcome::Bug {
                    rule: format!("consume {}", m.display(spec)),
                    detail: format!(
                        "no table entry for {} in state {state_name} at {}",
                        spec.message_name(MsgId(m.msg as usize)),
                        m.dst
                    ),
                };
            }
        };
        next.copy_from(gs);
        next.pop_front(q);
        if let Err(e) = apply_entry(cfg, next, m.dst, m.addr, Some(&m), entry, sends) {
            return ExpandOutcome::Bug {
                rule: format!("consume {}", m.display(spec)),
                detail: e.display(spec),
            };
        }
        let kind = RuleKind::Consume { msg: m };
        choices.clear();
        if !place(cfg, &kind, next, sends, 0, choices, &mut count, &mut f) {
            return ExpandOutcome::Stopped;
        }
    }

    ExpandOutcome::Done(count)
}

/// Expands `gs` into its successors under `spec`/`cfg`, materialized
/// with owned states and rendered labels. Compatibility wrapper over
/// [`expand`] — the explorers use `expand` directly to avoid the
/// per-successor clone and label allocation.
pub fn successors(spec: &ProtocolSpec, cfg: &McConfig, gs: &GlobalState) -> Expansion {
    let mut scratch = Scratch::new(spec, cfg);
    let mut out = Vec::new();
    match expand(spec, cfg, gs, &mut scratch, |state, label| {
        out.push(Successor {
            label: label.render(spec),
            state: state.clone(),
        });
        true
    }) {
        ExpandOutcome::Bug { rule, detail } => Expansion::Bug { rule, detail },
        ExpandOutcome::Done(_) | ExpandOutcome::Stopped => Expansion::Ok(out),
    }
}

fn addr_name(a: u8) -> char {
    (b'X' + a) as char
}

/// Places `sends[i..]` into global buffers by backtracking on the one
/// scratch state, invoking `f` once per complete valid placement. If no
/// placement fits (backpressure), the rule is disabled and contributes
/// nothing. Children iterate buffer 1 before buffer 0, mirroring the
/// LIFO order of the historical explicit-stack implementation so
/// successor order (and therefore serial first-claim parent links) is
/// unchanged.
#[allow(clippy::too_many_arguments)]
fn place<F>(
    cfg: &McConfig,
    kind: &RuleKind,
    state: &mut GlobalState,
    sends: &[Msg],
    i: usize,
    choices: &mut Vec<(u8, u16, u8)>,
    count: &mut usize,
    f: &mut F,
) -> bool
where
    F: FnMut(&GlobalState, Label<'_>) -> bool,
{
    if i == sends.len() {
        *count += 1;
        return f(state, Label { kind, choices });
    }
    let m = sends[i];
    let vn = cfg.vns.vn_of(MsgId(m.msg as usize));
    let both;
    let one;
    let bufs: &[usize] = match cfg.order {
        IcnOrder::Unordered => {
            both = [1usize, 0usize];
            &both
        }
        IcnOrder::PointToPoint { salt } => {
            one = [p2p_buffer(m.src, m.dst, salt)];
            &one
        }
    };
    for &b in bufs {
        let bi = vn * 2 + b;
        if !state.push_back(bi, m) {
            continue; // buffer full
        }
        choices.push((m.msg, vn as u16, b as u8));
        let ok = place(cfg, kind, state, sends, i + 1, choices, count, f);
        choices.pop();
        state.pop_back(bi);
        if !ok {
            return false;
        }
    }
    true
}

/// The static (source, destination) → buffer mapping for point-to-point
/// ordered VNs. Different salts give different mappings; sweeping salts
/// approximates the paper's exhaustive mapping check.
pub fn p2p_buffer(src: Node, dst: Node, salt: u64) -> usize {
    let code = |n: Node| -> u64 {
        match n {
            Node::Cache(i) => i as u64,
            Node::Dir(i) => 64 + i as u64,
        }
    };
    // FNV-1a over (src, dst, salt).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in [code(src), code(dst), salt] {
        h ^= b;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h & 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    // Failures surface as `Err` values, not panics — matching the
    // panic-free discipline of the code under test.
    type TestResult = Result<(), String>;

    fn expanded(e: Expansion) -> Result<Vec<Successor>, String> {
        match e {
            Expansion::Ok(succs) => Ok(succs),
            Expansion::Bug { rule, detail } => Err(format!("unexpected bug at {rule}: {detail}")),
        }
    }

    #[test]
    fn initial_state_offers_injections() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let gs = GlobalState::initial(&spec, &cfg);
        let succs = expanded(successors(&spec, &cfg, &gs))?;
        // 3 caches × 2 addrs × {Load, Store} (Evict undefined in I), and
        // each send branches over 2 global buffers.
        assert_eq!(succs.len(), 3 * 2 * 2 * 2);
        assert!(succs.iter().all(|s| s.label.starts_with("inject")));
        Ok(())
    }

    #[test]
    fn p2p_mode_does_not_branch_on_buffers() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec).with_order(IcnOrder::PointToPoint { salt: 0 });
        let gs = GlobalState::initial(&spec, &cfg);
        let succs = expanded(successors(&spec, &cfg, &gs))?;
        assert_eq!(succs.len(), 3 * 2 * 2);
        Ok(())
    }

    #[test]
    fn explicit_budget_restricts_injections() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let gs = GlobalState::initial(&spec, &cfg);
        let succs = expanded(successors(&spec, &cfg, &gs))?;
        // Only the first scripted store is eligible, × 2 buffer choices.
        assert_eq!(succs.len(), 2);
        Ok(())
    }

    #[test]
    fn advance_and_consume_chain() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let gs = GlobalState::initial(&spec, &cfg);
        let s1 = expanded(successors(&spec, &cfg, &gs))?;
        // Take the first injection, then a message sits in a global buffer.
        let after_inject = &s1.first().ok_or("no injection successor")?.state;
        assert_eq!(after_inject.messages_in_flight(), 1);
        let s2 = expanded(successors(&spec, &cfg, after_inject))?;
        let adv = s2
            .iter()
            .find(|s| s.label.starts_with("advance"))
            .ok_or("no advance successor")?;
        let s3 = expanded(successors(&spec, &cfg, &adv.state))?;
        let cons = s3
            .iter()
            .find(|s| s.label.starts_with("consume"))
            .ok_or("no consume successor")?;
        // The GetM was consumed by the directory, which replied with Data.
        assert_eq!(cons.state.messages_in_flight(), 1);
        assert!(cons.state.dirs().any(|d| d.owner.is_some()));
        Ok(())
    }

    #[test]
    fn p2p_buffer_is_deterministic_and_salt_sensitive() {
        let a = p2p_buffer(Node::Cache(0), Node::Dir(1), 0);
        assert_eq!(a, p2p_buffer(Node::Cache(0), Node::Dir(1), 0));
        // Some salt must flip some pair (not necessarily this one, so
        // scan a few).
        let flipped = (0..16u64).any(|s| {
            (0..3u8).any(|c| {
                p2p_buffer(Node::Cache(c), Node::Dir(0), s)
                    != p2p_buffer(Node::Cache(c), Node::Dir(0), 0)
            })
        });
        assert!(flipped);
    }

    #[test]
    fn rule_refs_render_the_label_text() -> TestResult {
        // Every successor label of a few expanded levels round-trips
        // through its compact rule reference, and damage fails closed.
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let mut level = vec![GlobalState::initial(&spec, &cfg)];
        let mut scratch = Scratch::new(&spec, &cfg);
        let (mut bytes, mut text, mut seen) = (Vec::new(), String::new(), 0);
        for _ in 0..4 {
            let mut next = Vec::new();
            for gs in &level {
                let mut bad = None;
                expand(&spec, &cfg, gs, &mut scratch, |s, label| {
                    bytes.clear();
                    label.encode_into(&mut bytes);
                    if !render_rule_ref(&spec, &bytes, &mut text) || text != label.render(&spec) {
                        bad = Some(label.render(&spec));
                    }
                    seen += 1;
                    next.push(s.clone());
                    true
                });
                if let Some(l) = bad {
                    return Err(format!("rule ref of `{l}` did not render back"));
                }
            }
            level = next;
            level.truncate(200);
        }
        assert!(seen > 100, "too few successors checked: {seen}");
        assert!(render_rule_ref(&spec, &[], &mut text) && text.is_empty());
        for bad in [
            &[3u8][..],
            &[0, 1, 0, 9, 0],
            &[2, 200, 0, 0, 0, 0, 0, 0],
            &[0, 1, 0, 1, 1],
        ] {
            assert!(!render_rule_ref(&spec, bad, &mut text), "{bad:?} accepted");
        }
        Ok(())
    }

    #[test]
    fn rule_table_round_trips_references_and_literal_labels() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let mut t = RuleTable::new();
        let text_id = |t: &mut RuleTable, label| t.intern_text(label).map_err(|e| e.to_string());
        let empty = text_id(&mut t, "")?;
        let a = text_id(&mut t, "C1 sends GetM(X)")?;
        let b = text_id(&mut t, "Dir1 handles GetS(X)")?;
        assert_eq!(text_id(&mut t, "C1 sends GetM(X)")?, a);
        assert_eq!(
            t.intern_ref(&[]).map_err(|e| e.to_string())?,
            empty,
            "the empty label is the root's"
        );
        let mut reference = Vec::new();
        let mut rendered = String::new();
        expand(
            &spec,
            &cfg,
            &GlobalState::initial(&spec, &cfg),
            &mut Scratch::new(&spec, &cfg),
            |_, l| {
                l.encode_into(&mut reference);
                rendered = l.render(&spec);
                false
            },
        );
        let r = t.intern_ref(&reference).map_err(|e| e.to_string())?;
        assert!(t.is_root(empty) && !t.is_root(a) && !t.is_root(r));
        let mut out = String::from("stale");
        for (id, text) in [
            (empty, ""),
            (a, "C1 sends GetM(X)"),
            (b, "Dir1 handles GetS(X)"),
            (r, &rendered),
        ] {
            assert!(t.render_into(&spec, id, &mut out));
            assert_eq!(out, text);
        }
        assert!(
            !t.render_into(&spec, 99, &mut out),
            "unknown ids fail closed"
        );
        assert_eq!(
            t.texts(&spec)
                .map_err(|id| format!("id {id} does not render"))?,
            vec![
                "".to_string(),
                "C1 sends GetM(X)".into(),
                "Dir1 handles GetS(X)".into(),
                rendered
            ]
        );
        Ok(())
    }

    #[test]
    fn backpressure_disables_rules() -> TestResult {
        let spec = protocols::msi_blocking_cache();
        let mut cfg = McConfig::figure3(&spec);
        cfg.global_capacity = 0; // nothing can ever be sent
        let gs = GlobalState::initial(&spec, &cfg);
        let succs = expanded(successors(&spec, &cfg, &gs))?;
        assert!(succs.is_empty());
        Ok(())
    }
}
