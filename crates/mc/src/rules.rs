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
use crate::state::{GlobalState, Msg, Node};
use vnet_protocol::{Cell, MsgId, ProtocolSpec};

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
/// demand. Rules fire orders of magnitude more often than fresh states
/// are claimed, so the explorers defer the string work to the claim
/// site and the hot path stays allocation-free.
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
/// label text is actually needed (fresh claim, tie-break, trace).
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
        use std::fmt::Write;
        out.clear();
        match self.kind {
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
        if !self.choices.is_empty() {
            out.push_str(" [");
            for (i, (m, vn, b)) in self.choices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}\u{2192}vn{vn}b{b}", spec.message_name(MsgId(*m as usize)));
            }
            out.push(']');
        }
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
        let Some(&m) = gs.queue(bi).first() else { continue };
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
        let Some(&m) = gs.queue(q).first() else { continue };
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
        assert!(cons.state.dirs().iter().any(|d| d.owner.is_some()));
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
