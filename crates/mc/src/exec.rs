//! Executable semantics of protocol tables: guard evaluation and action
//! application against a concrete [`GlobalState`].

use crate::config::McConfig;
use crate::state::{CacheLine, DirLine, GlobalState, Msg, Node};
use vnet_protocol::{
    Action, Cell, ControllerKind, CoreOp, Entry, Guard, MsgId, Payload, ProtocolSpec, StateId,
    Target, Trigger,
};

/// A dynamic specification bug surfaced while applying an entry's
/// actions — a condition the static validator cannot rule out because it
/// depends on the reachable directory/cache bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A send targeted [`Target::Owner`] while the directory records no
    /// owner for the block.
    OwnerUnset {
        /// The message the entry tried to send.
        msg: MsgId,
    },
    /// A send targeted [`Target::Writer`] while no deferred writer is
    /// recorded at the cache.
    WriterUnset {
        /// The message the entry tried to send.
        msg: MsgId,
    },
}

impl ExecError {
    /// Renders the error with the protocol's message names.
    pub fn display(&self, spec: &ProtocolSpec) -> String {
        match self {
            ExecError::OwnerUnset { msg } => format!(
                "send of {} to Owner with no owner recorded",
                spec.message_name(*msg)
            ),
            ExecError::WriterUnset { msg } => format!(
                "send of {} to Writer with no writer recorded",
                spec.message_name(*msg)
            ),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OwnerUnset { msg } => {
                write!(f, "send of message #{} to Owner with no owner recorded", msg.0)
            }
            ExecError::WriterUnset { msg } => {
                write!(f, "send of message #{} to Writer with no writer recorded", msg.0)
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of attempting to process a trigger at a controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Firing {
    /// The entry fired: the state was mutated and these messages must be
    /// placed into the ICN.
    Fired {
        /// Messages produced by the entry's send actions, in order.
        sends: Vec<Msg>,
    },
    /// A stall cell matched: the trigger stays blocked.
    Stalled,
    /// No cell matched: a protocol-specification bug.
    Undefined,
    /// The entry's actions hit a dynamic specification bug.
    Error(ExecError),
}

/// The table cell that message `m` matches at its destination, found
/// without touching the state: the controller's FSM state and every
/// guard read only controller rows, never queues. `None` when no cell
/// matches — a protocol-specification bug.
pub fn matching_cell<'s>(spec: &'s ProtocolSpec, gs: &GlobalState, m: &Msg) -> Option<&'s Cell> {
    let kind = match m.dst {
        Node::Cache(_) => ControllerKind::Cache,
        Node::Dir(_) => ControllerKind::Directory,
    };
    let state = current_state(gs, m.dst, m.addr);
    // The validator guarantees at most one guard holds.
    spec.controller(kind)
        .entries_for_message(StateId(state as usize), MsgId(m.msg as usize))
        .find(|(guard, _)| eval_guard(**guard, gs, m))
        .map(|(_, cell)| cell)
}

/// Delivers message `m` to its destination controller, firing the
/// matching table entry.
pub fn deliver(spec: &ProtocolSpec, cfg: &McConfig, gs: &mut GlobalState, m: &Msg) -> Firing {
    match matching_cell(spec, gs, m) {
        None => Firing::Undefined,
        Some(Cell::Stall) => Firing::Stalled,
        Some(Cell::Entry(entry)) => {
            let mut sends = Vec::new();
            match apply_entry(cfg, gs, m.dst, m.addr, Some(m), entry, &mut sends) {
                Ok(()) => Firing::Fired { sends },
                Err(e) => Firing::Error(e),
            }
        }
    }
}

/// The entry a core operation fires at a cache, found without touching
/// the state. `None` when the op is not currently processable (stall or
/// no cell) or is a pure hit: no actions and no transition leave the
/// state unchanged, so the explorer skips them to avoid self-loops.
pub(crate) fn core_entry<'s>(
    spec: &'s ProtocolSpec,
    gs: &GlobalState,
    cache: u8,
    addr: u8,
    op: CoreOp,
) -> Option<&'s Entry> {
    let state = gs.line(cache as usize, addr as usize).state;
    match spec.cache().cell(StateId(state as usize), Trigger::core(op))? {
        Cell::Stall => None,
        Cell::Entry(e) if e.actions.is_empty() && e.next.is_none() => None,
        Cell::Entry(e) => Some(e),
    }
}

/// Injects a core operation at a cache. Returns `Ok(None)` when the op
/// is not currently processable (stall or no cell) or is a pure hit with
/// no effect; otherwise fires the entry. `Err` reports a dynamic
/// specification bug hit while applying the entry.
pub fn inject(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    gs: &mut GlobalState,
    cache: u8,
    addr: u8,
    op: CoreOp,
) -> Result<Option<Vec<Msg>>, ExecError> {
    let Some(entry) = core_entry(spec, gs, cache, addr, op) else {
        return Ok(None);
    };
    let mut sends = Vec::new();
    apply_entry(cfg, gs, Node::Cache(cache), addr, None, entry, &mut sends)?;
    Ok(Some(sends))
}

fn current_state(gs: &GlobalState, node: Node, addr: u8) -> u8 {
    match node {
        Node::Cache(c) => gs.line(c as usize, addr as usize).state,
        Node::Dir(_) => gs.dir(addr as usize).state,
    }
}

/// Evaluates a guard in the context of message `m` arriving at `m.dst`.
pub fn eval_guard(guard: Guard, gs: &GlobalState, m: &Msg) -> bool {
    let addr = m.addr as usize;
    match guard {
        Guard::Always => true,
        // Cache-side ack guards.
        Guard::AckZero | Guard::AckPositive => {
            let Node::Cache(c) = m.dst else { return false };
            let total = gs.line(c as usize, addr).needed_acks as i32 + m.ack as i32;
            (total == 0) == (guard == Guard::AckZero)
        }
        Guard::LastAck | Guard::NotLastAck => {
            let Node::Cache(c) = m.dst else { return false };
            let last = gs.line(c as usize, addr).needed_acks == 1;
            last == (guard == Guard::LastAck)
        }
        // Directory-side guards.
        Guard::LastSharer | Guard::NotLastSharer => {
            let others = gs.dir(addr).sharers & !(1u8 << m.requestor);
            (others == 0) == (guard == Guard::LastSharer)
        }
        Guard::FromOwner | Guard::NotFromOwner => {
            let from_owner = match m.src {
                Node::Cache(c) => gs.dir(addr).owner == Some(c),
                Node::Dir(_) => false,
            };
            from_owner == (guard == Guard::FromOwner)
        }
        Guard::LastSnpAck | Guard::NotLastSnpAck => {
            let last = gs.dir(addr).pending == 1;
            last == (guard == Guard::LastSnpAck)
        }
        Guard::NoOtherSharers | Guard::HasOtherSharers => {
            let others = gs.dir(addr).sharers & !(1u8 << m.requestor);
            (others == 0) == (guard == Guard::NoOtherSharers)
        }
        Guard::ReqIsOwner | Guard::ReqNotOwner => {
            let is_owner = gs.dir(addr).owner == Some(m.requestor);
            is_owner == (guard == Guard::ReqIsOwner)
        }
    }
}

/// Applies an entry's actions at `node` for `addr`, triggered by
/// `trigger_msg` (or a core event when `None`). Writes the sends into
/// `sends` (cleared first). `entry` is the one [`matching_cell`] or
/// [`core_entry`] found.
///
/// Sends carry the triggering message's requestor (or the acting cache
/// for core events); sends to deferred readers/writers carry the
/// recorded ids instead.
pub(crate) fn apply_entry(
    cfg: &McConfig,
    gs: &mut GlobalState,
    node: Node,
    addr: u8,
    trigger_msg: Option<&Msg>,
    entry: &Entry,
    sends: &mut Vec<Msg>,
) -> Result<(), ExecError> {
    let requestor = match trigger_msg {
        Some(m) => m.requestor,
        None => match node {
            Node::Cache(c) => c,
            Node::Dir(_) => unreachable!("core events only fire at caches"),
        },
    };
    let msg_ack = trigger_msg.map_or(0, |m| m.ack);
    sends.clear();
    // The entry reads and writes only the block's directory line and,
    // at a cache, the cache's line: both are worked on as values and
    // stored once at the end.
    let a = addr as usize;
    let mut dir = gs.dir(a);
    let mut line = match node {
        Node::Cache(c) => Some(gs.line(c as usize, a)),
        Node::Dir(_) => None,
    };
    fn cache_line(line: &mut Option<CacheLine>) -> &mut CacheLine {
        let Some(line) = line.as_mut() else { unreachable!("cache actions fire at caches") };
        line
    }

    for action in &entry.actions {
        match action {
            Action::Send { msg, to, payload } => {
                let (dir, line) = (&dir, &mut line);
                emit(cfg, dir, line, node, addr, requestor, msg_ack, *msg, *to, *payload, sends)?;
            }
            Action::SendToSharersExceptReq { msg } => {
                let sharers = dir.sharers & !(1u8 << requestor);
                for s in 0..cfg.n_caches as u8 {
                    if sharers & (1 << s) != 0 {
                        sends.push(Msg {
                            msg: msg.index() as u8,
                            addr,
                            src: node,
                            dst: Node::Cache(s),
                            requestor,
                            ack: 0,
                        });
                    }
                }
            }
            Action::SetOwnerToReq => dir.owner = Some(requestor),
            Action::ClearOwner => dir.owner = None,
            Action::AddReqToSharers => dir.sharers |= 1 << requestor,
            Action::AddOwnerToSharers => {
                if let Some(o) = dir.owner {
                    dir.sharers |= 1 << o;
                }
            }
            Action::RemoveReqFromSharers => dir.sharers &= !(1u8 << requestor),
            Action::ClearSharers => dir.sharers = 0,
            Action::CopyDataToMem => {}
            Action::RecordReader => cache_line(&mut line).readers |= 1 << requestor,
            Action::RecordWriter => cache_line(&mut line).writer = Some((requestor, msg_ack)),
            Action::SetPendingToOtherSharers => {
                dir.pending = (dir.sharers & !(1u8 << requestor)).count_ones() as i8;
            }
            Action::DecPending => dir.pending -= 1,
            Action::AddAcksFromMsg => cache_line(&mut line).needed_acks += msg_ack,
            Action::DecNeededAcks => cache_line(&mut line).needed_acks -= 1,
        }
    }

    if let Some(next) = entry.next {
        match &mut line {
            Some(l) => l.state = next.index() as u8,
            None => dir.state = next.index() as u8,
        }
    }
    gs.set_dir(a, dir);
    if let (Node::Cache(c), Some(l)) = (node, line) {
        gs.set_line(c as usize, a, l);
    }
    Ok(())
}

/// Appends the messages of one send action to `sends`, given the
/// block's directory line and, at a cache, the cache's line (which a
/// send to the deferred readers or writer clears).
#[allow(clippy::too_many_arguments)]
fn emit(
    cfg: &McConfig,
    dline: &DirLine,
    line: &mut Option<CacheLine>,
    node: Node,
    addr: u8,
    requestor: u8,
    msg_ack: i8,
    msg: MsgId,
    to: Target,
    payload: Payload,
    sends: &mut Vec<Msg>,
) -> Result<(), ExecError> {
    let others = (dline.sharers & !(1u8 << requestor)).count_ones() as i8;
    let base_ack = |stored: Option<(u8, i8)>| match payload {
        Payload::None | Payload::Data => 0,
        Payload::DataAckFromSharers | Payload::AckFromSharers => others,
        Payload::DataAckFromMsg => msg_ack,
        Payload::DataAckStored => stored.map_or(0, |(_, a)| a),
    };
    match to {
        Target::Req => sends.push(Msg {
            msg: msg.index() as u8,
            addr,
            src: node,
            dst: Node::Cache(requestor),
            requestor,
            ack: base_ack(None),
        }),
        Target::Dir => sends.push(Msg {
            msg: msg.index() as u8,
            addr,
            src: node,
            dst: Node::Dir(cfg.home_of(addr as usize) as u8),
            requestor,
            ack: base_ack(None),
        }),
        Target::Owner => {
            // A send to a missing owner is a specification bug, reported
            // as a structured error so the explorer can surface it.
            let owner = dline.owner.ok_or(ExecError::OwnerUnset { msg })?;
            sends.push(Msg {
                msg: msg.index() as u8,
                addr,
                src: node,
                dst: Node::Cache(owner),
                requestor,
                ack: base_ack(None),
            });
        }
        Target::Readers => {
            let Some(line) = line.as_mut() else { unreachable!() };
            let readers = line.readers;
            line.readers = 0;
            for r in 0..cfg.n_caches as u8 {
                if readers & (1 << r) != 0 {
                    sends.push(Msg {
                        msg: msg.index() as u8,
                        addr,
                        src: node,
                        dst: Node::Cache(r),
                        requestor: r,
                        ack: 0,
                    });
                }
            }
        }
        Target::Writer => {
            let Some(line) = line.as_mut() else { unreachable!() };
            let writer = line.writer.take();
            let (w, stored_ack) = writer.ok_or(ExecError::WriterUnset { msg })?;
            let ack = match payload {
                Payload::DataAckStored => stored_ack,
                _ => base_ack(Some((w, stored_ack))),
            };
            sends.push(Msg {
                msg: msg.index() as u8,
                addr,
                src: node,
                dst: Node::Cache(w),
                requestor: w,
                ack,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    // Tests return `Result` and surface failures as `Err` values instead
    // of unwrap/panic — the crate-wide panic-free discipline extends to
    // its own test suite.
    type TestResult = Result<(), String>;

    fn setup() -> (ProtocolSpec, McConfig, GlobalState) {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let gs = GlobalState::initial(&spec, &cfg);
        (spec, cfg, gs)
    }

    fn mid(spec: &ProtocolSpec, name: &str) -> Result<MsgId, String> {
        spec.message_by_name(name)
            .ok_or_else(|| format!("no message named {name}"))
    }

    fn cache_state(spec: &ProtocolSpec, name: &str) -> Result<u8, String> {
        Ok(spec
            .cache()
            .state_by_name(name)
            .ok_or_else(|| format!("no cache state named {name}"))?
            .index() as u8)
    }

    fn dir_state(spec: &ProtocolSpec, name: &str) -> Result<u8, String> {
        Ok(spec
            .directory()
            .state_by_name(name)
            .ok_or_else(|| format!("no directory state named {name}"))?
            .index() as u8)
    }

    fn fired(f: Firing) -> Result<Vec<Msg>, String> {
        match f {
            Firing::Fired { sends } => Ok(sends),
            other => Err(format!("expected the entry to fire, got {other:?}")),
        }
    }

    #[test]
    fn store_in_i_sends_getm_and_transitions() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let sends = inject(&spec, &cfg, &mut gs, 0, 0, CoreOp::Store)
            .map_err(|e| e.display(&spec))?
            .ok_or("store in I should be processable")?;
        assert_eq!(sends.len(), 1);
        let m = sends[0];
        assert_eq!(m.dst, Node::Dir(0));
        assert_eq!(m.requestor, 0);
        assert_eq!(spec.message_name(MsgId(m.msg as usize)), "GetM");
        assert_eq!(gs.line(0, 0).state, cache_state(&spec, "IM_AD")?);
        Ok(())
    }

    #[test]
    fn load_hit_in_m_is_a_no_op() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let state = cache_state(&spec, "M")?;
        gs.update_line(0, 0, |l| l.state = state);
        let out = inject(&spec, &cfg, &mut gs, 0, 0, CoreOp::Load).map_err(|e| e.display(&spec))?;
        assert_eq!(out, None);
        Ok(())
    }

    #[test]
    fn getm_at_idle_directory_grants_ownership() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let msg = Msg {
            msg: mid(&spec, "GetM")?.index() as u8,
            addr: 0,
            src: Node::Cache(1),
            dst: Node::Dir(0),
            requestor: 1,
            ack: 0,
        };
        let sends = fired(deliver(&spec, &cfg, &mut gs, &msg))?;
        assert_eq!(gs.dir(0).owner, Some(1));
        assert_eq!(gs.dir(0).state, dir_state(&spec, "M")?);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].dst, Node::Cache(1));
        assert_eq!(sends[0].ack, 0); // no sharers
        Ok(())
    }

    #[test]
    fn getm_in_s_counts_acks_and_invalidates_sharers() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let state = dir_state(&spec, "S")?;
        gs.update_dir(0, |d| d.state = state);
        gs.update_dir(0, |d| d.sharers = 0b110); // caches 1 and 2 share
        let msg = Msg {
            msg: mid(&spec, "GetM")?.index() as u8,
            addr: 0,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        let sends = fired(deliver(&spec, &cfg, &mut gs, &msg))?;
        // Data to requestor with ack=2, plus two Invs.
        let data = mid(&spec, "Data")?;
        let inv = mid(&spec, "Inv")?;
        let data_msg = sends
            .iter()
            .find(|m| m.msg == data.index() as u8)
            .ok_or("no Data message in the directory's sends")?;
        assert_eq!(data_msg.ack, 2);
        let invs: Vec<&Msg> = sends.iter().filter(|m| m.msg == inv.index() as u8).collect();
        assert_eq!(invs.len(), 2);
        assert!(invs.iter().all(|m| m.requestor == 0));
        assert_eq!(gs.dir(0).sharers, 0);
        assert_eq!(gs.dir(0).owner, Some(0));
        Ok(())
    }

    #[test]
    fn stall_reported_in_transient_state() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let state = dir_state(&spec, "S_D")?;
        gs.update_dir(0, |d| d.state = state);
        let msg = Msg {
            msg: mid(&spec, "GetM")?.index() as u8,
            addr: 0,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        assert_eq!(deliver(&spec, &cfg, &mut gs, &msg), Firing::Stalled);
        Ok(())
    }

    #[test]
    fn undefined_reception_reported() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        // Put-Ack arriving at a cache in I is undefined in the tables.
        let msg = Msg {
            msg: mid(&spec, "Put-Ack")?.index() as u8,
            addr: 0,
            src: Node::Dir(0),
            dst: Node::Cache(0),
            requestor: 0,
            ack: 0,
        };
        assert_eq!(deliver(&spec, &cfg, &mut gs, &msg), Firing::Undefined);
        Ok(())
    }

    #[test]
    fn ack_guards_combine_message_and_counter() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let state = cache_state(&spec, "IM_AD")?;
        gs.update_line(0, 0, |l| l.state = state);
        // Two early Inv-Acks already arrived.
        gs.update_line(0, 0, |l| l.needed_acks = -2);
        let msg = Msg {
            msg: mid(&spec, "Data")?.index() as u8,
            addr: 0,
            src: Node::Dir(0),
            dst: Node::Cache(0),
            requestor: 0,
            ack: 2,
        };
        // 2 + (-2) == 0: the ack=0 entry fires straight to M.
        let sends = fired(deliver(&spec, &cfg, &mut gs, &msg))?;
        assert!(sends.is_empty());
        assert_eq!(gs.line(0, 0).state, cache_state(&spec, "M")?);
        assert_eq!(gs.line(0, 0).needed_acks, 0);
        Ok(())
    }

    #[test]
    fn last_inv_ack_completes_write() -> TestResult {
        let (spec, cfg, mut gs) = setup();
        let state = cache_state(&spec, "IM_A")?;
        gs.update_line(0, 0, |l| l.state = state);
        gs.update_line(0, 0, |l| l.needed_acks = 1);
        let msg = Msg {
            msg: mid(&spec, "Inv-Ack")?.index() as u8,
            addr: 0,
            src: Node::Cache(1),
            dst: Node::Cache(0),
            requestor: 0,
            ack: 0,
        };
        fired(deliver(&spec, &cfg, &mut gs, &msg))?;
        assert_eq!(gs.line(0, 0).state, cache_state(&spec, "M")?);
        assert_eq!(gs.line(0, 0).needed_acks, 0);
        Ok(())
    }

    #[test]
    fn deferred_writer_round_trip_in_nonblocking_msi() -> TestResult {
        let spec = protocols::msi_nonblocking_cache();
        let cfg = McConfig::general(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        let state = cache_state(&spec, "IM_AD")?;
        gs.update_line(0, 0, |l| l.state = state);
        // A Fwd-GetM for cache 2 arrives and is deferred.
        let fwd = Msg {
            msg: mid(&spec, "Fwd-GetM")?.index() as u8,
            addr: 0,
            src: Node::Dir(0),
            dst: Node::Cache(0),
            requestor: 2,
            ack: 0,
        };
        let sends = fired(deliver(&spec, &cfg, &mut gs, &fwd))?;
        assert!(sends.is_empty());
        assert_eq!(gs.line(0, 0).writer, Some((2, 0)));
        // Data (ack=0) completes the write and serves the writer.
        let dm = Msg {
            msg: mid(&spec, "Data")?.index() as u8,
            addr: 0,
            src: Node::Dir(0),
            dst: Node::Cache(0),
            requestor: 0,
            ack: 0,
        };
        let sends = fired(deliver(&spec, &cfg, &mut gs, &dm))?;
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].dst, Node::Cache(2));
        assert_eq!(sends[0].requestor, 2);
        assert_eq!(gs.line(0, 0).writer, None);
        assert_eq!(gs.line(0, 0).state, cache_state(&spec, "I")?);
        Ok(())
    }

    /// A hand-built spec that sends to [`Target::Owner`] while the
    /// directory has never recorded one must surface the structured
    /// [`ExecError::OwnerUnset`] instead of panicking.
    #[test]
    fn missing_owner_is_a_structured_error() -> TestResult {
        use vnet_protocol::{acts, MsgType, ProtocolBuilder};
        let mut b = ProtocolBuilder::new("owner-bug");
        b.msg("Ping", MsgType::Request);
        b.msg("Poke", MsgType::FwdRequest);
        b.cache_stable(&["I"]);
        b.dir_stable(&["I"]);
        b.cache_on_core("I", CoreOp::Store, acts().send("Ping", Target::Dir));
        b.dir_on_msg("I", "Ping", acts().send("Poke", Target::Owner));
        let spec = b.build();
        let cfg = McConfig::general(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        let msg = Msg {
            msg: mid(&spec, "Ping")?.index() as u8,
            addr: 0,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        match deliver(&spec, &cfg, &mut gs, &msg) {
            Firing::Error(e @ ExecError::OwnerUnset { .. }) => {
                assert!(e.display(&spec).contains("Poke"));
                Ok(())
            }
            other => Err(format!("expected OwnerUnset, got {other:?}")),
        }
    }
}
