//! Ergonomic, name-based construction of [`ProtocolSpec`]s.
//!
//! Protocol tables are authored with string names and resolved eagerly;
//! unknown names panic at construction time (they are authoring bugs, not
//! runtime conditions). See `crate::protocols::msi`'s source for
//! full-scale usage.

use crate::action::{Action, Payload, Target};
use crate::event::{CoreOp, Guard, Trigger};
use crate::message::{MessageDef, MsgId, MsgType};
use crate::spec::ProtocolSpec;
use crate::state::{StateDef, StateId, StateKind};
use crate::table::{Cell, ControllerSpec, Entry};

/// A pending action sequence plus optional next state, built by [`acts`].
#[derive(Debug, Clone, Default)]
pub struct Acts {
    steps: Vec<Step>,
    next: Option<String>,
}

#[derive(Debug, Clone)]
enum Step {
    Send(String, Target, Payload),
    ToSharers(String),
    Raw(Action),
}

/// Starts an action sequence for a table cell.
///
/// # Example
///
/// ```
/// use vnet_protocol::{acts, Target};
///
/// let entry = acts().send("GetS", Target::Dir).goto("IS_D");
/// # let _ = entry;
/// ```
pub fn acts() -> Acts {
    Acts::default()
}

impl Acts {
    /// Send a control message.
    pub fn send(mut self, msg: &str, to: Target) -> Self {
        self.steps.push(Step::Send(msg.into(), to, Payload::None));
        self
    }

    /// Send a message carrying the cache line.
    pub fn send_data(mut self, msg: &str, to: Target) -> Self {
        self.steps.push(Step::Send(msg.into(), to, Payload::Data));
        self
    }

    /// Send a data message carrying an ack count equal to the number of
    /// sharers other than the requestor.
    pub fn send_data_acks(mut self, msg: &str, to: Target) -> Self {
        self.steps
            .push(Step::Send(msg.into(), to, Payload::DataAckFromSharers));
        self
    }

    /// Send a message carrying an ack count (but no data) equal to the
    /// number of sharers other than the requestor.
    pub fn send_acks_from_sharers(mut self, msg: &str, to: Target) -> Self {
        self.steps
            .push(Step::Send(msg.into(), to, Payload::AckFromSharers));
        self
    }

    /// Send a data message whose ack count is copied from the message
    /// being processed.
    pub fn send_data_acks_from_msg(mut self, msg: &str, to: Target) -> Self {
        self.steps
            .push(Step::Send(msg.into(), to, Payload::DataAckFromMsg));
        self
    }

    /// Send a data message whose ack count was stored by
    /// [`Acts::record_writer`].
    pub fn send_data_acks_stored(mut self, msg: &str, to: Target) -> Self {
        self.steps
            .push(Step::Send(msg.into(), to, Payload::DataAckStored));
        self
    }

    /// Send `msg` to every sharer except the requestor.
    pub fn to_sharers(mut self, msg: &str) -> Self {
        self.steps.push(Step::ToSharers(msg.into()));
        self
    }

    /// Directory: record the requestor as owner.
    pub fn set_owner_to_req(mut self) -> Self {
        self.steps.push(Step::Raw(Action::SetOwnerToReq));
        self
    }

    /// Directory: clear the owner.
    pub fn clear_owner(mut self) -> Self {
        self.steps.push(Step::Raw(Action::ClearOwner));
        self
    }

    /// Directory: add the requestor to the sharers.
    pub fn add_req_to_sharers(mut self) -> Self {
        self.steps.push(Step::Raw(Action::AddReqToSharers));
        self
    }

    /// Directory: add the owner to the sharers.
    pub fn add_owner_to_sharers(mut self) -> Self {
        self.steps.push(Step::Raw(Action::AddOwnerToSharers));
        self
    }

    /// Directory: remove the requestor from the sharers.
    pub fn remove_req_from_sharers(mut self) -> Self {
        self.steps.push(Step::Raw(Action::RemoveReqFromSharers));
        self
    }

    /// Directory: clear the sharers.
    pub fn clear_sharers(mut self) -> Self {
        self.steps.push(Step::Raw(Action::ClearSharers));
        self
    }

    /// Directory: write the message's data to memory.
    pub fn copy_to_mem(mut self) -> Self {
        self.steps.push(Step::Raw(Action::CopyDataToMem));
        self
    }

    /// Cache: add the requestor to the deferred-reader set for a later
    /// [`Target::Readers`] multicast.
    pub fn record_reader(mut self) -> Self {
        self.steps.push(Step::Raw(Action::RecordReader));
        self
    }

    /// Cache: remember the requestor and its ack count for a later
    /// [`Target::Writer`] send.
    pub fn record_writer(mut self) -> Self {
        self.steps.push(Step::Raw(Action::RecordWriter));
        self
    }

    /// Directory: set the pending counter to |sharers \ {req}|.
    pub fn set_pending_other_sharers(mut self) -> Self {
        self.steps.push(Step::Raw(Action::SetPendingToOtherSharers));
        self
    }

    /// Directory: decrement the pending counter.
    pub fn dec_pending(mut self) -> Self {
        self.steps.push(Step::Raw(Action::DecPending));
        self
    }

    /// Cache: absorb the ack count carried by the received data message.
    pub fn add_acks_from_msg(mut self) -> Self {
        self.steps.push(Step::Raw(Action::AddAcksFromMsg));
        self
    }

    /// Cache: decrement the needed-acks counter.
    pub fn dec_needed_acks(mut self) -> Self {
        self.steps.push(Step::Raw(Action::DecNeededAcks));
        self
    }

    /// Transition to `state` after the actions.
    pub fn goto(mut self, state: &str) -> Self {
        self.next = Some(state.into());
        self
    }

    /// Appends `other`'s steps (and adopts its next state, if set).
    pub fn extend(mut self, other: Acts) -> Self {
        self.steps.extend(other.steps);
        if other.next.is_some() {
            self.next = other.next;
        }
        self
    }
}

/// Builder for [`ProtocolSpec`]s.
///
/// # Panics
///
/// All insertion methods panic on unresolved message or state names —
/// table authoring errors should fail loudly at construction.
#[derive(Debug)]
pub struct ProtocolBuilder {
    name: String,
    messages: Vec<MessageDef>,
    cache_states: Vec<StateDef>,
    dir_states: Vec<StateDef>,
    cache_initial: Option<String>,
    dir_initial: Option<String>,
    cache_cells: Vec<(String, TriggerSpec, CellSpec)>,
    dir_cells: Vec<(String, TriggerSpec, CellSpec)>,
}

#[derive(Debug, Clone)]
enum TriggerSpec {
    Core(CoreOp),
    Msg(String, Guard),
}

#[derive(Debug, Clone)]
enum CellSpec {
    Acts(Acts),
    Stall,
}

impl ProtocolBuilder {
    /// Starts a new protocol named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProtocolBuilder {
            name: name.into(),
            messages: Vec::new(),
            cache_states: Vec::new(),
            dir_states: Vec::new(),
            cache_initial: None,
            dir_initial: None,
            cache_cells: Vec::new(),
            dir_cells: Vec::new(),
        }
    }

    /// Declares a message name.
    pub fn msg(&mut self, name: &str, mtype: MsgType) -> &mut Self {
        assert!(
            !self.messages.iter().any(|m| m.name == name),
            "duplicate message {name}"
        );
        self.messages.push(MessageDef::new(name, mtype));
        self
    }

    /// Declares stable cache states.
    pub fn cache_stable(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.cache_states.push(StateDef::new(*n, StateKind::Stable));
        }
        self
    }

    /// Declares transient cache states.
    pub fn cache_transient(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.cache_states
                .push(StateDef::new(*n, StateKind::Transient));
        }
        self
    }

    /// Declares stable directory states.
    pub fn dir_stable(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.dir_states.push(StateDef::new(*n, StateKind::Stable));
        }
        self
    }

    /// Declares transient directory states.
    pub fn dir_transient(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.dir_states
                .push(StateDef::new(*n, StateKind::Transient));
        }
        self
    }

    /// Sets the initial cache state (defaults to the first stable one).
    pub fn cache_initial(&mut self, name: &str) -> &mut Self {
        self.cache_initial = Some(name.into());
        self
    }

    /// Sets the initial directory state (defaults to the first stable one).
    pub fn dir_initial(&mut self, name: &str) -> &mut Self {
        self.dir_initial = Some(name.into());
        self
    }

    /// Cache cell for a core event.
    pub fn cache_on_core(&mut self, state: &str, op: CoreOp, acts: Acts) -> &mut Self {
        self.cache_cells
            .push((state.into(), TriggerSpec::Core(op), CellSpec::Acts(acts)));
        self
    }

    /// Cache cell for an unguarded message reception.
    pub fn cache_on_msg(&mut self, state: &str, msg: &str, acts: Acts) -> &mut Self {
        self.cache_on_msg_if(state, msg, Guard::Always, acts)
    }

    /// Cache cell for a guarded message reception.
    pub fn cache_on_msg_if(
        &mut self,
        state: &str,
        msg: &str,
        guard: Guard,
        acts: Acts,
    ) -> &mut Self {
        self.cache_cells.push((
            state.into(),
            TriggerSpec::Msg(msg.into(), guard),
            CellSpec::Acts(acts),
        ));
        self
    }

    /// Cache stall on a core event (delays the core; invisible to the
    /// network).
    pub fn cache_stall_core(&mut self, state: &str, op: CoreOp) -> &mut Self {
        self.cache_cells
            .push((state.into(), TriggerSpec::Core(op), CellSpec::Stall));
        self
    }

    /// Cache stall on a message (blocks the message's VN — the stalls the
    /// paper's analysis is about).
    pub fn cache_stall_msg(&mut self, state: &str, msg: &str) -> &mut Self {
        self.cache_stall_msg_if(state, msg, Guard::Always)
    }

    /// Cache stall on a guarded message reception.
    pub fn cache_stall_msg_if(&mut self, state: &str, msg: &str, guard: Guard) -> &mut Self {
        self.cache_cells.push((
            state.into(),
            TriggerSpec::Msg(msg.into(), guard),
            CellSpec::Stall,
        ));
        self
    }

    /// Directory cell for an unguarded message reception.
    pub fn dir_on_msg(&mut self, state: &str, msg: &str, acts: Acts) -> &mut Self {
        self.dir_on_msg_if(state, msg, Guard::Always, acts)
    }

    /// Directory cell for a guarded message reception.
    pub fn dir_on_msg_if(
        &mut self,
        state: &str,
        msg: &str,
        guard: Guard,
        acts: Acts,
    ) -> &mut Self {
        self.dir_cells.push((
            state.into(),
            TriggerSpec::Msg(msg.into(), guard),
            CellSpec::Acts(acts),
        ));
        self
    }

    /// Directory stall on a message.
    pub fn dir_stall_msg(&mut self, state: &str, msg: &str) -> &mut Self {
        self.dir_stall_msg_if(state, msg, Guard::Always)
    }

    /// Directory stall on a guarded message reception.
    pub fn dir_stall_msg_if(&mut self, state: &str, msg: &str, guard: Guard) -> &mut Self {
        self.dir_cells.push((
            state.into(),
            TriggerSpec::Msg(msg.into(), guard),
            CellSpec::Stall,
        ));
        self
    }

    /// Resolves all names and produces the specification.
    ///
    /// # Panics
    ///
    /// Panics on unknown message/state names or duplicate cells.
    pub fn build(&self) -> ProtocolSpec {
        let msg_id = |name: &str| -> MsgId {
            MsgId(
                self.messages
                    .iter()
                    .position(|m| m.name == name)
                    .unwrap_or_else(|| panic!("unknown message {name}")),
            )
        };
        let build_ctrl = |states: &[StateDef],
                          initial: &Option<String>,
                          cells: &[(String, TriggerSpec, CellSpec)],
                          side: &str|
         -> ControllerSpec {
            let state_id = |name: &str| -> StateId {
                StateId(
                    states
                        .iter()
                        .position(|s| s.name == name)
                        .unwrap_or_else(|| panic!("unknown {side} state {name}")),
                )
            };
            let init = match initial {
                Some(n) => state_id(n),
                None => StateId(
                    states
                        .iter()
                        .position(|s| s.kind == StateKind::Stable)
                        .expect("no stable state to use as initial"),
                ),
            };
            let mut ctrl = ControllerSpec::new(states.to_vec(), init);
            for (state, tspec, cspec) in cells {
                let sid = state_id(state);
                let trigger = match tspec {
                    TriggerSpec::Core(op) => Trigger::core(*op),
                    TriggerSpec::Msg(m, g) => Trigger::msg_if(msg_id(m), *g),
                };
                assert!(
                    ctrl.cell(sid, trigger).is_none(),
                    "duplicate {side} cell ({state}, {trigger:?})"
                );
                let cell = match cspec {
                    CellSpec::Stall => Cell::Stall,
                    CellSpec::Acts(acts) => {
                        let actions = acts
                            .steps
                            .iter()
                            .map(|s| match s {
                                Step::Send(m, to, p) => Action::Send {
                                    msg: msg_id(m),
                                    to: *to,
                                    payload: *p,
                                },
                                Step::ToSharers(m) => {
                                    Action::SendToSharersExceptReq { msg: msg_id(m) }
                                }
                                Step::Raw(a) => a.clone(),
                            })
                            .collect();
                        let next = acts.next.as_deref().map(state_id);
                        Cell::Entry(Entry { actions, next })
                    }
                };
                ctrl.set(sid, trigger, cell);
            }
            ctrl
        };

        let cache = build_ctrl(
            &self.cache_states,
            &self.cache_initial,
            &self.cache_cells,
            "cache",
        );
        let directory = build_ctrl(&self.dir_states, &self.dir_initial, &self.dir_cells, "dir");
        ProtocolSpec::new(self.name.clone(), self.messages.clone(), cache, directory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProtocolSpec {
        let mut b = ProtocolBuilder::new("tiny");
        b.msg("Get", MsgType::Request)
            .msg("Dat", MsgType::DataResponse);
        b.cache_stable(&["I", "V"]).cache_transient(&["IV"]);
        b.dir_stable(&["I"]);
        b.cache_on_core("I", CoreOp::Load, acts().send("Get", Target::Dir).goto("IV"));
        b.cache_on_msg("IV", "Dat", acts().goto("V"));
        b.cache_stall_msg("IV", "Get");
        b.dir_on_msg("I", "Get", acts().send_data("Dat", Target::Req));
        b.build()
    }

    #[test]
    fn builds_and_resolves() {
        let p = tiny();
        assert_eq!(p.name(), "tiny");
        let get = p.message_by_name("Get").unwrap();
        let iv = p.cache().state_by_name("IV").unwrap();
        assert!(p.cache().cell(iv, Trigger::msg(get)).unwrap().is_stall());
        assert_eq!(p.cache().initial(), p.cache().state_by_name("I").unwrap());
    }

    #[test]
    fn entry_actions_resolved() {
        let p = tiny();
        let get = p.message_by_name("Get").unwrap();
        let dat = p.message_by_name("Dat").unwrap();
        let i = p.directory().state_by_name("I").unwrap();
        let cell = p.directory().cell(i, Trigger::msg(get)).unwrap();
        let entry = cell.entry().unwrap();
        assert_eq!(entry.sends().collect::<Vec<_>>(), vec![(dat, Target::Req)]);
        assert_eq!(entry.next, None);
    }

    #[test]
    #[should_panic(expected = "unknown message")]
    fn unknown_message_panics() {
        let mut b = ProtocolBuilder::new("bad");
        b.cache_stable(&["I"]);
        b.dir_stable(&["I"]);
        b.cache_on_msg("I", "Nope", acts());
        b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn duplicate_message_panics() {
        let mut b = ProtocolBuilder::new("bad");
        b.msg("Get", MsgType::Request).msg("Get", MsgType::Request);
    }

    #[test]
    #[should_panic(expected = "duplicate cache cell")]
    fn duplicate_cell_panics() {
        let mut b = ProtocolBuilder::new("bad");
        b.msg("Get", MsgType::Request);
        b.cache_stable(&["I"]);
        b.dir_stable(&["I"]);
        b.cache_stall_msg("I", "Get");
        b.cache_stall_msg("I", "Get");
        b.build();
    }

    #[test]
    fn default_initial_is_first_stable() {
        let p = tiny();
        assert_eq!(p.directory().initial(), StateId(0));
    }
}
