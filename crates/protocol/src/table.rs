//! Controller transition tables.
//!
//! A [`ControllerSpec`] is the machine form of one of the textbook tables
//! (Figures 1–2 of the paper): a map from `(state, trigger)` to a
//! [`Cell`], which is either an executable [`Entry`] or a stall.

use crate::action::Action;
use crate::event::{CoreOp, Event, Guard, Trigger};
use crate::message::MsgId;
use crate::state::{StateDef, StateId, StateKind};
use std::collections::BTreeMap;

/// An executable table cell: actions plus an optional state change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Entry {
    /// Actions, executed in order.
    pub actions: Vec<Action>,
    /// Next state; `None` means "stay".
    pub next: Option<StateId>,
}

impl Entry {
    /// The messages sent by this entry, as `(message, target)` pairs.
    pub fn sends(&self) -> impl Iterator<Item = (MsgId, crate::action::Target)> + '_ {
        self.actions.iter().filter_map(Action::sends)
    }
}

/// A table cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cell {
    /// Process the trigger: run actions, change state.
    Entry(Entry),
    /// Block the head of the incoming queue until the in-flight
    /// transaction completes (paper §II-E). For core-event triggers a
    /// stall merely delays the core, which is invisible to the network;
    /// for message triggers a stall blocks the VN the message arrived on.
    Stall,
}

impl Cell {
    /// Returns the entry if the cell is executable.
    pub fn entry(&self) -> Option<&Entry> {
        match self {
            Cell::Entry(e) => Some(e),
            Cell::Stall => None,
        }
    }

    /// Returns `true` if the cell is a stall.
    pub fn is_stall(&self) -> bool {
        matches!(self, Cell::Stall)
    }
}

/// One controller's transition table (cache or directory).
#[derive(Debug, Clone)]
pub struct ControllerSpec {
    states: Vec<StateDef>,
    initial: StateId,
    table: BTreeMap<(StateId, Trigger), Cell>,
}

impl ControllerSpec {
    /// Creates a controller with the given states; `initial` must index a
    /// stable state.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, `initial` is out of range, or the
    /// initial state is transient.
    pub fn new(states: Vec<StateDef>, initial: StateId) -> Self {
        assert!(!states.is_empty(), "controller needs at least one state");
        assert!(initial.0 < states.len(), "initial state out of range");
        assert_eq!(
            states[initial.0].kind,
            StateKind::Stable,
            "initial state must be stable"
        );
        ControllerSpec {
            states,
            initial,
            table: BTreeMap::new(),
        }
    }

    /// The state definitions, indexable by [`StateId`].
    pub fn states(&self) -> &[StateDef] {
        &self.states
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The definition of `state`.
    pub fn state(&self, state: StateId) -> &StateDef {
        &self.states[state.0]
    }

    /// Looks up a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(StateId)
    }

    /// Inserts a cell; replaces any previous cell for the same key.
    pub fn set(&mut self, state: StateId, trigger: Trigger, cell: Cell) {
        assert!(state.0 < self.states.len(), "state out of range");
        self.table.insert((state, trigger), cell);
    }

    /// Replaces every cell with `cells`, given in any order, each key
    /// once.
    pub(crate) fn set_all(&mut self, cells: Vec<((StateId, Trigger), Cell)>) {
        assert!(
            cells.iter().all(|((s, _), _)| s.0 < self.states.len()),
            "state out of range"
        );
        self.table = cells.into_iter().collect();
    }

    /// Removes the cell for an exact `(state, trigger)` key, returning it
    /// if one was present. Used by structural mutators; the resulting
    /// table may no longer validate.
    pub fn remove(&mut self, state: StateId, trigger: Trigger) -> Option<Cell> {
        self.table.remove(&(state, trigger))
    }

    /// The cell for an exact `(state, trigger)` key.
    pub fn cell(&self, state: StateId, trigger: Trigger) -> Option<&Cell> {
        self.table.get(&(state, trigger))
    }

    /// All `(trigger, cell)` pairs defined for `state`.
    pub fn row(&self, state: StateId) -> impl Iterator<Item = (&Trigger, &Cell)> {
        self.table
            .range((state, min_trigger())..=(state, max_trigger()))
            .map(|((_, t), c)| (t, c))
    }

    /// All entries in the table as `(state, trigger, cell)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &Trigger, &Cell)> {
        self.table.iter().map(|((s, t), c)| (*s, t, c))
    }

    /// The guarded variants defined for `(state, message)`, in guard order.
    pub fn entries_for_message(
        &self,
        state: StateId,
        msg: MsgId,
    ) -> impl Iterator<Item = (&Guard, &Cell)> {
        // Triggers order by event, then guard, so one message's guarded
        // variants are a contiguous run of the row.
        let with = |guard| Trigger {
            event: Event::Msg(msg),
            guard,
        };
        self.table
            .range((state, with(Guard::Always))..=(state, with(Guard::ReqNotOwner)))
            .map(|((_, t), c)| (&t.guard, c))
    }

    /// All states from which a transition leads into `state`, together
    /// with the trigger. Used for the `Init(T)` backward walk of the
    /// `stalls` computation (paper §IV-D).
    pub fn transitions_into(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (StateId, &Trigger)> {
        self.table.iter().filter_map(move |((s, t), c)| match c {
            Cell::Entry(e) if e.next == Some(state) && *s != state => Some((*s, t)),
            _ => None,
        })
    }

    /// Stall cells on *message* triggers, as `(state, message)` pairs.
    /// (Core-event stalls don't block the network, so the `stalls`
    /// relation ignores them.)
    pub fn message_stalls(&self) -> impl Iterator<Item = (StateId, MsgId)> + '_ {
        self.table.iter().filter_map(|((s, t), c)| match (t.event, c) {
            (Event::Msg(m), Cell::Stall) => Some((*s, m)),
            _ => None,
        })
    }
}

fn min_trigger() -> Trigger {
    Trigger::core(CoreOp::Load)
}

fn max_trigger() -> Trigger {
    Trigger {
        event: Event::Msg(MsgId(usize::MAX)),
        guard: Guard::ReqNotOwner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Payload, Target};
    use crate::event::Trigger;

    fn controller() -> ControllerSpec {
        let states = vec![
            StateDef::new("I", StateKind::Stable),
            StateDef::new("IS_D", StateKind::Transient),
            StateDef::new("S", StateKind::Stable),
        ];
        let mut c = ControllerSpec::new(states, StateId(0));
        c.set(
            StateId(0),
            Trigger::core(CoreOp::Load),
            Cell::Entry(Entry {
                actions: vec![Action::Send {
                    msg: MsgId(0),
                    to: Target::Dir,
                    payload: Payload::None,
                }],
                next: Some(StateId(1)),
            }),
        );
        c.set(
            StateId(1),
            Trigger::msg(MsgId(1)),
            Cell::Entry(Entry {
                actions: vec![],
                next: Some(StateId(2)),
            }),
        );
        c.set(StateId(1), Trigger::msg(MsgId(2)), Cell::Stall);
        c
    }

    #[test]
    fn lookup_and_rows() {
        let c = controller();
        assert!(c.cell(StateId(0), Trigger::core(CoreOp::Load)).is_some());
        assert!(c.cell(StateId(0), Trigger::core(CoreOp::Store)).is_none());
        assert_eq!(c.row(StateId(1)).count(), 2);
        assert_eq!(c.row(StateId(2)).count(), 0);
        assert_eq!(c.iter().count(), 3);
    }

    #[test]
    fn row_does_not_leak_into_neighbors() {
        let c = controller();
        // Row for state 0 must not include state 1's triggers.
        assert_eq!(c.row(StateId(0)).count(), 1);
    }

    #[test]
    fn stalls_enumerated() {
        let c = controller();
        let stalls: Vec<_> = c.message_stalls().collect();
        assert_eq!(stalls, vec![(StateId(1), MsgId(2))]);
    }

    #[test]
    fn transitions_into_excludes_self() {
        let c = controller();
        let into_isd: Vec<_> = c.transitions_into(StateId(1)).collect();
        assert_eq!(into_isd.len(), 1);
        assert_eq!(into_isd[0].0, StateId(0));
    }

    #[test]
    fn entries_for_message_filters() {
        let c = controller();
        assert_eq!(c.entries_for_message(StateId(1), MsgId(1)).count(), 1);
        assert_eq!(c.entries_for_message(StateId(1), MsgId(0)).count(), 0);
    }

    #[test]
    fn entries_for_message_spans_every_guard_of_that_message_only() {
        let mut c = controller();
        let guarded = |msg, guard| Trigger {
            event: Event::Msg(MsgId(msg)),
            guard,
        };
        for (msg, guard) in [
            (1, Guard::ReqNotOwner),
            (1, Guard::Always),
            (1, Guard::LastAck),
            (0, Guard::ReqNotOwner),
            (2, Guard::Always),
        ] {
            c.set(StateId(2), guarded(msg, guard), Cell::Stall);
        }
        let guards: Vec<Guard> = c
            .entries_for_message(StateId(2), MsgId(1))
            .map(|(g, _)| *g)
            .collect();
        assert_eq!(guards, [Guard::Always, Guard::LastAck, Guard::ReqNotOwner]);
    }

    #[test]
    fn state_by_name() {
        let c = controller();
        assert_eq!(c.state_by_name("IS_D"), Some(StateId(1)));
        assert_eq!(c.state_by_name("Z"), None);
    }

    #[test]
    #[should_panic(expected = "stable")]
    fn transient_initial_rejected() {
        let states = vec![StateDef::new("T", StateKind::Transient)];
        let _ = ControllerSpec::new(states, StateId(0));
    }
}
