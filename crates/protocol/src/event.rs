//! Triggers: the columns of a protocol table.
//!
//! A trigger is either a processor-core event at a cache (load, store,
//! eviction) or the reception of a message, optionally refined by a
//! [`Guard`]. Guards encode the *split columns* of the textbook tables —
//! "Data from Dir (ack=0)" vs "(ack>0)", "PutS-Last" vs "PutS-NonLast",
//! "PutM from Owner" vs "from Non-Owner", "Inv-Ack" vs "Last-Inv-Ack".
//!
//! Guards matter only to the executable semantics (`vnet-mc`); the static
//! analysis (`vnet-core`) works on message *names* and simply traverses
//! every guarded entry.

use crate::message::MsgId;
use std::fmt;

/// A processor-core event at a cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreOp {
    /// A load miss/hit.
    Load,
    /// A store miss/hit.
    Store,
    /// A capacity/conflict eviction of the block.
    Evict,
}

impl CoreOp {
    /// All core operations.
    pub fn all() -> [CoreOp; 3] {
        [CoreOp::Load, CoreOp::Store, CoreOp::Evict]
    }

    /// The operation's name, as tables and the DSL write it.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CoreOp::Load => "Load",
            CoreOp::Store => "Store",
            CoreOp::Evict => "Evict",
        }
    }
}

impl fmt::Display for CoreOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What fires a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// A core event (cache tables only).
    Core(CoreOp),
    /// Reception of the named message.
    Msg(MsgId),
}

/// A predicate refining a message-reception column.
///
/// Guards are evaluated against the concrete controller/message state by
/// the model checker. Within one `(state, message)` pair, the guards of
/// the defined entries must be mutually exclusive (checked by
/// [`crate::ProtocolSpec::validate`]) — together they need not be
/// exhaustive (an unmatched reception is a modeling error that the model
/// checker reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Guard {
    /// No refinement.
    Always,
    /// Cache data reception whose combined ack count is zero
    /// (`msg.ack_count + pending_acks == 0`).
    AckZero,
    /// Cache data reception with acks still outstanding.
    AckPositive,
    /// Cache Inv-Ack reception that completes the ack count
    /// ("Last-Inv-Ack" column).
    LastAck,
    /// Cache Inv-Ack reception with more acks still to come.
    NotLastAck,
    /// Directory: the requestor is the last sharer ("PutS-Last").
    LastSharer,
    /// Directory: other sharers remain ("PutS-NonLast").
    NotLastSharer,
    /// Directory: the message's sender is the recorded owner.
    FromOwner,
    /// Directory: the message's sender is not the recorded owner.
    NotFromOwner,
    /// Directory: snoop-response that completes the pending count.
    LastSnpAck,
    /// Directory: snoop-responses still outstanding.
    NotLastSnpAck,
    /// Directory: no sharers other than the requestor exist.
    NoOtherSharers,
    /// Directory: at least one sharer other than the requestor exists.
    HasOtherSharers,
    /// Directory: the requestor is the recorded owner.
    ReqIsOwner,
    /// Directory: the requestor is not the recorded owner.
    ReqNotOwner,
}

impl Guard {
    /// The guard that is mutually exclusive with `self`, if the guard is
    /// one of a complementary pair.
    pub fn complement(self) -> Option<Guard> {
        use Guard::*;
        Some(match self {
            AckZero => AckPositive,
            AckPositive => AckZero,
            LastAck => NotLastAck,
            NotLastAck => LastAck,
            LastSharer => NotLastSharer,
            NotLastSharer => LastSharer,
            FromOwner => NotFromOwner,
            NotFromOwner => FromOwner,
            LastSnpAck => NotLastSnpAck,
            NotLastSnpAck => LastSnpAck,
            NoOtherSharers => HasOtherSharers,
            HasOtherSharers => NoOtherSharers,
            ReqIsOwner => ReqNotOwner,
            ReqNotOwner => ReqIsOwner,
            Always => return None,
        })
    }

    /// The guard as the DSL writes it between brackets; empty for
    /// [`Guard::Always`].
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Guard::Always => "",
            Guard::AckZero => "ack=0",
            Guard::AckPositive => "ack>0",
            Guard::LastAck => "last-ack",
            Guard::NotLastAck => "not-last-ack",
            Guard::LastSharer => "last-sharer",
            Guard::NotLastSharer => "not-last-sharer",
            Guard::FromOwner => "from-owner",
            Guard::NotFromOwner => "from-non-owner",
            Guard::LastSnpAck => "last-snpack",
            Guard::NotLastSnpAck => "not-last-snpack",
            Guard::NoOtherSharers => "no-other-sharers",
            Guard::HasOtherSharers => "has-other-sharers",
            Guard::ReqIsOwner => "req-is-owner",
            Guard::ReqNotOwner => "req-not-owner",
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully-refined table column: an event plus a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Trigger {
    /// The firing event.
    pub event: Event,
    /// The refining guard ([`Guard::Always`] for unguarded columns).
    pub guard: Guard,
}

impl Trigger {
    /// An unguarded core-event trigger.
    pub fn core(op: CoreOp) -> Self {
        Trigger {
            event: Event::Core(op),
            guard: Guard::Always,
        }
    }

    /// An unguarded message trigger.
    pub fn msg(m: MsgId) -> Self {
        Trigger {
            event: Event::Msg(m),
            guard: Guard::Always,
        }
    }

    /// A guarded message trigger.
    pub fn msg_if(m: MsgId, guard: Guard) -> Self {
        Trigger {
            event: Event::Msg(m),
            guard,
        }
    }

    /// The message id if this is a message trigger.
    pub fn message(&self) -> Option<MsgId> {
        match self.event {
            Event::Msg(m) => Some(m),
            Event::Core(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complements_pair_up() {
        for g in [
            Guard::AckZero,
            Guard::LastAck,
            Guard::LastSharer,
            Guard::FromOwner,
            Guard::LastSnpAck,
            Guard::NoOtherSharers,
            Guard::ReqIsOwner,
        ] {
            let c = g.complement().unwrap();
            assert_eq!(c.complement(), Some(g));
        }
        assert_eq!(Guard::Always.complement(), None);
    }

    #[test]
    fn trigger_constructors() {
        let t = Trigger::core(CoreOp::Load);
        assert_eq!(t.event, Event::Core(CoreOp::Load));
        assert_eq!(t.message(), None);

        let t = Trigger::msg_if(MsgId(2), Guard::AckZero);
        assert_eq!(t.message(), Some(MsgId(2)));
        assert_eq!(t.guard, Guard::AckZero);
    }

    #[test]
    fn core_ops_enumerated() {
        assert_eq!(CoreOp::all().len(), 3);
        assert_eq!(CoreOp::Evict.to_string(), "Evict");
    }

    #[test]
    fn guard_display() {
        assert_eq!(Guard::AckPositive.to_string(), "ack>0");
        assert_eq!(Guard::Always.to_string(), "");
    }
}
