//! Executable actions: the contents of a table cell.
//!
//! Actions are interpreted concretely by the model checker (`vnet-mc`) and
//! the NoC simulator (`vnet-sim`); the static analysis (`vnet-core`) only
//! inspects [`Action::sends`] to derive the `causes` relation.

use crate::message::MsgId;
use std::fmt;

/// Destination of a [`Action::Send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The requestor associated with the message being processed: for a
    /// request arriving at a directory this is the sender; for a forwarded
    /// request arriving at a cache it is the *original* requestor carried
    /// in the message.
    Req,
    /// The home directory of the block's address.
    Dir,
    /// The owner cache recorded at the directory.
    Owner,
    /// Every requestor recorded by [`Action::RecordReader`] (a multicast;
    /// the reader set is cleared after the send). Used by nonblocking
    /// caches completing deferred Fwd-GetS forwards.
    Readers,
    /// The requestor recorded by [`Action::RecordWriter`] (cleared after
    /// the send). Used by nonblocking caches completing a deferred
    /// Fwd-GetM forward.
    Writer,
}

impl Target {
    /// `true` if the target is resolved to a cache controller,
    /// `false` if to a directory.
    pub fn is_cache(self) -> bool {
        !matches!(self, Target::Dir)
    }

    /// The target's name, as the DSL writes it.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Target::Req => "Req",
            Target::Dir => "Dir",
            Target::Owner => "Owner",
            Target::Readers => "Readers",
            Target::Writer => "Writer",
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a sent message carries (beyond its name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Payload {
    /// Control-only.
    #[default]
    None,
    /// The cache line.
    Data,
    /// The cache line plus an ack count equal to the number of sharers
    /// other than the requestor at send time (directory → requestor on
    /// GetM from state S).
    DataAckFromSharers,
    /// An ack count only, computed like [`Payload::DataAckFromSharers`]
    /// but without data (directory → owner on Fwd-GetM in MOSI/MOESI, or
    /// directory → upgrading owner as an AckCount message).
    AckFromSharers,
    /// The cache line plus the ack count copied from the message being
    /// processed (owner → requestor when serving a Fwd-GetM that carried
    /// the count).
    DataAckFromMsg,
    /// The cache line plus the ack count recorded by
    /// [`Action::RecordWriter`] (nonblocking caches completing a deferred
    /// Fwd-GetM).
    DataAckStored,
}

/// One primitive step of a table entry.
///
/// The directory-bookkeeping actions (owner/sharer manipulation, pending
/// counters) are no-ops when executed at a cache, and vice versa — the
/// validator rejects misplaced actions instead of relying on that.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Send `msg` to `to` carrying `payload`.
    Send {
        /// The message name to send.
        msg: MsgId,
        /// The destination.
        to: Target,
        /// The payload.
        payload: Payload,
    },
    /// Directory: send `msg` to every current sharer except the requestor.
    SendToSharersExceptReq {
        /// The message name to send (an invalidation, typically).
        msg: MsgId,
    },
    /// Directory: record the requestor as the new owner.
    SetOwnerToReq,
    /// Directory: clear the recorded owner.
    ClearOwner,
    /// Directory: add the requestor to the sharer set.
    AddReqToSharers,
    /// Directory: add the current owner to the sharer set.
    AddOwnerToSharers,
    /// Directory: remove the requestor from the sharer set.
    RemoveReqFromSharers,
    /// Directory: clear the sharer set.
    ClearSharers,
    /// Directory: write the message's data back to memory (a no-op for
    /// deadlock analysis; kept for fidelity to the textbook tables).
    CopyDataToMem,
    /// Cache: add the requestor of the message being processed to the
    /// deferred-reader set, for a later [`Target::Readers`] multicast.
    RecordReader,
    /// Cache: remember the requestor *and ack count* of the message being
    /// processed, for a later [`Target::Writer`] send (optionally with
    /// [`Payload::DataAckStored`]).
    RecordWriter,
    /// Directory: set the pending-ack counter to the number of sharers
    /// other than the requestor (used with [`Action::SendToSharersExceptReq`]).
    SetPendingToOtherSharers,
    /// Directory: decrement the pending-ack counter.
    DecPending,
    /// Cache: add the received message's ack count to the needed-acks
    /// counter (reception of Data with ack>0).
    AddAcksFromMsg,
    /// Cache: decrement the needed-acks counter (reception of Inv-Ack).
    DecNeededAcks,
}

impl Action {
    /// If this action sends a message, the `(message, target)` pair.
    /// [`Action::SendToSharersExceptReq`] reports target [`Target::Req`]'s
    /// complement — i.e. it is a cache-bound multicast, reported with a
    /// synthetic [`Target::Owner`]-like cache destination: the static
    /// analysis only needs the destination controller *kind*, which for
    /// sharers is always a cache.
    pub fn sends(&self) -> Option<(MsgId, Target)> {
        match self {
            Action::Send { msg, to, .. } => Some((*msg, *to)),
            // Sharers are caches; `Owner` stands in as "some cache".
            Action::SendToSharersExceptReq { msg } => Some((*msg, Target::Owner)),
            _ => None,
        }
    }

    /// `true` for directory-only bookkeeping actions.
    pub fn is_directory_only(&self) -> bool {
        matches!(
            self,
            Action::SendToSharersExceptReq { .. }
                | Action::SetOwnerToReq
                | Action::ClearOwner
                | Action::AddReqToSharers
                | Action::AddOwnerToSharers
                | Action::RemoveReqFromSharers
                | Action::ClearSharers
                | Action::CopyDataToMem
                | Action::SetPendingToOtherSharers
                | Action::DecPending
        )
    }

    /// `true` for cache-only bookkeeping actions.
    pub fn is_cache_only(&self) -> bool {
        matches!(
            self,
            Action::AddAcksFromMsg
                | Action::DecNeededAcks
                | Action::RecordReader
                | Action::RecordWriter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_extraction() {
        let a = Action::Send {
            msg: MsgId(1),
            to: Target::Dir,
            payload: Payload::Data,
        };
        assert_eq!(a.sends(), Some((MsgId(1), Target::Dir)));
        assert_eq!(Action::SetOwnerToReq.sends(), None);
        let m = Action::SendToSharersExceptReq { msg: MsgId(2) };
        let (msg, to) = m.sends().unwrap();
        assert_eq!(msg, MsgId(2));
        assert!(to.is_cache());
    }

    #[test]
    fn target_kind() {
        assert!(Target::Req.is_cache());
        assert!(Target::Owner.is_cache());
        assert!(Target::Readers.is_cache());
        assert!(Target::Writer.is_cache());
        assert!(!Target::Dir.is_cache());
    }

    #[test]
    fn side_classification() {
        assert!(Action::ClearSharers.is_directory_only());
        assert!(Action::DecNeededAcks.is_cache_only());
        assert!(Action::RecordReader.is_cache_only());
        assert!(Action::RecordWriter.is_cache_only());
        assert!(!Action::CopyDataToMem.is_cache_only());
    }
}
