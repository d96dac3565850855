//! Wire messages of the quorum store.
//!
//! Sizes model a compact binary protocol with a fixed per-message framing
//! overhead ([`FRAME_BYTES`], covering transport headers), so that the
//! bandwidth experiments (Figure 8) measure realistic client-link costs.

use simnet::Wire;

use crate::types::{Key, OpId, ReadKind, Value, Version, Versioned};

/// Fixed per-message overhead (transport framing, headers).
pub const FRAME_BYTES: usize = 60;

/// Size of an [`OpId`] plus a one-byte message tag.
const OP_HEADER: usize = 13;

/// Why a coordinator failed an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailReason {
    /// The coordinator could not gather the required quorum in time.
    Timeout,
}

/// Which stage of an ICG read a reply carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// The only reply of a non-ICG read.
    Single,
    /// The preliminary (weakly consistent) reply of an ICG read.
    Preliminary,
    /// The final (quorum) reply of an ICG read.
    Final,
}

/// Every message exchanged in the quorum-store protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Client asks a coordinator to read `key`.
    ClientRead {
        /// Operation id.
        op: OpId,
        /// Key to read.
        key: Key,
        /// Execution mode (quorum size, ICG, confirmation optimization).
        kind: ReadKind,
    },
    /// Client asks a coordinator to write `key`.
    ClientWrite {
        /// Operation id.
        op: OpId,
        /// Key to write.
        key: Key,
        /// New value.
        value: Value,
        /// Write quorum size (the paper's experiments use `W = 1`).
        w: u8,
    },
    /// Coordinator asks a peer replica for its version of `key`.
    PeerRead {
        /// Operation id.
        op: OpId,
        /// Key to read.
        key: Key,
    },
    /// Peer replica answers a [`Msg::PeerRead`].
    PeerReadResp {
        /// Operation id.
        op: OpId,
        /// The peer's stored record.
        data: Versioned,
    },
    /// Replicate a write to a peer (quorum write or async propagation).
    /// `ack_op` requests an acknowledgment.
    PeerWrite {
        /// Key being replicated.
        key: Key,
        /// Record to store (last-writer-wins).
        data: Versioned,
        /// If set, the peer acknowledges with this op id.
        ack_op: Option<OpId>,
    },
    /// Peer acknowledges a quorum write.
    PeerWriteAck {
        /// Operation id.
        op: OpId,
    },
    /// Coordinator replies to a client read.
    ReadReply {
        /// Operation id.
        op: OpId,
        /// Which stage this reply is.
        phase: Phase,
        /// The record.
        data: Versioned,
    },
    /// *CC optimization: the final view equals the preliminary one, so a
    /// small confirmation replaces the full final reply. The version lets
    /// the client check the confirmation against the preliminary it
    /// actually holds — if the preliminary was lost in transit, silently
    /// promoting nothing to a strong view would fabricate a wrong result.
    ReadConfirm {
        /// Operation id.
        op: OpId,
        /// Version of the record being confirmed.
        version: Version,
    },
    /// Coordinator acknowledges a client write.
    WriteReply {
        /// Operation id.
        op: OpId,
    },
    /// Coordinator failed the operation.
    OpFailed {
        /// Operation id.
        op: OpId,
        /// Why.
        reason: FailReason,
    },
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        let body = match self {
            Msg::ClientRead { key, .. } => OP_HEADER + key.wire_size() + 2,
            Msg::ClientWrite { key, value, .. } => {
                OP_HEADER + key.wire_size() + 1 + value.write_size()
            }
            Msg::PeerRead { key, .. } => OP_HEADER + key.wire_size(),
            Msg::PeerReadResp { data, .. } => OP_HEADER + data.wire_size(),
            Msg::PeerWrite { key, data, .. } => {
                OP_HEADER + key.wire_size() + data.value.write_size() + 12
            }
            Msg::PeerWriteAck { .. } => OP_HEADER,
            Msg::ReadReply { data, .. } => OP_HEADER + 1 + data.wire_size(),
            Msg::ReadConfirm { .. } => OP_HEADER + 12,
            Msg::WriteReply { .. } => OP_HEADER,
            Msg::OpFailed { .. } => OP_HEADER + 1,
        };
        FRAME_BYTES + body
    }

    fn category(&self) -> &'static str {
        match self {
            Msg::ClientRead { .. } => "client-read",
            Msg::ClientWrite { .. } => "client-write",
            Msg::PeerRead { .. } => "peer-read",
            Msg::PeerReadResp { .. } => "peer-read-resp",
            Msg::PeerWrite { .. } => "peer-write",
            Msg::PeerWriteAck { .. } => "peer-write-ack",
            Msg::ReadReply {
                phase: Phase::Preliminary,
                ..
            } => "read-prelim",
            Msg::ReadReply { .. } => "read-reply",
            Msg::ReadConfirm { .. } => "read-confirm",
            Msg::WriteReply { .. } => "write-reply",
            Msg::OpFailed { .. } => "op-failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Version;
    use simnet::NodeId;

    fn op() -> OpId {
        OpId {
            client: NodeId(1),
            seq: 9,
        }
    }

    #[test]
    fn confirm_is_much_smaller_than_full_reply() {
        let full = Msg::ReadReply {
            op: op(),
            phase: Phase::Final,
            data: Versioned {
                value: Value::Opaque(1000),
                version: Version { ts: 1, writer: 0 },
            },
        };
        let confirm = Msg::ReadConfirm {
            op: op(),
            version: Version { ts: 1, writer: 0 },
        };
        assert!(full.wire_size() > confirm.wire_size() + 900);
    }

    #[test]
    fn categories_distinguish_prelim_from_final() {
        let prelim = Msg::ReadReply {
            op: op(),
            phase: Phase::Preliminary,
            data: Versioned::absent(),
        };
        let fin = Msg::ReadReply {
            op: op(),
            phase: Phase::Final,
            data: Versioned::absent(),
        };
        assert_eq!(prelim.category(), "read-prelim");
        assert_eq!(fin.category(), "read-reply");
    }

    #[test]
    fn every_message_pays_framing() {
        let m = Msg::PeerWriteAck { op: op() };
        assert!(m.wire_size() >= FRAME_BYTES);
    }
}
