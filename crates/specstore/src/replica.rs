//! The messages of the spec store.
//!
//! Every client operation is an *update* in the sense of Perrin,
//! Mostéfaoui & Jard: a replica accepts it (a [`ClientMsg::Submit`]),
//! stamps it, answers the wait-free views at once and gossips it to its
//! peers ([`SpecMsg::Gossip`]); each peer acknowledges causal delivery
//! ([`SpecMsg::Ack`]), and the views that needed those acks follow, one
//! [`ClientMsg::Views`] each. The client half is the envelope every
//! round-robin store shares ([`SpecMsg::Client`]). The protocol that
//! speaks them is [`crate::core::SpecCore`]; the simulator carries them
//! as they are, and `icg-net` as they are too, one frame each.

use correctables::spec::SeqSpec;
use simnet::{ClientMsg, SubmitWire, Wire};

pub use crate::replay::{Update, UpdateId};

/// Protocol messages of the spec store. `T` is the submitting client's
/// name for its operation, echoed in every view: the gateway's op id
/// under simnet, `(client, seq)` over TCP.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecMsg<S: SeqSpec, T = u64> {
    /// Client ↔ replica: a submission, or views of one.
    Client(ClientMsg<T, S::Op, S::Ret>),
    /// Replica → replica: one update (also used for retransmission).
    Gossip {
        /// The update.
        update: Update<S::Op>,
    },
    /// Replica → origin replica, down the connection the origin's gossip
    /// arrived on: `acker` has causally delivered every update of
    /// `of.origin` up through `of.seq`.
    Ack {
        /// The newest acknowledged update.
        of: UpdateId,
        /// Index of the acknowledging replica.
        acker: usize,
        /// The acker's own submission count so far; the origin must
        /// causally deliver that many of the acker's updates before
        /// anything the acker has acknowledged counts as stable.
        acker_seq: u64,
    },
}

impl<S: SeqSpec> Wire for SpecMsg<S> {
    fn wire_size(&self) -> usize {
        // A coarse model: fixed framing plus the causal stamp; op bodies
        // are spec-dependent and modeled as one machine word.
        match self {
            SpecMsg::Client(msg) => msg.wire_size(),
            SpecMsg::Gossip { update } => 40 + 8 * update.vc.len(),
            SpecMsg::Ack { .. } => 32,
        }
    }

    fn category(&self) -> &'static str {
        match self {
            SpecMsg::Client(msg) => msg.category(),
            SpecMsg::Gossip { .. } => "gossip",
            SpecMsg::Ack { .. } => "ack",
        }
    }
}

impl<S: SeqSpec + 'static> SubmitWire for SpecMsg<S> {
    type Op = S::Op;
    type Val = S::Ret;

    fn client(msg: ClientMsg<u64, S::Op, S::Ret>) -> Self {
        SpecMsg::Client(msg)
    }

    fn into_client(self) -> Option<ClientMsg<u64, S::Op, S::Ret>> {
        match self {
            SpecMsg::Client(msg) => Some(msg),
            _ => None,
        }
    }
}
