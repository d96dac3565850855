//! The messages of the spec store.
//!
//! Every client operation is an *update* in the sense of Perrin,
//! Mostéfaoui & Jard: a replica accepts it ([`SpecMsg::Submit`]), stamps
//! it, answers the wait-free views at once ([`SpecMsg::Immediate`]) and
//! gossips it to its peers ([`SpecMsg::Gossip`]); each peer acknowledges
//! causal delivery ([`SpecMsg::Ack`]), and the views that needed those
//! acks follow ([`SpecMsg::Later`]). The protocol that speaks them is
//! [`crate::core::SpecCore`]; the simulator carries them as they are,
//! `icg-net` as `NetMsg::Spec*` frames.

use correctables::spec::SeqSpec;
use correctables::ConsistencyLevel;
use simnet::{Reply, SubmitWire, Wire};

pub use crate::replay::{Update, UpdateId};

/// Which levels one submission wants served.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wants {
    /// Deliver a weak view.
    pub weak: bool,
    /// Deliver an update-consistency view.
    pub update: bool,
    /// Deliver a causal view.
    pub causal: bool,
    /// Deliver a strong view.
    pub strong: bool,
}

/// Client-operation identity at the gateway (its own sequence space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// Protocol messages of the spec store. `T` is the submitting client's
/// name for its operation, echoed in every view: the gateway's [`OpId`]
/// under simnet, `(client, seq)` over TCP.
#[derive(Clone, Debug)]
pub enum SpecMsg<S: SeqSpec, T = OpId> {
    /// Gateway → replica: accept `op` as a new update.
    Submit {
        /// Client operation id (scoped to the gateway).
        op: T,
        /// The operation.
        client_op: S::Op,
        /// Levels to serve.
        wants: Wants,
    },
    /// Replica → gateway: the wait-free views (weak and/or update),
    /// emitted synchronously at accept time.
    Immediate {
        /// Client operation id.
        op: T,
        /// `(level, return value)` in level order.
        views: Vec<(ConsistencyLevel, S::Ret)>,
        /// Whether the strongest requested level is among `views`.
        closing: bool,
    },
    /// Replica → gateway: a causal or strong view that needed peer acks.
    Later {
        /// Client operation id.
        op: T,
        /// The level of this view.
        level: ConsistencyLevel,
        /// The replayed return value.
        ret: S::Ret,
        /// Whether this is the strongest requested level.
        closing: bool,
    },
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
            SpecMsg::Submit { .. } => 32,
            SpecMsg::Immediate { views, .. } => 16 + 16 * views.len(),
            SpecMsg::Later { .. } => 32,
            SpecMsg::Gossip { update } => 40 + 8 * update.vc.len(),
            SpecMsg::Ack { .. } => 32,
        }
    }

    fn category(&self) -> &'static str {
        match self {
            SpecMsg::Submit { .. } => "submit",
            SpecMsg::Immediate { .. } | SpecMsg::Later { .. } => "reply",
            SpecMsg::Gossip { .. } => "gossip",
            SpecMsg::Ack { .. } => "ack",
        }
    }
}

impl<S: SeqSpec + 'static> SubmitWire for SpecMsg<S> {
    type Op = S::Op;
    type Wants = Wants;
    type Val = S::Ret;

    fn submit(op: u64, client_op: S::Op, wants: Wants) -> Self {
        SpecMsg::Submit {
            op: OpId(op),
            client_op,
            wants,
        }
    }

    fn into_reply(self) -> Option<Reply<S::Ret>> {
        match self {
            SpecMsg::Immediate { op, views, closing } => Some(Reply {
                op: op.0,
                views,
                closing,
            }),
            SpecMsg::Later {
                op,
                level,
                ret,
                closing,
            } => Some(Reply {
                op: op.0,
                views: vec![(level, ret)],
                closing,
            }),
            _ => None,
        }
    }
}
