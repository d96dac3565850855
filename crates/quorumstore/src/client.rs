//! The client half of the quorum protocol, free of any I/O.
//!
//! A client of the store — the simulated gateway ([`crate::binding`]),
//! `icg-net`'s TCP binding — sends one [`Msg::ClientRead`] or
//! [`Msg::ClientWrite`] per operation to a coordinator replica and reads
//! the answers into the operation's [`Upcall`]. What is the same for
//! every such client lives here, once, the way the replica half lives in
//! [`crate::protocol::ReplicaCore`]:
//!
//! - which read to ask for, given the levels requested ([`read_kind`]);
//! - the submit message and what to keep while the operation is in
//!   flight ([`encode_submit`] → [`ClientOp`]);
//! - the reply state machine ([`on_reply`]): a preliminary is held and
//!   delivered at `WEAK`; a final or single reply closes with its
//!   record; a `*CC` confirmation closes with the *held* preliminary iff
//!   the versions match; a write acknowledgment closes with the record
//!   written; a coordinator failure closes with `Timeout`. A closing
//!   reply that leaves nothing to deliver fails `Unavailable` — a view,
//!   once delivered, was really observed at that level, so none is ever
//!   made up. Replies addressed to another client's operation are
//!   ignored.
//!
//! The host owns the table of open operations (the gateway a window over
//! its op ids, the reactor loop an [`crate::IdMap`]), mints sequence
//! numbers, arms the client deadline and moves the bytes; it hands
//! [`on_reply`] a lookup and removes the entry when told the operation
//! finished.

use correctables::{ConsistencyLevel, Error, KeyedOp, ObjectId, Upcall};
use simnet::NodeId;

use crate::messages::{Msg, Phase};
use crate::types::{Key, OpId, ReadKind, Value, Version, Versioned};

/// Operations a client can submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Read a key.
    Read(Key),
    /// Write a key (always `W = 1`, as in the paper's evaluation).
    Write(Key, Value),
}

impl KeyedOp for StoreOp {
    fn object_id(&self) -> ObjectId {
        let key = match self {
            StoreOp::Read(k) => k,
            StoreOp::Write(k, _) => k,
        };
        // Spread the namespace across all bits so (ns, id) pairs rarely
        // collide; the ring re-hashes this anyway.
        ObjectId(key.id ^ u64::from(key.ns).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// How to read, given the levels an invocation asked for: both ends →
/// one server-side ICG read (preliminary flush, then the quorum view);
/// strong only → one quorum read; weak only → one `R = 1` read.
pub fn read_kind(levels: &[ConsistencyLevel], r_strong: u8, confirm: bool) -> ReadKind {
    let weak = levels.contains(&ConsistencyLevel::WEAK);
    let strong = levels.contains(&ConsistencyLevel::STRONG);
    match (weak, strong) {
        (true, true) => ReadKind::Icg {
            r: r_strong,
            confirm,
        },
        (false, _) => ReadKind::Single { r: r_strong },
        (true, false) => ReadKind::Single { r: 1 },
    }
}

/// One operation in flight: where its views go and what a closing reply
/// may fall back to.
pub struct ClientOp {
    upcall: Upcall<Versioned>,
    close_level: ConsistencyLevel,
    /// The preliminary view, held for a `*CC` confirmation to promote.
    prelim: Option<Versioned>,
    /// The record a write submitted: its acknowledgment carries none.
    written: Option<Versioned>,
}

impl ClientOp {
    /// Closes the operation exceptionally (client deadline, lost
    /// connection). Views already delivered stand.
    pub fn fail(self, err: Error) {
        self.upcall.fail(err);
    }
}

/// Builds the message that submits `op` as operation `seq` of `client`,
/// and the entry to keep until [`on_reply`] says the operation finished.
/// Nothing else in the tree sends a client request.
pub fn encode_submit(
    client: NodeId,
    seq: u64,
    op: StoreOp,
    kind: ReadKind,
    upcall: Upcall<Versioned>,
) -> (Msg, ClientOp) {
    let id = OpId { client, seq };
    let (msg, written) = match op {
        StoreOp::Read(key) => (Msg::ClientRead { op: id, key, kind }, None),
        StoreOp::Write(key, value) => {
            let written = Versioned {
                value: value.clone(),
                version: Version::ZERO,
            };
            let msg = Msg::ClientWrite {
                op: id,
                key,
                value,
                w: 1,
            };
            (msg, Some(written))
        }
    };
    let entry = ClientOp {
        close_level: upcall.strongest(),
        upcall,
        prelim: None,
        written,
    };
    (msg, entry)
}

/// What one reply did to the operation it answers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// A preliminary view was delivered and is held; the operation
    /// stays open.
    Preliminary,
    /// The operation closed with a view.
    Closed,
    /// The operation closed with an error.
    Failed,
}

impl Step {
    /// Whether the host should drop the operation's entry.
    pub fn finished(self) -> bool {
        self != Step::Preliminary
    }
}

/// Whether `msg`, if it answers an open operation, finishes it: every
/// reply but a preliminary view does. A host that must know *before*
/// the closing view is delivered (the reactor loop lowers its in-flight
/// count first) asks here and lends [`on_reply`] the entry already out
/// of its table. The answer is [`Step::finished`]'s of the step that
/// follows — the tests below hold the two together, one reply at a time.
pub fn closes_op(msg: &Msg) -> bool {
    let preliminary = matches!(
        msg,
        Msg::ReadReply {
            phase: Phase::Preliminary,
            ..
        }
    );
    !preliminary
}

/// Routes one message a coordinator sent to `client` into the operation
/// it answers, found through `entry` (sequence number → open entry).
/// Returns that sequence number and what happened, or `None` if the
/// message answers nothing open here: another client's operation, one
/// that already finished, or not a reply at all.
pub fn on_reply<'t>(
    client: NodeId,
    msg: Msg,
    entry: impl FnOnce(u64) -> Option<&'t mut ClientOp>,
) -> Option<(u64, Step)> {
    let own = |op: OpId| {
        let p = if op.client == client {
            entry(op.seq)
        } else {
            None
        };
        p.map(|p| (op.seq, p))
    };
    // Closes with `view`, or fails if the reply left none to deliver.
    let close = |p: &mut ClientOp, view: Option<Versioned>, missing: &str| match view {
        Some(v) => {
            p.upcall.deliver(v, p.close_level);
            Step::Closed
        }
        None => {
            p.upcall.fail(Error::Unavailable(missing.into()));
            Step::Failed
        }
    };
    match msg {
        Msg::ReadReply {
            op,
            phase: Phase::Preliminary,
            data,
        } => {
            let (seq, p) = own(op)?;
            p.prelim = Some(data.clone());
            p.upcall.deliver(data, ConsistencyLevel::WEAK);
            Some((seq, Step::Preliminary))
        }
        Msg::ReadReply { op, data, .. } => {
            let (seq, p) = own(op)?;
            p.upcall.deliver(data, p.close_level);
            Some((seq, Step::Closed))
        }
        Msg::ReadConfirm { op, version } => {
            // *CC: the final view equals the preliminary. Confirm only
            // against the preliminary actually held: if it was lost in
            // transit, promoting nothing to a strong view would
            // fabricate a result.
            let (seq, p) = own(op)?;
            let held = p.prelim.take().filter(|held| held.version == version);
            let missing = "read confirmation without matching preliminary view";
            Some((seq, close(p, held, missing)))
        }
        Msg::WriteReply { op } => {
            let (seq, p) = own(op)?;
            let written = p.written.take();
            let missing = "write acknowledgment for an operation that wrote nothing";
            Some((seq, close(p, written, missing)))
        }
        Msg::OpFailed { op, .. } => {
            let (seq, p) = own(op)?;
            p.upcall.fail(Error::Timeout);
            Some((seq, Step::Failed))
        }
        // Replica-to-replica traffic and client requests answer nothing.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlines::IdMap;
    use correctables::{Correctable, State};

    const ME: NodeId = NodeId(7);
    const WEAK: ConsistencyLevel = ConsistencyLevel::WEAK;
    const STRONG: ConsistencyLevel = ConsistencyLevel::STRONG;

    fn record(v: u32, ts: u64) -> Versioned {
        Versioned {
            value: Value::Opaque(v),
            version: Version { ts, writer: 1 },
        }
    }

    /// A host reduced to its table: lookup → core → remove if finished.
    #[derive(Default)]
    struct Table(IdMap<ClientOp>);

    impl Table {
        fn submit(
            &mut self,
            seq: u64,
            op: StoreOp,
            levels: &[ConsistencyLevel],
        ) -> Correctable<Versioned> {
            let (c, handle) = Correctable::pending();
            let upcall = Upcall::for_levels(handle, levels);
            let (_msg, entry) = encode_submit(ME, seq, op, read_kind(levels, 2, true), upcall);
            self.0.insert(seq, entry);
            c
        }

        fn feed(&mut self, msg: Msg) -> Option<Step> {
            let closes = closes_op(&msg);
            let (seq, step) = on_reply(ME, msg, |seq| self.0.get_mut(&seq))?;
            assert_eq!(closes, step.finished(), "closes_op against {step:?}");
            if step.finished() {
                self.0.remove(&seq);
            }
            Some(step)
        }
    }

    fn op(seq: u64) -> OpId {
        OpId { client: ME, seq }
    }

    fn reply(seq: u64, phase: Phase, data: Versioned) -> Msg {
        Msg::ReadReply {
            op: op(seq),
            phase,
            data,
        }
    }

    fn unavailable(c: &Correctable<Versioned>) -> bool {
        c.state() == State::Error && matches!(c.error(), Some(Error::Unavailable(_)))
    }

    #[test]
    fn levels_choose_the_read() {
        assert_eq!(
            read_kind(&[WEAK, STRONG], 3, true),
            ReadKind::Icg {
                r: 3,
                confirm: true
            }
        );
        assert_eq!(read_kind(&[STRONG], 3, true), ReadKind::Single { r: 3 });
        assert_eq!(read_kind(&[WEAK], 3, true), ReadKind::Single { r: 1 });
    }

    #[test]
    fn submit_is_the_client_request() {
        let (_c, handle) = Correctable::pending();
        let kind = ReadKind::Single { r: 2 };
        let write = StoreOp::Write(Key::plain(4), Value::Opaque(9));
        let (msg, _entry) = encode_submit(ME, 5, write, kind, Upcall::new(handle, STRONG));
        assert_eq!(
            msg,
            Msg::ClientWrite {
                op: op(5),
                key: Key::plain(4),
                value: Value::Opaque(9),
                w: 1
            }
        );
    }

    #[test]
    fn icg_read_delivers_weak_then_closes_strong() {
        let mut t = Table::default();
        let c = t.submit(0, StoreOp::Read(Key::plain(1)), &[WEAK, STRONG]);
        assert_eq!(
            t.feed(reply(0, Phase::Preliminary, record(1, 1))),
            Some(Step::Preliminary)
        );
        assert_eq!(c.state(), State::Updating);
        assert_eq!(c.preliminary_views()[0].level, WEAK);
        assert_eq!(
            t.feed(reply(0, Phase::Final, record(2, 2))),
            Some(Step::Closed)
        );
        let v = c.final_view().expect("closed");
        assert_eq!((v.level, v.value), (STRONG, record(2, 2)));
        assert!(t.0.is_empty());
    }

    #[test]
    fn confirmation_closes_with_the_held_record() {
        let mut t = Table::default();
        let c = t.submit(0, StoreOp::Read(Key::plain(1)), &[WEAK, STRONG]);
        t.feed(reply(0, Phase::Preliminary, record(5, 3)));
        let confirm = Msg::ReadConfirm {
            op: op(0),
            version: record(5, 3).version,
        };
        assert_eq!(t.feed(confirm), Some(Step::Closed));
        let v = c.final_view().expect("closed");
        assert_eq!((v.level, v.value), (STRONG, record(5, 3)));
    }

    #[test]
    fn confirmation_without_a_matching_preliminary_fails_unavailable() {
        let mut t = Table::default();
        // The preliminary was lost in transit.
        let lost = t.submit(0, StoreOp::Read(Key::plain(1)), &[WEAK, STRONG]);
        // The preliminary held is of another version.
        let stale = t.submit(1, StoreOp::Read(Key::plain(1)), &[WEAK, STRONG]);
        t.feed(reply(1, Phase::Preliminary, record(5, 3)));
        for seq in [0, 1] {
            let confirm = Msg::ReadConfirm {
                op: op(seq),
                version: record(5, 4).version,
            };
            assert_eq!(t.feed(confirm), Some(Step::Failed));
        }
        assert!(unavailable(&lost) && unavailable(&stale));
        assert!(t.0.is_empty());
    }

    #[test]
    fn write_ack_for_a_read_that_holds_nothing_fails_unavailable() {
        let mut t = Table::default();
        let read = t.submit(0, StoreOp::Read(Key::plain(1)), &[STRONG]);
        assert_eq!(t.feed(Msg::WriteReply { op: op(0) }), Some(Step::Failed));
        // Not "the key does not exist", at STRONG.
        assert!(unavailable(&read));
        let write = t.submit(
            1,
            StoreOp::Write(Key::plain(1), Value::Opaque(8)),
            &[STRONG],
        );
        assert_eq!(t.feed(Msg::WriteReply { op: op(1) }), Some(Step::Closed));
        assert_eq!(
            write.final_view().expect("closed").value.value,
            Value::Opaque(8)
        );
    }

    /// [`closes_op`] answers before dispatch what [`Step::finished`]
    /// answers after (every [`Table::feed`] above checks it too): here,
    /// once per reply a coordinator can send.
    #[test]
    fn closes_op_foretells_finished_for_every_reply() {
        let held = record(5, 3);
        let replies = [
            reply(0, Phase::Preliminary, held.clone()),
            reply(0, Phase::Final, held.clone()),
            reply(0, Phase::Single, held.clone()),
            Msg::ReadConfirm {
                op: op(0),
                version: held.version,
            },
            Msg::ReadConfirm {
                op: op(0),
                version: record(5, 4).version,
            },
            Msg::WriteReply { op: op(0) },
            Msg::OpFailed {
                op: op(0),
                reason: crate::messages::FailReason::Timeout,
            },
        ];
        for msg in replies {
            let mut t = Table::default();
            let _read = t.submit(0, StoreOp::Read(Key::plain(1)), &[WEAK, STRONG]);
            t.feed(reply(0, Phase::Preliminary, held.clone()));
            let foretold = closes_op(&msg);
            let step = t.feed(msg.clone()).expect("answers operation 0");
            assert_eq!(foretold, step.finished(), "{msg:?}");
            assert_eq!(t.0.is_empty(), foretold, "{msg:?}");
        }
    }

    #[test]
    fn another_clients_reply_is_ignored_and_the_entry_stays() {
        let mut t = Table::default();
        let c = t.submit(0, StoreOp::Read(Key::plain(1)), &[STRONG]);
        let theirs = Msg::ReadReply {
            op: OpId {
                client: NodeId(8),
                seq: 0,
            },
            phase: Phase::Single,
            data: record(1, 1),
        };
        assert_eq!(t.feed(theirs), None);
        assert_eq!((c.state(), t.0.len()), (State::Updating, 1));
        // Nor does a request or peer traffic answer anything.
        let peer = Msg::PeerWriteAck { op: op(0) };
        assert_eq!(t.feed(peer), None);
        assert_eq!(t.0.len(), 1);
    }

    #[test]
    fn coordinator_failure_is_a_timeout_and_a_second_close_is_a_no_op() {
        let mut t = Table::default();
        let failed = t.submit(0, StoreOp::Read(Key::plain(1)), &[STRONG]);
        let fail = Msg::OpFailed {
            op: op(0),
            reason: crate::messages::FailReason::Timeout,
        };
        assert_eq!(t.feed(fail), Some(Step::Failed));
        assert!(matches!(failed.error(), Some(Error::Timeout)));
        let closed = t.submit(1, StoreOp::Read(Key::plain(1)), &[STRONG]);
        assert_eq!(
            t.feed(reply(1, Phase::Single, record(1, 1))),
            Some(Step::Closed)
        );
        assert_eq!(t.feed(reply(1, Phase::Single, record(2, 2))), None);
        assert_eq!(closed.final_view().expect("closed").value, record(1, 1));
    }
}
