//! Adversarial-ordering tests of the Zab apply path: proposals and
//! commits may arrive in any order (the simulator's jittered links do not
//! guarantee FIFO), and servers must still apply transactions in strict
//! zxid order.

use std::any::Any;

use consensusq::{Msg, OpId, Server, ServerConfig, Txn};
use simnet::{Ctx, Engine, Node, NodeId, SimDuration, SiteId, Topology};

/// Absorbs replies (plays the leader/client roles).
struct Sink;
impl Node<Msg> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn enqueue_txn() -> Txn {
    Txn::CreateSeq {
        parent: "/q".into(),
        prefix: "qn-".into(),
        data_len: 8,
    }
}

fn setup() -> (Engine<Msg>, NodeId, NodeId) {
    let topo = Topology::single_site();
    // The sink impersonates the leader, server 1 of the ensemble; the
    // follower only needs to know where to send acks.
    let (eng, ids) = Engine::with_replicas(topo, 5, &[SiteId(0); 2], |i, ids| match i {
        0 => Box::new(Server::new(ServerConfig::default(), 0, ids, 1)),
        _ => Box::new(Sink),
    });
    (eng, ids[0], ids[1])
}

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

#[test]
fn commit_arriving_before_proposal_is_buffered() {
    let (mut eng, follower, sink) = setup();
    let op = OpId {
        client: sink,
        seq: 1,
    };
    // Commit first, proposal later.
    eng.schedule_message(sink, follower, ms(1), Msg::Commit { zxid: 1 });
    eng.schedule_message(
        sink,
        follower,
        ms(10),
        Msg::Propose {
            zxid: 1,
            txn: enqueue_txn(),
            origin: sink,
            op,
        },
    );
    eng.run_until(simnet::SimTime::ZERO + ms(5));
    assert_eq!(
        eng.node_as::<Server>(follower).applied_count,
        0,
        "must not apply before the proposal arrives"
    );
    eng.run_until_idle(1_000);
    let s = eng.node_as::<Server>(follower);
    assert_eq!(s.applied_count, 1);
    assert_eq!(s.tree.child_count("/q"), 1);
}

#[test]
fn out_of_order_zxids_apply_in_order() {
    let (mut eng, follower, sink) = setup();
    // Proposals 1..=4 and commits, all shuffled in delivery time; the
    // state machine must end identical to in-order application.
    let schedule = [
        (3u64, 1u64, true), // (zxid, at_ms, is_proposal)
        (1, 2, false),
        (4, 3, true),
        (2, 4, false),
        (2, 5, true),
        (4, 6, false),
        (1, 7, true),
        (3, 8, false),
    ];
    for (zxid, at, is_proposal) in schedule {
        let msg = if is_proposal {
            Msg::Propose {
                zxid,
                txn: enqueue_txn(),
                origin: sink,
                op: OpId {
                    client: sink,
                    seq: zxid,
                },
            }
        } else {
            Msg::Commit { zxid }
        };
        eng.schedule_message(sink, follower, ms(at), msg);
    }
    eng.run_until_idle(10_000);
    let s = eng.node_as::<Server>(follower);
    assert_eq!(s.applied_count, 4);
    // Sequential names prove in-order application.
    assert_eq!(
        s.tree.children_of("/q"),
        vec![
            "qn-0000000000".to_string(),
            "qn-0000000001".to_string(),
            "qn-0000000002".to_string(),
            "qn-0000000003".to_string(),
        ]
    );
}

#[test]
fn gap_in_commits_stalls_later_transactions() {
    let (mut eng, follower, sink) = setup();
    for zxid in 1..=3u64 {
        eng.schedule_message(
            sink,
            follower,
            ms(zxid),
            Msg::Propose {
                zxid,
                txn: enqueue_txn(),
                origin: sink,
                op: OpId {
                    client: sink,
                    seq: zxid,
                },
            },
        );
    }
    // Commit only 2 and 3; 1 is missing.
    eng.schedule_message(sink, follower, ms(10), Msg::Commit { zxid: 2 });
    eng.schedule_message(sink, follower, ms(11), Msg::Commit { zxid: 3 });
    eng.run_until_idle(10_000);
    assert_eq!(
        eng.node_as::<Server>(follower).applied_count,
        0,
        "nothing may apply past a commit gap"
    );
    // The missing commit unblocks everything, in order.
    eng.schedule_message(sink, follower, ms(1), Msg::Commit { zxid: 1 });
    eng.run_until_idle(10_000);
    assert_eq!(eng.node_as::<Server>(follower).applied_count, 3);
}
