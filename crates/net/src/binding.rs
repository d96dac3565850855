//! The client half: a [`Binding`] over TCP.
//!
//! [`TcpBinding`] plays the role the in-simulation gateway plays for
//! `quorumstore::SimStore`: it owns the connection to a coordinator
//! replica, assigns op ids and matches replies back to pending
//! invocations. What a reply *means* — preliminary flush → `Weak` view,
//! final/single reply → closing view, confirmation → promote the held
//! preliminary or fail — is [`quorumstore::client`]'s, the one client
//! protocol both hosts run.
//!
//! Because it implements [`Binding`], an unmodified
//! [`Client`](correctables::Client) — and everything layered on clients:
//! speculation, combinators, the recording layer, the oracle — runs
//! against remote replicas with no code changes.
//!
//! A binding is a handle onto the epoll reactor: thousands of them
//! share the event loops of a process-wide [`ClientReactor`], where
//! each binding's link — connection, pending-op table, failover cursor
//! — lives ([`crate::reactor::client`], the same link type and submit
//! path [`crate::TcpSpecBinding`] rides). This module holds the handle
//! and builds the quorum store's requests.
//!
//! ## Direct submit
//!
//! The preliminary view is only as fast as the path from `invoke` to
//! the socket. When nothing else is in flight on the binding's link,
//! `submit` builds the request and writes it to the coordinator socket
//! on the calling thread, and tells the loop about the operation
//! without waking it: the reply wakes it, which is the first moment it
//! has anything to do. When something *is* in flight the request, built
//! here all the same, is queued for the loop — replies are about to
//! wake it anyway, and it batches what it finds into one `write`, where
//! direct writes would make one TCP send per operation. Which path an
//! operation takes is decided by what the binding observes of its own
//! link — that count, and the loop's verdict on whether the link's last
//! busy spell was a burst — never by anything configured. What is
//! shared to make this possible, and the orderings that keep it safe,
//! are [`crate::reactor::client`]'s to explain.
//!
//! ## Failover
//!
//! The binding takes the full replica address list. When the connection
//! to the current coordinator dies, every in-flight operation fails with
//! [`correctables::Error::Unavailable`] (their replies are gone with the socket — the
//! paper's model is failure-aware, not failure-masking), and the next
//! submission dials the next address in the list. Operations submitted
//! after the reconnect run against the new coordinator; any replica of
//! the set can coordinate, so the client keeps operating as long as one
//! replica is reachable.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use quorumstore::types::{Value, Versioned};
use quorumstore::{encode_submit, read_kind, StoreOp};
use simnet::NodeId;

use crate::reactor::client::{ClientReactor, Entry, ReactorBinding};
use crate::wire::{NetMsg, MAX_IDS};

/// Configuration of a [`TcpBinding`].
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// The replica set, preferred coordinator first. Failover walks this
    /// list round-robin.
    pub replicas: Vec<SocketAddr>,
    /// This client's id — the client half of every op id it issues.
    /// Must be unique among concurrently connected clients (replica ids
    /// occupy the same space; loadgen offsets client ids past them).
    pub client_id: u64,
    /// Read quorum for strong/final views (the paper's experiments use
    /// `R = 2` of 3).
    pub r_strong: u8,
    /// Enable the *CC confirmation optimization: a final view equal to
    /// the preliminary arrives as a 25-byte confirmation instead of a
    /// full record.
    pub confirm: bool,
    /// Client-side deadline per operation; a lost reply fails the
    /// Correctable with [`correctables::Error::Timeout`] instead of wedging it open.
    pub op_timeout: Duration,
    /// Per-address dial timeout during connect and failover.
    pub connect_timeout: Duration,
}

impl TcpConfig {
    /// A config for `replicas` with the defaults the tests and demo use:
    /// `R = 2`, no confirmation, 2 s op timeout, 1 s connect timeout.
    pub fn new(replicas: Vec<SocketAddr>, client_id: u64) -> TcpConfig {
        TcpConfig {
            replicas,
            client_id,
            r_strong: 2,
            confirm: false,
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// A [`Binding`] whose storage stack lives across a TCP connection.
/// Cloning shares the connection and the op-id space.
#[derive(Clone)]
pub struct TcpBinding {
    r_strong: u8,
    confirm: bool,
    client: NodeId,
    rb: ReactorBinding,
}

impl TcpBinding {
    /// Creates the binding on the process-wide [`ClientReactor`] and
    /// dials the first reachable replica.
    ///
    /// Fails only if *no* replica in the list accepts a connection; a
    /// partially available set connects to the first live address.
    pub fn connect(cfg: TcpConfig) -> io::Result<TcpBinding> {
        Self::connect_on(cfg, ClientReactor::global()?)
    }

    /// Creates the binding on a specific [`ClientReactor`] (loadgen
    /// uses a dedicated reactor sized for its run).
    #[expect(
        clippy::disallowed_macros,
        reason = "constructor API-misuse check, before the binding serves"
    )]
    pub fn connect_on(cfg: TcpConfig, reactor: &ClientReactor) -> io::Result<TcpBinding> {
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        let (r_strong, confirm) = (cfg.r_strong, cfg.confirm);
        let client = NodeId(cfg.client_id as usize);
        reactor.register(cfg).map(|rb| TcpBinding {
            r_strong,
            confirm,
            client,
            rb,
        })
    }

    /// The replica this binding is currently coordinated by (the most
    /// recently dialed address after failover).
    pub fn coordinator(&self) -> SocketAddr {
        *self.rb.lane.coordinator.lock()
    }

    /// Disconnects and stops serving this binding. Pending operations
    /// fail with [`correctables::Error::Unavailable`]. Idempotent; dropping the last
    /// clone has the same effect.
    pub fn shutdown(&self) {
        self.rb.shutdown();
    }
}

impl Binding for TcpBinding {
    type Op = StoreOp;
    type Val = Versioned;

    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&[ConsistencyLevel::WEAK, ConsistencyLevel::STRONG])
    }

    fn submit(&self, op: StoreOp, levels: &[ConsistencyLevel], upcall: Upcall<Versioned>) {
        // A list the wire cannot carry fails here, alone: encoded, it
        // would reach the coordinator as a count it rejects, and the
        // coordinator would close the link and every op in flight on it.
        if let StoreOp::Write(_, Value::Ids(ids)) = &op {
            if ids.len() > MAX_IDS as usize {
                let why = format!("{} ids exceed the wire bound of {MAX_IDS}", ids.len());
                return upcall.fail(Error::Storage(why));
            }
        }
        let kind = read_kind(levels, self.r_strong, self.confirm);
        let client = self.client;
        self.rb.submit(|seq| {
            let (msg, op) = encode_submit(client, seq, op, kind, upcall);
            (NetMsg::Store(msg), Entry::Store(op))
        });
    }
}

#[cfg(test)]
mod tests {
    //! Which path a submission took is not observable from outside the
    //! crate (deliberately: nothing selects it), so the tests that prove
    //! it by count live here, beside the counters only they compile in.

    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    use correctables::{Client, Correctable, Error};
    use quorumstore::{Key, Msg, Value};

    use crate::frame::{encode_frame, read_frame};
    use crate::{spawn_local_cluster, ServerConfig};

    type Kv = Client<TcpBinding>;

    fn paths(b: &TcpBinding) -> (u64, u64, u64) {
        b.rb.paths()
    }

    /// Keeps `left` ICG reads going on `client`, each issued from inside
    /// the previous one's `on_final` — on the client loop's thread.
    fn chain(client: Arc<Kv>, left: Arc<AtomicUsize>, done: Sender<Result<(), Error>>) {
        let took_one = left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if took_one.is_err() {
            let _ = done.send(Ok(()));
            return;
        }
        let read = client.invoke(StoreOp::Read(Key::plain(7)));
        let failed = done.clone();
        read.on_error(move |e| {
            let _ = failed.send(Err(e.clone()));
        });
        read.on_final(move |_| chain(client, left, done));
    }

    #[test]
    fn a_depth_one_loop_writes_its_own_frames_and_a_deep_one_never_does() {
        const OPS: usize = 10_000;
        let replicas = spawn_local_cluster(3, |id| ServerConfig {
            id,
            ..ServerConfig::default()
        });
        let reactor = ClientReactor::new(1).expect("reactor");
        let cfg = TcpConfig::new(replicas.iter().map(|r| r.addr()).collect(), 4000);
        let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
        let client = Arc::new(Client::new(binding.clone()));
        let wait = Duration::from_secs(10);
        client
            .invoke_strong(StoreOp::Write(Key::plain(7), Value::Opaque(8)))
            .wait_final(wait)
            .expect("seed write");

        // Depth 1, the caller woken by the final view submits the next.
        let (direct0, queued0, _) = paths(&binding);
        let wakes0 = binding.rb.loop_wakes();
        for _ in 0..OPS {
            let read = client.invoke(StoreOp::Read(Key::plain(7)));
            read.wait_final(wait).expect("icg read");
        }
        // Depth 1, the next read issued from inside `on_final`.
        let (done_tx, done) = mpsc::channel();
        chain(
            Arc::clone(&client),
            Arc::new(AtomicUsize::new(OPS)),
            done_tx,
        );
        done.recv_timeout(Duration::from_secs(60))
            .expect("chain finished")
            .expect("chained read");
        let (direct1, queued1, _) = paths(&binding);
        let (direct, queued) = (direct1 - direct0, queued1 - queued0);
        assert_eq!(direct + queued, 2 * OPS as u64);
        assert!(
            queued * 100 <= 2 * OPS as u64,
            "{queued} of {} depth-1 reads took the queued path",
            2 * OPS
        );
        // Only a queued submission writes the eventfd: the loop heard of
        // the other {direct} from their replies.
        let wakes = binding.rb.loop_wakes() - wakes0;
        assert!(
            wakes <= queued,
            "{wakes} eventfd writes for {queued} queued submissions"
        );

        // Depth 16: sixteen chains at once. Replies are about to wake
        // the loop anyway; it batches what it finds.
        let (done_tx, done) = mpsc::channel();
        let left = Arc::new(AtomicUsize::new(OPS));
        for _ in 0..16 {
            chain(Arc::clone(&client), Arc::clone(&left), done_tx.clone());
        }
        for _ in 0..16 {
            done.recv_timeout(Duration::from_secs(60))
                .expect("chains finished")
                .expect("chained read");
        }
        let (direct2, queued2, _) = paths(&binding);
        let direct = direct2 - direct1;
        assert!(queued2 - queued1 + direct >= OPS as u64);
        assert!(
            direct * 100 < OPS as u64,
            "{direct} of {OPS} depth-16 reads were written directly"
        );
        binding.shutdown();
        for r in &replicas {
            r.shutdown();
        }
    }

    /// The benchmark's preload in miniature: sixteen writes submitted
    /// back to back, all awaited, again. Each burst finds the link idle;
    /// a direct write at its head would split the one `write` the loop
    /// makes of the burst. The loop sees the head get company before
    /// its first reply and says so on the lane — and takes it back when
    /// the caller turns to one operation at a time.
    #[test]
    fn a_lock_step_burst_writer_is_not_split_and_a_lone_one_goes_direct_again() {
        const BURSTS: u64 = 200;
        const LONE: u64 = 1000;
        let replicas = spawn_local_cluster(3, |id| ServerConfig {
            id,
            ..ServerConfig::default()
        });
        let reactor = ClientReactor::new(1).expect("reactor");
        let cfg = TcpConfig::new(replicas.iter().map(|r| r.addr()).collect(), 4200);
        let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
        let client = Client::new(binding.clone());
        let wait = Duration::from_secs(10);
        let burst = |round: u64| {
            let ops: Vec<_> = (0..16)
                .map(|k| client.invoke_strong(write(round * 16 + k)))
                .collect();
            for op in ops {
                op.wait_final(wait).expect("burst write");
            }
        };

        burst(0);
        let (direct0, ..) = paths(&binding);
        (1..=BURSTS).for_each(burst);
        let (direct1, ..) = paths(&binding);
        let direct = direct1 - direct0;
        assert!(
            direct * 100 < BURSTS * 16,
            "{direct} of {} lock-step writes were written directly",
            BURSTS * 16
        );

        // The first lone operation is queued, closes alone, and clears
        // the way for the rest.
        for key in 0..LONE {
            client
                .invoke_strong(write(key))
                .wait_final(wait)
                .expect("lone write");
        }
        let (direct2, ..) = paths(&binding);
        let queued = LONE - (direct2 - direct1);
        assert!(
            queued * 100 <= LONE,
            "{queued} of {LONE} lone writes took the queued path"
        );
        binding.shutdown();
        for r in &replicas {
            r.shutdown();
        }
    }

    /// What a [`Scripted`] coordinator does next.
    enum Script {
        /// Acknowledge the oldest write not yet acknowledged (waiting
        /// for it to arrive if need be).
        Reply,
        /// Close the connection being served. The next one is served
        /// the same way.
        Kill,
    }

    #[derive(Default)]
    struct Served {
        stream: Option<TcpStream>,
        unanswered: std::collections::VecDeque<quorumstore::OpId>,
    }

    /// A fake coordinator that reads requests and does nothing else
    /// until told: each call returns once the step has happened, so a
    /// test orders the coordinator's side of a race by calling, not by
    /// sleeping.
    struct Scripted {
        addr: SocketAddr,
        script: Sender<Script>,
        done: Receiver<()>,
    }

    impl Scripted {
        fn start() -> Scripted {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let served: Arc<(std::sync::Mutex<Served>, std::sync::Condvar)> = Arc::default();
            let (script, steps) = mpsc::channel();
            let (done_tx, done) = mpsc::channel();
            {
                let served = Arc::clone(&served);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    for step in steps {
                        let (lock, arrived) = &*served;
                        let mut s = lock.lock().unwrap();
                        match step {
                            Script::Reply => {
                                while s.unanswered.is_empty() {
                                    s = arrived.wait(s).unwrap();
                                }
                                let op = s.unanswered.pop_front().unwrap();
                                encode_frame(&Msg::WriteReply { op }, &mut out);
                                let mut stream = s.stream.as_ref().expect("a live connection");
                                stream.write_all(&out).expect("reply written");
                            }
                            Script::Kill => {
                                let stream = s.stream.take().expect("a live connection");
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                                s.unanswered.clear();
                            }
                        }
                        let _ = done_tx.send(());
                    }
                });
            }
            thread::spawn(move || {
                for conn in listener.incoming() {
                    let Ok(mut stream) = conn else { continue };
                    served.0.lock().unwrap().stream = stream.try_clone().ok();
                    let served = Arc::clone(&served);
                    thread::spawn(move || {
                        let mut scratch = Vec::new();
                        while let Ok(Some(msg)) = read_frame::<Msg>(&mut stream, &mut scratch) {
                            if let Msg::ClientWrite { op, .. } = msg {
                                served.0.lock().unwrap().unanswered.push_back(op);
                                served.1.notify_all();
                            }
                        }
                    });
                }
            });
            Scripted { addr, script, done }
        }

        fn step(&self, step: Script) {
            self.script.send(step).expect("coordinator alive");
            self.done
                .recv_timeout(Duration::from_secs(10))
                .expect("coordinator step");
        }
    }

    fn write(key: u64) -> StoreOp {
        StoreOp::Write(Key::plain(key), Value::Opaque(8))
    }

    /// The race the loop's drain-before-park exists for, forced rather
    /// than hoped for. Binding A's coordinator closes while the loop is
    /// busy in a callback of binding B; the loop's next wait returns
    /// A's close and then a reply for B, and B's callback submits on A.
    /// By then the loop has read A's socket and scheduled the close but
    /// not yet run it: the link is idle and still published, so the
    /// frame is written onto the dead socket and the entry pushed
    /// quietly, with no reply ever to announce it. The loop withdraws
    /// the link, and finds the entry before it parks: it must fail
    /// `Unavailable` there and then, not wait out a 5 s deadline.
    #[test]
    fn an_entry_whose_link_died_under_it_fails_unavailable_at_once() {
        const CYCLES: usize = 200;
        let wait = Duration::from_secs(10);
        let (coord_a, coord_b) = (Scripted::start(), Scripted::start());
        let reactor = ClientReactor::new(1).expect("one loop for both bindings");
        let connect = |coord: &Scripted, id| {
            let mut cfg = TcpConfig::new(vec![coord.addr], id);
            cfg.op_timeout = Duration::from_secs(5);
            TcpBinding::connect_on(cfg, &reactor).expect("connect")
        };
        let (a, b) = (connect(&coord_a, 4100), connect(&coord_b, 4101));
        let (client_a, client_b) = (Arc::new(Client::new(a.clone())), Client::new(b.clone()));

        let mut unavailable = 0;
        for cycle in 0..CYCLES as u64 {
            // A's link is up (redialed if the last cycle killed it) and
            // idle.
            let warm_up = client_a.invoke_strong(write(cycle));
            coord_a.step(Script::Reply);
            warm_up.wait_final(wait).expect("a: warm-up");

            // Stall the loop inside a callback of B.
            let (entered_tx, entered) = mpsc::channel();
            let (gate_tx, gate) = mpsc::channel::<()>();
            client_b.invoke_strong(write(cycle)).on_final(move |_| {
                let _ = entered_tx.send(());
                let _ = gate.recv_timeout(Duration::from_secs(10));
            });
            coord_b.step(Script::Reply);
            entered.recv_timeout(wait).expect("b: loop stalled");

            // Meanwhile: A's coordinator closes, and then B gets a reply
            // whose callback will submit on A. The loop's next wait
            // returns both, in that order.
            let (a_op_tx, a_op) = mpsc::channel::<Correctable<Versioned>>();
            let submit_on_a = Arc::clone(&client_a);
            client_b.invoke_strong(write(cycle)).on_final(move |_| {
                let _ = a_op_tx.send(submit_on_a.invoke_strong(write(cycle)));
            });
            coord_a.step(Script::Kill);
            coord_b.step(Script::Reply);
            gate_tx.send(()).expect("release the loop");

            // Had the loop run A's close before B's callback after all,
            // the submission was queued behind a redial and waits for an
            // answer; if not, it must fail — promptly, and as what it is.
            let submitted = Instant::now();
            let op = a_op
                .recv_timeout(wait)
                .expect("a: submitted from b's callback");
            match op.wait_final(Duration::from_millis(500)) {
                Err(Error::Unavailable(_)) => unavailable += 1,
                Err(Error::Timeout) if !op.is_closed() => {
                    coord_a.step(Script::Reply);
                    op.wait_final(wait).expect("a: served after the redial");
                }
                other => panic!(
                    "cycle {cycle}: {other:?} {:?} after the submit",
                    submitted.elapsed()
                ),
            }
        }
        let (_, _, orphaned) = paths(&a);
        assert!(
            orphaned >= 1,
            "{CYCLES} kills and no entry ever reached the loop after its link's close \
             ({unavailable} ops failed Unavailable)"
        );
        a.shutdown();
        b.shutdown();
    }
}
