//! The spec-store client: a [`Binding`] over the version-2 wire.
//!
//! [`TcpSpecBinding`] drives the replicated sequential-spec store that
//! rides the replica servers' connections (`specstore::SpecCore`, which
//! the protocol module puts on the wire): `Register` and `Counter`
//! operations with the full incremental refinement *weak → update →
//! causal → strong* on a single Correctable.
//!
//! ## The level-directory handshake
//!
//! Custom consistency levels get their wire ids assigned per process, in
//! registration order — a client and a server that registered levels in
//! different orders disagree on the numbering. The handshake resolves
//! this: on connect the binding sends [`NetMsg::Hello`] and the server
//! answers [`NetMsg::HelloAck`] with its complete level directory
//! (`id`, `rank`, `name` per level). The binding registers every
//! directory entry locally (idempotent for levels it already knows) and
//! keeps a two-way id translation table, so:
//!
//! - levels requested on [`Binding::submit`] are sent under the
//!   *server's* ids;
//! - levels on [`NetMsg::SpecReply`] are translated back to local
//!   [`ConsistencyLevel`] values before the upcall sees them.
//!
//! A level the server advertises but this process never registered
//! becomes a fresh local registration — a fifth custom level on the
//! server needs zero client code changes to round-trip.
//!
//! Unlike [`crate::TcpBinding`] this binding holds a single connection
//! with no failover list: the spec store serves every view from the
//! replica the client connected to, and a lost connection fails the
//! in-flight operations with [`Error::Unavailable`] and the binding
//! stays down (reconnect by constructing a new binding).
//!
//! Like [`crate::TcpBinding`] it lives on the process-wide
//! [`ClientReactor`]: the handshake runs on the freshly dialed blocking
//! stream, then the stream is handed to one of the reactor's event
//! loops, where `SpecState` — this binding's pending table and
//! directory — sits next to the quorum bindings' state. A spec binding
//! costs one socket and no thread.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use quorumstore::IdMap;

use crate::frame::{read_frame, write_frame};
use crate::reactor::client::{ClientEv, ClientReactor, ReactorBinding};
use crate::reactor::conn::CloseReason;
use crate::reactor::event_loop::Ctl;
use crate::wire::{LevelInfo, NetMsg, Reader, SpecOp};

/// Configuration of a [`TcpSpecBinding`].
#[derive(Clone, Copy, Debug)]
pub struct SpecTcpConfig {
    /// The replica to connect to.
    pub addr: SocketAddr,
    /// This client's id, echoed in every reply. Must be unique among
    /// concurrently connected spec clients.
    pub client_id: u64,
    /// Client-side deadline per operation; an operation whose strongest
    /// requested view never arrives fails with [`Error::Timeout`]
    /// instead of wedging open.
    pub op_timeout: Duration,
    /// Dial and handshake timeout.
    pub connect_timeout: Duration,
}

impl SpecTcpConfig {
    /// A config for `addr` with the defaults the tests use: 5 s op
    /// timeout, 1 s connect timeout.
    pub fn new(addr: SocketAddr, client_id: u64) -> SpecTcpConfig {
        SpecTcpConfig {
            addr,
            client_id,
            op_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// The two-way wire-id translation table built from the handshake.
struct Directory {
    /// Local wire id → server wire id, for submissions.
    to_server: HashMap<u8, u8>,
    /// Server wire id → local level, for replies.
    from_server: HashMap<u8, ConsistencyLevel>,
    /// Every advertised level, as local values, directory order.
    levels: Vec<ConsistencyLevel>,
}

impl Directory {
    /// Folds the server's level directory into the local registry. An
    /// advertised level unknown here is registered on the spot; one
    /// whose name exists locally under a *different rank* cannot be
    /// represented and is skipped (submitting at it is impossible from
    /// this process anyway — no local value denotes it).
    fn build(infos: &[LevelInfo]) -> Directory {
        let mut dir = Directory {
            to_server: HashMap::new(),
            from_server: HashMap::new(),
            levels: Vec::new(),
        };
        for info in infos {
            let Ok(local) = ConsistencyLevel::register(&info.name, info.rank) else {
                continue;
            };
            dir.to_server.insert(local.wire_id(), info.id);
            dir.from_server.insert(info.id, local);
            dir.levels.push(local);
        }
        dir
    }
}

/// A [`Binding`] for the replicated spec store: `Op` = [`SpecOp`],
/// `Val` = `u64`, four incremental levels per invocation. Cloning
/// shares the connection and the op-id space.
#[derive(Clone)]
pub struct TcpSpecBinding {
    levels: LevelSet,
    server_levels: Vec<ConsistencyLevel>,
    rb: ReactorBinding,
}

impl TcpSpecBinding {
    /// Dials `cfg.addr`, performs the level-directory handshake, and
    /// registers the connection with the process-wide
    /// [`ClientReactor`].
    ///
    /// Fails if the replica is unreachable, closes mid-handshake, or
    /// answers the `Hello` with anything but a `HelloAck`.
    pub fn connect(cfg: SpecTcpConfig) -> io::Result<TcpSpecBinding> {
        let stream = TcpStream::connect_timeout(&cfg.addr, cfg.connect_timeout)?;
        // Handshake synchronously, before any event loop sees the
        // stream: one Hello out, one HelloAck back. The read timeout
        // covers a peer that accepts but never answers (e.g. a
        // version-1 server that dropped the Hello frame as garbage and
        // closed). `read_frame` takes exactly one frame off the socket,
        // so whatever follows is still there for the loop.
        stream.set_read_timeout(Some(cfg.connect_timeout))?;
        let mut scratch = Vec::new();
        let hello = NetMsg::Hello {
            client: cfg.client_id,
        };
        write_frame(&mut &stream, &hello, &mut scratch)?;
        let ack = read_frame::<NetMsg>(&mut &stream, &mut scratch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let Some(NetMsg::HelloAck { levels, .. }) = ack else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected HelloAck as the first frame",
            ));
        };
        stream.set_read_timeout(None)?;
        let dir = Directory::build(&levels);
        let server_levels = dir.levels.clone();
        let state = SpecState {
            cfg,
            dir,
            next_seq: 0,
            pending: IdMap::default(),
            conn: None,
        };
        let rb = ClientReactor::global()?.register_spec(state, stream)?;
        Ok(TcpSpecBinding {
            levels: LevelSet::of(&[
                ConsistencyLevel::WEAK,
                ConsistencyLevel::UPDATE,
                ConsistencyLevel::CAUSAL,
                ConsistencyLevel::STRONG,
            ]),
            server_levels,
            rb,
        })
    }

    /// Every level the server's handshake directory advertised,
    /// translated to local values — including custom levels this
    /// process first learned of from the handshake.
    pub fn server_levels(&self) -> &[ConsistencyLevel] {
        &self.server_levels
    }

    /// Disconnects and stops serving this binding. Pending operations
    /// fail with [`Error::Unavailable`]. Idempotent; dropping the last
    /// clone has the same effect.
    pub fn shutdown(&self) {
        self.rb.shutdown();
    }
}

impl Binding for TcpSpecBinding {
    type Op = SpecOp;
    type Val = u64;

    fn consistency_levels(&self) -> LevelSet {
        self.levels.clone()
    }

    fn submit(&self, op: SpecOp, levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
        // Requested levels travel under the *local* ids here; the loop
        // translates to server ids (it owns the directory).
        self.rb.submit(ClientEv::SubmitSpec {
            binding: self.rb.id(),
            op,
            wants: levels.iter().map(|l| l.wire_id()).collect(),
            upcall,
        });
    }
}

/// A spec binding's state on its loop thread: the entry
/// `reactor::client` keeps for it in the loop's binding table.
pub(crate) struct SpecState {
    cfg: SpecTcpConfig,
    dir: Directory,
    next_seq: u64,
    /// In-flight operations by seq.
    pub(crate) pending: IdMap<Upcall<u64>>,
    /// The loop-local id of the connection; `None` once it is lost —
    /// the binding stays down.
    pub(crate) conn: Option<u64>,
}

impl SpecState {
    pub(crate) fn fail_all(&mut self, err: impl Fn() -> Error) {
        for (_, upcall) in self.pending.drain() {
            upcall.fail(err());
        }
    }

    /// The connection is gone, and the replies of everything in flight
    /// with it.
    pub(crate) fn on_close(&mut self, conn: u64) {
        if self.conn == Some(conn) {
            self.conn = None;
            self.fail_all(|| Error::Unavailable("spec connection lost".into()));
        }
    }

    /// Sends one submission, `wants` holding the requested levels under
    /// this process's wire ids; returns the deadline to arm for its seq,
    /// or `None` if it failed on the spot.
    pub(crate) fn submit(
        &mut self,
        ctl: &mut Ctl,
        op: SpecOp,
        mut wants: Vec<u8>,
        upcall: Upcall<u64>,
    ) -> Option<(Instant, u64)> {
        // Translate requested levels to the server's numbering, in the
        // vector the wire message will own. A level with no directory
        // entry cannot be requested honestly — fail rather than silently
        // downgrade the guarantee.
        for want in &mut wants {
            let Some(&server) = self.dir.to_server.get(want) else {
                upcall.fail(Error::Unavailable(
                    "server does not advertise a requested level".into(),
                ));
                return None;
            };
            *want = server;
        }
        let Some(conn) = self.conn else {
            upcall.fail(Error::Unavailable("spec connection lost".into()));
            return None;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq, upcall);
        ctl.send(
            conn,
            &NetMsg::SpecSubmit {
                client: self.cfg.client_id,
                seq,
                op,
                wants,
            },
        );
        Some((Instant::now() + self.cfg.op_timeout, seq))
    }

    /// One frame body off the binding's connection.
    pub(crate) fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        match Reader::new(body).finish::<NetMsg>() {
            Ok(msg) => self.handle_reply(msg),
            // An unparseable reply means the stream is corrupt: kill the
            // connection (`on_close` fails the pending ops) — never
            // guess at what the reply might have been.
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, true),
        }
    }

    fn handle_reply(&mut self, msg: NetMsg) {
        match msg {
            NetMsg::SpecReply {
                client,
                seq,
                level,
                val,
                closing,
            } if client == self.cfg.client_id => {
                // A reply at a level the directory cannot translate
                // would deliver under the wrong name; drop it and let
                // the op's other views (or its deadline) resolve it.
                let Some(&local) = self.dir.from_server.get(&level) else {
                    return;
                };
                if let Some(upcall) = self.pending.get(&seq) {
                    upcall.deliver(val, local);
                }
                if closing {
                    self.pending.remove(&seq);
                }
            }
            NetMsg::SpecFailed { client, seq } if client == self.cfg.client_id => {
                if let Some(upcall) = self.pending.remove(&seq) {
                    upcall.fail(Error::Unavailable(
                        "server refused the submission (unknown or unserved level)".into(),
                    ));
                }
            }
            // Anything else: not ours, or not client-bound. Drop.
            _ => {}
        }
    }
}
