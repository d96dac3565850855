//! The spec-store client: a [`Binding`] that speaks the spec core's
//! own client messages.
//!
//! [`TcpSpecBinding`] drives the replicated sequential-spec store that
//! rides the replica servers' connections (`specstore::SpecCore`):
//! `Register` and `Counter` operations with the full incremental
//! refinement *weak → update → causal → strong* on a single
//! Correctable. It sends what the simulator's round-robin gateway
//! sends, a [`ClientMsg::Submit`], and reads what it reads, one
//! [`ClientMsg::Views`] batch per reply frame, its views in level order.
//!
//! ## Levels on the wire
//!
//! A submission's levels travel as one [`Wants`] byte, a view's level
//! as its builtin's fixed wire id — the four levels served here are
//! builtins — so nothing is translated per operation. A submission
//! naming a level not served here fails
//! [`correctables::Error::UnsupportedLevel`] before a frame is written:
//! [`Wants::of`] would drop that level without a word. A reply at a
//! level id this process does not decode is garbage, and closes the
//! connection like any undecodable frame.
//!
//! Unlike [`crate::TcpBinding`] this binding holds a single connection
//! with no failover list: the spec store serves every view from the
//! replica the client connected to, and a lost connection fails the
//! in-flight operations with [`correctables::Error::Unavailable`] and the binding
//! stays down (reconnect by constructing a new binding).
//!
//! Otherwise it is a [`crate::TcpBinding`] with another request, and
//! it connects the same way: it dials, then enrolls the stream with one
//! of the process-wide [`ClientReactor`]'s event loops as the same link
//! a quorum binding gets — its redial list empty — and submissions take
//! the same path, written by the calling thread on an idle link
//! ([`crate::reactor::client`]). There is no handshake: every frame
//! carries [`crate::WIRE_VERSION`], so a server of another version is
//! refused on its first frame. A spec binding costs one socket and no
//! thread.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};
use simnet::{ClientMsg, Wants};
use specstore::SpecMsg;

use crate::binding::TcpConfig;
use crate::reactor::client::{ClientReactor, Entry, ReactorBinding};
use crate::wire::{NetMsg, SpecOp};

/// Configuration of a [`TcpSpecBinding`].
#[derive(Clone, Copy, Debug)]
pub struct SpecTcpConfig {
    /// The replica to connect to.
    pub addr: SocketAddr,
    /// This client's id, echoed in every reply. Must be unique among
    /// concurrently connected spec clients.
    pub client_id: u64,
    /// Client-side deadline per operation; an operation whose strongest
    /// requested view never arrives fails with [`correctables::Error::Timeout`]
    /// instead of wedging open.
    pub op_timeout: Duration,
    /// Dial timeout.
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

/// A [`Binding`] for the replicated spec store: `Op` = [`SpecOp`],
/// `Val` = `u64`, four incremental levels per invocation. Cloning
/// shares the connection and the op-id space.
#[derive(Clone)]
pub struct TcpSpecBinding {
    client_id: u64,
    rb: ReactorBinding,
}

impl TcpSpecBinding {
    /// Dials `cfg.addr` and registers the connection with the
    /// process-wide [`ClientReactor`].
    ///
    /// Fails if the replica is unreachable within `cfg.connect_timeout`
    /// or the reactor's loop has exited.
    pub fn connect(cfg: SpecTcpConfig) -> io::Result<TcpSpecBinding> {
        Self::connect_on(cfg, ClientReactor::global()?)
    }

    /// [`TcpSpecBinding::connect`] onto a specific [`ClientReactor`].
    pub(crate) fn connect_on(
        cfg: SpecTcpConfig,
        reactor: &ClientReactor,
    ) -> io::Result<TcpSpecBinding> {
        let stream = TcpStream::connect_timeout(&cfg.addr, cfg.connect_timeout)?;
        // No redial list: the binding stays down once the link is lost.
        let link = TcpConfig {
            op_timeout: cfg.op_timeout,
            connect_timeout: cfg.connect_timeout,
            ..TcpConfig::new(Vec::new(), cfg.client_id)
        };
        Ok(TcpSpecBinding {
            client_id: cfg.client_id,
            rb: reactor.enroll(link, stream, cfg.addr, 0)?,
        })
    }

    /// Disconnects and stops serving this binding. Pending operations
    /// fail with [`correctables::Error::Unavailable`]. Idempotent; dropping the last
    /// clone has the same effect.
    pub fn shutdown(&self) {
        self.rb.shutdown();
    }
}

impl Binding for TcpSpecBinding {
    type Op = SpecOp;
    type Val = u64;

    /// The four levels the server's spec store serves.
    fn consistency_levels(&self) -> LevelSet {
        LevelSet::of(&Wants::LEVELS)
    }

    fn submit(&self, op: SpecOp, levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
        // A level not served here fails at once, alone: `Wants::of`
        // would drop it, and the op would close at a level not asked.
        if let Some(&level) = levels.iter().find(|l| !Wants::LEVELS.contains(l)) {
            return upcall.fail(Error::UnsupportedLevel(level));
        }
        let (client, wants) = (self.client_id, Wants::of(levels));
        self.rb.submit(|seq| {
            let submit = ClientMsg::Submit {
                op: (client, seq),
                client_op: op,
                wants,
            };
            (NetMsg::Spec(SpecMsg::Client(submit)), Entry::Spec(upcall))
        });
    }
}

#[cfg(test)]
mod tests {
    //! Which path a submission took is visible only in the crate: the
    //! spec twin of `binding::tests`' depth test.

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, Sender};
    use std::sync::Arc;

    use correctables::spec::RegOp;
    use correctables::Client;

    use crate::{spawn_local_cluster, ServerConfig};

    type Spec = Client<TcpSpecBinding>;

    /// Keeps `left` four-level reads going on `client`, each issued from
    /// inside the previous one's `on_final` — on the client loop's
    /// thread.
    fn chain(client: Arc<Spec>, left: Arc<AtomicUsize>, done: Sender<Result<(), Error>>) {
        let took_one = left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if took_one.is_err() {
            let _ = done.send(Ok(()));
            return;
        }
        let read = client.invoke(SpecOp::Reg(RegOp::Read(7)));
        let failed = done.clone();
        read.on_error(move |e| {
            let _ = failed.send(Err(e.clone()));
        });
        read.on_final(move |_| chain(client, left, done));
    }

    #[test]
    fn a_depth_one_spec_loop_writes_its_own_frames_and_a_deep_one_never_does() {
        const OPS: usize = 5_000;
        let replicas = spawn_local_cluster(3, |id| ServerConfig {
            id,
            ..ServerConfig::default()
        });
        let reactor = ClientReactor::new(1).expect("reactor");
        let cfg = SpecTcpConfig::new(replicas[0].addr(), 4400);
        let binding = TcpSpecBinding::connect_on(cfg, &reactor).expect("connect");
        let client = Arc::new(Client::new(binding.clone()));
        let wait = Duration::from_secs(10);

        // Depth 1, the caller woken by the final view submits the next.
        let (direct0, queued0, _) = binding.rb.paths();
        let wakes0 = binding.rb.loop_wakes();
        for _ in 0..OPS {
            let read = client.invoke(SpecOp::Reg(RegOp::Read(7)));
            read.wait_final(wait).expect("four-level read");
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
        let (direct1, queued1, _) = binding.rb.paths();
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
        let (direct2, queued2, _) = binding.rb.paths();
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
}
