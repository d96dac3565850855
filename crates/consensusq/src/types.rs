//! Core types of the coordination service.

use simnet::NodeId;

/// Identifier of one client operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpId {
    /// The issuing client node.
    pub client: NodeId,
    /// Per-client sequence number.
    pub seq: u64,
}

/// Zab transaction id: a totally ordered sequence number assigned by the
/// leader (we run a single epoch; see the crate docs on leader changes).
pub type Zxid = u64;

/// A state-machine transaction, replicated through atomic broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Txn {
    /// Create a sequential child of `parent` named `prefix` + a
    /// zero-padded monotonically increasing counter (ZooKeeper's
    /// `CreateMode.PERSISTENT_SEQUENTIAL`, the queue's enqueue).
    CreateSeq {
        /// Parent znode path.
        parent: String,
        /// Child name prefix.
        prefix: String,
        /// Payload size in bytes (content is opaque to the service).
        data_len: u32,
    },
    /// Delete a znode (fails with [`ZkError::NoNode`] if missing) — the
    /// client-driven dequeue's removal step.
    Delete {
        /// Full path.
        path: String,
    },
    /// Atomically pop the smallest child of `parent` — the server-side
    /// dequeue used by Correctable ZooKeeper's `invoke(dequeue)`.
    PopMin {
        /// Parent znode path.
        parent: String,
    },
}

/// Failures of state-machine transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZkError {
    /// The target znode does not exist (e.g. lost a dequeue race).
    NoNode,
}

/// The outcome of a transaction, identical on every replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnResult {
    /// A znode was created; carries its name (path component).
    Created {
        /// The created child's name.
        name: String,
    },
    /// A znode was deleted.
    Deleted,
    /// A [`Txn::PopMin`] outcome.
    Popped {
        /// The popped child's name, or `None` if the queue was empty.
        name: Option<String>,
        /// Children remaining after the pop.
        remaining: u64,
    },
    /// The transaction failed.
    Err(ZkError),
}

/// Local (non-replicated) reads served by the contacted server, exactly
/// like ZooKeeper reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadCmd {
    /// Full child list of `parent` — the vanilla dequeue recipe's read,
    /// whose reply size grows with the queue length (Figure 10).
    GetChildren {
        /// Parent znode path.
        parent: String,
    },
    /// Only the smallest child and the child count — CZK's constant-size
    /// read.
    GetHead {
        /// Parent znode path.
        parent: String,
    },
}

/// Results of local reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// All child names.
    Children(Vec<String>),
    /// The smallest child (if any) and the child count.
    Head {
        /// Smallest child name.
        name: Option<String>,
        /// Number of children.
        count: u64,
    },
}

/// Parses the sequence number out of a sequential znode name
/// (e.g. `"qn-0000000042"` → `42`).
pub fn seq_of(name: &str) -> Option<u64> {
    name.rsplit('-').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_parses_padded_names() {
        assert_eq!(seq_of("qn-0000000042"), Some(42));
        assert_eq!(seq_of("ticket-0000000000"), Some(0));
        assert_eq!(seq_of("garbage"), None);
    }
}
