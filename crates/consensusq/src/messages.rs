//! Wire messages of the coordination service.
//!
//! Sizes are calibrated against the paper's reported enqueue bandwidth
//! (§6.2.2: a vanilla request/response pair costs ~270 bytes for ≤20-byte
//! elements; the CZK preliminary adds one more response, totalling ~400).

use simnet::{NodeId, Wire};

use crate::types::{OpId, ReadCmd, ReadResult, Txn, TxnResult, Zxid};

/// Fixed per-message overhead (transport framing, session headers).
pub const FRAME_BYTES: usize = 110;

const OP_HEADER: usize = 13;

fn txn_size(txn: &Txn) -> usize {
    match txn {
        Txn::CreateSeq {
            parent,
            prefix,
            data_len,
        } => parent.len() + prefix.len() + *data_len as usize,
        Txn::Delete { path } => path.len(),
        Txn::PopMin { parent } => parent.len(),
    }
}

fn result_size(res: &TxnResult) -> usize {
    match res {
        TxnResult::Created { name } => name.len(),
        TxnResult::Deleted => 1,
        TxnResult::Popped { name, .. } => name.as_ref().map(|n| n.len()).unwrap_or(1) + 8,
        TxnResult::Err(_) => 2,
    }
}

/// Every message of the protocol.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → server: a local read (served from the server's state).
    Read {
        /// Operation id.
        op: OpId,
        /// The read command.
        cmd: ReadCmd,
    },
    /// Server → client: read result.
    ReadResp {
        /// Operation id.
        op: OpId,
        /// The result (a `GetChildren` reply's size grows with the queue).
        result: ReadResult,
    },
    /// Client → server: a transaction, optionally requesting the CZK
    /// preliminary (local simulation before coordination).
    Submit {
        /// Operation id.
        op: OpId,
        /// The transaction.
        txn: Txn,
        /// Request a preliminary response (Correctable ZooKeeper).
        prelim: bool,
    },
    /// Server → client: CZK preliminary result (local simulation).
    PrelimResp {
        /// Operation id.
        op: OpId,
        /// Predicted outcome.
        result: TxnResult,
    },
    /// Server → client: committed (final) result.
    FinalResp {
        /// Operation id.
        op: OpId,
        /// The outcome after Zab commit and local apply.
        result: TxnResult,
    },
    /// Follower → leader: forward a client transaction.
    Forward {
        /// Operation id (for the origin's bookkeeping).
        op: OpId,
        /// The server the client is connected to.
        origin: NodeId,
        /// The transaction.
        txn: Txn,
    },
    /// Leader → followers: proposal.
    Propose {
        /// Transaction id.
        zxid: Zxid,
        /// The transaction.
        txn: Txn,
        /// Origin server (replies to its client after applying).
        origin: NodeId,
        /// Client operation id.
        op: OpId,
    },
    /// Follower → leader: acknowledgment.
    Ack {
        /// Transaction id.
        zxid: Zxid,
    },
    /// Leader → followers: commit notification.
    Commit {
        /// Transaction id.
        zxid: Zxid,
    },
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        let body = match self {
            Msg::Read { cmd, .. } => {
                OP_HEADER
                    + match cmd {
                        ReadCmd::GetChildren { parent } | ReadCmd::GetHead { parent } => {
                            parent.len() + 1
                        }
                    }
            }
            Msg::ReadResp { result, .. } => {
                OP_HEADER
                    + match result {
                        ReadResult::Children(names) => {
                            names.iter().map(|n| n.len() + 4).sum::<usize>()
                        }
                        ReadResult::Head { name, .. } => {
                            name.as_ref().map(|n| n.len()).unwrap_or(1) + 8
                        }
                    }
            }
            Msg::Submit { txn, .. } => OP_HEADER + 1 + txn_size(txn),
            Msg::PrelimResp { result, .. } | Msg::FinalResp { result, .. } => {
                OP_HEADER + result_size(result)
            }
            Msg::Forward { txn, .. } => OP_HEADER + 8 + txn_size(txn),
            Msg::Propose { txn, .. } => OP_HEADER + 16 + txn_size(txn),
            Msg::Ack { .. } => 8,
            Msg::Commit { .. } => 8,
        };
        FRAME_BYTES + body
    }

    fn category(&self) -> &'static str {
        match self {
            Msg::Read { .. } => "zk-read",
            Msg::ReadResp { .. } => "zk-read-resp",
            Msg::Submit { .. } => "zk-submit",
            Msg::PrelimResp { .. } => "zk-prelim",
            Msg::FinalResp { .. } => "zk-final",
            Msg::Forward { .. } => "zk-forward",
            Msg::Propose { .. } => "zk-propose",
            Msg::Ack { .. } => "zk-ack",
            Msg::Commit { .. } => "zk-commit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> OpId {
        OpId {
            client: NodeId(0),
            seq: 1,
        }
    }

    #[test]
    fn enqueue_request_response_is_about_270_bytes() {
        let req = Msg::Submit {
            op: op(),
            txn: Txn::CreateSeq {
                parent: "/tickets".into(),
                prefix: "t-".into(),
                data_len: 20,
            },
            prelim: false,
        };
        let resp = Msg::FinalResp {
            op: op(),
            result: TxnResult::Created {
                name: "t-0000000001".into(),
            },
        };
        let total = req.wire_size() + resp.wire_size();
        assert!(
            (250..320).contains(&total),
            "vanilla enqueue costs {total} bytes"
        );
        // CZK adds one preliminary response: ~400 bytes total (paper §6.2.2).
        let prelim = Msg::PrelimResp {
            op: op(),
            result: TxnResult::Created {
                name: "t-0000000001".into(),
            },
        };
        let czk_total = total + prelim.wire_size();
        assert!(
            (370..460).contains(&czk_total),
            "CZK enqueue costs {czk_total} bytes"
        );
    }

    #[test]
    fn get_children_reply_grows_with_queue_length() {
        let small = Msg::ReadResp {
            op: op(),
            result: ReadResult::Children(vec!["t-0000000001".into(); 10]),
        };
        let big = Msg::ReadResp {
            op: op(),
            result: ReadResult::Children(vec!["t-0000000001".into(); 500]),
        };
        assert!(big.wire_size() > small.wire_size() * 10);
        // 500 entries at ~16 bytes each ≈ 8 kB — Figure 10's ZK regime.
        assert!(big.wire_size() > 7_000);
    }

    #[test]
    fn get_head_reply_is_constant_size() {
        let r = Msg::ReadResp {
            op: op(),
            result: ReadResult::Head {
                name: Some("t-0000000001".into()),
                count: 500,
            },
        };
        assert!(r.wire_size() < 200);
    }
}
