//! The replicated znode tree (the queue's substrate).
//!
//! A deliberately small subset of ZooKeeper's data model: persistent
//! znodes addressed by path, per-parent ordered children, and sequential
//! creation counters. Applying the same transactions in the same order
//! yields identical trees on every replica — the property the queue
//! recipe and the CZK fast path rely on.

use std::collections::{BTreeSet, HashMap};

use crate::types::{Txn, TxnResult, ZkError};

/// One znode's metadata (payload is opaque; only its size matters here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Znode {
    /// Payload size in bytes.
    pub data_len: u32,
}

/// A deterministic znode store.
#[derive(Clone, Debug, Default)]
pub struct ZnodeTree {
    nodes: HashMap<String, Znode>,
    children: HashMap<String, BTreeSet<String>>,
    seq_counters: HashMap<String, u64>,
}

impl ZnodeTree {
    /// An empty tree.
    pub fn new() -> Self {
        ZnodeTree::default()
    }

    /// Applies a transaction, mutating the tree.
    pub fn apply(&mut self, txn: &Txn) -> TxnResult {
        match txn {
            Txn::CreateSeq {
                parent,
                prefix,
                data_len,
            } => {
                let ctr = self.seq_counters.entry(parent.clone()).or_insert(0);
                let name = format!("{prefix}{:010}", *ctr);
                *ctr += 1;
                self.insert(parent, &name, *data_len);
                TxnResult::Created { name }
            }
            Txn::Delete { path } => {
                if self.nodes.remove(path).is_none() {
                    return TxnResult::Err(ZkError::NoNode);
                }
                let (parent, name) = split_path(path);
                if let Some(kids) = self.children.get_mut(&parent) {
                    kids.remove(&name);
                }
                TxnResult::Deleted
            }
            Txn::PopMin { parent } => {
                let popped = self
                    .children
                    .get_mut(parent)
                    .and_then(|kids| kids.pop_first());
                if let Some(name) = &popped {
                    self.nodes.remove(&join_path(parent, name));
                }
                TxnResult::Popped {
                    remaining: self.child_count(parent),
                    name: popped,
                }
            }
        }
    }

    /// Predicts a transaction's outcome **without** mutating the tree —
    /// the CZK fast path ("simulate the operation on local state").
    pub fn simulate(&self, txn: &Txn) -> TxnResult {
        match txn {
            Txn::CreateSeq { parent, prefix, .. } => {
                let ctr = self.seq_counters.get(parent).copied().unwrap_or(0);
                TxnResult::Created {
                    name: format!("{prefix}{ctr:010}"),
                }
            }
            Txn::Delete { path } => {
                if self.nodes.contains_key(path) {
                    TxnResult::Deleted
                } else {
                    TxnResult::Err(ZkError::NoNode)
                }
            }
            Txn::PopMin { parent } => {
                let head = self.min_child(parent);
                let count = self.child_count(parent);
                TxnResult::Popped {
                    name: head,
                    remaining: count.saturating_sub(1),
                }
            }
        }
    }

    /// Child names of `parent`, in order.
    pub fn children_of(&self, parent: &str) -> Vec<String> {
        self.children
            .get(parent)
            .map(|k| k.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The smallest child of `parent`.
    pub fn min_child(&self, parent: &str) -> Option<String> {
        self.children.get(parent).and_then(|k| k.first().cloned())
    }

    /// Number of children of `parent`.
    pub fn child_count(&self, parent: &str) -> u64 {
        self.children
            .get(parent)
            .map(|k| k.len() as u64)
            .unwrap_or(0)
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    fn insert(&mut self, parent: &str, name: &str, data_len: u32) {
        self.nodes
            .insert(join_path(parent, name), Znode { data_len });
        self.children
            .entry(parent.to_string())
            .or_default()
            .insert(name.to_string());
    }
}

/// Joins a parent path and a child name.
pub fn join_path(parent: &str, name: &str) -> String {
    format!("{parent}/{name}")
}

fn split_path(path: &str) -> (String, String) {
    match path.rfind('/') {
        Some(i) => (path[..i].to_string(), path[i + 1..].to_string()),
        None => (String::new(), path.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(t: &mut ZnodeTree) -> String {
        match t.apply(&Txn::CreateSeq {
            parent: "/q".into(),
            prefix: "qn-".into(),
            data_len: 20,
        }) {
            TxnResult::Created { name } => name,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequential_names_are_ordered_and_padded() {
        let mut t = ZnodeTree::new();
        let a = enqueue(&mut t);
        let b = enqueue(&mut t);
        assert_eq!(a, "qn-0000000000");
        assert_eq!(b, "qn-0000000001");
        assert!(a < b);
        assert_eq!(t.child_count("/q"), 2);
    }

    #[test]
    fn pop_min_is_fifo() {
        let mut t = ZnodeTree::new();
        for _ in 0..3 {
            enqueue(&mut t);
        }
        let r = t.apply(&Txn::PopMin {
            parent: "/q".into(),
        });
        assert_eq!(
            r,
            TxnResult::Popped {
                name: Some("qn-0000000000".into()),
                remaining: 2
            }
        );
        assert!(!t.exists("/q/qn-0000000000"));
    }

    #[test]
    fn pop_empty_returns_none() {
        let mut t = ZnodeTree::new();
        let r = t.apply(&Txn::PopMin {
            parent: "/q".into(),
        });
        assert_eq!(
            r,
            TxnResult::Popped {
                name: None,
                remaining: 0
            }
        );
    }

    #[test]
    fn delete_missing_is_no_node() {
        let mut t = ZnodeTree::new();
        assert_eq!(
            t.apply(&Txn::Delete {
                path: "/q/x".into()
            }),
            TxnResult::Err(ZkError::NoNode)
        );
    }

    #[test]
    fn delete_removes_from_children() {
        let mut t = ZnodeTree::new();
        let name = enqueue(&mut t);
        let path = join_path("/q", &name);
        assert_eq!(t.apply(&Txn::Delete { path }), TxnResult::Deleted);
        assert_eq!(t.child_count("/q"), 0);
    }

    #[test]
    fn simulate_predicts_without_mutating() {
        let mut t = ZnodeTree::new();
        enqueue(&mut t);
        let before = t.clone();
        let sim = t.simulate(&Txn::PopMin {
            parent: "/q".into(),
        });
        assert_eq!(
            sim,
            TxnResult::Popped {
                name: Some("qn-0000000000".into()),
                remaining: 0
            }
        );
        assert_eq!(t.children_of("/q"), before.children_of("/q"));
        // Simulating a CreateSeq predicts the next name without bumping
        // the counter.
        let s1 = t.simulate(&Txn::CreateSeq {
            parent: "/q".into(),
            prefix: "qn-".into(),
            data_len: 1,
        });
        let s2 = t.simulate(&Txn::CreateSeq {
            parent: "/q".into(),
            prefix: "qn-".into(),
            data_len: 1,
        });
        assert_eq!(s1, s2);
    }

    #[test]
    fn identical_txn_sequences_yield_identical_trees() {
        let txns = [
            Txn::CreateSeq {
                parent: "/q".into(),
                prefix: "qn-".into(),
                data_len: 9,
            },
            Txn::CreateSeq {
                parent: "/q".into(),
                prefix: "qn-".into(),
                data_len: 9,
            },
            Txn::PopMin {
                parent: "/q".into(),
            },
            Txn::CreateSeq {
                parent: "/q".into(),
                prefix: "qn-".into(),
                data_len: 9,
            },
        ];
        let mut a = ZnodeTree::new();
        let mut b = ZnodeTree::new();
        let ra: Vec<TxnResult> = txns.iter().map(|t| a.apply(t)).collect();
        let rb: Vec<TxnResult> = txns.iter().map(|t| b.apply(t)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.children_of("/q"), b.children_of("/q"));
    }
}
