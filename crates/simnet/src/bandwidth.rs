//! Wire-size accounting.
//!
//! Figures 8 and 10 of the paper report bandwidth per operation measured on
//! the client–replica links. The simulator measures rather than estimates:
//! every message implements [`Wire::wire_size`], and the engine feeds each
//! transmitted message into a [`BandwidthMeter`] keyed by message category
//! and by endpoint, so harnesses can compute kB/op exactly like the paper's
//! NIC-level measurements.

use crate::engine::NodeId;

/// Implemented by every simulated message type.
pub trait Wire {
    /// Total bytes this message occupies on the wire, including any
    /// fixed protocol framing the implementor chooses to model.
    fn wire_size(&self) -> usize;

    /// A coarse label used to break bandwidth down by message kind
    /// (e.g. `"read"`, `"prelim"`, `"confirm"`).
    fn category(&self) -> &'static str {
        "default"
    }
}

/// Aggregated byte and message counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total bytes transmitted.
    pub bytes: u64,
    /// Total messages transmitted.
    pub msgs: u64,
}

impl Traffic {
    fn add(&mut self, bytes: usize) {
        self.bytes += bytes as u64;
        self.msgs += 1;
    }
}

/// Per-category and per-node transmission accounting.
///
/// The meter sits on the engine's per-message send path, so its internals
/// avoid hashing entirely: node ids are dense indices into flat `Vec`s,
/// and the handful of message categories (static string labels) live in a
/// small list scanned linearly with a pointer-equality fast path. Both are
/// several times cheaper per record than the `HashMap`s they replaced.
#[derive(Clone, Debug, Default)]
pub struct BandwidthMeter {
    total: Traffic,
    by_category: Vec<(&'static str, Traffic)>,
    /// Bytes received by each node (indexed by `NodeId`), used for
    /// client-link bandwidth-per-operation measurements.
    rx_by_node: Vec<Traffic>,
    tx_by_node: Vec<Traffic>,
}

/// Grows `v` as needed and returns the slot for `node`.
fn node_slot(v: &mut Vec<Traffic>, node: NodeId) -> &mut Traffic {
    if node.0 >= v.len() {
        v.resize(node.0 + 1, Traffic::default());
    }
    &mut v[node.0]
}

impl BandwidthMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        BandwidthMeter::default()
    }

    /// Records one transmitted message.
    pub fn record(&mut self, from: NodeId, to: NodeId, category: &'static str, bytes: usize) {
        self.total.add(bytes);
        self.category_slot(category).add(bytes);
        node_slot(&mut self.rx_by_node, to).add(bytes);
        node_slot(&mut self.tx_by_node, from).add(bytes);
    }

    fn category_slot(&mut self, category: &'static str) -> &mut Traffic {
        // Pointer equality catches the overwhelmingly common case (each
        // message type returns the same static literal every time); the
        // string comparison keeps distinct literals with equal text merged.
        let idx = self
            .by_category
            .iter()
            .position(|(c, _)| std::ptr::eq(c.as_ptr(), category.as_ptr()) || *c == category);
        match idx {
            Some(i) => &mut self.by_category[i].1,
            None => {
                self.by_category.push((category, Traffic::default()));
                &mut self.by_category.last_mut().expect("just pushed").1
            }
        }
    }

    /// All traffic seen so far.
    pub fn total(&self) -> Traffic {
        self.total
    }

    /// Traffic for one category (zero if never seen).
    pub fn category(&self, category: &str) -> Traffic {
        self.by_category
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Bytes received by a node.
    pub fn received_by(&self, node: NodeId) -> Traffic {
        self.rx_by_node.get(node.0).copied().unwrap_or_default()
    }

    /// Bytes sent by a node.
    pub fn sent_by(&self, node: NodeId) -> Traffic {
        self.tx_by_node.get(node.0).copied().unwrap_or_default()
    }

    /// Total bytes crossing a node's link in either direction — the
    /// client–replica bandwidth measure the paper uses.
    pub fn link_bytes(&self, node: NodeId) -> u64 {
        self.received_by(node).bytes + self.sent_by(node).bytes
    }

    /// Clears all counters (used to elide warm-up traffic, mirroring the
    /// paper's practice of dropping the first seconds of each trial).
    pub fn reset(&mut self) {
        *self = BandwidthMeter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_category_and_node() {
        let mut m = BandwidthMeter::new();
        let a = NodeId(0);
        let b = NodeId(1);
        m.record(a, b, "read", 100);
        m.record(b, a, "resp", 300);
        assert_eq!(
            m.total(),
            Traffic {
                bytes: 400,
                msgs: 2
            }
        );
        assert_eq!(m.category("read").bytes, 100);
        assert_eq!(m.category("nope"), Traffic::default());
        assert_eq!(m.received_by(b).bytes, 100);
        assert_eq!(m.sent_by(b).bytes, 300);
        assert_eq!(m.link_bytes(a), 400);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = BandwidthMeter::new();
        m.record(NodeId(0), NodeId(1), "x", 10);
        m.reset();
        assert_eq!(m.total(), Traffic::default());
        assert_eq!(m.category("x"), Traffic::default());
    }
}
