//! The simulated blockchain network: miners, gossip, and tx watching.
//!
//! Miners find blocks after exponentially distributed intervals, include
//! mempool transactions, and gossip blocks to their peers; concurrent
//! finds produce natural forks that the longest-chain rule resolves.
//! Clients submit transactions to a node and receive one notification per
//! *new maximum* confirmation depth — the incremental views of §4.5.

use std::any::Any;
use std::collections::BTreeMap;

use simnet::{Ctx, Node, NodeId, SimDuration, Timer, Wire};

use crate::chain::{Block, BlockId, Chain, TxId};

/// Timer token: try to mine the next block.
const MINE: u64 = 1;

/// Protocol messages.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → node: watch and broadcast a transaction.
    SubmitTx {
        /// Client-chosen transaction id.
        tx: TxId,
    },
    /// Node ↔ node: transaction gossip.
    GossipTx {
        /// The transaction.
        tx: TxId,
    },
    /// Node ↔ node: block gossip.
    GossipBlock {
        /// The block.
        block: Block,
    },
    /// Node → client: the watched transaction reached a new confirmation
    /// depth.
    Confirmation {
        /// The transaction.
        tx: TxId,
        /// Its (new maximum) confirmation depth.
        depth: u64,
    },
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        60 + match self {
            Msg::SubmitTx { .. } | Msg::GossipTx { .. } => 250,
            Msg::GossipBlock { block } => 80 + block.txs.len() * 250,
            Msg::Confirmation { .. } => 17,
        }
    }

    fn category(&self) -> &'static str {
        match self {
            Msg::SubmitTx { .. } => "btc-submit",
            Msg::GossipTx { .. } => "btc-tx",
            Msg::GossipBlock { .. } => "btc-block",
            Msg::Confirmation { .. } => "btc-conf",
        }
    }
}

/// A mining full node.
pub struct Miner {
    /// Mining index (used to derive unique block ids).
    pub index: u32,
    peers: Vec<NodeId>,
    /// Local chain view.
    pub chain: Chain,
    mempool: Vec<TxId>,
    /// Blocks whose parents have not arrived yet.
    orphans: Vec<Block>,
    /// Watched transactions: tx → (client, highest depth reported).
    /// Ordered, so confirmations go out in the same order on every
    /// replay of a seed.
    watchers: BTreeMap<TxId, (NodeId, u64)>,
    /// Mean time between this miner's blocks.
    pub mean_interval: SimDuration,
    next_block_seq: u64,
    /// Blocks this miner produced.
    pub mined: u64,
}

impl Miner {
    /// Miner `index` of the miners `ids` (index-aligned node ids), with
    /// the given per-miner mean block interval.
    pub fn new(index: usize, ids: &[NodeId], mean_interval: SimDuration) -> Self {
        Miner {
            index: index as u32,
            peers: NodeId::peers_of(ids, index),
            chain: Chain::new(),
            mempool: Vec::new(),
            orphans: Vec::new(),
            watchers: BTreeMap::new(),
            mean_interval,
            next_block_seq: 0,
            mined: 0,
        }
    }

    fn schedule_mining(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let delay_ms = ctx.rng().exponential(self.mean_interval.as_millis_f64());
        ctx.set_timer(SimDuration::from_millis_f64(delay_ms.max(1.0)), Timer(MINE));
    }

    fn mine_block(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let parent = self.chain.tip();
        let height = self.chain.height() + 1;
        // Globally unique, deterministic block id.
        let id: BlockId = 1 + u64::from(self.index) + (self.next_block_seq + 1) * 1_000;
        self.next_block_seq += 1;
        let txs: Vec<TxId> = self.mempool.drain(..).collect();
        let block = Block {
            id,
            parent,
            height,
            txs,
        };
        self.mined += 1;
        self.accept_block(ctx, block.clone());
        for p in self.peers.clone() {
            ctx.send(
                p,
                Msg::GossipBlock {
                    block: block.clone(),
                },
            );
        }
    }

    fn accept_block(&mut self, ctx: &mut Ctx<'_, Msg>, block: Block) {
        if !self.chain.insert(block) {
            return;
        }
        // Try to connect any orphans that were waiting.
        while let Some(pos) = self
            .orphans
            .iter()
            .position(|b| self.chain.contains(b.parent) && !self.chain.contains(b.id))
        {
            let b = self.orphans.swap_remove(pos);
            self.chain.insert(b);
        }
        // Drop mempool txs that are now on the main chain.
        self.mempool.retain(|tx| !self.chain.on_main_chain(*tx));
        self.notify_watchers(ctx);
    }

    fn notify_watchers(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut to_send = Vec::new();
        for (tx, (client, reported)) in &mut self.watchers {
            let depth = self.chain.confirmations(*tx);
            if depth > *reported {
                *reported = depth;
                to_send.push((*client, *tx, depth));
            }
        }
        for (client, tx, depth) in to_send {
            ctx.send(client, Msg::Confirmation { tx, depth });
        }
    }
}

impl Node<Msg> for Miner {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::SubmitTx { tx } => {
                self.watchers.insert(tx, (from, 0));
                if !self.mempool.contains(&tx) && !self.chain.on_main_chain(tx) {
                    self.mempool.push(tx);
                }
                for p in self.peers.clone() {
                    ctx.send(p, Msg::GossipTx { tx });
                }
            }
            Msg::GossipTx { tx } => {
                if !self.mempool.contains(&tx) && !self.chain.on_main_chain(tx) {
                    self.mempool.push(tx);
                }
            }
            Msg::GossipBlock { block } => {
                if self.chain.contains(block.id) {
                    return;
                }
                if self.chain.contains(block.parent) {
                    self.accept_block(ctx, block);
                } else {
                    self.orphans.push(block);
                }
            }
            Msg::Confirmation { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, timer: Timer) {
        if timer.0 == MINE {
            self.mine_block(ctx);
            self.schedule_mining(ctx);
        } else if timer.0 == u64::MAX {
            // Kickoff: start the mining clock.
            self.schedule_mining(ctx);
        }
    }

    fn service_cost(&self, msg: &Msg) -> SimDuration {
        match msg {
            Msg::GossipBlock { .. } => SimDuration::from_millis(2),
            _ => SimDuration::from_micros(100),
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
