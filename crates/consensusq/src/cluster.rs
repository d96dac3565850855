//! Cluster assembly for the coordination service.

use simnet::{Engine, NodeId, SimDuration, SiteId, Timer, Topology};

use crate::clients::KICKOFF;
use crate::messages::Msg;
use crate::server::{Server, ServerConfig};
use crate::types::Txn;

/// A coordination-service deployment under simulation.
pub struct ZkCluster {
    /// The discrete-event engine.
    pub engine: Engine<Msg>,
    /// Server node ids, in the order of `server_sites`.
    pub servers: Vec<NodeId>,
    /// Index of the leader within `servers`.
    pub leader_idx: usize,
    /// Client node ids.
    pub clients: Vec<NodeId>,
}

impl ZkCluster {
    /// Builds an ensemble with one server per named site; the server at
    /// `leader_idx` is the (static) leader.
    ///
    /// # Panics
    ///
    /// Panics if a site name is unknown or `leader_idx` is out of range.
    pub fn build(
        topology: Topology,
        server_sites: &[&str],
        leader_idx: usize,
        cfg: ServerConfig,
        seed: u64,
    ) -> ZkCluster {
        assert!(leader_idx < server_sites.len(), "leader index out of range");
        let sites: Vec<SiteId> = server_sites
            .iter()
            .map(|n| {
                topology
                    .site_named(n)
                    .unwrap_or_else(|| panic!("unknown site {n}"))
            })
            .collect();
        let mut engine = Engine::new(topology, seed);
        let servers: Vec<NodeId> = sites
            .iter()
            .map(|s| engine.add_node(*s, Box::new(Server::new(cfg))))
            .collect();
        let leader = servers[leader_idx];
        for (i, id) in servers.iter().enumerate() {
            let peers = NodeId::peers_of(&servers, i);
            engine.node_as::<Server>(*id).set_membership(leader, peers);
        }
        ZkCluster {
            engine,
            servers,
            leader_idx,
            clients: Vec::new(),
        }
    }

    /// Pre-fills a queue with `n` elements by applying the same enqueue
    /// transactions directly to every server's tree (a converged state,
    /// as if enqueued before the experiment).
    pub fn prefill_queue(&mut self, parent: &str, n: u64, data_len: u32) {
        Self::prefill_into(&mut self.engine, &self.servers, parent, n, data_len);
    }

    /// [`ZkCluster::prefill_queue`] for a deployment whose engine has
    /// moved out of the `ZkCluster` (into a `SimHost`).
    pub fn prefill_into(
        engine: &mut Engine<Msg>,
        servers: &[NodeId],
        parent: &str,
        n: u64,
        data_len: u32,
    ) {
        for s in servers {
            let server = engine.node_as::<Server>(*s);
            for _ in 0..n {
                server.tree.apply(&Txn::CreateSeq {
                    parent: parent.to_string(),
                    prefix: "qn-".to_string(),
                    data_len,
                });
            }
        }
    }

    /// Adds a client node at `site` (by name) and schedules its kickoff.
    ///
    /// # Panics
    ///
    /// Panics if the site name is unknown.
    pub fn add_client(&mut self, site: &str, node: Box<dyn simnet::Node<Msg>>) -> NodeId {
        let s = self
            .engine
            .topology()
            .site_named(site)
            .unwrap_or_else(|| panic!("unknown site {site}"));
        let id = self.engine.add_node(s, node);
        self.engine
            .schedule_timer(id, SimDuration::ZERO, Timer(KICKOFF));
        self.clients.push(id);
        id
    }

    /// The leader's node id.
    pub fn leader(&self) -> NodeId {
        self.servers[self.leader_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::{DequeueClient, DequeueMode, EnqueueClient};
    use crate::server::Server;

    fn paper_cluster(leader_idx: usize, seed: u64) -> ZkCluster {
        ZkCluster::build(
            Topology::ec2_frk_irl_vrg(),
            &["FRK", "IRL", "VRG"],
            leader_idx,
            ServerConfig::default(),
            seed,
        )
    }

    #[test]
    fn enqueues_replicate_to_all_servers() {
        // Leader in IRL; client in IRL talks to the FRK follower.
        let mut c = paper_cluster(1, 3);
        let follower_frk = c.servers[0];
        let client = EnqueueClient::new(follower_frk, false, "/q", 5, 20);
        c.add_client("IRL", Box::new(client));
        c.engine.run_until_idle(10_000);
        for s in c.servers.clone() {
            let server = c.engine.node_as::<Server>(s);
            assert_eq!(server.tree.child_count("/q"), 5, "replica diverged");
            assert_eq!(server.applied_count, 5);
        }
        let id = c.clients[0];
        let cl = c.engine.node_as::<EnqueueClient>(id);
        assert_eq!(cl.completed, 5);
        // Client in IRL via FRK follower with leader in IRL: the paper's
        // first configuration. Final latency ≈ 55–75 ms.
        let mean = cl.final_latency.clone().summary().mean.as_millis_f64();
        assert!((45.0..85.0).contains(&mean), "ZK enqueue mean {mean}ms");
    }

    #[test]
    fn czk_preliminary_beats_final_by_coordination_time() {
        let mut c = paper_cluster(1, 4);
        let follower_frk = c.servers[0];
        let client = EnqueueClient::new(follower_frk, true, "/q", 10, 20);
        c.add_client("IRL", Box::new(client));
        c.engine.run_until_idle(100_000);
        let id = c.clients[0];
        let cl = c.engine.node_as::<EnqueueClient>(id);
        let prelim = cl.prelim_latency.clone().summary().mean.as_millis_f64();
        let fin = cl.final_latency.clone().summary().mean.as_millis_f64();
        // Preliminary ≈ client–server RTT (20 ms); final much later.
        assert!((18.0..26.0).contains(&prelim), "prelim {prelim}ms");
        assert!(fin > prelim + 20.0, "no gap: prelim {prelim} final {fin}");
    }

    #[test]
    fn concurrent_enqueuers_get_unique_names() {
        let mut c = paper_cluster(1, 5);
        for site in ["FRK", "IRL", "VRG"] {
            let server = c.servers[0];
            let client = EnqueueClient::new(server, false, "/q", 20, 20);
            c.add_client(site, Box::new(client));
        }
        c.engine.run_until_idle(1_000_000);
        let s0 = c.servers[0];
        let server = c.engine.node_as::<Server>(s0);
        assert_eq!(server.tree.child_count("/q"), 60);
    }

    #[test]
    fn zk_recipe_drains_queue_under_contention_without_loss() {
        let mut c = paper_cluster(1, 6);
        c.prefill_queue("/q", 50, 20);
        for _ in 0..4 {
            let server = c.servers[0];
            let client = DequeueClient::new(server, DequeueMode::ZkRecipe, "/q");
            c.add_client("FRK", Box::new(client));
        }
        c.engine.run_until_idle(10_000_000);
        let total: usize = c
            .clients
            .clone()
            .into_iter()
            .map(|id| c.engine.node_as::<DequeueClient>(id).purchases.len())
            .sum();
        assert_eq!(total, 50, "every element dequeued exactly once");
        for s in c.servers.clone() {
            assert_eq!(c.engine.node_as::<Server>(s).tree.child_count("/q"), 0);
        }
        // All four retailers observed the sell-out.
        for id in c.clients.clone() {
            assert!(c.engine.node_as::<DequeueClient>(id).sold_out);
        }
    }

    #[test]
    fn czk_atomic_never_oversells_and_uses_prelim_when_stock_high() {
        let mut c = paper_cluster(1, 7);
        c.prefill_queue("/q", 60, 20);
        for _ in 0..4 {
            let server = c.servers[0];
            let client = DequeueClient::new(server, DequeueMode::CzkAtomic { threshold: 20 }, "/q");
            c.add_client("FRK", Box::new(client));
        }
        c.engine.run_until_idle(10_000_000);
        let mut total = 0;
        let mut early = 0;
        let mut revoked = 0;
        for id in c.clients.clone() {
            let cl = c.engine.node_as::<DequeueClient>(id);
            total += cl.purchases.len();
            early += cl.purchases.iter().filter(|p| p.used_prelim).count();
            revoked += cl.purchases.iter().filter(|p| p.revoked).count();
        }
        // Revoked purchases are not sales; everything else must be backed
        // by a unique element.
        assert_eq!(total - revoked, 60, "sold {total}, revoked {revoked}");
        assert!(early > 20, "prelim confirmations: {early}");
        for s in c.servers.clone() {
            assert_eq!(c.engine.node_as::<Server>(s).tree.child_count("/q"), 0);
        }
    }
}
