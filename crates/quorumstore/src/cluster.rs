//! Cluster assembly: replicas, clients, preloading, and measured runs.

use simnet::{Engine, NodeId, SimDuration, SimTime, SiteId, Timer, Topology};

use crate::client::{WorkloadClient, KICKOFF};
use crate::host::{ReplicaConfig, SimReplica};
use crate::messages::Msg;
use crate::types::{Key, Value, Version, Versioned};

/// A quorum-store deployment under simulation.
pub struct Cluster {
    /// The discrete-event engine.
    pub engine: Engine<Msg>,
    /// Replica node ids, in the order of `replica_sites`.
    pub replicas: Vec<NodeId>,
    /// Client node ids, in creation order.
    pub clients: Vec<NodeId>,
}

impl Cluster {
    /// Builds a fully replicated cluster with one replica per site.
    ///
    /// # Panics
    ///
    /// Panics if a site name is unknown in the topology.
    pub fn build(
        topology: Topology,
        replica_sites: &[&str],
        cfg: ReplicaConfig,
        seed: u64,
    ) -> Cluster {
        let sites: Vec<SiteId> = replica_sites
            .iter()
            .map(|n| {
                topology
                    .site_named(n)
                    .unwrap_or_else(|| panic!("unknown site {n}"))
            })
            .collect();
        let mut engine = Engine::new(topology, seed);
        // A fresh engine hands out node ids from zero, so each replica
        // can be built knowing its peers.
        let replicas: Vec<NodeId> = (0..sites.len()).map(NodeId).collect();
        for (i, site) in sites.iter().enumerate() {
            let peers = NodeId::peers_of(&replicas, i);
            let distance = peers
                .iter()
                .map(|p| engine.topology().base_one_way(*site, sites[p.0]))
                .collect();
            let replica = SimReplica::new(cfg, replicas[i], peers, distance);
            let id = engine.add_node(*site, Box::new(replica));
            assert_eq!(id, replicas[i], "replicas are the engine's first nodes");
        }
        Cluster {
            engine,
            replicas,
            clients: Vec::new(),
        }
    }

    /// Seeds every replica with the same records (version 1), modelling a
    /// converged preloaded dataset as YCSB's load phase produces.
    pub fn preload<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = (Key, Value)>,
    {
        Self::preload_into(&mut self.engine, &self.replicas, records);
    }

    /// [`Cluster::preload`] for a deployment whose engine has moved out
    /// of the `Cluster` (into a `SimHost`).
    pub fn preload_into<I>(engine: &mut Engine<Msg>, replicas: &[NodeId], records: I)
    where
        I: IntoIterator<Item = (Key, Value)>,
    {
        let seeded: Vec<(Key, Versioned)> = records
            .into_iter()
            .map(|(k, v)| {
                (
                    k,
                    Versioned {
                        value: v,
                        version: Version { ts: 1, writer: 0 },
                    },
                )
            })
            .collect();
        for r in replicas {
            let store = engine.node_as::<SimReplica>(*r).store();
            for (k, v) in &seeded {
                store.apply(*k, v.clone());
            }
        }
    }

    /// Adds a client node at `site` and schedules its kickoff.
    pub fn add_client(&mut self, site: SiteId, client: WorkloadClient) -> NodeId {
        let id = self.engine.add_node(site, Box::new(client));
        self.engine
            .schedule_timer(id, SimDuration::ZERO, Timer(KICKOFF));
        self.clients.push(id);
        id
    }

    /// Runs warm-up, resets bandwidth accounting, then runs the
    /// measurement window; returns the window's span for throughput math.
    pub fn run_measured(&mut self, warmup: SimDuration, window: SimDuration) -> SimDuration {
        let start = self.engine.now();
        self.engine.run_until(start + warmup);
        self.engine.bandwidth_mut().reset();
        self.engine.run_until(start + warmup + window);
        window
    }

    /// The standard measurement window boundaries for clients created
    /// before a [`Cluster::run_measured`] call at time zero.
    pub fn window(warmup: SimDuration, window: SimDuration) -> (SimTime, SimTime) {
        (SimTime::ZERO + warmup, SimTime::ZERO + warmup + window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SystemConfig;
    use simnet::EuUsSites;
    use ycsb::{Distribution, Workload};

    fn paper_cluster(cfg: ReplicaConfig, seed: u64) -> (Cluster, EuUsSites) {
        let topo = Topology::ec2_frk_irl_vrg();
        let sites = EuUsSites::resolve(&topo);
        let c = Cluster::build(topo, &["FRK", "IRL", "VRG"], cfg, seed);
        (c, sites)
    }

    #[test]
    fn build_wires_three_replicas() {
        let (cluster, _) = paper_cluster(ReplicaConfig::default(), 1);
        assert_eq!(cluster.replicas.len(), 3);
    }

    #[test]
    fn preload_seeds_every_replica() {
        let (mut cluster, _) = paper_cluster(ReplicaConfig::default(), 1);
        cluster.preload((0..10).map(|i| (Key::plain(i), Value::Opaque(100))));
        for r in cluster.replicas.clone() {
            let store = cluster.engine.node_as::<SimReplica>(r).store();
            assert_eq!(store.len(), 10);
            assert_eq!(store.get(Key::plain(3)).version.ts, 1);
        }
    }

    #[test]
    fn closed_loop_client_completes_operations() {
        let (mut cluster, sites) = paper_cluster(ReplicaConfig::default(), 7);
        let workload = Workload::c(Distribution::Zipfian, 100);
        cluster.preload((0..100).map(|i| (Key::plain(i), Value::Opaque(100))));
        let (from, until) = Cluster::window(SimDuration::from_secs(1), SimDuration::from_secs(4));
        let frk_replica = cluster.replicas[0];
        let client = WorkloadClient::new(
            frk_replica,
            SystemConfig::baseline(1),
            &workload,
            4,
            99,
            from,
            until,
        );
        cluster.add_client(sites.irl, client);
        cluster.run_measured(SimDuration::from_secs(1), SimDuration::from_secs(4));
        let id = cluster.clients[0];
        let m = &cluster.engine.node_as::<WorkloadClient>(id).metrics;
        assert!(m.reads > 100, "only {} reads", m.reads);
        // C1 read from IRL to FRK costs ~ the 20ms RTT.
        let mut lat = m.final_latency.clone();
        let mean = lat.summary().mean.as_millis_f64();
        assert!((18.0..26.0).contains(&mean), "C1 mean {mean}ms");
        let _ = lat.p99();
    }
}
