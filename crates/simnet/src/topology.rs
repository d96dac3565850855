//! WAN topologies: named sites and inter-site latency models.
//!
//! The paper's evaluation runs on Amazon EC2 with replicas in Frankfurt
//! (FRK), Ireland (IRL), and N. Virginia (VRG), plus a US-West deployment
//! (Virginia / N. California / Oregon) for the Twissandra case study. The
//! canned topologies here encode those deployments with the round-trip
//! times reported in the paper (§6.1–§6.2: IRL–FRK 20 ms, IRL–VRG 83 ms,
//! intra-region 2 ms).

use crate::rng::DetRng;
use crate::time::SimDuration;

/// Identifier of a site (a datacenter region) within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub usize);

/// A static mesh of sites with per-pair one-way base latencies.
#[derive(Clone, Debug)]
pub struct Topology {
    names: Vec<String>,
    /// One-way base latency between each pair of sites.
    one_way: Vec<Vec<SimDuration>>,
    /// Uniform wobble fraction applied to every sample (e.g. `0.03`).
    wobble: f64,
    /// Mean of the exponential tail as a fraction of the base latency.
    tail_frac: f64,
}

impl Topology {
    /// Creates an empty topology with the given jitter parameters.
    pub fn new(wobble: f64, tail_frac: f64) -> Self {
        Topology {
            names: Vec::new(),
            one_way: Vec::new(),
            wobble,
            tail_frac,
        }
    }

    /// Adds a site, with `local_rtt` the round-trip time between two hosts
    /// within the site. Returns its id.
    pub fn add_site(&mut self, name: &str, local_rtt: SimDuration) -> SiteId {
        let id = SiteId(self.names.len());
        self.names.push(name.to_string());
        for row in &mut self.one_way {
            // Placeholder until `set_rtt` is called for the pair.
            row.push(SimDuration::ZERO);
        }
        self.one_way.push(vec![SimDuration::ZERO; self.names.len()]);
        let idx = id.0;
        self.one_way[idx][idx] = local_rtt / 2;
        id
    }

    /// Sets the round-trip time between two distinct sites (stored as a
    /// symmetric one-way latency of `rtt / 2`).
    pub fn set_rtt(&mut self, a: SiteId, b: SiteId, rtt: SimDuration) {
        let one_way = rtt / 2;
        self.one_way[a.0][b.0] = one_way;
        self.one_way[b.0][a.0] = one_way;
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the topology has no sites.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a site.
    pub fn name(&self, s: SiteId) -> &str {
        &self.names[s.0]
    }

    /// Looks a site up by name.
    pub fn site_named(&self, name: &str) -> Option<SiteId> {
        self.names.iter().position(|n| n == name).map(SiteId)
    }

    /// Base (jitter-free) one-way latency between two sites.
    ///
    /// # Panics
    ///
    /// Panics if the pair was never configured via [`Topology::set_rtt`]
    /// (or `add_site` for the diagonal), since silently returning zero
    /// would corrupt experiments.
    pub fn base_one_way(&self, from: SiteId, to: SiteId) -> SimDuration {
        let d = self.one_way[from.0][to.0];
        assert!(
            from == to || d > SimDuration::ZERO,
            "topology: latency between {} and {} was never set",
            self.name(from),
            self.name(to)
        );
        d
    }

    /// Samples a jittered one-way delivery latency.
    pub fn sample_one_way(&self, from: SiteId, to: SiteId, rng: &mut DetRng) -> SimDuration {
        rng.latency_jitter(self.base_one_way(from, to), self.wobble, self.tail_frac)
    }

    /// The paper's European/US EC2 deployment: Frankfurt, Ireland, and
    /// N. Virginia. RTTs: IRL–FRK 20 ms, IRL–VRG 83 ms, FRK–VRG 90 ms;
    /// intra-region RTT 2 ms.
    pub fn ec2_frk_irl_vrg() -> Self {
        let mut t = Topology::new(0.03, 0.04);
        let frk = t.add_site("FRK", SimDuration::from_millis(2));
        let irl = t.add_site("IRL", SimDuration::from_millis(2));
        let vrg = t.add_site("VRG", SimDuration::from_millis(2));
        t.set_rtt(frk, irl, SimDuration::from_millis(20));
        t.set_rtt(irl, vrg, SimDuration::from_millis(83));
        t.set_rtt(frk, vrg, SimDuration::from_millis(90));
        t
    }

    /// The Twissandra deployment (§6.3.1): replicas in Virginia,
    /// N. California, and Oregon, with the client remaining in Ireland.
    pub fn ec2_us_wide() -> Self {
        let mut t = Topology::new(0.03, 0.04);
        let irl = t.add_site("IRL", SimDuration::from_millis(2));
        let vrg = t.add_site("VRG", SimDuration::from_millis(2));
        let ncal = t.add_site("NCAL", SimDuration::from_millis(2));
        let ore = t.add_site("ORE", SimDuration::from_millis(2));
        t.set_rtt(irl, vrg, SimDuration::from_millis(83));
        t.set_rtt(irl, ncal, SimDuration::from_millis(140));
        t.set_rtt(irl, ore, SimDuration::from_millis(132));
        t.set_rtt(vrg, ncal, SimDuration::from_millis(70));
        t.set_rtt(vrg, ore, SimDuration::from_millis(80));
        t.set_rtt(ncal, ore, SimDuration::from_millis(22));
        t
    }

    /// A single-site topology, useful for unit tests.
    pub fn single_site() -> Self {
        let mut t = Topology::new(0.0, 0.0);
        t.add_site("LOCAL", SimDuration::from_millis(1));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sites of [`Topology::ec2_frk_irl_vrg`].
    struct Sites {
        frk: SiteId,
        irl: SiteId,
        vrg: SiteId,
    }

    fn sites(t: &Topology) -> Sites {
        let named = |n| t.site_named(n).expect("paper site");
        Sites {
            frk: named("FRK"),
            irl: named("IRL"),
            vrg: named("VRG"),
        }
    }

    #[test]
    fn paper_rtts_are_encoded() {
        let t = Topology::ec2_frk_irl_vrg();
        let s = sites(&t);
        assert_eq!(
            t.base_one_way(s.irl, s.frk) * 2,
            SimDuration::from_millis(20)
        );
        assert_eq!(
            t.base_one_way(s.irl, s.vrg) * 2,
            SimDuration::from_millis(83)
        );
        assert_eq!(
            t.base_one_way(s.frk, s.frk) * 2,
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn symmetric_latency() {
        let t = Topology::ec2_frk_irl_vrg();
        let s = sites(&t);
        assert_eq!(t.base_one_way(s.frk, s.vrg), t.base_one_way(s.vrg, s.frk));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t = Topology::ec2_frk_irl_vrg();
        let s = sites(&t);
        let mut r1 = DetRng::seed_from_u64(5);
        let mut r2 = DetRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(
                t.sample_one_way(s.irl, s.vrg, &mut r1),
                t.sample_one_way(s.irl, s.vrg, &mut r2)
            );
        }
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn unset_pair_panics() {
        let mut t = Topology::new(0.0, 0.0);
        let a = t.add_site("A", SimDuration::from_millis(1));
        let b = t.add_site("B", SimDuration::from_millis(1));
        let _ = t.base_one_way(a, b);
    }

    #[test]
    fn site_lookup_by_name() {
        let t = Topology::ec2_us_wide();
        assert!(t.site_named("ORE").is_some());
        assert!(t.site_named("MARS").is_none());
        assert_eq!(t.len(), 4);
    }
}
