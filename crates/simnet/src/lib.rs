//! # simnet — deterministic discrete-event network simulation
//!
//! This crate is the hardware/network substrate for the OSDI '16
//! "Incremental Consistency Guarantees for Replicated Objects" reproduction.
//! The paper evaluates on Amazon EC2 across three regions; we substitute a
//! deterministic discrete-event simulator that models:
//!
//! - **WAN latency** — per site-pair one-way delays with multiplicative
//!   wobble and an exponential tail ([`Topology`]), preloaded with the
//!   paper's measured RTTs;
//! - **finite host capacity** — a single-server FIFO service queue per node
//!   ([`Node::service_cost`]), which produces realistic latency/throughput
//!   saturation curves;
//! - **bandwidth** — exact per-message wire sizes aggregated per category
//!   and per link ([`BandwidthMeter`]);
//! - **faults** — probabilistic loss, node downtime, and site partitions
//!   ([`Faults`]).
//!
//! Virtual time ([`SimTime`]) makes runs both fast (no real sleeps) and
//! reproducible (a single seeded [`DetRng`] drives all randomness).
//!
//! ## Example
//!
//! ```
//! use simnet::{Ctx, Engine, Node, NodeId, SimDuration, Topology, Wire};
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Wire for Hello {
//!     fn wire_size(&self) -> usize { 32 }
//! }
//!
//! struct Greeter { greeted: u32 }
//! impl Node<Hello> for Greeter {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Hello>, _from: NodeId, _msg: Hello) {
//!         self.greeted += 1;
//!     }
//!     fn as_any(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let topo = Topology::ec2_frk_irl_vrg();
//! let frk = topo.site_named("FRK").unwrap();
//! let mut eng = Engine::new(topo, 42);
//! let g = eng.add_node(frk, Box::new(Greeter { greeted: 0 }));
//! eng.schedule_message(g, g, SimDuration::ZERO, Hello);
//! eng.run_until_idle(16);
//! assert_eq!(eng.node_as::<Greeter>(g).greeted, 1);
//! ```

// Replayable from (seed, schedule) (DESIGN.md §11): no wall clock, no
// walk of a hash map or set in its hash order.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod bandwidth;
pub mod engine;
pub mod faults;
pub mod gateway;
pub mod host;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;

pub use bandwidth::{BandwidthMeter, Traffic, Wire};
pub use engine::{Ctx, Engine, Node, NodeId, Timer};
pub use faults::{Downtime, Faults, Partition, SchedulePlan};
pub use gateway::{
    ClientMsg, GatewayProto, PendingOps, RoundRobin, SimBinding, SimGateway, SimHost, Submission,
    SubmitWire, Wants,
};
pub use host::{CoreHost, Egress, Retry, SimNet};
pub use rng::DetRng;
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use topology::{SiteId, Topology};
