//! Criterion microbenchmarks of the simulation substrate: raw event
//! throughput of the engine, the cost of driving a deployment round by
//! round, the Correctables an application fans out over it, and the cost
//! of workload generation — these bound how fast the paper-figure
//! harnesses can run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use correctables::Client;
use icg_apps::{AdSystem, AdsDataset};
use quorumstore::{Key, ReplicaConfig, SimStore, StoreOp};
use simnet::{Ctx, Engine, Node, NodeId, SimDuration, Topology, Wire};
use ycsb::{Distribution, Workload};

#[derive(Debug)]
struct Ball(u32);
impl Wire for Ball {
    fn wire_size(&self) -> usize {
        64
    }
}

struct Bouncer {
    peer: Option<NodeId>,
    remaining: u32,
}

impl Node<Ball> for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, from: NodeId, msg: Ball) {
        self.peer = Some(from);
        if msg.0 > 0 && self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, Ball(msg.0));
        }
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("simnet/ping-pong-10k-events", |b| {
        b.iter(|| {
            let topo = Topology::ec2_frk_irl_vrg();
            let frk = topo.site_named("FRK").unwrap();
            let irl = topo.site_named("IRL").unwrap();
            let mut eng = Engine::new(topo, 1);
            let a = eng.add_node(
                frk,
                Box::new(Bouncer {
                    peer: None,
                    remaining: 5_000,
                }),
            );
            let bnode = eng.add_node(
                irl,
                Box::new(Bouncer {
                    peer: None,
                    remaining: 5_000,
                }),
            );
            eng.schedule_message(a, bnode, SimDuration::ZERO, Ball(1));
            black_box(eng.run_until_idle(100_000))
        })
    });
}

/// A 104-byte message — `quorumstore::Msg`'s size — relayed hop by hop;
/// `body` holds the parcel's number.
struct Parcel {
    hops: u64,
    body: [u64; 12],
}
impl Wire for Parcel {
    fn wire_size(&self) -> usize {
        104
    }
}

/// Forwards each parcel to its two peers in turn until its hops run out,
/// spending 30 µs of host CPU on each.
struct Relay {
    peers: Vec<NodeId>,
}

impl Node<Parcel> for Relay {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Parcel>, _from: NodeId, mut msg: Parcel) {
        if msg.hops > 0 {
            msg.hops -= 1;
            let to = self.peers[((msg.hops + msg.body[0]) % 2) as usize];
            ctx.send(to, msg);
        }
    }
    fn service_cost(&self, _msg: &Parcel) -> SimDuration {
        SimDuration::from_micros(30)
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The engine under the traffic `sim_ads_speculation` gives it: three
/// EC2 replicas, a service cost on every message (so each hop is an
/// `Arrive` and an `Exec`), and 100 parcels in flight at once — some 100
/// events pending — for about 10 000 events.
fn bench_fanout(c: &mut Criterion) {
    c.bench_function("simnet/fanout-100-in-flight", |b| {
        b.iter(|| {
            let (mut eng, replicas) = Engine::ec2(1, |_| {
                Box::new(Relay { peers: Vec::new() }) as Box<dyn Node<Parcel>>
            });
            for (i, &r) in replicas.iter().enumerate() {
                eng.node_as::<Relay>(r).peers = NodeId::peers_of(&replicas, i);
            }
            for p in 0..100u64 {
                let (from, to) = (replicas[p as usize % 3], replicas[(p as usize + 1) % 3]);
                let parcel = Parcel {
                    hops: 49,
                    body: [p; 12],
                };
                eng.schedule_message(from, to, SimDuration::from_micros(p * 500), parcel);
            }
            black_box(eng.run_until_idle(100_000))
        })
    });
}

/// The shape of the step-wise harnesses (explorer, determinism goldens,
/// `sim_cbcast_mix`): submit, `settle`, think. A strong read from IRL
/// spans some eight settle slices in which only the replicas' messages
/// happen, so what this row times besides them is what `settle` does
/// per slice.
fn bench_settle(c: &mut Criterion) {
    c.bench_function("simnet/settle-sparse-1k-rounds", |b| {
        b.iter(|| {
            let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 1);
            let client = Client::new(store.binding());
            for round in 0..1_000u64 {
                let read = client.invoke_strong(StoreOp::Read(Key::plain(round % 16)));
                store.settle();
                black_box(read.final_view());
                store.advance(SimDuration::from_millis(1 + round * 7 % 40));
            }
            black_box(store.now())
        })
    });
}

/// Listing 4 over the EC2 deployment: one ICG ad fetch, then `settle`.
/// The fetch fans out into one strong read per referenced ad (1–40, 20
/// on average) joined by `join_all`, so the Correctables a fan-out read
/// allocates and registers are a large share of this row: an identity
/// `.map` back around each read reads 25–30 % slower.
fn bench_ads_fetch(c: &mut Criterion) {
    c.bench_function("apps/ads-fetch-icg", |b| {
        let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 1);
        let sys = AdSystem::new(store, AdsDataset::small(), 42);
        let mut uid = 0u64;
        b.iter(|| {
            uid = (uid + 1) % sys.dataset().profiles;
            let fetch = sys.fetch_ads_by_user_id(uid, true);
            sys.store().settle();
            black_box(fetch.is_closed())
        })
    });
}

/// The set-up `sim_ads_speculation` times per leg: the EC2 deployment
/// built and its three replicas seeded with the benchmark's 5 000
/// profiles and 10 000 ads. Seeding is most of it: with replica tables
/// that grow by doubling and writes that look a key up before they
/// insert it, this row reads about 1.5 times as slow.
fn bench_ads_setup(c: &mut Criterion) {
    c.bench_function("apps/ads-setup-15k", |b| {
        b.iter(|| {
            let store = SimStore::ec2(ReplicaConfig::default(), 2, false, "IRL", 0, 1);
            let dataset = AdsDataset {
                profiles: 5_000,
                ads: 10_000,
                ad_bytes: 200,
            };
            black_box(AdSystem::new(store, dataset, 42))
        })
    });
}

fn bench_ycsb(c: &mut Criterion) {
    c.bench_function("ycsb/zipfian-draw", |b| {
        let w = Workload::a(Distribution::Zipfian, 10_000);
        let mut g = w.generator(9);
        b.iter(|| black_box(g.next_op()))
    });
    c.bench_function("ycsb/latest-draw", |b| {
        let w = Workload::a(Distribution::Latest, 10_000);
        let mut g = w.generator(9);
        b.iter(|| black_box(g.next_op()))
    });
    c.bench_function("ycsb/scrambled-zipfian-draw", |b| {
        let w = Workload::a(Distribution::ScrambledZipfian, 10_000);
        let mut g = w.generator(9);
        b.iter(|| black_box(g.next_op()))
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_fanout,
    bench_settle,
    bench_ads_fetch,
    bench_ads_setup,
    bench_ycsb
);
criterion_main!(benches);
