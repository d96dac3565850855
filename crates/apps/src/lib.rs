//! # icg-apps — the paper's case-study applications
//!
//! Four applications built on the Correctables API, matching §4 and §6.3
//! of the paper:
//!
//! - [`ads`] — the ad-serving system (Listing 4): speculative prefetch of
//!   referenced ads on the preliminary reference list;
//! - [`twissandra`] — the microblogging service: two-step `get_timeline`
//!   with speculative tweet prefetch;
//! - [`tickets`] — the ticket seller (Listing 5): dynamic selection
//!   between preliminary and final dequeue results around a stock
//!   threshold; beside it the two ZooKeeper dequeue recipes it is
//!   measured against, and the closed retailer loop that runs all three;
//! - [`news`] — the smartphone news reader (Listing 6): progressive
//!   display over cache / causal / strong views.
//!
//! [`driver`] provides the closed-loop load machinery that runs these
//! applications under YCSB-style load for the Figure 11 harness, and
//! [`dataset`] generates the paper-scale synthetic datasets.
//!
//! The crate also ships the deployment binaries (`src/bin/`):
//! `icg-replicad` hosts one TCP quorum-store replica, `icg-loadgen`
//! drives a replica set with closed-loop Zipfian load and reports
//! per-level latency percentiles. [`cli`] is their shared flag parser;
//! `scripts/cluster_demo.sh` wires them into a one-command local
//! cluster (see `OPERATIONS.md`).

pub mod ads;
pub mod cli;
pub mod dataset;
pub mod driver;
pub mod news;
pub mod tickets;
pub mod twissandra;

pub use ads::AdSystem;
pub use dataset::{AdsDataset, TwissandraDataset};
pub use driver::{
    closings, start_ycsb_users, view_stats, ClosedView, Closings, LoadDriver, LoadStats,
    MeasuredOp, ViewStats,
};
pub use news::{NewsReader, Refresh, LATEST};
pub use tickets::{
    audit_sales, open_retailers, purchase_by_recipe, sell_out, EscrowOffice, Purchase, Receipt,
    Recipe, Retailer, SaleAudit, TicketOffice,
};
pub use twissandra::Twissandra;
