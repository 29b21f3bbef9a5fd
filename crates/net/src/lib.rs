//! Network-topology substrate for the epidemic algorithms (paper §3).
//!
//! Section 3 of Demers et al. studies *spatial distributions*: choosing
//! anti-entropy and rumor-mongering partners with probability that decays
//! with network distance, so that traffic on critical links (such as the
//! CIN's transatlantic link to Bushey, England) stays bounded. This crate
//! provides everything those experiments need:
//!
//! * undirected topologies with *database sites* and plain *relay nodes*
//!   ([`Topology`], [`TopologyBuilder`]) — the paper notes "we are not
//!   required to have a database site at every network node";
//! * all-pairs shortest-path routing and per-link route enumeration
//!   ([`Routes`]);
//! * the cumulative-distance function `Q_s(d)` and the partner-selection
//!   distributions of §3.1, including equation (3.1.1) ([`Spatial`],
//!   [`PartnerSampler`]);
//! * per-link traffic accounting ([`LinkTraffic`]);
//! * a zoo of topologies used by the paper's analyses: lines, grids, trees,
//!   the Figure 1 / Figure 2 pathologies, and a seeded synthetic stand-in
//!   for the Xerox Corporate Internet ([`topologies`]);
//! * the §4 future-work *dynamic hierarchy* as a [`PartnerSelection`]
//!   strategy ([`hierarchy`]).
//!
//! # Example
//!
//! ```
//! use epidemic_net::{topologies, Spatial, PartnerSampler, Routes};
//! use rand::SeedableRng;
//!
//! let topo = topologies::line(10);
//! let routes = Routes::compute(&topo);
//! let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let partner = sampler.sample(topo.sites()[0], &mut rng);
//! assert_ne!(partner, topo.sites()[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degree;
pub mod graph;
pub mod hierarchy;
pub mod routing;
pub mod spatial;
pub mod topologies;
pub mod traffic;

pub use degree::DegreeGraph;
pub use graph::{LinkId, Topology, TopologyBuilder, TopologyError};
pub use hierarchy::{HierarchicalSampler, PartnerSelection};
pub use routing::Routes;
pub use spatial::{cumulative_sites, expected_cut_conversations, PartnerSampler, Spatial};
pub use traffic::LinkTraffic;
