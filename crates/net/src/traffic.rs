//! Per-link traffic accounting (paper §3.1).
//!
//! Tables 4 and 5 report, per spatial distribution, the number of
//! anti-entropy *comparisons* and *update transmissions* per network link —
//! averaged over all links and singled out for the transatlantic link to
//! Bushey. A [`LinkTraffic`] charges one unit to every link on the shortest
//! route between two conversing sites.

use crate::graph::LinkId;
use crate::routing::Routes;
use epidemic_db::SiteId;

/// Traffic counters, one per link of a topology.
///
/// # Example
///
/// ```
/// use epidemic_net::{topologies, LinkTraffic, Routes};
/// let topo = topologies::line(4);
/// let routes = Routes::compute(&topo);
/// let mut traffic = LinkTraffic::new(topo.link_count());
/// let s = topo.sites();
/// traffic.record_route(&routes, s[0], s[3]); // traverses all 3 links
/// assert_eq!(traffic.total(), 3);
/// assert!((traffic.mean_per_link() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkTraffic {
    counts: Vec<u64>,
}

impl LinkTraffic {
    /// Creates counters for a topology with `links` links, all zero.
    pub fn new(links: usize) -> Self {
        LinkTraffic {
            counts: vec![0; links],
        }
    }

    /// Zeroes the counters for a topology with `links` links, keeping the
    /// storage, so reused counters allocate only to grow.
    pub fn reset(&mut self, links: usize) {
        self.counts.clear();
        self.counts.resize(links, 0);
    }

    /// Charges one unit to every link on the route `from → to`.
    pub fn record_route(&mut self, routes: &Routes, from: SiteId, to: SiteId) {
        self.record_route_units(routes, from, to, 1);
    }

    /// Charges `units` to every link on the route `from → to` in one route
    /// walk — the same sums as `units` calls of
    /// [`record_route`](Self::record_route).
    pub fn record_route_units(&mut self, routes: &Routes, from: SiteId, to: SiteId, units: u64) {
        if units == 0 {
            return;
        }
        routes.for_each_route_link(from, to, |l| self.counts[l.index()] += units);
    }

    /// Units charged to `link`.
    pub fn at(&self, link: LinkId) -> u64 {
        self.counts[link.index()]
    }

    /// Total units over all links.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean units per link.
    pub fn mean_per_link(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.counts.len() as f64
        }
    }

    /// The most heavily loaded link and its count, if any links exist.
    pub fn hottest(&self) -> Option<(LinkId, u64)> {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, &c)| (LinkId::from_index(i), c))
    }

    /// Raw per-link counts, in link-id order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn records_along_routes() {
        let topo = topologies::line(5);
        let routes = Routes::compute(&topo);
        let mut t = LinkTraffic::new(topo.link_count());
        let s = topo.sites();
        t.record_route(&routes, s[0], s[2]);
        t.record_route(&routes, s[1], s[2]);
        // Link 0-1 carries one unit, link 1-2 carries two.
        let l01 = topo.link_between(s[0], s[1]).unwrap();
        let l12 = topo.link_between(s[1], s[2]).unwrap();
        assert_eq!(t.at(l01), 1);
        assert_eq!(t.at(l12), 2);
        assert_eq!(t.total(), 3);
        assert_eq!(t.hottest(), Some((l12, 2)));
        t.reset(topo.link_count());
        assert_eq!(t, LinkTraffic::new(topo.link_count()));
    }

    #[test]
    fn route_units_equal_repeated_single_charges() {
        let topo = topologies::line(5);
        let routes = Routes::compute(&topo);
        let s = topo.sites();
        let mut batched = LinkTraffic::new(topo.link_count());
        let mut looped = LinkTraffic::new(topo.link_count());
        for (from, to, units) in [(0, 4, 3), (1, 3, 0), (4, 2, 107)] {
            batched.record_route_units(&routes, s[from], s[to], units);
            for _ in 0..units {
                looped.record_route(&routes, s[from], s[to]);
            }
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn self_route_is_free() {
        let topo = topologies::line(3);
        let routes = Routes::compute(&topo);
        let mut t = LinkTraffic::new(topo.link_count());
        t.record_route(&routes, topo.sites()[1], topo.sites()[1]);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn empty_traffic() {
        let t = LinkTraffic::new(0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.mean_per_link(), 0.0);
        assert_eq!(t.hottest(), None);
    }
}
