//! Undirected network topologies with database sites and relay nodes.

use std::fmt;

use epidemic_db::SiteId;

/// Identifier of an undirected link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

impl LinkId {
    /// The link's index into [`Topology::links`].
    pub(crate) const fn index(self) -> usize {
        self.0
    }

    /// Creates a link id from a raw index. Only meaningful for the topology
    /// that produced the index.
    pub(crate) const fn from_index(index: usize) -> Self {
        LinkId(index)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Errors from [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no database sites.
    NoSites,
    /// The graph is not connected; the payload is an unreachable node.
    Disconnected(SiteId),
    /// A link references a node that was never declared.
    UnknownNode(SiteId),
    /// A link connects a node to itself.
    SelfLoop(SiteId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoSites => write!(f, "topology declares no database sites"),
            TopologyError::Disconnected(n) => {
                write!(f, "node {n} is unreachable from node s0")
            }
            TopologyError::UnknownNode(n) => write!(f, "link references unknown node {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A connected, undirected network of nodes, some of which host database
/// replicas ("sites") while others are pure relays (gateways, internetwork
/// routers). Links are unweighted; distance is hop count.
///
/// Node identifiers are [`SiteId`]s even for relay nodes — only those listed
/// by [`Topology::sites`] participate in the epidemic protocols.
///
/// # Example
///
/// ```
/// use epidemic_net::TopologyBuilder;
///
/// // s0 -- s1 -- s2, with s1 a pure relay.
/// let mut b = TopologyBuilder::new();
/// let s0 = b.add_site("a");
/// let relay = b.add_relay("gw");
/// let s2 = b.add_site("b");
/// b.link(s0, relay);
/// b.link(relay, s2);
/// let topo = b.build()?;
/// assert_eq!(topo.sites(), [s0, s2]);
/// assert_eq!(topo.node_count(), 3);
/// # Ok::<(), epidemic_net::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    labels: Vec<String>,
    is_site: Vec<bool>,
    sites: Vec<SiteId>,
    links: Vec<(SiteId, SiteId)>,
    costs: Vec<u32>,
    adjacency: Vec<Vec<(SiteId, LinkId)>>,
}

impl Topology {
    /// Total number of nodes, sites plus relays.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of database sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The database sites, in id order.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Whether `node` hosts a database replica.
    pub fn is_site(&self, node: SiteId) -> bool {
        self.is_site[node.as_usize()]
    }

    /// The label given to `node` at construction time.
    pub fn label(&self, node: SiteId) -> &str {
        &self.labels[node.as_usize()]
    }

    /// The endpoints of `link`.
    pub fn endpoints(&self, link: LinkId) -> (SiteId, SiteId) {
        self.links[link.index()]
    }

    /// All links as `(a, b)` endpoint pairs, indexable by [`LinkId`].
    pub fn links(&self) -> &[(SiteId, SiteId)] {
        &self.links
    }

    /// Neighbors of `node` with the links that reach them.
    pub(crate) fn neighbors(&self, node: SiteId) -> &[(SiteId, LinkId)] {
        &self.adjacency[node.as_usize()]
    }

    /// The traversal cost of `link` (1 for ordinary links; higher for slow
    /// lines added with [`TopologyBuilder::link_weighted`]).
    pub(crate) fn link_cost(&self, link: LinkId) -> u32 {
        self.costs[link.index()]
    }

    /// Whether every link has unit cost (routing can use plain BFS).
    pub(crate) fn is_unit_cost(&self) -> bool {
        self.costs.iter().all(|&c| c == 1)
    }

    /// Finds the link between two adjacent nodes, if one exists.
    pub fn link_between(&self, a: SiteId, b: SiteId) -> Option<LinkId> {
        self.adjacency[a.as_usize()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// Finds a node by label.
    pub fn node_by_label(&self, label: &str) -> Option<SiteId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| SiteId::new(i as u32))
    }
}

/// Incremental builder for [`Topology`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    labels: Vec<String>,
    is_site: Vec<bool>,
    links: Vec<(SiteId, SiteId)>,
    costs: Vec<u32>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds a database site and returns its id.
    pub fn add_site(&mut self, label: impl Into<String>) -> SiteId {
        self.add_node(label.into(), true)
    }

    /// Adds a relay node (gateway/router with no replica) and returns its id.
    pub fn add_relay(&mut self, label: impl Into<String>) -> SiteId {
        self.add_node(label.into(), false)
    }

    fn add_node(&mut self, label: String, site: bool) -> SiteId {
        let id = SiteId::new(self.labels.len() as u32);
        self.labels.push(label);
        self.is_site.push(site);
        id
    }

    /// Adds an undirected unit-cost link between two existing nodes.
    /// Returns the id it will have in the built topology.
    pub fn link(&mut self, a: SiteId, b: SiteId) -> LinkId {
        self.link_weighted(a, b, 1)
    }

    /// Adds an undirected link with a traversal `cost ≥ 1` — e.g. a slow
    /// phone line in a network of Ethernets. Distance-based spatial
    /// distributions then see sites across the line as proportionally
    /// farther away.
    ///
    /// # Panics
    ///
    /// Panics if `cost == 0`.
    pub(crate) fn link_weighted(&mut self, a: SiteId, b: SiteId, cost: u32) -> LinkId {
        assert!(cost >= 1, "link cost must be at least 1");
        let id = LinkId(self.links.len());
        self.links.push((a, b));
        self.costs.push(cost);
        id
    }

    /// Validates and builds the topology.
    ///
    /// # Errors
    ///
    /// Returns an error if the topology has no sites, a link references an
    /// undeclared node or forms a self-loop, or the graph is disconnected.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        let n = self.labels.len();
        let sites: Vec<SiteId> = (0..n)
            .filter(|&i| self.is_site[i])
            .map(|i| SiteId::new(i as u32))
            .collect();
        if sites.is_empty() {
            return Err(TopologyError::NoSites);
        }
        let mut adjacency: Vec<Vec<(SiteId, LinkId)>> = vec![Vec::new(); n];
        for (idx, &(a, b)) in self.links.iter().enumerate() {
            if a.as_usize() >= n {
                return Err(TopologyError::UnknownNode(a));
            }
            if b.as_usize() >= n {
                return Err(TopologyError::UnknownNode(b));
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            let link = LinkId(idx);
            adjacency[a.as_usize()].push((b, link));
            adjacency[b.as_usize()].push((a, link));
        }
        // Deterministic neighbor order (BFS tie-breaking, reproducibility).
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        // Connectivity check from node 0.
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(u) = queue.pop_front() {
            for &(v, _) in &adjacency[u] {
                if !seen[v.as_usize()] {
                    seen[v.as_usize()] = true;
                    queue.push_back(v.as_usize());
                }
            }
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(TopologyError::Disconnected(SiteId::new(i as u32)));
        }
        Ok(Topology {
            labels: self.labels.clone(),
            is_site: self.is_site.clone(),
            sites,
            links: self.links.clone(),
            costs: self.costs.clone(),
            adjacency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_topology() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a");
        let c = b.add_site("c");
        let r = b.add_relay("r");
        b.link(a, r);
        b.link(r, c);
        let t = b.build().unwrap();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.site_count(), 2);
        assert_eq!(t.link_count(), 2);
        assert!(t.is_site(a));
        assert!(!t.is_site(r));
        assert_eq!(t.label(r), "r");
        assert_eq!(t.node_by_label("c"), Some(c));
        assert_eq!(t.node_by_label("zzz"), None);
    }

    #[test]
    fn rejects_empty_and_disconnected() {
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            TopologyError::NoSites
        );
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a");
        let c = b.add_site("c");
        let d = b.add_site("d");
        b.link(a, c);
        assert_eq!(b.build().unwrap_err(), TopologyError::Disconnected(d));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a");
        b.link(a, a);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(a));
    }

    #[test]
    fn link_between_finds_links() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a");
        let c = b.add_site("c");
        let d = b.add_site("d");
        let l = b.link(a, c);
        b.link(c, d);
        let t = b.build().unwrap();
        assert_eq!(t.link_between(a, c), Some(l));
        assert_eq!(t.link_between(c, a), Some(l));
        assert_eq!(t.link_between(a, d), None);
        assert_eq!(t.endpoints(l), (a, c));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = TopologyBuilder::new();
        let hub = b.add_site("hub");
        let spokes: Vec<_> = (0..5).map(|i| b.add_site(format!("s{i}"))).collect();
        // Link in reverse order; adjacency must still come out sorted.
        for s in spokes.iter().rev() {
            b.link(hub, *s);
        }
        let t = b.build().unwrap();
        let ns: Vec<_> = t.neighbors(hub).iter().map(|(n, _)| *n).collect();
        let mut sorted = ns.clone();
        sorted.sort();
        assert_eq!(ns, sorted);
    }

    #[test]
    fn error_display_is_informative() {
        let err = TopologyError::Disconnected(SiteId::new(4));
        assert!(err.to_string().contains("s4"));
    }
}
