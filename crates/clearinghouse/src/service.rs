//! The whole name service: a fleet of servers, client-operation routing
//! and per-domain anti-entropy scheduling.

use std::fmt;

use epidemic_db::SiteId;
use rand::{Rng, RngExt};

use crate::directory::Directory;
use crate::name::{DomainId, Name};
use crate::object::{resolve, Object, ResolveError};
use crate::server::Server;

/// Errors from client operations against the [`Clearinghouse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The name's domain is not assigned to any server.
    UnknownDomain(DomainId),
    /// The addressed server does not exist in this fleet.
    UnknownServer(SiteId),
    /// The addressed server does not store the name's domain.
    DomainNotStoredAt(SiteId, DomainId),
    /// Alias resolution failed.
    Resolve(ResolveError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDomain(d) => write!(f, "no server stores domain {d}"),
            ServiceError::UnknownServer(s) => write!(f, "no such server: {s}"),
            ServiceError::DomainNotStoredAt(s, d) => {
                write!(f, "server {s} does not store domain {d}")
            }
            ServiceError::Resolve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ResolveError> for ServiceError {
    fn from(e: ResolveError) -> Self {
        ServiceError::Resolve(e)
    }
}

/// A fleet of Clearinghouse servers with a [`Directory`] of domain
/// assignments. Client binds are routed to a domain holder; each
/// [`Clearinghouse::anti_entropy_cycle`] has every server run one
/// push-pull exchange per hosted domain with a random co-holder.
#[derive(Debug, Clone)]
pub struct Clearinghouse {
    servers: Vec<Server>,
    directory: Directory,
    time: u64,
}

impl Clearinghouse {
    /// Creates `n` servers (sites `0..n`) hosting the domains the
    /// directory assigns them.
    ///
    /// # Panics
    ///
    /// Panics if the directory references a site `>= n`.
    pub fn new(n: usize, directory: Directory) -> Self {
        let mut servers: Vec<Server> = (0..n).map(|i| Server::new(SiteId::new(i as u32))).collect();
        for domain in directory.domains() {
            for &site in directory.holders(domain) {
                assert!(
                    site.as_usize() < n,
                    "directory references unknown server {site}"
                );
                servers[site.as_usize()].host(domain.clone());
            }
        }
        Clearinghouse {
            servers,
            directory,
            time: 1,
        }
    }

    /// The domain directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The server at `site`, if any.
    pub fn server(&self, site: SiteId) -> Option<&Server> {
        self.servers.get(site.as_usize())
    }

    /// Binds `name` to `value` at the first server storing its domain —
    /// the update-entry site (§1.1: "each database update is injected at a
    /// single site").
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`] if no server stores the domain.
    pub fn bind(&mut self, name: &Name, value: Object) -> Result<SiteId, ServiceError> {
        let holders = self.directory.holders(name.domain_id());
        let &site = holders
            .first()
            .ok_or_else(|| ServiceError::UnknownDomain(name.domain_id().clone()))?;
        self.servers[site.as_usize()]
            .bind(name, value)
            .expect("directory and hosting are consistent");
        Ok(site)
    }

    /// Unbinds `name` at the first server storing its domain.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownDomain`] if no server stores the domain.
    pub fn unbind(&mut self, name: &Name) -> Result<SiteId, ServiceError> {
        let holders = self.directory.holders(name.domain_id());
        let &site = holders
            .first()
            .ok_or_else(|| ServiceError::UnknownDomain(name.domain_id().clone()))?;
        self.servers[site.as_usize()]
            .unbind(name)
            .expect("directory and hosting are consistent");
        Ok(site)
    }

    /// Looks `name` up at a specific server, as a client bound to that
    /// server would.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownServer`] or
    /// [`ServiceError::DomainNotStoredAt`] when the request cannot be
    /// served there.
    pub fn lookup_at(&self, site: SiteId, name: &Name) -> Result<Option<Object>, ServiceError> {
        let server = self
            .servers
            .get(site.as_usize())
            .ok_or(ServiceError::UnknownServer(site))?;
        if !server.hosts(name.domain_id()) {
            return Err(ServiceError::DomainNotStoredAt(
                site,
                name.domain_id().clone(),
            ));
        }
        Ok(server.lookup(name).cloned())
    }

    /// Resolves `name` through any alias chain, as seen from `site`.
    /// Every name in the chain must live in a domain stored at `site`.
    ///
    /// # Errors
    ///
    /// The addressing errors of [`Clearinghouse::lookup_at`], plus
    /// [`ServiceError::Resolve`] for unbound links and alias loops.
    pub fn resolve_at(&self, site: SiteId, name: &Name) -> Result<Object, ServiceError> {
        let server = self
            .servers
            .get(site.as_usize())
            .ok_or(ServiceError::UnknownServer(site))?;
        Ok(resolve(name, |n| server.lookup(n).cloned(), 16)?)
    }

    /// One anti-entropy cycle: every server, for every domain it hosts,
    /// exchanges with one random co-holder of that domain (§1.3 run
    /// per-domain, as the real Clearinghouse did nightly).
    pub fn anti_entropy_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.time += 1;
        for server in &mut self.servers {
            server.advance_clock(self.time);
        }
        for site_index in 0..self.servers.len() {
            let site = SiteId::new(site_index as u32);
            for domain in self.directory.domains_at(site) {
                let holders = self.directory.holders(&domain);
                if holders.len() < 2 {
                    continue;
                }
                let partner = loop {
                    let p = holders[rng.random_range(0..holders.len())];
                    if p != site {
                        break p;
                    }
                };
                let (a, b) = pair_mut(&mut self.servers, site_index, partner.as_usize());
                Server::exchange_domain(a, b, &domain);
            }
        }
    }

    /// Whether every replica of `domain` holds identical contents.
    pub fn domain_consistent(&self, domain: &DomainId) -> bool {
        let holders = self.directory.holders(domain);
        let Some((&first, rest)) = holders.split_first() else {
            return true;
        };
        let reference = self.servers[first.as_usize()]
            .replica(domain)
            .expect("holders host their domains");
        rest.iter().all(|&s| {
            self.servers[s.as_usize()]
                .replica(domain)
                .expect("holders host their domains")
                .db()
                == reference.db()
        })
    }
}

fn pair_mut(servers: &mut [Server], i: usize, j: usize) -> (&mut Server, &mut Server) {
    let [a, b] = servers
        .get_disjoint_mut([i, j])
        .expect("two distinct servers");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn domain(s: &str) -> DomainId {
        s.parse().unwrap()
    }

    fn service() -> Clearinghouse {
        let mut dir = Directory::new();
        dir.assign(domain("PARC:Xerox"), (0..4).map(SiteId::new).collect());
        dir.assign(domain("SDD:Xerox"), vec![SiteId::new(4), SiteId::new(5)]);
        dir.assign(domain("Lone:Xerox"), vec![SiteId::new(6)]);
        Clearinghouse::new(8, dir)
    }

    #[test]
    fn binds_route_to_domain_holders() {
        let mut ch = service();
        let site = ch.bind(&name("mary:PARC:Xerox"), "addr".into()).unwrap();
        assert!(ch.directory().stores(site, &domain("PARC:Xerox")));
        assert_eq!(
            ch.bind(&name("x:Nowhere:Y"), "v".into()),
            Err(ServiceError::UnknownDomain(domain("Nowhere:Y")))
        );
    }

    #[test]
    fn gossip_converges_each_domain_to_its_holders_only() {
        let mut ch = service();
        ch.bind(&name("mary:PARC:Xerox"), "parc-addr".into())
            .unwrap();
        ch.bind(&name("db:SDD:Xerox"), "sdd-addr".into()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..12 {
            ch.anti_entropy_cycle(&mut rng);
        }
        assert!(ch.domain_consistent(&domain("PARC:Xerox")));
        assert!(ch.domain_consistent(&domain("SDD:Xerox")));
        // Every PARC holder can answer; SDD holders cannot see PARC names.
        for s in 0..4u32 {
            assert_eq!(
                ch.lookup_at(SiteId::new(s), &name("mary:PARC:Xerox"))
                    .unwrap(),
                Some(crate::object::Object::address("parc-addr"))
            );
        }
        assert_eq!(
            ch.lookup_at(SiteId::new(4), &name("mary:PARC:Xerox")),
            Err(ServiceError::DomainNotStoredAt(
                SiteId::new(4),
                domain("PARC:Xerox")
            ))
        );
    }

    #[test]
    fn single_holder_domains_are_trivially_consistent() {
        let mut ch = service();
        ch.bind(&name("only:Lone:Xerox"), "v".into()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        ch.anti_entropy_cycle(&mut rng);
        assert!(ch.domain_consistent(&domain("Lone:Xerox")));
        assert_eq!(
            ch.lookup_at(SiteId::new(6), &name("only:Lone:Xerox"))
                .unwrap(),
            Some(crate::object::Object::address("v"))
        );
    }

    #[test]
    fn unbind_propagates_as_death_certificate() {
        let mut ch = service();
        ch.bind(&name("mary:PARC:Xerox"), "addr".into()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            ch.anti_entropy_cycle(&mut rng);
        }
        ch.unbind(&name("mary:PARC:Xerox")).unwrap();
        for _ in 0..10 {
            ch.anti_entropy_cycle(&mut rng);
        }
        for s in 0..4u32 {
            assert_eq!(
                ch.lookup_at(SiteId::new(s), &name("mary:PARC:Xerox"))
                    .unwrap(),
                None
            );
        }
        assert!(ch.domain_consistent(&domain("PARC:Xerox")));
    }

    #[test]
    fn lookup_errors_are_precise() {
        let ch = service();
        assert_eq!(
            ch.lookup_at(SiteId::new(99), &name("a:PARC:Xerox")),
            Err(ServiceError::UnknownServer(SiteId::new(99)))
        );
        let e = ServiceError::UnknownDomain(domain("A:B")).to_string();
        assert!(e.contains("A:B"));
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn directory_must_reference_existing_servers() {
        let mut dir = Directory::new();
        dir.assign(domain("D:O"), vec![SiteId::new(10)]);
        Clearinghouse::new(2, dir);
    }
}

#[cfg(test)]
mod resolve_tests {
    use super::*;
    use crate::object::Object;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn service_with_aliases() -> Clearinghouse {
        let mut dir = Directory::new();
        dir.assign(
            "PARC:Xerox".parse().unwrap(),
            vec![SiteId::new(0), SiteId::new(1)],
        );
        let mut ch = Clearinghouse::new(2, dir);
        ch.bind(&name("daisy:PARC:Xerox"), Object::address("35-2200"))
            .unwrap();
        ch.bind(
            &name("lpr:PARC:Xerox"),
            Object::Alias(name("daisy:PARC:Xerox")),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..4 {
            ch.anti_entropy_cycle(&mut rng);
        }
        ch
    }

    #[test]
    fn resolve_follows_aliases_at_any_holder() {
        let ch = service_with_aliases();
        for s in 0..2u32 {
            let got = ch
                .resolve_at(SiteId::new(s), &name("lpr:PARC:Xerox"))
                .unwrap();
            assert_eq!(got.as_address(), Some("35-2200"));
        }
    }

    #[test]
    fn resolve_reports_loops_as_service_errors() {
        let mut ch = service_with_aliases();
        ch.bind(&name("a:PARC:Xerox"), Object::Alias(name("b:PARC:Xerox")))
            .unwrap();
        ch.bind(&name("b:PARC:Xerox"), Object::Alias(name("a:PARC:Xerox")))
            .unwrap();
        let err = ch
            .resolve_at(SiteId::new(0), &name("a:PARC:Xerox"))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Resolve(_)));
        assert!(err.to_string().contains("does not terminate"));
    }

    #[test]
    fn groups_survive_gossip_intact() {
        let mut ch = service_with_aliases();
        let members = vec![name("mary:PARC:Xerox"), name("carl:PARC:Xerox")];
        ch.bind(&name("csl:PARC:Xerox"), Object::group(members))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..4 {
            ch.anti_entropy_cycle(&mut rng);
        }
        for s in 0..2u32 {
            let got = ch
                .lookup_at(SiteId::new(s), &name("csl:PARC:Xerox"))
                .unwrap()
                .unwrap();
            assert_eq!(got.as_group().unwrap().len(), 2);
        }
    }
}

impl Clearinghouse {
    /// Runs death-certificate garbage collection (§2.1) at every server
    /// with the given policy. Returns the total certificates discarded.
    pub fn collect_garbage(&mut self, policy: epidemic_db::GcPolicy) -> usize {
        let mut discarded = 0;
        for server in &mut self.servers {
            for domain in server.hosted_domains().cloned().collect::<Vec<_>>() {
                if let Some(replica) = server.replica_mut(&domain) {
                    discarded += replica.collect_garbage(policy).discarded;
                }
            }
        }
        discarded
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use crate::object::Object;
    use epidemic_db::GcPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expired_certificates_are_reclaimed_fleet_wide() {
        let mut dir = Directory::new();
        let d: DomainId = "D:O".parse().unwrap();
        dir.assign(
            d.clone(),
            vec![SiteId::new(0), SiteId::new(1), SiteId::new(2)],
        );
        let mut ch = Clearinghouse::new(3, dir);
        let name: Name = "gone:D:O".parse().unwrap();
        ch.bind(&name, Object::address("x")).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            ch.anti_entropy_cycle(&mut rng);
        }
        ch.unbind(&name).unwrap();
        for _ in 0..5 {
            ch.anti_entropy_cycle(&mut rng);
        }
        // Age everyone far beyond the threshold (cycles advance clocks by
        // 1 tick each; run many cheap cycles).
        for _ in 0..120 {
            ch.anti_entropy_cycle(&mut rng);
        }
        let discarded = ch.collect_garbage(GcPolicy::FixedThreshold { tau: 50 });
        assert_eq!(discarded, 3, "one tombstone per replica");
        for s in 0..3u32 {
            let server = ch.server(SiteId::new(s)).unwrap();
            assert_eq!(server.replica(&d).unwrap().db().len(), 0);
        }
    }
}
