//! The anycast catchment model: which PoP serves which client prefix.
//!
//! Real anycast catchments emerge from BGP — a client's packets land at
//! whichever PoP the interdomain routes deliver them to, which
//! correlates strongly with geography but is skewed by peering and
//! capacity ("How Far is Facebook from Me?", PAPERS.md). We model that
//! with a deterministic scoring function: each PoP sits on a continent
//! ring position and advertises a capacity weight; a client prefix is
//! homed on the alive PoP minimizing
//! `ring_distance(client, pop) / capacity + jitter`, where the jitter is
//! a tiny seeded hash of (seed, prefix, pop) that breaks ties the way
//! real catchments wobble — deterministically for a fixed seed.
//!
//! The model is pure: `home()` depends only on the key, the site table,
//! and the alive set, so the coordinator, tests, and the load generator
//! all compute identical catchments without coordination.

use edgeperf_core::splitmix64;

/// Number of continent codes the workload generator emits (0..6).
pub(crate) const CONTINENTS: u8 = 6;

/// One PoP site in the catchment table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopSite {
    /// The PoP id (index into the fleet).
    pub pop: u16,
    /// Continent ring position (`0..CONTINENTS`).
    pub continent: u8,
    /// Relative capacity weight (higher attracts more prefixes).
    pub capacity: f64,
}

/// The client-side identity the catchment maps to a PoP: the routed
/// prefix plus the geography metadata carried on every record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientKey {
    /// Prefix base address.
    pub prefix_base: u32,
    /// Prefix length.
    pub prefix_len: u8,
    /// Country id.
    pub country: u16,
    /// Continent id.
    pub continent: u8,
}

/// Deterministic seeded anycast catchment over a fixed PoP site table.
#[derive(Debug, Clone)]
pub struct CatchmentModel {
    seed: u64,
    sites: Vec<PopSite>,
    alive: Vec<bool>,
}

/// Distance between two continents on the 6-position ring (0..=3).
fn ring_distance(a: u8, b: u8) -> u32 {
    let n = u32::from(CONTINENTS);
    let d = (u32::from(a % CONTINENTS)).abs_diff(u32::from(b % CONTINENTS));
    d.min(n - d)
}

impl CatchmentModel {
    /// Build the default site table: `pops` PoPs placed round-robin on
    /// the continent ring, all with unit capacity.
    pub fn new(pops: u16, seed: u64) -> CatchmentModel {
        let sites = (0..pops)
            .map(|p| PopSite {
                pop: p,
                continent: (p % u16::from(CONTINENTS)) as u8,
                capacity: 1.0,
            })
            .collect();
        CatchmentModel::with_sites(sites, seed)
    }

    /// Build from an explicit site table (capacity skew, custom placement).
    pub(crate) fn with_sites(sites: Vec<PopSite>, seed: u64) -> CatchmentModel {
        let alive = vec![true; sites.len()];
        CatchmentModel { seed, sites, alive }
    }

    /// The site table.
    pub(crate) fn sites(&self) -> &[PopSite] {
        &self.sites
    }

    /// Number of alive PoPs.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Remove a PoP from the catchment. Returns false if it was
    /// already dead or unknown.
    pub fn kill(&mut self, pop: u16) -> bool {
        match self.alive.get_mut(usize::from(pop)) {
            Some(alive) if *alive => {
                *alive = false;
                true
            }
            _ => false,
        }
    }

    /// The home PoP for a client key: argmin over alive PoPs of
    /// `ring_distance / capacity + jitter`. `None` when no PoP is alive.
    /// Ties break toward the lower PoP index (the fold keeps the first
    /// strict minimum), so the result is total-order deterministic.
    pub fn home(&self, key: &ClientKey) -> Option<u16> {
        let mut best: Option<(f64, u16)> = None;
        for site in &self.sites {
            if !self.alive[usize::from(site.pop)] {
                continue;
            }
            let mixed = splitmix64(
                self.seed
                    ^ (u64::from(key.prefix_base) << 16)
                    ^ (u64::from(key.prefix_len) << 8)
                    ^ u64::from(site.pop),
            );
            // Map the hash into [0, 1e-3): big enough to break distance
            // ties, small enough to never override a whole ring step.
            let jitter = (mixed >> 11) as f64 / (1u64 << 53) as f64 * 1e-3;
            let score =
                f64::from(ring_distance(key.continent, site.continent)) / site.capacity + jitter;
            best = match best {
                Some((s, p)) if s.total_cmp(&score).is_le() => Some((s, p)),
                _ => Some((score, site.pop)),
            };
        }
        best.map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(g: u32) -> ClientKey {
        ClientKey {
            prefix_base: 0x0A00_0000 + (g << 8),
            prefix_len: 24,
            country: (g % 37) as u16,
            continent: (g % u32::from(CONTINENTS)) as u8,
        }
    }

    #[test]
    fn ring_distance_wraps() {
        assert_eq!(ring_distance(0, 0), 0);
        assert_eq!(ring_distance(0, 3), 3);
        assert_eq!(ring_distance(0, 5), 1);
        assert_eq!(ring_distance(5, 1), 2);
    }

    #[test]
    fn homing_is_deterministic_and_total() {
        let a = CatchmentModel::new(4, 7);
        let b = CatchmentModel::new(4, 7);
        for g in 0..256 {
            let k = key(g);
            let home = a.home(&k).unwrap();
            assert_eq!(Some(home), b.home(&k));
            assert!(home < 4);
        }
    }

    #[test]
    fn different_seeds_move_tied_prefixes() {
        // Two PoPs on the same continent with equal capacity: every
        // prefix is a score tie, so the seeded jitter alone decides the
        // catchment — and a different seed decides differently for some
        // prefixes, while each seed remains internally deterministic.
        let sites = vec![
            PopSite { pop: 0, continent: 0, capacity: 1.0 },
            PopSite { pop: 1, continent: 0, capacity: 1.0 },
        ];
        let a = CatchmentModel::with_sites(sites.clone(), 7);
        let b = CatchmentModel::with_sites(sites, 8);
        let moved = (0..512).filter(|g| a.home(&key(*g)) != b.home(&key(*g))).count();
        assert!(moved > 0, "seed change should re-home at least one tied prefix");
        let balance = (0..512).filter(|g| a.home(&key(*g)) == Some(0)).count();
        assert!((128..=384).contains(&balance), "tied catchment should split, got {balance}/512");
    }

    #[test]
    fn killing_a_pop_rehomes_only_its_prefixes() {
        let mut model = CatchmentModel::new(3, 7);
        let keys: Vec<ClientKey> = (0..256).map(key).collect();
        let homes = |model: &CatchmentModel| -> BTreeMap<ClientKey, u16> {
            keys.iter().map(|k| (*k, model.home(k).expect("a PoP is alive"))).collect()
        };
        let before = homes(&model);
        assert!(model.kill(1));
        assert!(!model.kill(1), "double kill reports false");
        assert_eq!(model.alive_count(), 2);
        let after = homes(&model);
        let mut rehomed = 0usize;
        for k in &keys {
            if before[k] == 1 {
                assert_ne!(after[k], 1, "dead PoP must not be a home");
                rehomed += 1;
            } else {
                assert_eq!(before[k], after[k], "surviving homes must not move");
            }
        }
        assert!(rehomed > 0, "PoP 1 should have owned some prefixes");
    }

    #[test]
    fn capacity_skew_attracts_prefixes() {
        let flat = CatchmentModel::new(2, 7);
        let skewed = CatchmentModel::with_sites(
            vec![
                PopSite { pop: 0, continent: 0, capacity: 1.0 },
                PopSite { pop: 1, continent: 1, capacity: 8.0 },
            ],
            7,
        );
        let keys: Vec<ClientKey> = (0..512).map(key).collect();
        let share = |m: &CatchmentModel| keys.iter().filter(|k| m.home(k) == Some(1)).count();
        assert!(share(&skewed) > share(&flat), "higher capacity should widen the catchment");
    }

    #[test]
    fn no_alive_pops_means_no_home() {
        let mut model = CatchmentModel::new(1, 7);
        assert!(model.kill(0));
        assert_eq!(model.home(&key(0)), None);
        assert_eq!(model.alive_count(), 0);
    }
}
