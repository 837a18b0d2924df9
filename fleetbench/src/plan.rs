//! Seeded inputs: which sessions each workload opens, in which order.
//! Everything here is a pure function of the seed, so the same seed
//! always sends the servers the same requests.

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, a, b)`.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0xa076_1d64_78bd_642f));
        let x = r.next_u64();
        Rng(x ^ b.wrapping_mul(0xe703_7ed1_a0b4_28db))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The selectors a workload mixes.
pub const SELECTORS: [&str; 3] = ["l2qp", "l2qr", "l2qbal"];

/// One harvest session as `create` asks for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Spec {
    pub entity: u32,
    pub aspect: usize,
    pub selector: usize,
    pub n_queries: u32,
    pub domain_size: u32,
}

/// Peers in every session's domain phase.
pub const DOMAIN_SIZE: u32 = 3;

/// The fixed family of long harvests: entity `e` uses selector `e % 3`
/// and aspect `(e / 3) % aspects`, so every selector and aspect appears.
pub fn base_specs(n_entities: u32, n_aspects: usize, n_queries: u32) -> Vec<Spec> {
    (0..n_entities)
        .map(|e| Spec {
            entity: e,
            aspect: (e as usize / 3) % n_aspects,
            selector: e as usize % SELECTORS.len(),
            n_queries,
            domain_size: DOMAIN_SIZE,
        })
        .collect()
}

/// The `i`-th session of a stream over `base`: the stream runs through
/// `base` in a fresh seeded order every cycle, so each seed does the same
/// work in its own order.
pub fn cycled(base: &[Spec], seed: u64, i: usize) -> Spec {
    let cycle = i / base.len();
    let mut order: Vec<usize> = (0..base.len()).collect();
    let mut rng = Rng::derive(seed, 1, cycle as u64);
    for k in (1..order.len()).rev() {
        order.swap(k, rng.below(k + 1));
    }
    base[order[i % base.len()]].clone()
}

/// The `i`-th short session of the churn stream: any entity, aspect and
/// selector, with 1 or 2 steps before it is closed.
pub fn churn(seed: u64, i: usize, n_entities: u32, n_aspects: usize) -> (Spec, u32) {
    let mut rng = Rng::derive(seed, 2, i as u64);
    let spec = Spec {
        entity: rng.below(n_entities as usize) as u32,
        aspect: rng.below(n_aspects),
        selector: rng.below(SELECTORS.len()),
        n_queries: 32,
        domain_size: DOMAIN_SIZE,
    };
    (spec, 1 + rng.below(2) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let stream = |seed| (0..64).map(|i| churn(seed, i, 24, 5)).collect::<Vec<_>>();
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let base = base_specs(24, 5, 32);
        assert_eq!(cycled(&base, 3, 40), cycled(&base, 3, 40));
    }

    #[test]
    fn every_cycle_runs_the_whole_family() {
        let base = base_specs(24, 5, 32);
        let mut cycle: Vec<Spec> = (24..48).map(|i| cycled(&base, 9, i)).collect();
        cycle.sort();
        assert_eq!(cycle, base);
        // Different seeds order the same family differently.
        let a: Vec<Spec> = (0..24).map(|i| cycled(&base, 1, i)).collect();
        let b: Vec<Spec> = (0..24).map(|i| cycled(&base, 2, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn base_family_covers_every_selector_and_aspect() {
        let base = base_specs(24, 5, 32);
        for s in 0..SELECTORS.len() {
            assert!(base.iter().any(|x| x.selector == s));
        }
        for a in 0..5 {
            assert!(base.iter().any(|x| x.aspect == a));
        }
    }
}
