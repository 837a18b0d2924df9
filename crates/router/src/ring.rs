//! Consistent-hash ring with virtual nodes.
//!
//! Session ids hash onto a ring of `vnodes` points per shard; a session
//! routes to the first shard point at or clockwise past its hash. With
//! enough virtual nodes the load spreads near-uniformly, and adding or
//! removing one shard remaps only ~1/N of the keyspace — resident
//! sessions elsewhere keep their owner, which is the whole reason to
//! prefer a ring over `hash % N`.

/// Virtual nodes per shard. Every router builds its ring with this
/// count, so two routers over the same shard names agree on each
/// session's owner.
pub const DEFAULT_VNODES: usize = 64;

/// splitmix64 finalizer — cheap, well-mixed 64-bit hashing with no
/// external dependency.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// FNV-1a over a name, then splitmix64 to spread the low bits.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    mix64(h)
}

/// Where a session id lands on the ring.
pub fn hash_key(id: u64) -> u64 {
    mix64(id)
}

/// The ring: sorted (point, shard-index) pairs over the registered shard
/// names. Mutations rebuild the point list — shards join and leave
/// rarely; lookups are the hot path.
#[derive(Clone, Debug)]
pub struct HashRing {
    vnodes: usize,
    names: Vec<String>,
    /// Sorted by point; ties broken by shard index (deterministic).
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// An empty ring with `vnodes` virtual nodes per shard.
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            names: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Registered shard names, in join order.
    pub fn shards(&self) -> &[String] {
        &self.names
    }

    /// Whether the shard is on the ring.
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Add a shard; `false` if the name is already registered.
    pub fn add(&mut self, name: &str) -> bool {
        if self.contains(name) {
            return false;
        }
        self.names.push(name.to_owned());
        self.rebuild();
        true
    }

    /// Remove a shard; `false` if it was not registered.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(pos) = self.names.iter().position(|n| n == name) else {
            return false;
        };
        self.names.remove(pos);
        self.rebuild();
        true
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (idx, name) in self.names.iter().enumerate() {
            let base = hash_name(name);
            for v in 0..self.vnodes {
                self.points.push((mix64(base ^ (v as u64)), idx as u32));
            }
        }
        self.points.sort_unstable();
    }

    /// Every shard in ring preference order for `key`: walk clockwise
    /// from the key's point, yielding each distinct shard once. The first
    /// entry is the session's home; the rest are its failover order.
    pub fn ranked(&self, key: u64) -> Vec<&str> {
        if self.names.is_empty() {
            return Vec::new();
        }
        let h = hash_key(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out: Vec<&str> = Vec::with_capacity(self.names.len());
        let mut seen = vec![false; self.names.len()];
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen[idx as usize] {
                seen[idx as usize] = true;
                out.push(&self.names[idx as usize]);
                if out.len() == self.names.len() {
                    break;
                }
            }
        }
        out
    }

    /// The session's home shard (`ranked`'s first entry).
    pub fn route(&self, key: u64) -> Option<&str> {
        if self.names.is_empty() {
            return None;
        }
        let h = hash_key(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let (_, idx) = self.points[start % self.points.len()];
        Some(&self.names[idx as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ring(names: &[&str]) -> HashRing {
        let mut r = HashRing::new(DEFAULT_VNODES);
        for n in names {
            assert!(r.add(n));
        }
        r
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let r = ring(&["a", "b", "c"]);
        let mut per_shard: HashMap<String, usize> = HashMap::new();
        for id in 0..3000u64 {
            let owner = r.route(id).unwrap().to_owned();
            assert_eq!(r.route(id), Some(owner.as_str()), "stable per key");
            *per_shard.entry(owner).or_default() += 1;
        }
        assert_eq!(per_shard.len(), 3, "every shard owns some keys");
        for (shard, n) in &per_shard {
            // 3000 keys over 3 shards: expect ~1000 each; virtual nodes
            // keep the skew well inside ±50%.
            assert!((500..=1500).contains(n), "{shard} owns {n} of 3000");
        }
    }

    #[test]
    fn ranked_lists_every_shard_once_starting_with_the_owner() {
        let r = ring(&["a", "b", "c", "d"]);
        for id in 0..100u64 {
            let ranked = r.ranked(id);
            assert_eq!(ranked.len(), 4);
            assert_eq!(ranked[0], r.route(id).unwrap());
            let mut sorted: Vec<&str> = ranked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "no duplicates in {ranked:?}");
        }
    }

    /// The consistent-hashing property: adding one shard to N remaps only
    /// ~1/(N+1) of the keys, and removing it restores the old owners
    /// exactly.
    #[test]
    fn join_remaps_about_one_nth_and_leave_restores_owners() {
        let mut r = ring(&["a", "b", "c", "d"]);
        let keys: Vec<u64> = (0..4000).collect();
        let before: Vec<String> = keys
            .iter()
            .map(|&k| r.route(k).unwrap().to_owned())
            .collect();

        assert!(r.add("e"));
        let after: Vec<String> = keys
            .iter()
            .map(|&k| r.route(k).unwrap().to_owned())
            .collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        let frac = moved as f64 / keys.len() as f64;
        // Ideal is 1/5 = 0.20; allow generous vnode variance.
        assert!((0.10..=0.35).contains(&frac), "moved fraction {frac}");
        // Every moved key moved TO the new shard, never between old ones.
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(a, "e", "key moved between old shards: {b} -> {a}");
            }
        }

        assert!(r.remove("e"));
        let restored: Vec<String> = keys
            .iter()
            .map(|&k| r.route(k).unwrap().to_owned())
            .collect();
        assert_eq!(before, restored, "leave restores the exact old owners");
    }

    #[test]
    fn empty_and_duplicate_edges() {
        let mut r = HashRing::new(8);
        assert_eq!(r.route(1), None);
        assert!(r.ranked(1).is_empty());
        assert!(r.add("a"));
        assert!(!r.add("a"), "duplicate join refused");
        assert_eq!(r.route(1), Some("a"));
        assert!(r.remove("a"));
        assert!(!r.remove("a"), "double leave refused");
        assert_eq!(r.route(1), None);
    }
}
