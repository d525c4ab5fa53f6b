//! Solution pools (paper §IV, Fig. 2).
//!
//! A pool stores up to `capacity` packets sorted by energy (best first).
//! Each row remembers the solution vector, its energy, and the (main
//! algorithm, genetic operation) pair that produced it — the raw material of
//! adaptive selection. A result packet is inserted iff it beats the worst
//! row; the worst row is evicted.

use crate::GeneticOp;
use dabs_model::Solution;
use dabs_rng::Rng64;
use dabs_search::MainAlgorithm;

/// One pool row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolEntry {
    pub solution: Solution,
    /// `i64::MAX` encodes the paper's "+∞" placeholder energy of the
    /// initial random fill.
    pub energy: i64,
    pub algorithm: MainAlgorithm,
    pub operation: GeneticOp,
}

/// A bounded, energy-sorted solution pool.
#[derive(Debug, Clone)]
pub struct SolutionPool {
    entries: Vec<PoolEntry>,
    capacity: usize,
    /// Reject packets whose solution vector is already present (keeps the
    /// pool from collapsing into one relative; configurable because the
    /// paper does not specify dedup behaviour).
    dedup: bool,
    inserted: u64,
    rejected: u64,
}

impl SolutionPool {
    /// An empty pool with the given capacity.
    pub fn new(capacity: usize, dedup: bool) -> Self {
        assert!(capacity >= 1, "pool capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            dedup,
            inserted: 0,
            rejected: 0,
        }
    }

    /// The paper's initial fill: `capacity` random solution vectors with +∞
    /// energy and uniformly random algorithm/operation columns.
    pub fn fill_random<R: Rng64 + ?Sized>(
        &mut self,
        n: usize,
        algorithms: &[MainAlgorithm],
        operations: &[GeneticOp],
        rng: &mut R,
    ) {
        assert!(!algorithms.is_empty() && !operations.is_empty());
        self.entries.clear();
        for _ in 0..self.capacity {
            self.entries.push(PoolEntry {
                solution: Solution::random(n, rng),
                energy: i64::MAX,
                algorithm: algorithms[rng.next_index(algorithms.len())],
                operation: operations[rng.next_index(operations.len())],
            });
        }
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Row accessor (0 = best).
    pub fn entry(&self, i: usize) -> &PoolEntry {
        &self.entries[i]
    }

    /// Best row, if any.
    pub fn best(&self) -> Option<&PoolEntry> {
        self.entries.first()
    }

    /// Worst row, if any.
    pub fn worst(&self) -> Option<&PoolEntry> {
        self.entries.last()
    }

    /// Results accepted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Results rejected so far (worse than the worst row, or duplicates).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Insert a result row if it beats the worst row (or the pool is not
    /// full). Returns `true` on acceptance.
    pub fn insert(&mut self, entry: PoolEntry) -> bool {
        if self.dedup
            && self
                .entries
                .iter()
                .any(|e| e.energy == entry.energy && e.solution == entry.solution)
        {
            self.rejected += 1;
            return false;
        }
        if self.entries.len() >= self.capacity {
            match self.entries.last() {
                Some(worst) if entry.energy >= worst.energy => {
                    self.rejected += 1;
                    return false;
                }
                _ => {
                    self.entries.pop();
                }
            }
        }
        let pos = self.entries.partition_point(|e| e.energy <= entry.energy);
        self.entries.insert(pos, entry);
        self.inserted += 1;
        true
    }

    /// The paper's rank-biased parent pick: draw `r ∈ [0,1)` and take the
    /// row at index `⌊r³·m⌋` (0-based; the cube skews hard toward the best
    /// rows — the top row is picked with probability `m^{-1/3}`).
    pub fn select_biased<'a, R: Rng64 + ?Sized>(&'a self, rng: &mut R) -> &'a PoolEntry {
        assert!(!self.entries.is_empty(), "cannot select from empty pool");
        let r = rng.next_f64();
        let idx = ((r * r * r) * self.entries.len() as f64) as usize;
        &self.entries[idx.min(self.entries.len() - 1)]
    }

    /// A uniformly random row (used by the 95 % replay path of adaptive
    /// selection).
    pub fn select_uniform<'a, R: Rng64 + ?Sized>(&'a self, rng: &mut R) -> &'a PoolEntry {
        assert!(!self.entries.is_empty(), "cannot select from empty pool");
        &self.entries[rng.next_index(self.entries.len())]
    }

    /// Iterate rows best-first.
    pub fn iter(&self) -> impl Iterator<Item = &PoolEntry> {
        self.entries.iter()
    }

    /// Mean Hamming distance of all rows to the best row — the merge
    /// indicator used to decide restarts (paper §IV-B: "all solution pools
    /// may be merged … we can initialize all solution pools … and restart").
    pub fn diversity(&self) -> f64 {
        let Some(best) = self.best() else { return 0.0 };
        if self.entries.len() < 2 {
            return 0.0;
        }
        let total: usize = self.entries[1..]
            .iter()
            .map(|e| e.solution.hamming(&best.solution))
            .sum();
        total as f64 / (self.entries.len() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::Xorshift64Star;

    fn entry(e: i64, n: usize, seed: u64) -> PoolEntry {
        let mut rng = Xorshift64Star::new(seed);
        PoolEntry {
            solution: Solution::random(n, &mut rng),
            energy: e,
            algorithm: MainAlgorithm::MaxMin,
            operation: GeneticOp::Mutation,
        }
    }

    #[test]
    fn insert_keeps_sorted_best_first() {
        let mut pool = SolutionPool::new(5, true);
        for (i, e) in [5i64, -3, 10, 0, -7].into_iter().enumerate() {
            assert!(pool.insert(entry(e, 16, i as u64)));
        }
        let energies: Vec<i64> = pool.iter().map(|e| e.energy).collect();
        assert_eq!(energies, vec![-7, -3, 0, 5, 10]);
        assert_eq!(pool.best().unwrap().energy, -7);
        assert_eq!(pool.worst().unwrap().energy, 10);
    }

    #[test]
    fn full_pool_rejects_worse_and_evicts_worst() {
        let mut pool = SolutionPool::new(3, true);
        for (i, e) in [1i64, 2, 3].into_iter().enumerate() {
            pool.insert(entry(e, 16, i as u64));
        }
        // worse than worst: rejected
        assert!(!pool.insert(entry(7, 16, 10)));
        assert_eq!(pool.rejected(), 1);
        // better: accepted, 3 evicted
        assert!(pool.insert(entry(0, 16, 11)));
        let energies: Vec<i64> = pool.iter().map(|e| e.energy).collect();
        assert_eq!(energies, vec![0, 1, 2]);
    }

    #[test]
    fn equal_to_worst_is_rejected_when_full() {
        let mut pool = SolutionPool::new(2, true);
        pool.insert(entry(1, 16, 0));
        pool.insert(entry(2, 16, 1));
        assert!(!pool.insert(entry(2, 16, 2)), "ties with worst don't enter");
    }

    #[test]
    fn dedup_rejects_identical_vector() {
        let mut pool = SolutionPool::new(5, true);
        let e = entry(-4, 16, 3);
        assert!(pool.insert(e.clone()));
        assert!(!pool.insert(e.clone()), "exact duplicate rejected");
        // same vector, different energy field is allowed (different row)
        let mut e2 = e;
        e2.energy = -5;
        assert!(pool.insert(e2));
    }

    #[test]
    fn dedup_off_allows_duplicates() {
        let mut pool = SolutionPool::new(5, false);
        let e = entry(-4, 16, 4);
        assert!(pool.insert(e.clone()));
        assert!(pool.insert(e));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn fill_random_populates_capacity_with_infinite_energy() {
        let mut pool = SolutionPool::new(10, true);
        let mut rng = Xorshift64Star::new(5);
        pool.fill_random(64, &MainAlgorithm::ALL, &GeneticOp::DABS, &mut rng);
        assert_eq!(pool.len(), 10);
        assert!(pool.iter().all(|e| e.energy == i64::MAX));
        // any real result now displaces a random row
        let mut p2 = pool.clone();
        assert!(p2.insert(entry(100, 64, 6)));
        assert_eq!(p2.best().unwrap().energy, 100);
    }

    #[test]
    fn biased_selection_prefers_top_rows() {
        let mut pool = SolutionPool::new(100, true);
        for i in 0..100 {
            pool.insert(entry(i as i64, 16, i as u64));
        }
        let mut rng = Xorshift64Star::new(7);
        let mut top_decile = 0;
        let trials = 20_000;
        for _ in 0..trials {
            let e = pool.select_biased(&mut rng);
            if e.energy < 10 {
                top_decile += 1;
            }
        }
        // P(idx < 10) = P(r³ < 0.1) = 0.1^{1/3} ≈ 0.464
        let frac = top_decile as f64 / trials as f64;
        assert!(
            (0.42..0.51).contains(&frac),
            "top-decile pick rate {frac}, expected ≈ 0.464"
        );
    }

    #[test]
    fn uniform_selection_is_flat() {
        let mut pool = SolutionPool::new(10, true);
        for i in 0..10 {
            pool.insert(entry(i as i64, 16, i as u64));
        }
        let mut rng = Xorshift64Star::new(8);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[pool.select_uniform(&mut rng).energy as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1200).contains(&c),
                "uniform counts skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn diversity_reflects_spread() {
        let mut pool = SolutionPool::new(4, false);
        let base = Solution::zeros(64);
        pool.insert(PoolEntry {
            solution: base.clone(),
            energy: 0,
            algorithm: MainAlgorithm::MaxMin,
            operation: GeneticOp::Best,
        });
        // identical copies → diversity 0
        let mut clone_pool = pool.clone();
        clone_pool.insert(PoolEntry {
            solution: base.clone(),
            energy: 1,
            algorithm: MainAlgorithm::MaxMin,
            operation: GeneticOp::Best,
        });
        assert_eq!(clone_pool.diversity(), 0.0);
        // a far row raises it
        pool.insert(PoolEntry {
            solution: Solution::ones(64),
            energy: 1,
            algorithm: MainAlgorithm::MaxMin,
            operation: GeneticOp::Best,
        });
        assert_eq!(pool.diversity(), 64.0);
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn selecting_from_empty_pool_panics() {
        let pool = SolutionPool::new(3, true);
        let mut rng = Xorshift64Star::new(9);
        pool.select_biased(&mut rng);
    }
}
