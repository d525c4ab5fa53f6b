//! The genetic operations generating target vectors (paper §IV-A).

use dabs_model::Solution;
use dabs_rng::Rng64;

/// A genetic operation. The first eight are the paper's DABS portfolio (in
/// the order of Tables V/VI); [`GeneticOp::CrossMutate`] is the single fixed
/// operation of the earlier ABS solver (crossover followed by mutation),
/// used only by the ABS baseline preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneticOp {
    /// Fresh uniform-random vector; ignores the pool.
    Random,
    /// The pool's best solution, as-is.
    Best,
    /// One parent; each bit flipped with probability `mutation_prob`.
    Mutation,
    /// Two parents from the same pool, uniform bit mix.
    Crossover,
    /// Inter-pool crossover: one local parent, one from the neighbour pool.
    Xrossover,
    /// One parent; each bit overwritten with 0 with probability `zero_prob`.
    Zero,
    /// One parent; each bit overwritten with 1 with probability `one_prob`.
    One,
    /// One parent; a random cyclic segment of length in `[32, n/2]` zeroed.
    IntervalZero,
    /// ABS baseline: crossover of two parents, then mutation.
    CrossMutate,
}

impl GeneticOp {
    /// The DABS portfolio (paper's eight operations, table order).
    pub const DABS: [GeneticOp; 8] = [
        GeneticOp::Random,
        GeneticOp::Best,
        GeneticOp::Mutation,
        GeneticOp::Crossover,
        GeneticOp::Xrossover,
        GeneticOp::Zero,
        GeneticOp::One,
        GeneticOp::IntervalZero,
    ];

    /// Stable index into the Table V frequency counters.
    pub fn index(self) -> usize {
        match self {
            GeneticOp::Random => 0,
            GeneticOp::Best => 1,
            GeneticOp::Mutation => 2,
            GeneticOp::Crossover => 3,
            GeneticOp::Xrossover => 4,
            GeneticOp::Zero => 5,
            GeneticOp::One => 6,
            GeneticOp::IntervalZero => 7,
            GeneticOp::CrossMutate => 8,
        }
    }

    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            GeneticOp::Random => "Random",
            GeneticOp::Best => "Best",
            GeneticOp::Mutation => "Mutation",
            GeneticOp::Crossover => "Crossover",
            GeneticOp::Xrossover => "Xrossover",
            GeneticOp::Zero => "Zero",
            GeneticOp::One => "One",
            GeneticOp::IntervalZero => "IntervalZero",
            GeneticOp::CrossMutate => "CrossMutate",
        }
    }

    /// How many parents the operation draws from pools.
    pub fn arity(self) -> usize {
        match self {
            GeneticOp::Random => 0,
            GeneticOp::Best
            | GeneticOp::Mutation
            | GeneticOp::Zero
            | GeneticOp::One
            | GeneticOp::IntervalZero => 1,
            GeneticOp::Crossover | GeneticOp::Xrossover | GeneticOp::CrossMutate => 2,
        }
    }
}

/// Per-bit probabilities used by the probabilistic operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpProbabilities {
    /// Mutation flip probability (paper: 1/8).
    pub mutation: f64,
    /// Zero overwrite probability (paper: 1/8).
    pub zero: f64,
    /// One overwrite probability (paper: "small", we default to 1/8).
    pub one: f64,
}

impl Default for OpProbabilities {
    fn default() -> Self {
        Self {
            mutation: 0.125,
            zero: 0.125,
            one: 0.125,
        }
    }
}

/// Apply `op` to the given parents, producing a target vector.
///
/// `parents` must contain at least [`GeneticOp::arity`] entries (extras are
/// ignored); for `Xrossover` the second parent is expected to come from the
/// neighbour pool and for `Best` the first parent is expected to be the
/// pool's best (the *caller* — [`crate::generate_target`] — enforces both).
pub fn apply_op<R: Rng64 + ?Sized>(
    op: GeneticOp,
    parents: &[&Solution],
    n: usize,
    probs: OpProbabilities,
    rng: &mut R,
) -> Solution {
    assert!(
        parents.len() >= op.arity(),
        "{} needs {} parents, got {}",
        op.name(),
        op.arity(),
        parents.len()
    );
    match op {
        GeneticOp::Random => Solution::random(n, rng),
        GeneticOp::Best => parents[0].clone(),
        GeneticOp::Mutation => {
            let mut child = parents[0].clone();
            flip_each_with(&mut child, probs.mutation, rng);
            child
        }
        GeneticOp::Crossover | GeneticOp::Xrossover => parents[0].crossover(parents[1], rng),
        GeneticOp::Zero => {
            let mut child = parents[0].clone();
            overwrite_each_with(&mut child, false, probs.zero, rng);
            child
        }
        GeneticOp::One => {
            let mut child = parents[0].clone();
            overwrite_each_with(&mut child, true, probs.one, rng);
            child
        }
        GeneticOp::IntervalZero => {
            let mut child = parents[0].clone();
            zero_random_interval(&mut child, rng);
            child
        }
        GeneticOp::CrossMutate => {
            let mut child = parents[0].crossover(parents[1], rng);
            flip_each_with(&mut child, probs.mutation, rng);
            child
        }
    }
}

fn flip_each_with<R: Rng64 + ?Sized>(x: &mut Solution, p: f64, rng: &mut R) {
    for i in 0..x.len() {
        if rng.next_bool(p) {
            x.flip(i);
        }
    }
}

fn overwrite_each_with<R: Rng64 + ?Sized>(x: &mut Solution, value: bool, p: f64, rng: &mut R) {
    for i in 0..x.len() {
        if rng.next_bool(p) {
            x.set(i, value);
        }
    }
}

/// Zero a random cyclic segment of length in `[min(32, n), max(n/2, min)]`.
fn zero_random_interval<R: Rng64 + ?Sized>(x: &mut Solution, rng: &mut R) {
    let n = x.len();
    let lo = 32.min(n);
    let hi = (n / 2).max(lo);
    let len = lo + rng.next_index(hi - lo + 1);
    let start = rng.next_index(n);
    for off in 0..len {
        x.set((start + off) % n, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_rng::Xorshift64Star;

    fn probs() -> OpProbabilities {
        OpProbabilities::default()
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        let mut seen = [false; crate::stats::N_OPS];
        for op in GeneticOp::DABS.into_iter().chain([GeneticOp::CrossMutate]) {
            assert!(!seen[op.index()], "{} reuses an index", op.name());
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dabs_portfolio_is_the_papers_eight() {
        let names: Vec<&str> = GeneticOp::DABS.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            [
                "Random",
                "Best",
                "Mutation",
                "Crossover",
                "Xrossover",
                "Zero",
                "One",
                "IntervalZero"
            ]
        );
    }

    #[test]
    fn best_is_identity() {
        let mut rng = Xorshift64Star::new(1);
        let p = Solution::random(100, &mut rng);
        let child = apply_op(GeneticOp::Best, &[&p], 100, probs(), &mut rng);
        assert_eq!(child, p);
    }

    #[test]
    fn mutation_flips_about_p_fraction() {
        let mut rng = Xorshift64Star::new(2);
        let p = Solution::zeros(8000);
        let child = apply_op(GeneticOp::Mutation, &[&p], 8000, probs(), &mut rng);
        let flipped = child.hamming(&p);
        assert!(
            (800..1200).contains(&flipped),
            "expected ≈1000 flips, got {flipped}"
        );
    }

    #[test]
    fn zero_only_clears_bits() {
        let mut rng = Xorshift64Star::new(3);
        let p = Solution::ones(4000);
        let child = apply_op(GeneticOp::Zero, &[&p], 4000, probs(), &mut rng);
        let cleared = 4000 - child.count_ones();
        assert!((380..630).contains(&cleared), "cleared {cleared}");
        // Zero never sets a bit
        for i in child.iter_ones() {
            assert!(p.get(i));
        }
    }

    #[test]
    fn one_only_sets_bits() {
        let mut rng = Xorshift64Star::new(4);
        let p = Solution::zeros(4000);
        let child = apply_op(GeneticOp::One, &[&p], 4000, probs(), &mut rng);
        let set = child.count_ones();
        assert!((380..630).contains(&set), "set {set}");
    }

    #[test]
    fn interval_zero_clears_contiguous_cyclic_block() {
        let mut rng = Xorshift64Star::new(5);
        let p = Solution::ones(300);
        let child = apply_op(GeneticOp::IntervalZero, &[&p], 300, probs(), &mut rng);
        let cleared = 300 - child.count_ones();
        assert!(
            (32..=150).contains(&cleared),
            "segment length {cleared} out of [32, n/2]"
        );
        // cleared bits form one cyclic run: count 1→0 boundaries
        let boundaries = (0..300)
            .filter(|&i| child.get(i) && !child.get((i + 1) % 300))
            .count();
        assert_eq!(boundaries, 1, "cleared bits must be one cyclic segment");
    }

    #[test]
    fn interval_zero_handles_tiny_vectors() {
        let mut rng = Xorshift64Star::new(6);
        let p = Solution::ones(10);
        let child = apply_op(GeneticOp::IntervalZero, &[&p], 10, probs(), &mut rng);
        assert!(child.count_ones() < 10, "something must be cleared");
    }

    #[test]
    fn crossover_bits_come_from_parents() {
        let mut rng = Xorshift64Star::new(7);
        let a = Solution::random(200, &mut rng);
        let b = Solution::random(200, &mut rng);
        let child = apply_op(GeneticOp::Crossover, &[&a, &b], 200, probs(), &mut rng);
        for i in 0..200 {
            assert!(child.get(i) == a.get(i) || child.get(i) == b.get(i));
        }
    }

    #[test]
    fn cross_mutate_differs_from_pure_crossover() {
        // statistically: with p = 1/8 over 2000 bits, the mutation layer
        // virtually always changes something relative to both parents'
        // agreement positions.
        let mut rng = Xorshift64Star::new(8);
        let a = Solution::zeros(2000);
        let b = Solution::zeros(2000);
        let child = apply_op(GeneticOp::CrossMutate, &[&a, &b], 2000, probs(), &mut rng);
        assert!(child.count_ones() > 100, "mutation layer must act");
    }

    #[test]
    fn random_ignores_parents() {
        let mut rng = Xorshift64Star::new(9);
        let child = apply_op(GeneticOp::Random, &[], 500, probs(), &mut rng);
        let ones = child.count_ones();
        assert!((150..350).contains(&ones));
    }

    #[test]
    #[should_panic(expected = "needs 2 parents")]
    fn arity_is_enforced() {
        let mut rng = Xorshift64Star::new(10);
        let a = Solution::zeros(10);
        apply_op(GeneticOp::Crossover, &[&a], 10, probs(), &mut rng);
    }

    #[test]
    fn arities() {
        assert_eq!(GeneticOp::Random.arity(), 0);
        assert_eq!(GeneticOp::Best.arity(), 1);
        assert_eq!(GeneticOp::Xrossover.arity(), 2);
        assert_eq!(GeneticOp::CrossMutate.arity(), 2);
    }
}
