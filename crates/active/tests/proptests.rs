//! Property-based tests for the active-learning strategies.

use omg_active::{
    BalStrategy, CandidatePool, FallbackPolicy, RandomStrategy, SelectionStrategy, ThreadPool,
    UncertaintyStrategy, UniformAssertionStrategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_pool() -> impl Strategy<Value = CandidatePool> {
    (1usize..60, 1usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        // Deterministic pseudo-random severities from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let severities: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let v = next();
                        if v < 0.6 {
                            0.0
                        } else {
                            v * 10.0
                        }
                    })
                    .collect()
            })
            .collect();
        let uncertainties: Vec<f64> = (0..n).map(|_| next()).collect();
        CandidatePool::new(severities, uncertainties).unwrap()
    })
}

fn check_selection(
    pool: &CandidatePool,
    budget: usize,
    sel: &[usize],
) -> Result<(), TestCaseError> {
    prop_assert!(sel.len() <= budget);
    prop_assert!(sel.iter().all(|&i| i < pool.len()), "out of range: {sel:?}");
    let mut sorted = sel.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    prop_assert_eq!(sorted.len(), sel.len(), "duplicates in selection");
    // Budget is met whenever the pool is big enough.
    if pool.len() >= budget {
        prop_assert_eq!(sel.len(), budget, "budget underused");
    } else {
        prop_assert_eq!(sel.len(), pool.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_selection_is_valid(pool in arb_pool(), budget in 1usize..30, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = RandomStrategy.select(&pool, budget, &mut rng);
        check_selection(&pool, budget, &sel)?;
    }

    #[test]
    fn uncertainty_selection_is_valid_and_sorted(pool in arb_pool(), budget in 1usize..30) {
        let mut rng = StdRng::seed_from_u64(0);
        let sel = UncertaintyStrategy.select(&pool, budget, &mut rng);
        check_selection(&pool, budget, &sel)?;
        for w in sel.windows(2) {
            prop_assert!(pool.uncertainty(w[0]) >= pool.uncertainty(w[1]));
        }
    }

    #[test]
    fn uniform_ma_selection_is_valid(pool in arb_pool(), budget in 1usize..30, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = UniformAssertionStrategy.select(&pool, budget, &mut rng);
        check_selection(&pool, budget, &sel)?;
    }

    #[test]
    fn bal_selection_is_valid_across_rounds(
        pool in arb_pool(), budget in 1usize..30, seed in 0u64..100, rounds in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bal = BalStrategy::new(FallbackPolicy::Random);
        for _ in 0..rounds {
            let sel = bal.select(&pool, budget, &mut rng);
            check_selection(&pool, budget, &sel)?;
        }
    }

    /// Parallel pool construction and scoring feed BAL the exact same
    /// inputs at any thread count, so same-seeded selections are
    /// identical across 1/2/8 threads and across rounds — the
    /// active-layer leg of the engine's determinism invariant.
    #[test]
    fn bal_selections_are_thread_count_invariant(
        pool in arb_pool(), budget in 1usize..20, seed in 0u64..100, rounds in 1usize..4,
    ) {
        // Rebuild the pool through the parallel constructor per thread
        // count; contexts must match bit-for-bit.
        let rebuild = |threads: usize| {
            CandidatePool::build_parallel(&ThreadPool::new(threads), pool.len(), |i| {
                (pool.context(i).to_vec(), pool.uncertainty(i))
            })
            .unwrap()
        };
        let reference_pool = rebuild(1);
        let run = |p: &CandidatePool| {
            let mut bal = BalStrategy::new(FallbackPolicy::Uncertainty);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..rounds).map(|_| bal.select(p, budget, &mut rng)).collect::<Vec<_>>()
        };
        let reference_sel = run(&reference_pool);
        for threads in [2usize, 8] {
            let p = rebuild(threads);
            prop_assert_eq!(&p, &reference_pool, "pool differs at {} threads", threads);
            prop_assert_eq!(run(&p), reference_sel.clone(), "selections differ at {} threads", threads);
            let scores = BalStrategy::new(FallbackPolicy::Uncertainty)
                .score_all(&p, &ThreadPool::new(threads));
            prop_assert_eq!(
                scores,
                BalStrategy::new(FallbackPolicy::Uncertainty)
                    .score_all(&reference_pool, &ThreadPool::sequential())
            );
        }
    }

    #[test]
    fn bal_round_zero_prefers_flagged_points(pool in arb_pool(), seed in 0u64..100) {
        let flagged = pool.any_triggered();
        prop_assume!(!flagged.is_empty());
        let budget = flagged.len().min(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bal = BalStrategy::new(FallbackPolicy::Random);
        let sel = bal.select(&pool, budget, &mut rng);
        for &i in &sel {
            prop_assert!(
                flagged.contains(&i),
                "round 0 picked unflagged point {i} with flagged data available"
            );
        }
    }
}
