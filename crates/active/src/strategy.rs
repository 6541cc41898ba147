use omg_core::runtime::ThreadPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::CandidatePool;

/// A batch data-selection strategy for active learning.
///
/// Strategies may keep state across rounds (BAL tracks the previous
/// round's fire rates); [`SelectionStrategy::reset`] clears that state
/// between independent trials.
///
/// Strategies are `Send + Sync`: [`SelectionStrategy::score_all`] shares
/// `&self` across the runtime's workers, and experiment drivers move
/// strategies between trial threads. All strategy state is plain data,
/// so this is a bound, not a burden.
pub trait SelectionStrategy: Send + Sync {
    /// Short name for experiment tables ("random", "uncertainty",
    /// "uniform-ma", "bal").
    fn name(&self) -> &str;

    /// The strategy's priority score for one candidate: a pure function
    /// of the pool (no RNG, no round state), higher meaning "label this
    /// sooner". Score-ordered strategies select by sorting on it;
    /// sampling strategies expose the signal their sampling weights
    /// derive from (dashboards rank flagged data with it).
    fn score(&self, pool: &CandidatePool, candidate: usize) -> f64;

    /// Scores every candidate, fanning the per-candidate scoring out
    /// over the runtime's workers and merging in candidate order — the
    /// result is identical at any thread count.
    fn score_all(&self, pool: &CandidatePool, runtime: &ThreadPool) -> Vec<f64> {
        runtime.map_indexed(pool.len(), |i| self.score(pool, i))
    }

    /// Selects up to `budget` distinct pool indices to label.
    fn select(&mut self, pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize>;

    /// Clears cross-round state (start of a new trial).
    fn reset(&mut self) {}
}

/// Sorts candidate indices by descending score, breaking ties by earlier
/// index (the deterministic order every score-ranked path shares).
fn sort_by_score_desc<F: Fn(usize) -> f64>(order: &mut [usize], score: F) {
    order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
}

/// Samples `k` distinct indices uniformly from `candidates` (excluding
/// already-taken ones), in selection order.
fn sample_uniform(
    candidates: &[usize],
    k: usize,
    taken: &mut [bool],
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut avail: Vec<usize> = candidates.iter().copied().filter(|&i| !taken[i]).collect();
    avail.shuffle(rng);
    let picked: Vec<usize> = avail.into_iter().take(k).collect();
    for &i in &picked {
        taken[i] = true;
    }
    picked
}

/// The random-sampling baseline.
#[derive(Debug, Clone, Default)]
pub struct RandomStrategy;

impl SelectionStrategy for RandomStrategy {
    fn name(&self) -> &str {
        "random"
    }

    /// Uniform: every candidate is equally likely.
    fn score(&self, _pool: &CandidatePool, _candidate: usize) -> f64 {
        1.0
    }

    fn select(&mut self, pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut taken = vec![false; pool.len()];
        let all: Vec<usize> = (0..pool.len()).collect();
        sample_uniform(&all, budget, &mut taken, rng)
    }
}

/// The uncertainty-sampling baseline: highest least-confidence scores
/// first ("uncertainty sampling with 'least confident'", §5.4).
#[derive(Debug, Clone, Default)]
pub struct UncertaintyStrategy;

impl SelectionStrategy for UncertaintyStrategy {
    fn name(&self) -> &str {
        "uncertainty"
    }

    /// The model's least-confidence score.
    fn score(&self, pool: &CandidatePool, candidate: usize) -> f64 {
        pool.uncertainty(candidate)
    }

    fn select(&mut self, pool: &CandidatePool, budget: usize, _rng: &mut StdRng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        sort_by_score_desc(&mut order, |i| self.score(pool, i));
        order.truncate(budget);
        order
    }
}

/// Picks one assertion uniformly among those with unselected triggered
/// points, then one of its triggered points uniformly. Returns `None`
/// when no assertion has anything left.
fn pick_uniform_from_assertions(
    pool: &CandidatePool,
    taken: &mut [bool],
    rng: &mut StdRng,
) -> Option<usize> {
    let live: Vec<usize> = (0..pool.num_assertions())
        .filter(|&m| pool.triggered_by(m).iter().any(|&i| !taken[i]))
        .collect();
    let &m = live.choose(rng)?;
    let avail: Vec<usize> = pool
        .triggered_by(m)
        .into_iter()
        .filter(|&i| !taken[i])
        .collect();
    let &i = avail.choose(rng)?;
    taken[i] = true;
    Some(i)
}

/// The uniform-from-assertions baseline ("uniform sampling from data that
/// triggered assertions", §5.4): budget spread uniformly across
/// assertions, points sampled uniformly within each. Falls back to random
/// sampling if the flagged data runs out before the budget does.
#[derive(Debug, Clone, Default)]
pub struct UniformAssertionStrategy;

impl SelectionStrategy for UniformAssertionStrategy {
    fn name(&self) -> &str {
        "uniform-ma"
    }

    /// Flagged-or-not: selection samples uniformly *within* the flagged
    /// set, so the pure priority signal is membership.
    fn score(&self, pool: &CandidatePool, candidate: usize) -> f64 {
        if pool.context(candidate).iter().any(|&s| s > 0.0) {
            1.0
        } else {
            0.0
        }
    }

    fn select(&mut self, pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut taken = vec![false; pool.len()];
        let mut out = Vec::with_capacity(budget);
        while out.len() < budget {
            match pick_uniform_from_assertions(pool, &mut taken, rng) {
                Some(i) => out.push(i),
                None => break,
            }
        }
        if out.len() < budget {
            let all: Vec<usize> = (0..pool.len()).collect();
            out.extend(sample_uniform(&all, budget - out.len(), &mut taken, rng));
        }
        out
    }
}

/// What BAL falls back to when no assertion's fire rate is reducing
/// ("BAL will default to random sampling or uncertainty sampling, as
/// specified by the user", §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Fall back to uniform random sampling.
    Random,
    /// Fall back to least-confidence uncertainty sampling.
    Uncertainty,
}

/// BAL — the bandit-based active-learning algorithm of §3 (Algorithm 2).
///
/// Round 0 samples uniformly from the assertions. Later rounds compute
/// each assertion's *marginal reduction* in fire rate versus the previous
/// round, select assertions proportional to that reduction, and sample
/// points that trigger the chosen assertion proportional to their
/// severity-score **rank**. 25% of every round's budget explores
/// assertions uniformly (ε-greedy); if no assertion's rate is reducing by
/// at least 1%, the whole budget goes to the fallback policy.
///
/// Fire *rates* (counts normalized by pool size) rather than raw counts
/// are differenced, so a shrinking unlabeled pool does not masquerade as
/// improvement.
#[derive(Debug, Clone)]
pub struct BalStrategy {
    fallback: FallbackPolicy,
    /// Fire rates observed in the previous round, if any.
    prev_rates: Option<Vec<f64>>,
    /// Fraction of the budget reserved for uniform assertion exploration.
    epsilon: f64,
    /// Minimum relative reduction for an assertion to count as improving.
    min_reduction: f64,
}

impl BalStrategy {
    /// Creates BAL with the paper's constants (ε = 25%, 1% reduction
    /// threshold).
    pub fn new(fallback: FallbackPolicy) -> Self {
        Self {
            fallback,
            prev_rates: None,
            epsilon: 0.25,
            min_reduction: 0.01,
        }
    }

    /// The marginal reductions `r_m` given previous and current rates.
    fn reductions(prev: &[f64], cur: &[f64]) -> Vec<f64> {
        prev.iter()
            .zip(cur)
            .map(|(&p, &c)| if p > 0.0 { ((p - c) / p).max(0.0) } else { 0.0 })
            .collect()
    }

    /// Samples one point triggering assertion `m`, with probability
    /// proportional to severity *rank* (highest severity = highest
    /// weight), among unselected points. Returns `None` if none remain.
    fn pick_by_severity_rank(
        pool: &CandidatePool,
        m: usize,
        taken: &mut [bool],
        rng: &mut StdRng,
    ) -> Option<usize> {
        let mut avail: Vec<usize> = pool
            .triggered_by(m)
            .into_iter()
            .filter(|&i| !taken[i])
            .collect();
        if avail.is_empty() {
            return None;
        }
        // Ascending severity: rank weight = position + 1.
        avail.sort_by(|&a, &b| {
            pool.severity(a, m)
                .total_cmp(&pool.severity(b, m))
                .then(a.cmp(&b))
        });
        let total: f64 = (1..=avail.len()).map(|r| r as f64).sum();
        let mut u = rng.gen_range(0.0..total);
        for (pos, &i) in avail.iter().enumerate() {
            let w = (pos + 1) as f64;
            if u < w {
                taken[i] = true;
                return Some(i);
            }
            u -= w;
        }
        let &last = avail.last().expect("non-empty");
        taken[last] = true;
        Some(last)
    }

    fn fallback_select(
        &self,
        pool: &CandidatePool,
        k: usize,
        taken: &mut [bool],
        rng: &mut StdRng,
    ) -> Vec<usize> {
        match self.fallback {
            FallbackPolicy::Random => {
                let all: Vec<usize> = (0..pool.len()).collect();
                sample_uniform(&all, k, taken, rng)
            }
            FallbackPolicy::Uncertainty => {
                let mut order: Vec<usize> = (0..pool.len()).filter(|&i| !taken[i]).collect();
                sort_by_score_desc(&mut order, |i| pool.uncertainty(i));
                order.truncate(k);
                for &i in &order {
                    taken[i] = true;
                }
                order
            }
        }
    }
}

impl SelectionStrategy for BalStrategy {
    fn name(&self) -> &str {
        "bal"
    }

    /// The maximum severity across assertions — the signal BAL's
    /// severity-rank sampling weights points by within a chosen
    /// assertion. (Selection additionally uses per-round marginal
    /// reductions and RNG; this is the pure monitoring-facing priority.)
    fn score(&self, pool: &CandidatePool, candidate: usize) -> f64 {
        pool.context(candidate)
            .iter()
            .copied()
            .fold(0.0f64, omg_core::float::fmax)
    }

    fn select(&mut self, pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut taken = vec![false; pool.len()];
        let mut out = Vec::with_capacity(budget);
        let rates = pool.fire_rates();
        let d = pool.num_assertions();

        if d == 0 || pool.is_empty() {
            return self.fallback_select(pool, budget, &mut taken, rng);
        }

        match self.prev_rates.take() {
            None => {
                // Round 0: uniformly at random from the d assertions.
                while out.len() < budget {
                    match pick_uniform_from_assertions(pool, &mut taken, rng) {
                        Some(i) => out.push(i),
                        None => break,
                    }
                }
            }
            Some(prev) => {
                let reductions = Self::reductions(&prev, &rates);
                let total_reduction: f64 = reductions.iter().sum();
                if reductions.iter().all(|&r| r < self.min_reduction) {
                    // No assertion is reducing: hand the round to the
                    // fallback policy.
                    out.extend(self.fallback_select(pool, budget, &mut taken, rng));
                } else {
                    let explore = ((budget as f64) * self.epsilon).round() as usize;
                    let exploit = budget.saturating_sub(explore);
                    // Exploit: assertions ∝ marginal reduction, points ∝
                    // severity rank.
                    for _ in 0..exploit {
                        let mut u = rng.gen_range(0.0..total_reduction);
                        let mut chosen = d - 1;
                        for (m, &r) in reductions.iter().enumerate() {
                            if u < r {
                                chosen = m;
                                break;
                            }
                            u -= r;
                        }
                        // If the chosen assertion is exhausted, try the
                        // others before giving up on this slot.
                        let mut picked = Self::pick_by_severity_rank(pool, chosen, &mut taken, rng);
                        if picked.is_none() {
                            for m in 0..d {
                                picked = Self::pick_by_severity_rank(pool, m, &mut taken, rng);
                                if picked.is_some() {
                                    break;
                                }
                            }
                        }
                        match picked {
                            Some(i) => out.push(i),
                            None => break,
                        }
                    }
                    // Explore: uniform across assertions (ε-greedy), "so
                    // that no contexts are underexplored as training
                    // progresses".
                    while out.len() < budget {
                        match pick_uniform_from_assertions(pool, &mut taken, rng) {
                            Some(i) => out.push(i),
                            None => break,
                        }
                    }
                }
            }
        }

        // Any remaining budget (flagged data exhausted) goes to fallback.
        if out.len() < budget {
            out.extend(self.fallback_select(pool, budget - out.len(), &mut taken, rng));
        }
        self.prev_rates = Some(rates);
        out
    }

    fn reset(&mut self) {
        self.prev_rates = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// BAL with no exploration share, so every pick exploits.
    fn greedy_bal(fallback: FallbackPolicy) -> BalStrategy {
        BalStrategy {
            epsilon: 0.0,
            ..BalStrategy::new(fallback)
        }
    }

    /// 20 points, 2 assertions: 0-9 trigger assertion 0 (severity = index),
    /// 10-14 trigger assertion 1, 15-19 trigger nothing.
    fn pool() -> CandidatePool {
        let severities: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i < 10 {
                    vec![1.0 + i as f64, 0.0]
                } else if i < 15 {
                    vec![0.0, 1.0]
                } else {
                    vec![0.0, 0.0]
                }
            })
            .collect();
        let uncertainties: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        CandidatePool::new(severities, uncertainties).unwrap()
    }

    fn assert_distinct(xs: &[usize]) {
        let mut s = xs.to_vec();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), xs.len(), "duplicate selections: {xs:?}");
    }

    #[test]
    fn random_respects_budget_and_uniqueness() {
        let p = pool();
        let sel = RandomStrategy.select(&p, 7, &mut rng());
        assert_eq!(sel.len(), 7);
        assert_distinct(&sel);
        // Budget larger than the pool: everything once.
        let sel = RandomStrategy.select(&p, 100, &mut rng());
        assert_eq!(sel.len(), 20);
        assert_distinct(&sel);
    }

    #[test]
    fn uncertainty_picks_most_uncertain() {
        let p = pool();
        let sel = UncertaintyStrategy.select(&p, 3, &mut rng());
        assert_eq!(sel, vec![19, 18, 17]);
    }

    #[test]
    fn uniform_ma_prefers_flagged_points() {
        let p = pool();
        let sel = UniformAssertionStrategy.select(&p, 10, &mut rng());
        assert_eq!(sel.len(), 10);
        assert_distinct(&sel);
        // All 10 must be flagged (15 flagged points exist).
        assert!(
            sel.iter().all(|&i| i < 15),
            "unflagged point selected: {sel:?}"
        );
    }

    #[test]
    fn uniform_ma_balances_assertions() {
        // Assertion 1 has only 5 triggered points but should still get
        // roughly half the picks when both assertions have data.
        let p = pool();
        let mut a1 = 0;
        for seed in 0..50 {
            let mut r = StdRng::seed_from_u64(seed);
            let sel = UniformAssertionStrategy.select(&p, 4, &mut r);
            a1 += sel.iter().filter(|&&i| (10..15).contains(&i)).count();
        }
        let frac = a1 as f64 / 200.0;
        assert!(
            (0.3..0.7).contains(&frac),
            "assertion 1 share {frac} not balanced"
        );
    }

    #[test]
    fn uniform_ma_fills_with_random_when_flagged_exhausted() {
        let p = pool();
        let sel = UniformAssertionStrategy.select(&p, 18, &mut rng());
        assert_eq!(sel.len(), 18);
        assert_distinct(&sel);
    }

    #[test]
    fn bal_round_zero_samples_from_assertions() {
        let p = pool();
        let mut bal = BalStrategy::new(FallbackPolicy::Random);
        let sel = bal.select(&p, 8, &mut rng());
        assert_eq!(sel.len(), 8);
        assert_distinct(&sel);
        assert!(
            sel.iter().all(|&i| i < 15),
            "round 0 must sample flagged data"
        );
    }

    #[test]
    fn bal_allocates_to_reducing_assertion() {
        // Round 0 establishes rates; in round 1, assertion 0's rate halves
        // while assertion 1's stays flat -> exploit budget goes to 0.
        let p0 = pool();
        let mut bal = greedy_bal(FallbackPolicy::Random);
        let _ = bal.select(&p0, 4, &mut rng());

        // New pool: assertion 0 fires on 5 points (was 10), assertion 1
        // still on 5.
        let severities: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i < 5 {
                    vec![1.0 + i as f64, 0.0]
                } else if i < 10 {
                    vec![0.0, 1.0]
                } else {
                    vec![0.0, 0.0]
                }
            })
            .collect();
        let p1 = CandidatePool::new(severities, vec![0.5; 20]).unwrap();
        let mut from_a0 = 0;
        let mut total = 0;
        for seed in 0..30 {
            bal.reset();
            let mut r = StdRng::seed_from_u64(seed);
            let _ = bal.select(&p0, 4, &mut r);
            let sel = bal.select(&p1, 4, &mut r);
            from_a0 += sel.iter().filter(|&&i| i < 5).count();
            total += sel.len();
        }
        let frac = from_a0 as f64 / total as f64;
        assert!(
            frac > 0.8,
            "exploit budget should chase the reducing assertion: {frac}"
        );
    }

    #[test]
    fn bal_falls_back_when_nothing_reduces() {
        let p = pool();
        let mut bal = greedy_bal(FallbackPolicy::Uncertainty);
        let _ = bal.select(&p, 4, &mut rng());
        // Same pool again: no reduction anywhere -> uncertainty fallback,
        // which picks the highest-uncertainty (unflagged) points.
        let sel = bal.select(&p, 3, &mut rng());
        assert_eq!(sel, vec![19, 18, 17]);
    }

    #[test]
    fn bal_severity_rank_prefers_high_severity() {
        // With assertion 0 reducing, exploit picks should skew toward the
        // high-severity points (indices 8, 9 have the top severities).
        let p0 = pool();
        let mut high = 0;
        let mut total = 0;
        for seed in 0..200 {
            let mut bal = greedy_bal(FallbackPolicy::Random);
            let mut r = StdRng::seed_from_u64(seed);
            let _ = bal.select(&p0, 2, &mut r);
            // Assertion 0 reduced (10 -> 8 fired), assertion 1 flat.
            let severities: Vec<Vec<f64>> = (0..20)
                .map(|i| {
                    if i < 8 {
                        vec![1.0 + i as f64, 0.0]
                    } else if (10..15).contains(&i) {
                        vec![0.0, 1.0]
                    } else {
                        vec![0.0, 0.0]
                    }
                })
                .collect();
            let p1 = CandidatePool::new(severities, vec![0.5; 20]).unwrap();
            let sel = bal.select(&p1, 1, &mut r);
            if let Some(&i) = sel.first() {
                if i < 8 {
                    total += 1;
                    // Top half by severity among triggered: indices 4..8.
                    if i >= 4 {
                        high += 1;
                    }
                }
            }
        }
        assert!(total > 50, "exploit picks should land on assertion 0");
        let frac = high as f64 / total as f64;
        assert!(
            frac > 0.6,
            "severity-rank sampling should favor high severity: {frac}"
        );
    }

    #[test]
    fn bal_handles_empty_and_assertionless_pools() {
        let empty = CandidatePool::new(vec![], vec![]).unwrap();
        let mut bal = BalStrategy::new(FallbackPolicy::Random);
        assert!(bal.select(&empty, 5, &mut rng()).is_empty());

        let no_assertions = CandidatePool::new(vec![vec![], vec![]], vec![0.1, 0.9]).unwrap();
        let sel = bal.select(&no_assertions, 1, &mut rng());
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn bal_reset_clears_history() {
        let p = pool();
        let mut bal = BalStrategy::new(FallbackPolicy::Random);
        let _ = bal.select(&p, 4, &mut rng());
        bal.reset();
        // After reset the next call behaves like round 0 (flagged only).
        let sel = bal.select(&p, 6, &mut rng());
        assert!(sel.iter().all(|&i| i < 15));
    }

    #[test]
    fn scores_are_pure_and_thread_count_invariant() {
        let p = pool();
        let strategies: Vec<Box<dyn SelectionStrategy>> = vec![
            Box::new(RandomStrategy),
            Box::new(UncertaintyStrategy),
            Box::new(UniformAssertionStrategy),
            Box::new(BalStrategy::new(FallbackPolicy::Random)),
        ];
        for s in &strategies {
            let seq = s.score_all(&p, &ThreadPool::sequential());
            assert_eq!(seq.len(), p.len(), "{}", s.name());
            for threads in [2, 8] {
                let par = s.score_all(&p, &ThreadPool::new(threads));
                assert_eq!(par, seq, "{} at {threads} threads", s.name());
            }
        }
    }

    #[test]
    fn score_matches_each_strategys_signal() {
        let p = pool();
        assert_eq!(RandomStrategy.score(&p, 0), 1.0);
        assert_eq!(UncertaintyStrategy.score(&p, 3), p.uncertainty(3));
        // Candidate 0 triggers assertion 0; candidate 19 triggers nothing.
        assert_eq!(UniformAssertionStrategy.score(&p, 0), 1.0);
        assert_eq!(UniformAssertionStrategy.score(&p, 19), 0.0);
        // BAL: max severity across assertions (candidate 9 has 10.0).
        assert_eq!(BalStrategy::new(FallbackPolicy::Random).score(&p, 9), 10.0);
    }

    #[test]
    fn uncertainty_select_is_score_ordered() {
        let p = pool();
        let strategy = UncertaintyStrategy;
        let sel = UncertaintyStrategy.select(&p, p.len(), &mut rng());
        let scores = strategy.score_all(&p, &ThreadPool::sequential());
        for w in sel.windows(2) {
            assert!(scores[w[0]] >= scores[w[1]]);
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(RandomStrategy.name(), "random");
        assert_eq!(UncertaintyStrategy.name(), "uncertainty");
        assert_eq!(UniformAssertionStrategy.name(), "uniform-ma");
        assert_eq!(BalStrategy::new(FallbackPolicy::Random).name(), "bal");
    }

    #[test]
    fn score_sort_is_total_and_breaks_ties_by_index() {
        let scores = [1.0, f64::NAN, 1.0, 2.0];
        let mut order: Vec<usize> = (0..scores.len()).collect();
        sort_by_score_desc(&mut order, |i| scores[i]);
        // +NaN sorts above every real under the total order (a poisoned
        // score surfaces first instead of shuffling the ranking), and
        // the 1.0 tie resolves by index.
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn bal_score_keeps_nan_severity_visible() {
        let p = CandidatePool::new(
            vec![vec![0.2, f64::NAN], vec![f64::NAN, 0.2]],
            vec![0.0, 0.0],
        )
        .unwrap();
        let s = BalStrategy::new(FallbackPolicy::Random);
        // The fmax fold must not drop a NaN severity at either position
        // (f64::max would, making the score depend on assertion order).
        assert!(s.score(&p, 0).is_nan());
        assert!(s.score(&p, 1).is_nan());
    }
}
