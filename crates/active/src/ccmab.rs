//! CC-MAB: the resource-unconstrained reference algorithm (Algorithm 1).
//!
//! The paper casts data selection as a contextual combinatorial
//! multi-armed bandit and cites CC-MAB (Chen et al., NeurIPS 2018) as the
//! algorithm that "first explores under-explored arms, then greedily
//! selects arms with highest marginal gain", achieving sublinear regret —
//! but requires per-arm reward estimates that are infeasible for real ML
//! training (each would need a label *and* a retrain). BAL is the
//! resource-constrained approximation; this module implements CC-MAB
//! itself so the trade-off can be studied on synthetic rewards (see the
//! `ablation` bench).

use std::collections::HashMap;

/// Per-cell statistics of the context-space partition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CellStats {
    pulls: u64,
    mean_reward: f64,
}

/// The CC-MAB algorithm over contexts in `[0, 1]^d`.
///
/// Contexts are partitioned into `bins^d` hypercubes. Each round, arms in
/// *under-explored* cells (pulled fewer than `K(t) = t^{2/(3+d)} · ln(t+1)`
/// times, the paper's exponent with smoothness `α = 1`) are selected
/// first; remaining budget goes to arms in cells with the highest
/// estimated reward. Rewards are reported back via [`CcMab::update`].
#[derive(Debug, Clone)]
pub struct CcMab {
    d: usize,
    bins: usize,
    t: u64,
    cells: HashMap<Vec<usize>, CellStats>,
}

impl CcMab {
    /// Creates a CC-MAB instance for `d`-dimensional contexts with
    /// `bins` partitions per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `bins == 0`.
    pub fn new(d: usize, bins: usize) -> Self {
        assert!(d > 0, "context dimension must be positive");
        assert!(bins > 0, "need at least one bin per dimension");
        Self {
            d,
            bins,
            t: 0,
            cells: HashMap::new(),
        }
    }

    /// The hypercube cell a context falls into (contexts are clamped to
    /// `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the context dimension differs from `d`.
    pub fn cell_of(&self, context: &[f64]) -> Vec<usize> {
        assert_eq!(context.len(), self.d, "context dimension mismatch");
        context
            .iter()
            .map(|&x| {
                let clamped = x.clamp(0.0, 1.0);
                ((clamped * self.bins as f64) as usize).min(self.bins - 1)
            })
            .collect()
    }

    /// The exploration threshold `K(t)` for the current round.
    fn exploration_threshold(&self) -> f64 {
        let t = self.t.max(1) as f64;
        t.powf(2.0 / (3.0 + self.d as f64)) * (t + 1.0).ln()
    }

    /// Advances to the next round and returns its index (1-based).
    pub fn begin_round(&mut self) -> u64 {
        self.t += 1;
        self.t
    }

    /// Selects up to `budget` arm indices from `contexts`:
    /// under-explored cells first, then greedy by estimated cell reward.
    pub fn select(&self, contexts: &[Vec<f64>], budget: usize) -> Vec<usize> {
        let threshold = self.exploration_threshold();
        let mut underexplored = Vec::new();
        let mut explored = Vec::new();
        for (i, ctx) in contexts.iter().enumerate() {
            let cell = self.cell_of(ctx);
            let stats = self.cells.get(&cell).copied().unwrap_or_default();
            if (stats.pulls as f64) < threshold {
                underexplored.push((i, stats.pulls));
            } else {
                explored.push((i, stats.mean_reward));
            }
        }
        // Least-pulled cells first among the under-explored.
        underexplored.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        // Highest estimated reward first among the explored (the greedy
        // marginal-gain step: with a modular reward surrogate the marginal
        // gain of an arm is its cell's mean reward).
        explored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out: Vec<usize> = underexplored.into_iter().map(|(i, _)| i).collect();
        out.extend(explored.into_iter().map(|(i, _)| i));
        out.truncate(budget);
        out
    }

    /// Reports the observed reward of pulling an arm with this context.
    pub fn update(&mut self, context: &[f64], reward: f64) {
        let cell = self.cell_of(context);
        let stats = self.cells.entry(cell).or_default();
        stats.pulls += 1;
        let n = stats.pulls as f64;
        stats.mean_reward += (reward - stats.mean_reward) / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cell_mapping_clamps_and_bins() {
        let mab = CcMab::new(2, 4);
        assert_eq!(mab.cell_of(&[0.0, 0.99]), vec![0, 3]);
        assert_eq!(mab.cell_of(&[1.0, -0.5]), vec![3, 0]);
        assert_eq!(mab.cell_of(&[0.26, 0.49]), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_rejected() {
        CcMab::new(2, 4).cell_of(&[0.5]);
    }

    #[test]
    fn exploration_threshold_grows_with_t() {
        let mut mab = CcMab::new(1, 4);
        mab.begin_round();
        let k1 = mab.exploration_threshold();
        for _ in 0..99 {
            mab.begin_round();
        }
        let k100 = mab.exploration_threshold();
        assert!(k100 > k1);
    }

    #[test]
    fn update_tracks_running_mean() {
        let mut mab = CcMab::new(1, 2);
        mab.update(&[0.1], 1.0);
        mab.update(&[0.1], 0.0);
        let mean_of = |ctx: &[f64]| mab.cells.get(&mab.cell_of(ctx)).map(|s| s.mean_reward);
        assert!((mean_of(&[0.1]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(mab.cells.len(), 1);
        assert!(mean_of(&[0.9]).is_none());
    }

    #[test]
    fn unexplored_cells_are_selected_first() {
        let mut mab = CcMab::new(1, 2);
        mab.begin_round();
        // Cell 0 heavily explored; cell 1 untouched.
        for _ in 0..100 {
            mab.update(&[0.1], 0.9);
        }
        let contexts = vec![vec![0.1], vec![0.9]];
        let sel = mab.select(&contexts, 1);
        assert_eq!(sel, vec![1], "unexplored cell must win");
    }

    #[test]
    fn converges_to_best_cell_on_synthetic_rewards() {
        // Reward = context value. After enough rounds CC-MAB should pull
        // mostly from the top cell.
        let mut mab = CcMab::new(1, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let mut late_good_picks = 0usize;
        let mut late_total = 0usize;
        for round in 0..200 {
            mab.begin_round();
            let contexts: Vec<Vec<f64>> = (0..20).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
            let sel = mab.select(&contexts, 4);
            for &i in &sel {
                let reward = contexts[i][0];
                mab.update(&contexts[i], reward);
                if round >= 150 {
                    late_total += 1;
                    if contexts[i][0] > 0.6 {
                        late_good_picks += 1;
                    }
                }
            }
        }
        let frac = late_good_picks as f64 / late_total as f64;
        assert!(
            frac > 0.5,
            "late rounds should exploit high-reward cells: {frac}"
        );
    }

    #[test]
    fn select_respects_budget() {
        let mab = CcMab::new(2, 3);
        let contexts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0, 0.5]).collect();
        assert_eq!(mab.select(&contexts, 3).len(), 3);
        assert_eq!(mab.select(&contexts, 50).len(), 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        CcMab::new(0, 3);
    }

    #[test]
    fn equal_reward_cells_rank_by_arm_index() {
        let mut mab = CcMab::new(1, 2);
        mab.update(&[0.1], 0.5);
        mab.update(&[0.9], 0.5);
        // Both cells are explored (one pull beats K(1) = ln 2) with tied
        // means: the greedy ordering must fall back to arm index.
        assert_eq!(mab.select(&[vec![0.9], vec![0.1]], 2), vec![0, 1]);
    }
}
