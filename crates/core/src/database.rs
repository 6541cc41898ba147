use crate::{AssertionId, Severity};

/// One row of the assertion database: an assertion's outcome on a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Monotonic index of the sample within the monitor's stream.
    pub sample: usize,
    /// The assertion that produced this outcome.
    pub assertion: AssertionId,
    /// The outcome.
    pub severity: Severity,
}

/// The append-only assertion database of the paper's Figure 2.
///
/// Stores every `(sample, assertion, severity)` outcome — including
/// abstentions, so severity *vectors* (one entry per assertion) can be
/// reconstructed per sample for BAL — and answers the queries the rest of
/// the system needs: fire counts (BAL's marginal-reduction signal),
/// flagged-sample lists (active-learning pools), and top-by-severity
/// rankings (dashboards, Figure 3's high-confidence-error analysis).
///
/// # Sharding
///
/// Internally the log is sharded **per assertion**: shard `m` holds the
/// `(sample, severity)` append log of assertion `m`, in recording order.
/// Per-assertion queries (`fire_count`, `fired_samples`,
/// `top_by_severity`) scan one shard instead of the whole log.
///
/// # Retention
///
/// A long-lived monitor records forever, so the database supports an
/// explicit retention policy: [`AssertionDb::evict_before`] drops the
/// rows of samples older than a watermark and
/// [`AssertionDb::retain_recent`] keeps a fixed-size suffix of recent
/// samples — the memory-flatness lever of the multi-tenant service
/// layer. Eviction only ever touches rows *below* the watermark: every
/// query about retained ("live") samples answers exactly as if nothing
/// had been evicted, and the lifetime counters
/// ([`AssertionDb::lifetime_len`], [`AssertionDb::lifetime_fire_counts`])
/// keep the full-history totals regardless (a property test holds both
/// against a never-evicting model).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssertionDb {
    /// `shards[m]` = append log of assertion `m`, in recording order.
    shards: Vec<Vec<(usize, Severity)>>,
    num_records: usize,
    num_samples: usize,
    /// Retention watermark: rows of samples below this index have been
    /// evicted (monotonically non-decreasing).
    evicted_before: usize,
    /// Rows ever recorded, including evicted ones.
    lifetime_records: usize,
    /// `lifetime_fired[m]` = rows of assertion `m` that ever fired,
    /// including evicted ones.
    lifetime_fired: Vec<usize>,
}

impl AssertionDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_mut(&mut self, assertion: AssertionId) -> &mut Vec<(usize, Severity)> {
        if assertion.0 >= self.shards.len() {
            self.shards.resize_with(assertion.0 + 1, Vec::new);
            self.lifetime_fired.resize(assertion.0 + 1, 0);
        }
        // PANIC: the resize above guarantees the slot exists.
        &mut self.shards[assertion.0]
    }

    /// Appends the outcomes of one sample (a dense `(id, severity)` vector
    /// as produced by `AssertionSet::check_all`).
    pub fn record_sample(&mut self, sample: usize, outcomes: &[(AssertionId, Severity)]) {
        for &(assertion, severity) in outcomes {
            self.shard_mut(assertion).push((sample, severity));
            if severity.fired() {
                self.lifetime_fired[assertion.0] += 1;
            }
        }
        self.num_records += outcomes.len();
        self.lifetime_records += outcomes.len();
        self.num_samples = self.num_samples.max(sample + 1);
    }

    /// Appends the outcomes of one sample from a **dense columnar row**:
    /// `values[m]` is the raw severity of `AssertionId(m)` — the shape
    /// [`crate::AssertionSet::check_all_prepared_values`] produces and a
    /// [`crate::SeverityMatrix`] row holds.
    ///
    /// Identical shard contents to [`AssertionDb::record_sample`] on the
    /// equivalent `(id, severity)` vector (`Severity::new` round-trips
    /// every value exactly).
    ///
    /// # Panics
    ///
    /// Panics if any value is negative, NaN, or infinite (the
    /// [`Severity::new`] contract).
    pub fn record_row(&mut self, sample: usize, values: &[f64]) {
        if !values.is_empty() {
            self.shard_mut(AssertionId(values.len() - 1));
        }
        // PANIC: shard_mut above grew both vectors to values.len(),
        // and m < values.len().
        for (m, &v) in values.iter().enumerate() {
            let severity = Severity::new(v);
            self.shards[m].push((sample, severity));
            if severity.fired() {
                self.lifetime_fired[m] += 1;
            }
        }
        self.num_records += values.len();
        self.lifetime_records += values.len();
        self.num_samples = self.num_samples.max(sample + 1);
    }

    /// Drops every row whose sample index is below `min_sample` and
    /// advances the retention watermark to it; returns the number of
    /// rows dropped. The watermark is monotonic — re-evicting below it
    /// is a no-op. Queries over retained samples are unaffected:
    /// [`AssertionDb::fire_count`], [`AssertionDb::fired_samples`], and
    /// friends answer exactly as a never-evicting database filtered to
    /// `sample >= evicted_before()` would, while the lifetime counters
    /// keep the full-history totals.
    pub fn evict_before(&mut self, min_sample: usize) -> usize {
        if min_sample <= self.evicted_before {
            return 0;
        }
        let mut dropped = 0usize;
        for shard in &mut self.shards {
            let before = shard.len();
            shard.retain(|&(sample, _)| sample >= min_sample);
            dropped += before - shard.len();
        }
        self.evicted_before = min_sample;
        self.num_records -= dropped;
        dropped
    }

    /// Retains (at most) the most recent `keep` sample indices, evicting
    /// the rows of everything older; returns the number of rows dropped.
    /// This is the per-session record cap of the service layer: calling
    /// it after every record keeps resident memory flat under unbounded
    /// traffic.
    pub fn retain_recent(&mut self, keep: usize) -> usize {
        self.evict_before(self.num_samples.saturating_sub(keep))
    }

    /// The retention watermark: rows of samples below this index have
    /// been evicted. Zero for a database that never evicted.
    pub fn evicted_before(&self) -> usize {
        self.evicted_before
    }

    /// Rows ever recorded, including evicted ones (compare
    /// [`AssertionDb::len`], which counts retained rows only).
    pub fn lifetime_len(&self) -> usize {
        self.lifetime_records
    }

    /// Full-history fire counts for every assertion dimension, in id
    /// order — unaffected by eviction (compare
    /// [`AssertionDb::fire_counts`], which scans retained rows only).
    pub fn lifetime_fire_counts(&self) -> Vec<usize> {
        self.lifetime_fired.clone()
    }

    /// Number of retained rows (including abstentions; excluding evicted
    /// rows — see [`AssertionDb::lifetime_len`] for the full-history
    /// count).
    pub fn len(&self) -> usize {
        self.num_records
    }

    /// Whether the database has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_records == 0
    }

    /// Number of distinct samples recorded (by maximum sample index).
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Number of assertion dimensions seen.
    pub fn num_assertions(&self) -> usize {
        self.shards.len()
    }

    /// Iterates over all rows in `(sample, assertion)` order — the order
    /// the sequential monitor records them in.
    pub fn iter(&self) -> impl Iterator<Item = Record> + '_ {
        let mut rows: Vec<Record> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(m, shard)| {
                shard.iter().map(move |&(sample, severity)| Record {
                    sample,
                    assertion: AssertionId(m),
                    severity,
                })
            })
            .collect();
        rows.sort_by_key(|r| (r.sample, r.assertion));
        rows.into_iter()
    }

    /// How many samples fired the given assertion. Scans only that
    /// assertion's shard.
    pub fn fire_count(&self, assertion: AssertionId) -> usize {
        self.shards
            .get(assertion.0)
            .map_or(0, |shard| shard.iter().filter(|(_, s)| s.fired()).count())
    }

    /// Fire counts for every assertion dimension, in id order.
    pub fn fire_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.iter().filter(|(_, s)| s.fired()).count())
            .collect()
    }

    /// Sample indices that fired the given assertion, in recording order,
    /// with their severities. Scans only that assertion's shard.
    pub fn fired_samples(&self, assertion: AssertionId) -> Vec<(usize, Severity)> {
        self.shards.get(assertion.0).map_or_else(Vec::new, |shard| {
            shard.iter().filter(|(_, s)| s.fired()).copied().collect()
        })
    }

    /// Sample indices that fired *any* assertion (deduplicated, in order).
    pub fn any_fired_samples(&self) -> Vec<usize> {
        let mut fired: Vec<usize> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .iter()
                    .filter(|(_, s)| s.fired())
                    .map(|&(sample, _)| sample)
            })
            .collect();
        fired.sort_unstable();
        fired.dedup();
        fired
    }

    /// The top `k` firing samples of an assertion by descending severity
    /// (ties broken by earlier sample).
    pub fn top_by_severity(&self, assertion: AssertionId, k: usize) -> Vec<(usize, Severity)> {
        let mut fired = self.fired_samples(assertion);
        fired.sort_by(|a, b| b.1.value().total_cmp(&a.1.value()).then(a.0.cmp(&b.0)));
        fired.truncate(k);
        fired
    }

    /// The dense severity matrix: one row per sample index in
    /// `0..num_samples()`, one column per assertion id. Missing entries
    /// (samples never checked against some assertion) are abstentions.
    ///
    /// This matrix is exactly BAL's context input: "Each entry in a
    /// feature vector is the severity score from a model assertion" (§3).
    /// Evicted samples' rows read as all-abstention.
    pub fn severity_matrix(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.shards.len()]; self.num_samples];
        for (a, shard) in self.shards.iter().enumerate() {
            for &(sample, severity) in shard {
                m[sample][a] = severity.value();
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(rows: &[(usize, usize, f64)]) -> AssertionDb {
        let mut db = AssertionDb::new();
        // Group rows by sample so record_sample sees sample vectors.
        for &(s, a, v) in rows {
            db.record_sample(s, &[(AssertionId(a), Severity::new(v))]);
        }
        db
    }

    #[test]
    fn record_and_count() {
        let db = db_with(&[(0, 0, 1.0), (1, 0, 0.0), (2, 0, 2.0), (2, 1, 1.0)]);
        assert_eq!(db.len(), 4);
        assert!(!db.is_empty());
        assert_eq!(db.num_samples(), 3);
        assert_eq!(db.num_assertions(), 2);
        assert_eq!(db.fire_count(AssertionId(0)), 2);
        assert_eq!(db.fire_count(AssertionId(1)), 1);
        assert_eq!(db.fire_counts(), vec![2, 1]);
        assert_eq!(db.fire_count(AssertionId(9)), 0, "unseen shard is empty");
    }

    #[test]
    fn fired_samples_in_order() {
        let db = db_with(&[(0, 0, 1.0), (1, 0, 0.0), (2, 0, 3.0)]);
        assert_eq!(
            db.fired_samples(AssertionId(0)),
            vec![(0, Severity::new(1.0)), (2, Severity::new(3.0))]
        );
        assert!(db.fired_samples(AssertionId(7)).is_empty());
    }

    #[test]
    fn any_fired_deduplicates() {
        let db = db_with(&[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 0.0), (2, 1, 1.0)]);
        assert_eq!(db.any_fired_samples(), vec![0, 2]);
    }

    #[test]
    fn top_by_severity_ranks() {
        let db = db_with(&[(0, 0, 1.0), (1, 0, 5.0), (2, 0, 3.0), (3, 0, 5.0)]);
        let top = db.top_by_severity(AssertionId(0), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1); // severity 5, earlier sample wins the tie
        assert_eq!(top[1].0, 3);
    }

    #[test]
    fn severity_matrix_is_dense() {
        let db = db_with(&[(0, 0, 1.0), (2, 1, 4.0)]);
        let m = db.severity_matrix();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], vec![1.0, 0.0]);
        assert_eq!(m[1], vec![0.0, 0.0]);
        assert_eq!(m[2], vec![0.0, 4.0]);
    }

    #[test]
    fn empty_db_queries() {
        let db = AssertionDb::new();
        assert!(db.is_empty());
        assert_eq!(db.fire_counts(), Vec::<usize>::new());
        assert!(db.any_fired_samples().is_empty());
        assert!(db.severity_matrix().is_empty());
        assert_eq!(db.iter().count(), 0);
    }

    #[test]
    fn iter_is_sample_major_assertion_minor() {
        let mut db = AssertionDb::new();
        db.record_sample(
            0,
            &[
                (AssertionId(0), Severity::new(1.0)),
                (AssertionId(1), Severity::ABSTAIN),
            ],
        );
        db.record_sample(
            1,
            &[
                (AssertionId(0), Severity::ABSTAIN),
                (AssertionId(1), Severity::new(2.0)),
            ],
        );
        let order: Vec<(usize, usize)> = db.iter().map(|r| (r.sample, r.assertion.0)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn record_row_equals_record_sample() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let mut columnar = AssertionDb::new();
        let mut classic = AssertionDb::new();
        for (i, row) in rows.iter().enumerate() {
            columnar.record_row(i, row);
            let outcomes: Vec<(AssertionId, Severity)> = row
                .iter()
                .enumerate()
                .map(|(m, &v)| (AssertionId(m), Severity::new(v)))
                .collect();
            classic.record_sample(i, &outcomes);
        }
        assert_eq!(columnar, classic);
        // An empty row advances the sample horizon without inventing
        // assertion dimensions.
        let mut db = AssertionDb::new();
        db.record_row(3, &[]);
        assert_eq!(db.num_assertions(), 0);
        assert_eq!(db.num_samples(), 4);
    }

    #[test]
    fn evict_before_drops_old_rows_and_keeps_lifetime_totals() {
        let mut db = db_with(&[(0, 0, 1.0), (1, 0, 0.0), (2, 0, 2.0), (3, 1, 1.0)]);
        assert_eq!(db.lifetime_len(), 4);
        assert_eq!(db.evict_before(2), 2);
        assert_eq!(db.evicted_before(), 2);
        assert_eq!(db.len(), 2, "two retained rows");
        assert_eq!(db.lifetime_len(), 4, "lifetime total survives eviction");
        assert_eq!(db.fire_count(AssertionId(0)), 1, "only sample 2 retained");
        assert_eq!(db.lifetime_fire_counts(), vec![2, 1]);
        assert_eq!(db.num_samples(), 4, "sample horizon is lifetime");
        assert_eq!(db.evict_before(1), 0, "watermark is monotonic");
        assert_eq!(db.evicted_before(), 2);
    }

    #[test]
    fn retain_recent_caps_resident_rows() {
        let mut db = AssertionDb::new();
        for s in 0..50 {
            db.record_sample(s, &[(AssertionId(0), Severity::new(s as f64))]);
            db.retain_recent(8);
        }
        assert!(db.len() <= 8, "resident rows stay capped, got {}", db.len());
        assert_eq!(db.evicted_before(), 42);
        assert_eq!(db.num_samples(), 50);
        assert_eq!(db.lifetime_len(), 50);
        // Retained queries cover exactly the live suffix.
        let fired: Vec<usize> = db
            .fired_samples(AssertionId(0))
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(fired, (42..50).collect::<Vec<_>>());
    }

    /// The naive reference for the eviction property test: a flat log
    /// that records everything and never evicts.
    struct NaiveLog {
        rows: Vec<(usize, usize, Severity)>,
    }

    impl NaiveLog {
        fn fired_of(&self, assertion: usize, min_sample: usize) -> Vec<(usize, Severity)> {
            self.rows
                .iter()
                .filter(|&&(s, a, sev)| a == assertion && s >= min_sample && sev.fired())
                .map(|&(s, _, sev)| (s, sev))
                .collect()
        }
    }

    proptest::proptest! {
        /// The eviction satellite property: after **any** interleaving of
        /// record and evict operations, per-assertion fire counts and
        /// `fired_samples` lookups over live (retained) samples match a
        /// naive model that never evicted them, and the lifetime counters
        /// match the naive model's full history.
        #[test]
        fn eviction_matches_the_naive_model(
            ops in proptest::collection::vec((0usize..10, 0usize..12), 1..80)
        ) {
            const DIMS: usize = 3;
            let mut db = AssertionDb::new();
            let mut naive = NaiveLog { rows: Vec::new() };
            let mut next_sample = 0usize;
            for &(kind, value) in &ops {
                if kind < 7 {
                    // Record one sample: a dense row whose severities are
                    // a mix of abstentions and firings derived from
                    // (sample, value).
                    let outcomes: Vec<(AssertionId, Severity)> = (0..DIMS)
                        .map(|a| {
                            let v = ((next_sample + value + a) % 4) as f64;
                            (AssertionId(a), Severity::new(v))
                        })
                        .collect();
                    db.record_sample(next_sample, &outcomes);
                    for &(id, sev) in &outcomes {
                        naive.rows.push((next_sample, id.0, sev));
                    }
                    next_sample += 1;
                } else if kind < 9 {
                    db.evict_before(value.min(next_sample));
                } else {
                    db.retain_recent(value);
                }
                // Invariants hold after every step, not just at the end.
                let live = db.evicted_before();
                for a in 0..DIMS.min(db.num_assertions()) {
                    let id = AssertionId(a);
                    let want = naive.fired_of(a, live);
                    proptest::prop_assert_eq!(
                        db.fired_samples(id).len(), want.len(),
                        "fired_samples diverged for assertion {} (live >= {})", a, live
                    );
                    proptest::prop_assert_eq!(db.fired_samples(id), want);
                    proptest::prop_assert_eq!(db.fire_count(id), db.fired_samples(id).len());
                    proptest::prop_assert_eq!(
                        db.lifetime_fire_counts()[a],
                        naive.fired_of(a, 0).len(),
                        "lifetime fire count must ignore eviction"
                    );
                }
                let retained_rows = naive.rows.iter().filter(|&&(s, _, _)| s >= live).count();
                proptest::prop_assert_eq!(db.len(), retained_rows);
                proptest::prop_assert_eq!(db.lifetime_len(), naive.rows.len());
                proptest::prop_assert_eq!(db.num_samples(), next_sample);
            }
        }
    }
}
