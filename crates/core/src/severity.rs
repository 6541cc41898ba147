use std::fmt;

/// The score returned by a model assertion.
///
/// Per §2.1 of the paper, an assertion returns a continuous value
/// indicating the severity of a specific error type; **`0` represents an
/// abstention** and Boolean assertions return only `0` or `1`. Scores need
/// not be calibrated — downstream algorithms (BAL's severity-rank sampling)
/// use only their relative ordering.
///
/// Severities are finite and non-negative by construction.
///
/// # Example
///
/// ```
/// use omg_core::Severity;
///
/// assert!(!Severity::ABSTAIN.fired());
/// assert!(Severity::from_bool(true).fired());
/// assert_eq!(Severity::from_count(3).value(), 3.0);
/// assert!(Severity::new(2.5) > Severity::new(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Severity(f64);

impl Severity {
    /// The abstention value: the assertion makes no claim on this sample.
    pub const ABSTAIN: Severity = Severity(0.0);

    /// A fired Boolean assertion (`1.0`).
    pub const FIRED: Severity = Severity(1.0);

    /// Creates a severity from a raw score.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative, NaN, or infinite — assertion authors
    /// should map their signal into `[0, ∞)` explicitly.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "severity must be finite and non-negative, got {value}"
        );
        Severity(value)
    }

    /// `FIRED` for `true`, `ABSTAIN` for `false` — the Boolean assertion
    /// convention.
    pub fn from_bool(fired: bool) -> Self {
        if fired {
            Self::FIRED
        } else {
            Self::ABSTAIN
        }
    }

    /// A count-valued severity (e.g. "number of boxes that flicker").
    pub fn from_count(count: usize) -> Self {
        Severity(count as f64)
    }

    /// The raw score.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Whether the assertion fired (any non-zero severity).
    pub fn fired(&self) -> bool {
        self.0 > 0.0
    }

    /// The larger of two severities.
    pub fn max(self, other: Severity) -> Severity {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fired() {
            write!(f, "severity {}", self.0)
        } else {
            write!(f, "abstain")
        }
    }
}

impl From<bool> for Severity {
    fn from(fired: bool) -> Self {
        Severity::from_bool(fired)
    }
}

/// A window-major, columnar (SoA) severity store: `rows × width` raw
/// severity values in **one contiguous `Vec<f64>`**, where row `i` is
/// window `i`'s severity vector in assertion-id order.
///
/// This is the batch/stream scoring output format: the single-thread
/// path fills it row-by-row with no per-window allocation (so the inner
/// scoring loop vectorizes over a flat buffer), and the parallel path
/// merges chunk-local matrices by disjoint range-copy
/// ([`SeverityMatrix::append`]) instead of stitching `Vec<Vec<_>>` rows.
/// Values are raw [`Severity::value`]s; `Severity::new(v)` round-trips
/// them exactly (f64 is copied bit-for-bit), so reconstructing
/// `(AssertionId, Severity)` outcome rows from a matrix row is lossless.
///
/// The width (assertion count) is fixed by the first pushed row; every
/// later row must match it. A matrix with zero rows accepts any width.
///
/// # Example
///
/// ```
/// use omg_core::SeverityMatrix;
///
/// let mut m = SeverityMatrix::new();
/// m.push_row(&[1.0, 0.0]);
/// m.push_row(&[0.5, 2.0]);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.width(), 2);
/// assert_eq!(m.row(1), &[0.5, 2.0]);
/// assert_eq!(m.values(), &[1.0, 0.0, 0.5, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeverityMatrix {
    /// Row-major (window-major) severity values, `rows * width` long.
    values: Vec<f64>,
    /// Columns per row; meaningful once the first row is pushed.
    width: usize,
    /// Number of rows (kept explicitly so `width == 0` rows still count).
    rows: usize,
}

impl SeverityMatrix {
    /// An empty matrix; the first pushed row fixes the width.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty matrix with row capacity preallocated for `rows` rows of
    /// `width` columns.
    pub fn with_capacity(rows: usize, width: usize) -> Self {
        Self {
            values: Vec::with_capacity(rows * width),
            width,
            rows: 0,
        }
    }

    /// Appends one window's severity row.
    ///
    /// # Panics
    ///
    /// Panics if `row`'s length differs from the established width.
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 {
            self.width = row.len();
        } else {
            assert_eq!(
                row.len(),
                self.width,
                "severity row width mismatch: expected {}, got {}",
                self.width,
                row.len()
            );
        }
        self.values.extend_from_slice(row);
        self.rows += 1;
    }

    /// Window `i`'s severity vector, in assertion-id order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        // PANIC: i + 1 <= rows, so the slice stays inside values.
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Number of rows (windows).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Columns per row (the assertion count); `0` until a row is pushed
    /// unless set by [`SeverityMatrix::with_capacity`].
    pub fn width(&self) -> usize {
        self.width
    }

    /// The flat row-major value buffer, `len() * width()` long.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates the rows in window order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| &self.values[i * self.width..(i + 1) * self.width])
    }

    /// Moves every row of `other` onto the end of `self` — the parallel
    /// merge: one contiguous range-copy per chunk, no per-row stitching.
    ///
    /// # Panics
    ///
    /// Panics if both matrices are non-empty with different widths.
    pub fn append(&mut self, other: &SeverityMatrix) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            self.width = other.width;
        } else {
            assert_eq!(
                other.width, self.width,
                "severity matrix width mismatch: expected {}, got {}",
                self.width, other.width
            );
        }
        self.values.extend_from_slice(&other.values);
        self.rows += other.rows;
    }
}

/// Matrices are equal when they hold the same rows: same row count, same
/// values, and (for non-empty matrices) the same width. Two empty
/// matrices are equal regardless of preallocated width.
impl PartialEq for SeverityMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.values == other.values
            && (self.rows == 0 || self.width == other.width)
    }
}

impl std::ops::Index<usize> for SeverityMatrix {
    type Output = [f64];

    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstain_and_fired() {
        assert!(!Severity::ABSTAIN.fired());
        assert!(Severity::FIRED.fired());
        assert_eq!(Severity::default(), Severity::ABSTAIN);
    }

    #[test]
    fn from_bool_and_count() {
        assert_eq!(Severity::from_bool(true), Severity::FIRED);
        assert_eq!(Severity::from_bool(false), Severity::ABSTAIN);
        assert_eq!(Severity::from_count(0), Severity::ABSTAIN);
        assert_eq!(Severity::from_count(5).value(), 5.0);
        assert_eq!(Severity::from(true), Severity::FIRED);
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Severity::new(2.0) > Severity::new(1.0));
        assert!(Severity::ABSTAIN < Severity::FIRED);
        assert_eq!(Severity::new(1.0).max(Severity::new(3.0)).value(), 3.0);
        assert_eq!(Severity::new(4.0).max(Severity::new(3.0)).value(), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        Severity::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        Severity::new(f64::NAN);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Severity::ABSTAIN.to_string(), "abstain");
        assert_eq!(Severity::new(2.0).to_string(), "severity 2");
    }

    #[test]
    fn matrix_rows_round_trip() {
        let mut m = SeverityMatrix::new();
        assert!(m.is_empty());
        m.push_row(&[1.0, 0.25, 0.0]);
        m.push_row(&[0.0, 2.0, 3.5]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.width(), 3);
        assert_eq!(m.row(0), &[1.0, 0.25, 0.0]);
        assert_eq!(m[1], [0.0, 2.0, 3.5]);
        assert_eq!(m.values(), &[1.0, 0.25, 0.0, 0.0, 2.0, 3.5]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, [&[1.0, 0.25, 0.0][..], &[0.0, 2.0, 3.5][..]]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn matrix_rejects_ragged_rows() {
        let mut m = SeverityMatrix::new();
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[1.0]);
    }

    #[test]
    fn matrix_append_is_range_copy_merge() {
        let mut a = SeverityMatrix::new();
        a.push_row(&[1.0, 2.0]);
        let mut b = SeverityMatrix::new();
        b.push_row(&[3.0, 4.0]);
        b.push_row(&[5.0, 6.0]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Appending an empty matrix is a no-op; appending onto an empty
        // matrix adopts the other's width.
        a.append(&SeverityMatrix::new());
        assert_eq!(a.len(), 3);
        let mut c = SeverityMatrix::new();
        c.append(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn matrix_equality_ignores_preallocated_width() {
        assert_eq!(SeverityMatrix::new(), SeverityMatrix::with_capacity(8, 4));
        let mut a = SeverityMatrix::with_capacity(1, 2);
        a.push_row(&[1.0, 2.0]);
        let mut b = SeverityMatrix::new();
        b.push_row(&[1.0, 2.0]);
        assert_eq!(a, b);
        b.push_row(&[9.0, 9.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn matrix_zero_width_rows_still_count() {
        let mut m = SeverityMatrix::new();
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.width(), 0);
        assert_eq!(m.row(1), &[] as &[f64]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, [&[] as &[f64]; 2]);
    }
}
