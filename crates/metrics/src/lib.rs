//! # perfclone-metrics
//!
//! The statistics and reporting utilities the evaluation uses:
//!
//! * [`pearson`] — the linear correlation coefficient of Figure 4,
//! * [`rank`] — average rankings (ties shared) for the Figure-5 scatter,
//! * [`relative_error`] — the paper's §5.2 relative-accuracy formula
//!   `RE_X = |(M_XS/M_YS − M_XR/M_YR)| / (M_XR/M_YR)`,
//! * [`mean_abs_pct_error`] — the Figure-6/7 absolute-accuracy metric,
//! * [`Table`] — plain-text table rendering for the bench binaries.

use std::fmt::Write as _;

/// Pearson's linear correlation coefficient between two equal-length
/// samples. Returns 0 for degenerate inputs (length < 2 or zero variance).
///
/// # Example
///
/// ```
/// use perfclone_metrics::pearson;
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal-length samples");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Ranks the values ascending (rank 1 = smallest), averaging tied ranks —
/// the ranking used for the Figure-5 cache-configuration scatter.
///
/// # Example
///
/// ```
/// use perfclone_metrics::rank;
/// assert_eq!(rank(&[10.0, 30.0, 20.0]), vec![1.0, 3.0, 2.0]);
/// assert_eq!(rank(&[1.0, 1.0, 2.0]), vec![1.5, 1.5, 3.0]);
/// ```
pub fn rank(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation (Pearson over ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    pearson(&rank(x), &rank(y))
}

/// The paper's relative-error formula (§5.2): the error of the *ratio*
/// predicted by the synthetic clone when moving from design point Y to
/// design point X, relative to the real benchmark's ratio.
///
/// `RE_X = | M_XS/M_YS − M_XR/M_YR | / (M_XR/M_YR)`
///
/// # Example
///
/// ```
/// use perfclone_metrics::relative_error;
/// // Real speedup 2.0, clone speedup 1.9 -> 5% relative error.
/// let re = relative_error(1.9, 1.0, 2.0, 1.0);
/// assert!((re - 0.05).abs() < 1e-12);
/// ```
pub fn relative_error(m_x_synth: f64, m_y_synth: f64, m_x_real: f64, m_y_real: f64) -> f64 {
    let real_ratio = m_x_real / m_y_real;
    let synth_ratio = m_x_synth / m_y_synth;
    ((synth_ratio - real_ratio) / real_ratio).abs()
}

/// Mean of `|synth − real| / real` over paired samples — the average
/// absolute error metric of Figures 6 and 7.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mean_abs_pct_error(synth: &[f64], real: &[f64]) -> f64 {
    assert_eq!(synth.len(), real.len());
    assert!(!real.is_empty());
    let sum: f64 = synth.iter().zip(real.iter()).map(|(s, r)| ((s - r) / r).abs()).sum();
    sum / real.len() as f64
}

/// A minimal plain-text table renderer for the bench harness output.
///
/// # Example
///
/// ```
/// use perfclone_metrics::Table;
/// let mut t = Table::new(vec!["benchmark".into(), "IPC".into()]);
/// t.row(vec!["crc32".into(), "0.82".into()]);
/// let text = t.render();
/// assert!(text.contains("crc32"));
/// assert!(text.contains("benchmark"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        Table { headers, rows: Vec::new() }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", cell, width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with 3 decimal places (helper for bench output).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pearson_anticorrelation() {
        let r = pearson(&[1.0, 2.0, 3.0, 4.0], &[8.0, 6.0, 4.0, 2.0]);
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_of_noisy_line_is_high() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + ((v * 7.7).sin())).collect();
        assert!(pearson(&x, &y) > 0.999);
    }

    #[test]
    fn spearman_is_rank_invariant() {
        // A monotone but nonlinear relation: spearman 1.0.
        let x: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp2().min(1e30)).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relative_error_exact_prediction_is_zero() {
        assert_eq!(relative_error(2.0, 1.0, 4.0, 2.0), 0.0);
    }

    #[test]
    fn mape_basic() {
        let m = mean_abs_pct_error(&[1.1, 0.9], &[1.0, 1.0]);
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert_eq!(s.lines().count(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    proptest! {
        #[test]
        fn pearson_is_symmetric_and_bounded(
            v in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..50)
        ) {
            let x: Vec<f64> = v.iter().map(|p| p.0).collect();
            let y: Vec<f64> = v.iter().map(|p| p.1).collect();
            let r1 = pearson(&x, &y);
            let r2 = pearson(&y, &x);
            prop_assert!((r1 - r2).abs() < 1e-9);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r1));
        }

        #[test]
        fn ranks_are_a_permutation_mean(vals in proptest::collection::vec(-1e9f64..1e9, 1..40)) {
            let r = rank(&vals);
            let sum: f64 = r.iter().sum();
            let n = vals.len() as f64;
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        }

        #[test]
        fn pearson_invariant_under_affine(
            v in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..30),
            a in 0.1f64..10.0,
            b in -100.0f64..100.0
        ) {
            let x: Vec<f64> = v.iter().map(|p| p.0).collect();
            let y: Vec<f64> = v.iter().map(|p| p.1).collect();
            let xt: Vec<f64> = x.iter().map(|v| a * v + b).collect();
            let r1 = pearson(&x, &y);
            let r2 = pearson(&xt, &y);
            prop_assert!((r1 - r2).abs() < 1e-6);
        }
    }
}
