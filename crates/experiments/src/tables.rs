//! Tables 3–6: the quantitative jvm98 artifacts, as views over the
//! jvm98 [`ExperimentRun`](wts_core::ExperimentRun) and its per-fold
//! [`folds`](wts_core::ExperimentRun::folds).

use crate::table::{f2, Table};
use crate::{Experiments, SuiteKind, THRESHOLDS};
use wts_core::{FoldEval, LearnerKind};
use wts_ripper::geometric_mean;

impl Experiments {
    /// One jvm98 row per threshold: `value` of each benchmark's fold, in
    /// [`names`](wts_core::ExperimentRun::names) order, then their
    /// geometric mean.
    fn per_fold_table(&self, title: &str, value: impl Fn(&FoldEval) -> f64) -> Table {
        let run = self.run(SuiteKind::Jvm98);
        let mut headers = vec!["Threshold".to_string()];
        headers.extend(run.names().iter().cloned());
        headers.push("Geo. mean".into());
        let mut t = Table::new(title, headers);
        for &th in &THRESHOLDS {
            let values: Vec<f64> = run.folds(th, &LearnerKind::default(), None).iter().map(&value).collect();
            let mut row = vec![format!("{th}%")];
            row.extend(values.iter().map(|&v| f2(v)));
            row.push(f2(geometric_mean(&values)));
            t.push_row(row);
        }
        t
    }

    /// Table 3: classification error rates (percent misclassified) per
    /// benchmark for each threshold, with the geometric mean.
    pub fn table3(&self) -> Table {
        self.per_fold_table("Table 3: Classification error rates (percent misclassified)", |f| {
            f.confusion.error_percent()
        })
    }

    /// Table 4: predicted execution times (cheap-estimator weighted time
    /// under the filter, percent of never-scheduling) per benchmark and
    /// threshold.
    pub fn table4(&self) -> Table {
        self.per_fold_table("Table 4: Predicted execution times (percent of no-scheduling)", |f| f.predicted_percent)
    }

    /// Table 5: training-set sizes — LS instance counts per threshold
    /// (NS is constant by construction and reported in the title row).
    pub fn table5(&self) -> Table {
        let run = self.run(SuiteKind::Jvm98);
        let ns_count = run.ns_instances();
        let mut headers = vec!["Label".to_string()];
        headers.extend(THRESHOLDS.iter().map(|t| format!("t={t}")));
        let mut t =
            Table::new(format!("Table 5: Effect of t on training set size (NS constant at {ns_count})"), headers);
        let mut row = vec!["LS".to_string()];
        for &th in &THRESHOLDS {
            row.push(run.ls_instances(th).to_string());
        }
        t.push_row(row);
        t
    }

    /// Table 6: run-time classification of blocks by the induced filters
    /// (sums across benchmarks of each benchmark's own LOOCV filter).
    pub fn table6(&self) -> Table {
        let run = self.run(SuiteKind::Jvm98);
        let mut headers = vec!["Label".to_string()];
        headers.extend(THRESHOLDS.iter().map(|t| format!("t={t}")));
        let mut t = Table::new(
            format!("Table 6: Effect of t on run time classification ({} blocks total)", run.all_traces().len()),
            headers,
        );
        let mut ns_row = vec!["NS".to_string()];
        let mut ls_row = vec!["LS".to_string()];
        for &th in &THRESHOLDS {
            let mut ls = 0usize;
            let mut ns = 0usize;
            for fold in run.folds(th, &LearnerKind::default(), None) {
                ls += fold.times.scheduled_blocks;
                ns += fold.times.total_blocks - fold.times.scheduled_blocks;
            }
            ns_row.push(ns.to_string());
            ls_row.push(ls.to_string());
        }
        t.push_row(ns_row);
        t.push_row(ls_row);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Experiments {
        Experiments::new(0.02)
    }

    #[test]
    fn table3_shape_and_error_trend() {
        let e = harness();
        let t = e.table3();
        assert_eq!(t.row_count(), THRESHOLDS.len());
        assert_eq!(t.headers().len(), 9, "threshold + 7 benchmarks + geomean");
        // Error rate at t=50 should be no worse than at t=0 (fewer, easier LS).
        let first: f64 = t.cell(0, 8).parse().unwrap();
        let last: f64 = t.cell(10, 8).parse().unwrap();
        assert!(last <= first + 1.0, "error should shrink with t: {first} -> {last}");
    }

    #[test]
    fn table4_ratios_are_sane() {
        let e = harness();
        let t = e.table4();
        for row in 0..t.row_count() {
            for col in 1..=7 {
                let v: f64 = t.cell(row, col).parse().unwrap();
                assert!((50.0..=100.5).contains(&v), "ratio {v} out of range");
            }
        }
    }

    #[test]
    fn table5_ls_counts_decrease() {
        let e = harness();
        let t = e.table5();
        let counts: Vec<usize> = (1..=THRESHOLDS.len()).map(|c| t.cell(0, c).parse().unwrap()).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "LS counts must fall as t grows: {counts:?}");
        }
        assert!(counts[0] > 0);
    }

    #[test]
    fn table6_rows_sum_to_total() {
        let e = harness();
        let total = e.run(SuiteKind::Jvm98).all_traces().len();
        let t = e.table6();
        for c in 1..=THRESHOLDS.len() {
            let ns: usize = t.cell(0, c).parse().unwrap();
            let ls: usize = t.cell(1, c).parse().unwrap();
            assert_eq!(ns + ls, total);
        }
    }
}
