//! Telemetry containers: resource time-series, per-query plan statistics,
//! and the [`ExperimentRun`] record that ties one benchmark execution on
//! one hardware configuration together.

use wp_linalg::Matrix;

use crate::features::{PlanFeature, ResourceFeature};

/// A multivariate resource-utilization time-series: one row per sample
/// (every ten seconds in the paper's setup), one column per
/// [`ResourceFeature`] in catalog order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSeries {
    /// `samples × 7` observation matrix.
    pub data: Matrix,
    /// Seconds between consecutive samples.
    pub sample_interval_secs: f64,
}

impl ResourceSeries {
    /// Wraps a sample matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not have exactly one column per resource
    /// feature.
    pub fn new(data: Matrix, sample_interval_secs: f64) -> Self {
        assert_eq!(
            data.cols(),
            ResourceFeature::ALL.len(),
            "resource series must have {} columns",
            ResourceFeature::ALL.len()
        );
        assert!(sample_interval_secs > 0.0, "interval must be positive");
        Self {
            data,
            sample_interval_secs,
        }
    }

    /// Number of time samples.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// The univariate series of one feature.
    pub fn feature(&self, f: ResourceFeature) -> Vec<f64> {
        self.data.col(f.index())
    }

    /// Keeps only the samples at the given indices (in the given order).
    pub fn select_samples(&self, idx: &[usize]) -> ResourceSeries {
        ResourceSeries {
            data: self.data.select_rows(idx),
            sample_interval_secs: self.sample_interval_secs,
        }
    }
}

/// Per-query plan statistics: one row per query (transaction type), one
/// column per [`PlanFeature`] in catalog order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// `queries × 22` statistics matrix.
    pub data: Matrix,
    /// Name of the query / transaction type behind each row.
    pub query_names: Vec<String>,
}

impl PlanStats {
    /// Wraps a statistics matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between the matrix, the feature catalog,
    /// and the query-name list.
    pub fn new(data: Matrix, query_names: Vec<String>) -> Self {
        assert_eq!(
            data.cols(),
            PlanFeature::ALL.len(),
            "plan stats must have {} columns",
            PlanFeature::ALL.len()
        );
        assert_eq!(
            data.rows(),
            query_names.len(),
            "one query name per row required"
        );
        Self { data, query_names }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True when the workload exposed no queries.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// All observed values of one plan feature (one per query).
    pub fn feature(&self, f: PlanFeature) -> Vec<f64> {
        self.data.col(f.index())
    }

    /// The statistics row for a named query, if present.
    pub fn query(&self, name: &str) -> Option<&[f64]> {
        self.query_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.data.row(i))
    }
}

/// Identity of one experiment execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Benchmark name (e.g. `"TPC-C"`).
    pub workload: String,
    /// Hardware configuration label (e.g. `"cpu16"`).
    pub sku: String,
    /// Concurrent terminals driving the workload.
    pub terminals: usize,
    /// Repetition index (the paper executes each configuration 3×).
    pub run_index: usize,
    /// Time-of-day data group (`0..3` in §6.2).
    pub data_group: usize,
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{}x{} run{} grp{}",
            self.workload, self.sku, self.terminals, self.run_index, self.data_group
        )
    }
}

/// One complete experiment record: identity, both telemetry families, and
/// the measured performance numbers the prediction stage targets.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Which workload/SKU/repetition this is.
    pub key: RunKey,
    /// Resource-utilization time-series.
    pub resources: ResourceSeries,
    /// Per-query plan statistics.
    pub plans: PlanStats,
    /// Measured throughput in requests/second.
    pub throughput: f64,
    /// Measured mean latency in milliseconds.
    pub latency_ms: f64,
    /// Mean latency per transaction type, parallel to `plans.query_names`.
    pub per_query_latency_ms: Vec<f64>,
}

impl ExperimentRun {
    /// The one per-run check, applied wherever runs enter a server: to
    /// ingested batches, to every corpus reference, and to the runs a
    /// read posts. It rejects what decoding a run (which checks shape,
    /// not content) lets through and later stages would trip over: an
    /// empty series, a column count other than the catalog's, a
    /// non-finite number, a non-positive sample interval, or plan rows
    /// without one query name each. The message names the first defect;
    /// callers prefix it with the run's place.
    pub fn validate(&self) -> Result<(), String> {
        let r = &self.resources;
        if r.data.rows() == 0 {
            return Err("empty resource series".to_string());
        }
        if r.data.cols() != ResourceFeature::ALL.len() {
            return Err(format!(
                "resource series must have {} columns, got {}",
                ResourceFeature::ALL.len(),
                r.data.cols()
            ));
        }
        if !r.data.as_slice().iter().all(|x| x.is_finite()) {
            return Err("non-finite resource sample".to_string());
        }
        if !r.sample_interval_secs.is_finite() || r.sample_interval_secs <= 0.0 {
            return Err("sample interval must be finite and positive".to_string());
        }
        let p = &self.plans;
        if p.data.rows() == 0 {
            return Err("empty plan statistics".to_string());
        }
        if p.data.cols() != PlanFeature::ALL.len() {
            return Err(format!(
                "plan statistics must have {} columns, got {}",
                PlanFeature::ALL.len(),
                p.data.cols()
            ));
        }
        if !p.data.as_slice().iter().all(|x| x.is_finite()) {
            return Err("non-finite plan statistic".to_string());
        }
        if p.query_names.len() != p.data.rows() {
            return Err("one query name per plan row required".to_string());
        }
        if !self.throughput.is_finite() || !self.latency_ms.is_finite() {
            return Err("non-finite throughput or latency".to_string());
        }
        if !self.per_query_latency_ms.iter().all(|x| x.is_finite()) {
            return Err("non-finite per-query latency".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> ResourceSeries {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..7).map(|c| (i * 7 + c) as f64).collect())
            .collect();
        ResourceSeries::new(Matrix::from_rows(&rows), 10.0)
    }

    #[test]
    fn resource_series_accessors() {
        let s = series(5);
        assert_eq!(s.len(), 5);
        let cpu = s.feature(ResourceFeature::CpuUtilization);
        assert_eq!(cpu, vec![0.0, 7.0, 14.0, 21.0, 28.0]);
    }

    #[test]
    fn select_samples_subsets() {
        let s = series(6);
        let sub = s.select_samples(&[0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(
            sub.feature(ResourceFeature::CpuUtilization),
            vec![0.0, 14.0, 28.0]
        );
    }

    #[test]
    #[should_panic(expected = "resource series must have 7 columns")]
    fn wrong_column_count_rejected() {
        let _ = ResourceSeries::new(Matrix::zeros(3, 5), 10.0);
    }

    #[test]
    fn plan_stats_lookup_by_query_name() {
        let data = Matrix::from_rows(&[vec![1.0; 22], vec![2.0; 22]]);
        let p = PlanStats::new(data, vec!["NewOrder".into(), "Payment".into()]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.query("Payment").unwrap()[0], 2.0);
        assert!(p.query("Missing").is_none());
        assert_eq!(p.feature(PlanFeature::StatementEstRows), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one query name per row")]
    fn plan_stats_name_mismatch_rejected() {
        let _ = PlanStats::new(Matrix::zeros(2, 22), vec!["only-one".into()]);
    }

    #[test]
    fn run_key_display() {
        let k = RunKey {
            workload: "TPC-C".into(),
            sku: "cpu8".into(),
            terminals: 4,
            run_index: 1,
            data_group: 2,
        };
        assert_eq!(k.to_string(), "TPC-C@cpu8x4 run1 grp2");
    }

    #[test]
    fn validate_names_the_first_defect() {
        let run = ExperimentRun {
            key: RunKey {
                workload: "w".into(),
                sku: "s".into(),
                terminals: 1,
                run_index: 0,
                data_group: 0,
            },
            resources: series(3),
            plans: PlanStats::new(Matrix::zeros(1, 22), vec!["q".into()]),
            throughput: 100.0,
            latency_ms: 5.0,
            per_query_latency_ms: vec![5.0],
        };
        assert_eq!(run.validate(), Ok(()));

        let mut narrow = run.clone();
        narrow.resources.data = Matrix::zeros(3, 6);
        assert_eq!(
            narrow.validate().unwrap_err(),
            "resource series must have 7 columns, got 6"
        );
        let mut short = run.clone();
        short.plans.data = Matrix::zeros(1, 21);
        assert_eq!(
            short.validate().unwrap_err(),
            "plan statistics must have 22 columns, got 21"
        );
        let mut poisoned = run;
        poisoned.throughput = f64::NAN;
        assert_eq!(
            poisoned.validate().unwrap_err(),
            "non-finite throughput or latency"
        );
    }
}
