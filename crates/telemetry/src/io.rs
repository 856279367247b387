//! Telemetry interchange: JSON export/import of [`ExperimentRun`]s and a
//! CSV loader for resource-utilization series.
//!
//! The simulator is a stand-in for real collection infrastructure; this
//! module is the seam where real telemetry enters the pipeline. A
//! deployment that logs the Table 2 counters can serialize them in either
//! format and run the identical feature-selection / similarity /
//! prediction code paths.

use crate::features::ResourceFeature;
use crate::run::{ExperimentRun, PlanStats, ResourceSeries, RunKey};
use wp_json::{obj, Json, Reader};
use wp_linalg::Matrix;

/// Serializes runs to pretty-printed JSON.
pub fn runs_to_json(runs: &[ExperimentRun]) -> String {
    Json::Arr(runs.iter().map(run_to_json).collect()).pretty()
}

/// Parses runs from JSON produced by [`runs_to_json`] (or by any external
/// collector emitting the same schema).
pub fn runs_from_json(json: &str) -> Result<Vec<ExperimentRun>, String> {
    let doc = Json::parse(json).map_err(|e| format!("invalid telemetry JSON: {e}"))?;
    let runs = doc
        .as_arr()
        .ok_or("invalid telemetry JSON: top level must be an array")?;
    runs.iter()
        .enumerate()
        .map(|(i, r)| run_from_json(r).map_err(|e| format!("invalid telemetry JSON: run {i}: {e}")))
        .collect()
}

fn matrix_to_json(m: &Matrix) -> Json {
    obj! {
        "rows" => m.rows(),
        "cols" => m.cols(),
        "data" => m.as_slice().to_vec(),
    }
}

/// Serializes one run as a [`Json`] value in the interchange schema.
///
/// Building block for embedding runs inside larger documents (the
/// `wp-server` request/response bodies and corpus files); [`runs_to_json`]
/// is the plain-array convenience over it.
pub fn run_to_json(run: &ExperimentRun) -> Json {
    obj! {
        "key" => obj! {
            "workload" => run.key.workload.clone(),
            "sku" => run.key.sku.clone(),
            "terminals" => run.key.terminals,
            "run_index" => run.key.run_index,
            "data_group" => run.key.data_group,
        },
        "resources" => obj! {
            "data" => matrix_to_json(&run.resources.data),
            "sample_interval_secs" => run.resources.sample_interval_secs,
        },
        "plans" => obj! {
            "data" => matrix_to_json(&run.plans.data),
            "query_names" => run.plans.query_names.clone(),
        },
        "throughput" => run.throughput,
        "latency_ms" => run.latency_ms,
        "per_query_latency_ms" => run.per_query_latency_ms.clone(),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' must be a number"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' must be a string"))?
        .to_string())
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field '{key}' must be an array"))
}

fn f64_array(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    arr_field(v, key)?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("field '{key}' must contain numbers"))
        })
        .collect()
}

fn string_array(v: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(v, key)?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field '{key}' must contain strings"))
        })
        .collect()
}

fn matrix_from_json(v: &Json) -> Result<Matrix, String> {
    Matrix::try_from_vec(
        usize_field(v, "rows")?,
        usize_field(v, "cols")?,
        f64_array(v, "data")?,
    )
}

/// Parses one run from its [`Json`] interchange form (inverse of
/// [`run_to_json`]).
pub fn run_from_json(v: &Json) -> Result<ExperimentRun, String> {
    let key = field(v, "key")?;
    let resources = field(v, "resources")?;
    let plans = field(v, "plans")?;
    Ok(ExperimentRun {
        key: RunKey {
            workload: str_field(key, "workload")?,
            sku: str_field(key, "sku")?,
            terminals: usize_field(key, "terminals")?,
            run_index: usize_field(key, "run_index")?,
            data_group: usize_field(key, "data_group")?,
        },
        resources: ResourceSeries {
            data: matrix_from_json(field(resources, "data")?)?,
            sample_interval_secs: num_field(resources, "sample_interval_secs")?,
        },
        plans: PlanStats {
            data: matrix_from_json(field(plans, "data")?)?,
            query_names: string_array(plans, "query_names")?,
        },
        throughput: num_field(v, "throughput")?,
        latency_ms: num_field(v, "latency_ms")?,
        per_query_latency_ms: f64_array(v, "per_query_latency_ms")?,
    })
}

/// Decodes a request body `{"runs": [<run>, ...], ...}` without a
/// tree: each run's matrices are filled in place as their numbers are
/// scanned, and every other top-level member is returned, in document
/// order, as a small [`Json::Obj`].
///
/// Returns `None`, having decided nothing, unless the body is one
/// object with exactly one `"runs"` member, a non-empty array of runs
/// that [`run_from_json`] accepts. So a body it declines (a syntax
/// error, a wrong type, an empty `"runs"`, a duplicate key in a run)
/// is the caller's to parse with [`Json::parse`] and [`run_from_json`],
/// which report its errors; and a body it takes decodes to the same
/// runs, bit for bit, and the same members. Both read through
/// [`wp_json::Reader`], so they share the grammar, the number
/// conversion and the nesting bound.
pub fn decode_runs_body(text: &str) -> Option<(Json, Vec<ExperimentRun>)> {
    read_body(text).ok()
}

/// [`decode_runs_body`] hands the body back: the reason is the tree
/// decode's to report.
struct Declined;

impl From<String> for Declined {
    fn from(_: String) -> Self {
        Declined
    }
}

type Typed<T> = Result<T, Declined>;

/// Fills a member's slot; a second occurrence declines, where the tree
/// would keep the first.
fn set<T>(slot: &mut Option<T>, value: T) -> Typed<()> {
    match slot {
        Some(_) => Err(Declined),
        None => {
            *slot = Some(value);
            Ok(())
        }
    }
}

fn read_body(text: &str) -> Typed<(Json, Vec<ExperimentRun>)> {
    let mut r = Reader::new(text);
    let (mut runs, mut others) = (None, Vec::new());
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        if key == "runs" {
            set(&mut runs, read_runs(&mut r)?)?;
        } else {
            others.push((key.into_owned(), r.value()?));
        }
    }
    r.finish()?;
    match runs {
        Some(runs) if !runs.is_empty() => Ok((Json::Obj(others), runs)),
        _ => Err(Declined),
    }
}

fn read_runs(r: &mut Reader) -> Typed<Vec<ExperimentRun>> {
    let mut runs = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        runs.push(read_run(r)?);
    }
    Ok(runs)
}

fn read_run(r: &mut Reader) -> Typed<ExperimentRun> {
    let (mut key, mut resources, mut plans) = (None, None, None);
    let (mut throughput, mut latency_ms, mut per_query_latency_ms) = (None, None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match name.as_ref() {
            "key" => set(&mut key, read_key(r)?)?,
            "resources" => set(&mut resources, read_resources(r)?)?,
            "plans" => set(&mut plans, read_plans(r)?)?,
            "throughput" => set(&mut throughput, r.number()?)?,
            "latency_ms" => set(&mut latency_ms, r.number()?)?,
            "per_query_latency_ms" => set(&mut per_query_latency_ms, read_f64s(r, 0)?)?,
            _ => skip(r)?,
        }
    }
    Ok(ExperimentRun {
        key: key.ok_or(Declined)?,
        resources: resources.ok_or(Declined)?,
        plans: plans.ok_or(Declined)?,
        throughput: throughput.ok_or(Declined)?,
        latency_ms: latency_ms.ok_or(Declined)?,
        per_query_latency_ms: per_query_latency_ms.ok_or(Declined)?,
    })
}

fn read_key(r: &mut Reader) -> Typed<RunKey> {
    let (mut workload, mut sku) = (None, None);
    let (mut terminals, mut run_index, mut data_group) = (None, None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match name.as_ref() {
            "workload" => set(&mut workload, r.string()?.into_owned())?,
            "sku" => set(&mut sku, r.string()?.into_owned())?,
            "terminals" => set(&mut terminals, read_usize(r)?)?,
            "run_index" => set(&mut run_index, read_usize(r)?)?,
            "data_group" => set(&mut data_group, read_usize(r)?)?,
            _ => skip(r)?,
        }
    }
    Ok(RunKey {
        workload: workload.ok_or(Declined)?,
        sku: sku.ok_or(Declined)?,
        terminals: terminals.ok_or(Declined)?,
        run_index: run_index.ok_or(Declined)?,
        data_group: data_group.ok_or(Declined)?,
    })
}

fn read_resources(r: &mut Reader) -> Typed<ResourceSeries> {
    let (mut data, mut sample_interval_secs) = (None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match name.as_ref() {
            "data" => set(&mut data, read_matrix(r)?)?,
            "sample_interval_secs" => set(&mut sample_interval_secs, r.number()?)?,
            _ => skip(r)?,
        }
    }
    Ok(ResourceSeries {
        data: data.ok_or(Declined)?,
        sample_interval_secs: sample_interval_secs.ok_or(Declined)?,
    })
}

fn read_plans(r: &mut Reader) -> Typed<PlanStats> {
    let (mut data, mut query_names) = (None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match name.as_ref() {
            "data" => set(&mut data, read_matrix(r)?)?,
            "query_names" => {
                let mut names = Vec::new();
                r.begin_array()?;
                while r.next_element()? {
                    names.push(r.string()?.into_owned());
                }
                set(&mut query_names, names)?;
            }
            _ => skip(r)?,
        }
    }
    Ok(PlanStats {
        data: data.ok_or(Declined)?,
        query_names: query_names.ok_or(Declined)?,
    })
}

/// A matrix's `data` is read straight into its buffer, sized up front
/// when `rows` and `cols` come first, as [`run_to_json`] writes them.
fn read_matrix(r: &mut Reader) -> Typed<Matrix> {
    let (mut rows, mut cols, mut data) = (None, None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match name.as_ref() {
            "rows" => set(&mut rows, read_usize(r)?)?,
            "cols" => set(&mut cols, read_usize(r)?)?,
            "data" => {
                let len = rows.zip(cols).and_then(|(m, n)| usize::checked_mul(m, n));
                set(&mut data, read_f64s(r, len.unwrap_or(0))?)?;
            }
            _ => skip(r)?,
        }
    }
    Matrix::try_from_vec(
        rows.ok_or(Declined)?,
        cols.ok_or(Declined)?,
        data.ok_or(Declined)?,
    )
    .map_err(|_| Declined)
}

/// An array of numbers, with room reserved for `expected` of them, as
/// many as the unread input can hold.
fn read_f64s(r: &mut Reader, expected: usize) -> Typed<Vec<f64>> {
    // Each number takes at least one byte and one separator.
    let mut values = Vec::with_capacity(expected.min(r.remaining() / 2));
    r.begin_array()?;
    while r.next_element()? {
        values.push(r.number()?);
    }
    Ok(values)
}

/// A count, with [`Json::as_usize`]'s rule for which numbers are counts.
fn read_usize(r: &mut Reader) -> Typed<usize> {
    Json::Num(r.number()?).as_usize().ok_or(Declined)
}

/// A member a run does not name: checked like the tree checks it, then
/// dropped.
fn skip(r: &mut Reader) -> Typed<()> {
    r.value()?;
    Ok(())
}

/// Parses a resource-utilization CSV into a [`ResourceSeries`].
///
/// Expected layout: a header row naming the resource features (any order,
/// Table 2 names), then one row per sample. Additional columns are
/// ignored; all seven resource features must be present. Example:
///
/// ```csv
/// CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS
/// 0.52,0.47,0.61,1520,1.4,3300,120
/// ```
pub fn resource_series_from_csv(
    csv: &str,
    sample_interval_secs: f64,
) -> Result<ResourceSeries, String> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty CSV")?;
    let columns: Vec<&str> = header.split(',').map(str::trim).collect();

    // map each catalog feature to its CSV column
    let mut positions = Vec::with_capacity(ResourceFeature::ALL.len());
    for f in ResourceFeature::ALL {
        let pos = columns
            .iter()
            .position(|c| *c == f.name())
            .ok_or_else(|| format!("missing column '{}'", f.name()))?;
        positions.push(pos);
    }

    let mut rows = Vec::new();
    for (line_no, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        let mut row = Vec::with_capacity(positions.len());
        for (&pos, f) in positions.iter().zip(ResourceFeature::ALL.iter()) {
            let cell = cells
                .get(pos)
                .ok_or_else(|| format!("line {}: too few cells for '{}'", line_no + 2, f.name()))?;
            let v: f64 = cell.parse().map_err(|_| {
                format!(
                    "line {}: cannot parse '{}' for '{}'",
                    line_no + 2,
                    cell,
                    f.name()
                )
            })?;
            row.push(v);
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err("CSV has a header but no samples".into());
    }
    Ok(ResourceSeries::new(
        Matrix::from_rows(&rows),
        sample_interval_secs,
    ))
}

/// Renders a resource series back to the CSV layout accepted by
/// [`resource_series_from_csv`].
pub fn resource_series_to_csv(series: &ResourceSeries) -> String {
    let mut out = String::new();
    let names: Vec<&str> = ResourceFeature::ALL.iter().map(|f| f.name()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..series.len() {
        let row: Vec<String> = series.data.row(r).iter().map(|v| v.to_string()).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{PlanStats, RunKey};

    fn sample_run() -> ExperimentRun {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..7).map(|c| (i * 7 + c) as f64 * 0.5).collect())
            .collect();
        ExperimentRun {
            key: RunKey {
                workload: "TPC-C".into(),
                sku: "cpu8".into(),
                terminals: 8,
                run_index: 1,
                data_group: 1,
            },
            resources: ResourceSeries::new(Matrix::from_rows(&rows), 10.0),
            plans: PlanStats::new(
                Matrix::from_rows(&[vec![1.5; 22], vec![2.5; 22]]),
                vec!["NewOrder".into(), "Payment".into()],
            ),
            throughput: 812.5,
            latency_ms: 9.8,
            per_query_latency_ms: vec![11.0, 7.0],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let runs = vec![sample_run(), sample_run()];
        let json = runs_to_json(&runs);
        let back = runs_from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].key, runs[0].key);
        assert_eq!(back[0].resources, runs[0].resources);
        assert_eq!(back[0].plans, runs[0].plans);
        assert_eq!(back[0].throughput, runs[0].throughput);
        assert_eq!(back[0].per_query_latency_ms, runs[0].per_query_latency_ms);
    }

    #[test]
    fn corrupt_json_is_an_error() {
        assert!(runs_from_json("not json").is_err());
        // valid JSON with a broken matrix invariant must also fail
        let bad = r#"[{"key":{"workload":"w","sku":"s","terminals":1,"run_index":0,
            "data_group":0},
            "resources":{"data":{"rows":2,"cols":7,"data":[1.0]},
                         "sample_interval_secs":10.0},
            "plans":{"data":{"rows":0,"cols":22,"data":[]},"query_names":[]},
            "throughput":1.0,"latency_ms":1.0,"per_query_latency_ms":[]}]"#;
        let err = runs_from_json(bad).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn typed_body_decode_matches_the_tree_or_declines() {
        let runs = vec![sample_run(), sample_run()];
        let body = format!(
            "{{\"mode\":\"x\",\"runs\":{},\"k\":[1]}}",
            runs_to_json(&runs)
        );
        let (others, typed) = decode_runs_body(&body).expect("a valid body is taken");
        assert_eq!(others, Json::parse(r#"{"mode":"x","k":[1]}"#).unwrap());
        assert_eq!(typed.len(), 2);
        for (typed, run) in typed.iter().zip(&runs) {
            assert_eq!(typed.key, run.key);
            assert_eq!(typed.resources, run.resources);
            assert_eq!(typed.plans, run.plans);
            assert_eq!(typed.throughput, run.throughput);
            assert_eq!(typed.latency_ms, run.latency_ms);
            assert_eq!(typed.per_query_latency_ms, run.per_query_latency_ms);
        }
        for declined in [
            r#"{"runs":[]}"#.to_string(),
            r#"{"runs":7}"#.to_string(),
            r#"{"mode":"x"}"#.to_string(),
            format!("{{\"runs\":{}}} x", runs_to_json(&runs)),
            body.replacen("\"rows\": 4", "\"rows\": 5", 1),
            body.replacen("\"throughput\"", "\"throughput\": 1, \"throughput\"", 1),
        ] {
            assert!(decode_runs_body(&declined).is_none(), "{declined:.60}");
        }
    }

    #[test]
    fn csv_roundtrip() {
        let series = sample_run().resources;
        let csv = resource_series_to_csv(&series);
        let back = resource_series_from_csv(&csv, 10.0).unwrap();
        assert_eq!(back, series);
    }

    #[test]
    fn csv_accepts_permuted_and_extra_columns() {
        let csv = "timestamp,LOCK_WAIT_ABS,LOCK_REQ_ABS,READ_WRITE_RATIO,IOPS_TOTAL,\
                   MEM_UTILIZATION,CPU_EFFECTIVE,CPU_UTILIZATION\n\
                   0,6,5,4,3,2,1,0.5\n\
                   10,60,50,40,30,20,10,5\n";
        let series = resource_series_from_csv(csv, 10.0).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series.feature(ResourceFeature::CpuUtilization),
            vec![0.5, 5.0]
        );
        assert_eq!(
            series.feature(ResourceFeature::LockWaitAbs),
            vec![6.0, 60.0]
        );
    }

    #[test]
    fn csv_missing_column_is_an_error() {
        let csv = "CPU_UTILIZATION\n0.5\n";
        let err = resource_series_from_csv(csv, 10.0).unwrap_err();
        assert!(err.contains("missing column"), "{err}");
    }

    #[test]
    fn csv_bad_cell_reports_location() {
        let csv = "CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,\
                   READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS\n\
                   0.5,abc,0.6,100,1,2,3\n";
        let err = resource_series_from_csv(csv, 10.0).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("CPU_EFFECTIVE"),
            "{err}"
        );
    }

    #[test]
    fn empty_csv_rejected() {
        assert!(resource_series_from_csv("", 10.0).is_err());
        assert!(resource_series_from_csv(
            "CPU_UTILIZATION,CPU_EFFECTIVE,MEM_UTILIZATION,IOPS_TOTAL,READ_WRITE_RATIO,LOCK_REQ_ABS,LOCK_WAIT_ABS\n",
            10.0
        )
        .is_err());
    }
}
