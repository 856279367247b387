//! What a correct answer is.
//!
//! Answers that do not depend on the corpus generation are computed
//! before timing with `service::handle` on a separate in-process
//! `ServiceState` built from the same seed, and every response must
//! equal them byte for byte, status line to last body byte. The rest
//! (indexed `/similar`, `/recommend` by tenant, `/ingest`) are checked
//! for status, schema, and reference names drawn from the corpus or
//! `live:<tenant>`.

use std::collections::HashSet;

use wp_json::Json;
use wp_server::http::{self, Request};
use wp_server::service::{self, ServiceState};

use crate::workload::{Req, Workload, TENANTS};

/// How one request's response is judged.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The whole HTTP response.
    Bytes(Vec<u8>),
    /// A generation-dependent `200` whose body must pass [`Checker`].
    Schema,
}

/// What a schema-checked answer reported, for the ingest counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// `/ingest`: the batch evicted runs and rebuilt the index.
    pub rebuilt: bool,
}

/// The server-side request a workload request parses to.
pub fn request(req: &Req) -> Request {
    Request {
        method: req.endpoint.method().to_string(),
        path: req.endpoint.path().to_string(),
        body: req.body.clone(),
        keep_alive: true,
    }
}

/// Expected answers for every request of `workload`, by request index.
/// Fails when the oracle itself does not answer `200`: the workload
/// must consist of operations that succeed.
pub fn expectations(state: &ServiceState, workload: &Workload) -> Result<Vec<Expect>, String> {
    workload
        .reqs
        .iter()
        .map(|req| {
            if !req.endpoint.generation_free() {
                return Ok(Expect::Schema);
            }
            let (status, body) = service::handle(state, &request(req));
            if status != 200 {
                return Err(format!(
                    "oracle answered {status} to {} {}: {body}",
                    req.endpoint.method(),
                    req.endpoint.path()
                ));
            }
            Ok(Expect::Bytes(http::render_response(
                status,
                &body,
                true,
                &[],
            )))
        })
        .collect()
}

/// Schema checks for generation-dependent answers.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Every reference name an answer may carry.
    names: HashSet<String>,
}

impl Checker {
    pub fn new(state: &ServiceState) -> Self {
        let mut names: HashSet<String> = state
            .corpus
            .references
            .iter()
            .map(|r| r.name.clone())
            .collect();
        names.extend((0..TENANTS).map(|t| format!("live:tenant-{t}")));
        Self { names }
    }

    /// Checks one `200` body against the schema of `req`'s endpoint.
    pub fn check(&self, req: &Req, body: &Json) -> Result<Observed, String> {
        use crate::workload::Endpoint;
        let num = |key: &str| {
            body.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let boolean = |key: &str| match body.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool '{key}'")),
        };
        let name = |v: Option<&Json>, what: &str| -> Result<(), String> {
            let n = v
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing name '{what}'"))?;
            if self.names.contains(n) {
                Ok(())
            } else {
                Err(format!("'{what}' names unknown reference '{n}'"))
            }
        };
        let verdicts = |key: &str| -> Result<(), String> {
            let list = body
                .get(key)
                .and_then(Json::as_arr)
                .filter(|l| !l.is_empty())
                .ok_or_else(|| format!("missing array '{key}'"))?;
            for v in list {
                name(v.get("workload"), "workload")?;
                v.get("distance")
                    .and_then(Json::as_f64)
                    .filter(|d| d.is_finite())
                    .ok_or("verdict without a finite distance")?;
            }
            Ok(())
        };
        match req.endpoint {
            Endpoint::Ingest => {
                if num("accepted_runs")? != crate::workload::RUNS_PER_BATCH as f64 {
                    return Err("batch not accepted in full".to_string());
                }
                boolean("drifted")?;
                for key in [
                    "evicted_runs",
                    "generation",
                    "live_references",
                    "indexed_runs",
                    "phases",
                ] {
                    num(key)?;
                }
                Ok(Observed {
                    rebuilt: boolean("rebuilt")?,
                })
            }
            Endpoint::SimilarIndexed => {
                if body.get("mode").and_then(Json::as_str) != Some("indexed") {
                    return Err("indexed answer without \"mode\":\"indexed\"".to_string());
                }
                name(body.get("most_similar"), "most_similar")?;
                verdicts("verdicts")?;
                let pruning = body.get("pruning").ok_or("missing 'pruning'")?;
                for key in ["candidates", "exact"] {
                    pruning
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("pruning without '{key}'"))?;
                }
                Ok(Observed::default())
            }
            Endpoint::RecommendTenant => {
                let tenant = req.tenant.as_deref().unwrap_or_default();
                if body.get("source").and_then(Json::as_str) != Some(&format!("tenant:{tenant}")) {
                    return Err(format!("answer does not name source tenant:{tenant}"));
                }
                name(body.get("most_similar"), "most_similar")?;
                num("slo")?;
                let candidates = body
                    .get("candidates")
                    .and_then(Json::as_arr)
                    .filter(|c| !c.is_empty())
                    .ok_or("missing 'candidates'")?;
                for c in candidates {
                    c.get("predicted_throughput")
                        .and_then(Json::as_f64)
                        .filter(|p| p.is_finite() && *p >= 0.0)
                        .ok_or("candidate without a predicted throughput")?;
                }
                match body.get("recommended") {
                    Some(Json::Null) | Some(Json::Str(_)) => Ok(Observed::default()),
                    _ => Err("missing 'recommended'".to_string()),
                }
            }
            other => Err(format!("{} answers are byte-checked", other.label())),
        }
    }
}
