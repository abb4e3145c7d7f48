//! Reads the few recorded workload parameters from `perfbench/spec.json`
//! and the metric names from `BENCHMARK.json`, so each is fixed in one
//! place.

use serde_json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn at<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    let mut cur = v;
    for key in path.split('.') {
        cur = cur
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .ok_or(format!("spec.json: missing {path}"))?;
    }
    Ok(cur)
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    at(v, path)?
        .as_f64()
        .ok_or(format!("spec.json: {path} is not a number"))
}

fn nums(v: &Value, path: &str) -> Result<Vec<f64>, String> {
    at(v, path)?
        .as_array()
        .ok_or(format!("spec.json: {path} is not an array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or(format!("spec.json: {path} has a non-number"))
        })
        .collect()
}

/// The values `perfbench/spec.json` records for later claim checks and
/// the benchmark reads: the `reason` pattern cap and the `serve` latency
/// limit, nominal rate and rate steps. Every other workload size is a
/// constant of its workload's module.
#[derive(Clone, Debug)]
pub struct Spec {
    /// `reason`: cap on `count_k_patterns` of every random decision.
    pub pattern_cap: usize,
    /// `serve`: the read latency limit of a rate step, in ms.
    pub latency_limit_ms: f64,
    /// `serve`: requests per second of the nominal phase.
    pub nominal_rps: f64,
    /// `serve`: fixed rate steps for `max_rps`, ascending.
    pub rate_steps_rps: Vec<f64>,
}

impl Spec {
    /// Loads `path`.
    pub fn load(path: &str) -> Result<Spec, String> {
        let v = load(path)?;
        Ok(Spec {
            pattern_cap: num(&v, "count_k_patterns_cap")? as usize,
            latency_limit_ms: num(&v, "serve.latency_limit_ms")?,
            nominal_rps: num(&v, "serve.nominal_rps")?,
            rate_steps_rps: nums(&v, "serve.rate_steps_rps")?,
        })
    }
}

/// The names in `BENCHMARK.json`.
pub struct BenchMetrics {
    /// Workload names.
    pub workloads: Vec<String>,
    /// `(name, unit)` of the end-to-end metrics.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of the per-layer metrics.
    pub per_layer: Vec<(String, String)>,
}

/// Reads the workload and metric names of `BENCHMARK.json`.
pub fn benchmark_metrics(path: &str) -> Result<BenchMetrics, String> {
    let v = load(path)?;
    let list = |key: &str, field: &str| -> Result<Vec<String>, String> {
        at(&v, key)?
            .as_array()
            .ok_or(format!("{path}: {key} is not an array"))?
            .iter()
            .map(|m| {
                at(m, field)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("{path}: {key}.{field} is not a string"))
            })
            .collect()
    };
    let named = |key: &str| -> Result<Vec<(String, String)>, String> {
        Ok(list(key, "name")?
            .into_iter()
            .zip(list(key, "unit")?)
            .collect())
    };
    Ok(BenchMetrics {
        workloads: list("workloads", "name")?,
        end_to_end: named("end_to_end")?,
        per_layer: named("per_layer")?,
    })
}
