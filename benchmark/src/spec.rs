//! The metric catalogue. `BENCHMARK.json` is the one place a metric's
//! unit, direction and bound are written down; the harness embeds it and
//! reads them from there.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            doc.get(key)
                .ok_or(format!("missing {key}"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f).and_then(Json::as_str).ok_or(format!("{key}: metric without {f}"))
                    };
                    let better = field("better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("{key}: better is {better:?}"));
                    }
                    Ok(Metric {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        higher_is_better: better == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")? as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KINDS;

    /// The contract `BENCHMARK.json` is written to.
    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
                w.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(names, KINDS.map(|k| k.name()));

        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::HashSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(seen.insert(&m.name), "{} used twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup =
            spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
