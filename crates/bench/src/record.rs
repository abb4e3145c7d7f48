//! Machine-readable experiment records (JSON), so that figure regenerators
//! can persist what they measured next to what the paper states —
//! EXPERIMENTS.md is the human-readable digest of these records.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One experiment record: the paper artifact id, a description, and the
/// measured rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Artifact id, e.g. `"F4"` or `"P4.13"` (see DESIGN.md §3).
    pub id: String,
    /// What was regenerated.
    pub description: String,
    /// The paper's stated expectation, in prose.
    pub paper: String,
    /// Measured rows: free-form label/value pairs, one map per row.
    pub rows: Vec<Vec<(String, String)>>,
    /// Did all assertions pass?
    pub passed: bool,
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(id: &str, description: &str, paper: &str) -> Self {
        ExperimentRecord {
            id: id.to_string(),
            description: description.to_string(),
            paper: paper.to_string(),
            rows: Vec::new(),
            passed: true,
        }
    }

    /// Appends a measured row.
    pub fn row(&mut self, pairs: &[(&str, String)]) -> &mut Self {
        self.rows.push(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        );
        self
    }

    /// Appends the `build`-labelled rows of the record at `path` — the
    /// same benchmark binary built on the parent commit — relabelled
    /// `"build": "parent"`, to sit beside this build's rows.
    pub fn push_parent_rows(&mut self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parent: ExperimentRecord =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        for row in parent.rows {
            if !row.iter().any(|(k, _)| k == "build") {
                continue;
            }
            let relabel = |(k, v): (String, String)| match k.as_str() {
                "build" => (k, "parent".to_string()),
                _ => (k, v),
            };
            self.rows.push(row.into_iter().map(relabel).collect());
        }
        Ok(())
    }

    /// The default output directory: `target/experiments`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/experiments")
    }

    /// Writes the record as pretty JSON to `<dir>/<id>.json`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(
            serde_json::to_string_pretty(self)
                .expect("serializes")
                .as_bytes(),
        )?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut r = ExperimentRecord::new("F4", "IMPLIES runs", "τ' ⊭ τ, τ'' ⊨ τ");
        r.row(&[("check", "τ' ⊨ τ".into()), ("holds", "false".into())]);
        r.row(&[("check", "τ'' ⊨ τ".into()), ("holds", "true".into())]);
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), 2);
        assert!(back.passed);
    }

    #[test]
    fn record_writes_to_disk() {
        let dir = std::env::temp_dir().join("ndl_record_test");
        let r = ExperimentRecord::new("TEST", "smoke", "n/a");
        let path = r.write_to(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"id\": \"TEST\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
