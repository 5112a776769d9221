//! Shared `BENCH_*.json` report writer.
//!
//! Every benchmark binary used to hand-roll its JSON assembly; this builder
//! deduplicates that and embeds the observability metrics snapshot so a CI
//! artifact carries both the benchmark's own rows and the instrumented
//! counters/histograms of the run that produced them.

use simkit::MetricsSnapshot;
use std::path::PathBuf;

/// Builder for one `target/BENCH_<name>.json` report.
pub struct BenchReport {
    name: String,
    /// Top-level `key: raw-json-value` pairs, in insertion order.
    fields: Vec<(String, String)>,
    /// Raw JSON objects, one per result row.
    rows: Vec<String>,
    /// Rendered metrics snapshot, if attached.
    metrics: Option<String>,
}

impl BenchReport {
    /// Start a report for benchmark `name` (written as `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            fields: Vec::new(),
            rows: Vec::new(),
            metrics: None,
        }
    }

    /// Add a top-level field. `raw_json` is emitted verbatim, so pass
    /// already-valid JSON (`"true"`, `"[1, 2]"`, `"\"text\""`).
    pub fn field(mut self, key: &str, raw_json: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), raw_json.into()));
        self
    }

    /// Append one result row (a raw JSON object).
    pub fn row(&mut self, raw_json_object: impl Into<String>) {
        self.rows.push(raw_json_object.into());
    }

    /// Attach the observability metrics snapshot of the run.
    pub fn metrics(mut self, snapshot: &MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot.to_json());
        self
    }

    /// Render the report as a JSON string.
    pub fn render(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"bench\": \"{}\",\n", self.name));
        for (k, v) in &self.fields {
            json.push_str(&format!("  \"{k}\": {v},\n"));
        }
        json.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            json.push_str(&format!("    {row}{sep}\n"));
        }
        json.push_str("  ]");
        if let Some(metrics) = &self.metrics {
            json.push_str(&format!(",\n  \"metrics\": {metrics}"));
        }
        json.push_str("\n}\n");
        json
    }

    /// Write `target/BENCH_<name>.json` (next to the `target/PROFILE_*`
    /// files, out of the source tree) and print its path.
    pub fn write(&self) -> PathBuf {
        std::fs::create_dir_all("target").expect("create target dir");
        let path = PathBuf::from(format!("target/BENCH_{}.json", self.name));
        std::fs::write(&path, self.render()).expect("write BENCH json");
        println!("(wrote {})", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Metrics;

    #[test]
    fn report_renders_fields_rows_and_metrics() {
        let metrics = Metrics::new();
        metrics.incr("ops", &[("db", "a")], 3);
        let mut report = BenchReport::new("unit")
            .field("smoke", "true")
            .metrics(&metrics.snapshot());
        report.row(r#"{"x": 1}"#);
        report.row(r#"{"x": 2}"#);
        let json = report.render();
        assert!(json.contains(r#""bench": "unit""#), "{json}");
        assert!(json.contains(r#""smoke": true"#), "{json}");
        assert!(json.contains(r#"{"x": 1},"#), "{json}");
        assert!(json.contains(r#"{"x": 2}"#), "{json}");
        assert!(json.contains(r#""metrics""#), "{json}");
        assert!(json.contains("ops{db=a}"), "{json}");
    }
}
