//! Dataset publication (the paper's "Dataset availability" artifact).
//!
//! The authors published "the lists of PII leakage URLs, first-party
//! senders, and third-party receivers" at github.com/fukuda-lab/PII_leakage.
//! This module produces the same three artifacts from a study run — as CSV
//! (the published format) and as machine-readable JSON.

use crate::study::StudyResults;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One row of the leak-URL list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeakUrlRow {
    pub sender: String,
    pub receiver: String,
    pub method: String,
    pub encoding: String,
    pub pii_type: String,
    pub param: String,
    pub url: String,
}

/// The published dataset triple.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PublishedDataset {
    pub leak_urls: Vec<LeakUrlRow>,
    pub senders: Vec<String>,
    pub receivers: Vec<String>,
}

/// Build the dataset from a study.
pub fn build(r: &StudyResults) -> PublishedDataset {
    let mut rows: BTreeSet<LeakUrlRow> = BTreeSet::new();
    for e in &r.report.events {
        rows.insert(LeakUrlRow {
            sender: e.sender.clone(),
            receiver: r.receiver_label(&e.receiver_domain),
            method: e.method.name().to_string(),
            encoding: e.bucket.clone(),
            pii_type: e.pii.name().to_string(),
            param: e.param.clone(),
            url: e.url.clone(),
        });
    }
    PublishedDataset {
        leak_urls: rows.into_iter().collect(),
        senders: r.report.senders().iter().map(|s| s.to_string()).collect(),
        receivers: r
            .report
            .receivers()
            .iter()
            .map(|d| r.receiver_label(d))
            .collect(),
    }
}

impl Ord for LeakUrlRow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (
            &self.sender,
            &self.receiver,
            &self.method,
            &self.encoding,
            &self.pii_type,
            &self.param,
            &self.url,
        )
            .cmp(&(
                &other.sender,
                &other.receiver,
                &other.method,
                &other.encoding,
                &other.pii_type,
                &other.param,
                &other.url,
            ))
    }
}

impl PartialOrd for LeakUrlRow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Quote a CSV field (RFC 4180).
fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parse one CSV line (RFC 4180 quoting); the writer's test oracle.
#[cfg(test)]
fn csv_parse_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    fields.push(cur);
    fields
}

impl PublishedDataset {
    /// The `pii_leakage_urls.csv` artifact.
    pub fn leak_urls_csv(&self) -> String {
        let mut out = String::from(
            "first_party_sender,third_party_receiver,method,encoding,pii_type,parameter,url\n",
        );
        for row in &self.leak_urls {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                csv_quote(&row.sender),
                csv_quote(&row.receiver),
                csv_quote(&row.method),
                csv_quote(&row.encoding),
                csv_quote(&row.pii_type),
                csv_quote(&row.param),
                csv_quote(&row.url),
            ));
        }
        out
    }

    /// The `first_party_senders.txt` artifact.
    pub fn senders_list(&self) -> String {
        self.senders.join("\n") + "\n"
    }

    /// The `third_party_receivers.txt` artifact.
    pub fn receivers_list(&self) -> String {
        self.receivers.join("\n") + "\n"
    }

    /// Write all artifacts into a directory.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("pii_leakage_urls.csv"), self.leak_urls_csv())?;
        std::fs::write(dir.join("first_party_senders.txt"), self.senders_list())?;
        std::fs::write(dir.join("third_party_receivers.txt"), self.receivers_list())?;
        std::fs::write(
            dir.join("dataset.json"),
            serde_json::to_string_pretty(self)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        )?;
        Ok(())
    }
}

/// Reads the CSV artifact back, so `csv_roundtrip` can hold the writer to
/// it. No program reads the artifact.
#[cfg(test)]
impl PublishedDataset {
    fn from_leak_urls_csv(csv: &str) -> Vec<LeakUrlRow> {
        csv.lines()
            .skip(1)
            .filter(|l| !l.is_empty())
            .map(|line| match <[String; 7]>::try_from(csv_parse_line(line)) {
                Ok([sender, receiver, method, encoding, pii_type, param, url]) => LeakUrlRow {
                    sender,
                    receiver,
                    method,
                    encoding,
                    pii_type,
                    param,
                    url,
                },
                Err(fields) => panic!("row has {} columns, not 7: {line}", fields.len()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::testutil::shared;

    #[test]
    fn dataset_matches_headlines() {
        let ds = build(shared());
        assert_eq!(ds.senders.len(), 130);
        assert_eq!(ds.receivers.len(), 100);
        assert!(
            ds.leak_urls.len() > 300,
            "distinct leak rows: {}",
            ds.leak_urls.len()
        );
        assert!(ds.receivers.contains(&"adobe_cname".to_string()));
    }

    #[test]
    fn csv_roundtrip() {
        let ds = build(shared());
        let csv = ds.leak_urls_csv();
        let back = PublishedDataset::from_leak_urls_csv(&csv);
        assert_eq!(back.len(), ds.leak_urls.len());
        assert_eq!(back, ds.leak_urls);
    }

    #[test]
    fn csv_quoting_is_correct() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(
            csv_parse_line("a,\"b,c\",\"d\"\"e\""),
            vec!["a", "b,c", "d\"e"]
        );
    }

    #[test]
    fn writes_all_artifacts() {
        let dir = std::env::temp_dir().join("pii_dataset_test");
        let _ = std::fs::remove_dir_all(&dir);
        build(shared()).write_to(&dir).unwrap();
        for file in [
            "pii_leakage_urls.csv",
            "first_party_senders.txt",
            "third_party_receivers.txt",
            "dataset.json",
        ] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn facebook_rows_have_the_table2_parameter() {
        let ds = build(shared());
        let fb: Vec<&LeakUrlRow> = ds
            .leak_urls
            .iter()
            .filter(|r| r.receiver == "facebook.com" && r.method == "uri")
            .collect();
        assert!(!fb.is_empty());
        assert!(fb
            .iter()
            .all(|r| r.param == "udff[em]" || r.param == "ud[em]"));
    }
}
