//! Golden outputs: the exact simulated outputs of every workload at the
//! default workload seed, stored in `golden.txt` next to this crate.
//!
//! One line per output: `<workload> <label> <value>`, where the value is
//! an exact rendering (nanoseconds, `f64` bit patterns, or an FNV-1a
//! digest of a bit-exact encoding). Lines starting with `#` are comments.

use std::collections::BTreeMap;

/// One simulated output of a cell: a label and its exact value.
pub type Output = (String, String);

/// The golden file shipped with the benchmark.
pub const GOLDEN_TXT: &str = include_str!("../golden.txt");

/// Parsed golden outputs, per workload and label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    entries: BTreeMap<String, BTreeMap<String, String>>,
}

impl Golden {
    /// Parses the golden file format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut golden = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            match (fields.next(), fields.next(), fields.next(), fields.next()) {
                (Some(w), Some(label), Some(value), None) => {
                    golden
                        .entries
                        .entry(w.to_owned())
                        .or_default()
                        .insert(label.to_owned(), value.to_owned());
                }
                _ => return Err(format!("golden line {}: expected 3 fields: {line}", n + 1)),
            }
        }
        Ok(golden)
    }

    /// The golden value of `label` in `workload`.
    pub fn value(&self, workload: &str, label: &str) -> Option<&str> {
        self.entries.get(workload)?.get(label).map(String::as_str)
    }

    /// Every golden label of `workload`.
    pub fn labels(&self, workload: &str) -> Vec<&str> {
        self.entries
            .get(workload)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Mismatches of `outputs` against the golden values: one line per
    /// output whose label is missing from the golden file or whose value
    /// differs.
    pub fn check(&self, workload: &str, outputs: &[Output]) -> Vec<String> {
        outputs
            .iter()
            .filter_map(|(label, value)| match self.value(workload, label) {
                Some(g) if g == value => None,
                Some(g) => Some(format!("{workload} {label}: {value} != golden {g}")),
                None => Some(format!("{workload} {label}: no golden value")),
            })
            .collect()
    }

    /// Renders outputs in the golden file format.
    pub fn render(header: &str, outputs: &[(&str, Vec<Output>)]) -> String {
        let mut text = String::from(header);
        for (workload, outs) in outputs {
            for (label, value) in outs {
                text.push_str(&format!("{workload} {label} {value}\n"));
            }
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_differences_and_unknown_labels() {
        let g = Golden::parse("# c\nw a 1\nw b 2\n").expect("parses");
        let out = |l: &str, v: &str| (l.to_owned(), v.to_owned());
        assert!(g.check("w", &[out("a", "1"), out("b", "2")]).is_empty());
        assert_eq!(g.check("w", &[out("a", "3"), out("c", "1")]).len(), 2);
        assert_eq!(g.labels("w"), vec!["a", "b"]);
        assert!(Golden::parse("w a").is_err());
    }

    #[test]
    fn shipped_golden_file_parses() {
        let g = Golden::parse(GOLDEN_TXT).expect("golden.txt parses");
        for w in crate::workloads::Workload::ALL {
            assert!(
                !g.labels(w.name()).is_empty(),
                "{} has golden outputs",
                w.name()
            );
        }
    }
}
