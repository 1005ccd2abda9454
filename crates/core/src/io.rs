//! Plain-text basket formats.
//!
//! Two interchange formats are supported so real datasets can be loaded
//! without bespoke tooling:
//!
//! * **FIMI** (the frequent-itemset-mining repository convention): one
//!   transaction per line, whitespace-separated integer items; the
//!   transaction id is the 1-based line number.
//! * **Pairs** (the paper's `SALES` relation as text): one
//!   `trans_id item` row per line — the literal dump of
//!   `SALES(trans_id, item)`.
//!
//! Blank lines and `#` comments are ignored in both formats.

use crate::data::Dataset;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn meaningful_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// Parse FIMI text: each line is a transaction of integer items.
pub fn parse_fimi(text: &str) -> Result<Dataset, ParseError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut tid: u32 = 0;
    for (line_no, line) in meaningful_lines(text) {
        tid += 1;
        for token in line.split_whitespace() {
            let item: u32 = token.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("invalid item {token:?}"),
            })?;
            pairs.push((tid, item));
        }
    }
    Ok(Dataset::from_pairs(pairs))
}

/// Serialize to FIMI text (one sorted transaction per line).
pub fn to_fimi(dataset: &Dataset) -> String {
    let mut out = String::new();
    for (_, items) in dataset.transactions() {
        let line: Vec<String> = items.iter().map(u32::to_string).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

/// The on-disk basket formats this module can parse, by name — the
/// registry hook used by `setm-serve` (and any other loader) to read a
/// dataset file without bespoke dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// One transaction per line, whitespace-separated items.
    Fimi,
    /// One `trans_id item` row per line.
    Pairs,
}

impl FileFormat {
    /// The format's stable name (`"fimi"` / `"pairs"`).
    pub fn name(&self) -> &'static str {
        match self {
            FileFormat::Fimi => "fimi",
            FileFormat::Pairs => "pairs",
        }
    }
}

impl std::str::FromStr for FileFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fimi" => Ok(FileFormat::Fimi),
            "pairs" => Ok(FileFormat::Pairs),
            other => Err(format!("unknown basket format {other:?}; expected fimi or pairs")),
        }
    }
}

/// Parse `text` in the given format.
pub fn parse_as(format: FileFormat, text: &str) -> Result<Dataset, ParseError> {
    match format {
        FileFormat::Fimi => parse_fimi(text),
        FileFormat::Pairs => parse_pairs(text),
    }
}

/// A [`load_path`] failure: the file was unreadable or unparsable.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file's text did not parse in the requested format.
    Parse(ParseError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "could not read dataset file: {e}"),
            LoadError::Parse(e) => write!(f, "could not parse dataset file: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse(e) => Some(e),
        }
    }
}

/// Read and parse a basket file from disk in the given format.
pub fn load_path(
    path: impl AsRef<std::path::Path>,
    format: FileFormat,
) -> Result<Dataset, LoadError> {
    let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
    parse_as(format, &text).map_err(LoadError::Parse)
}

/// Parse `trans_id item` pair lines — the textual `SALES` relation.
pub fn parse_pairs(text: &str) -> Result<Dataset, ParseError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (line_no, line) in meaningful_lines(text) {
        let mut fields = line.split_whitespace();
        let (Some(t), Some(i), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(ParseError {
                line: line_no,
                message: "expected exactly two fields: trans_id item".to_string(),
            });
        };
        let tid: u32 = t.parse().map_err(|_| ParseError {
            line: line_no,
            message: format!("invalid trans_id {t:?}"),
        })?;
        let item: u32 = i
            .parse()
            .map_err(|_| ParseError { line: line_no, message: format!("invalid item {i:?}") })?;
        pairs.push((tid, item));
    }
    Ok(Dataset::from_pairs(pairs))
}

/// Serialize to `trans_id item` pair lines in `(tid, item)` order.
pub fn to_pairs(dataset: &Dataset) -> String {
    let mut out = String::new();
    for (tid, item) in dataset.iter_rows() {
        out.push_str(&format!("{tid} {item}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fimi_round_trip() {
        let text = "1 2 3\n4 5\n# a comment\n\n6\n";
        let d = parse_fimi(text).unwrap();
        assert_eq!(d.n_transactions(), 3);
        assert_eq!(d.n_rows(), 6);
        assert_eq!(d.support_of(&[4, 5]), 1);
        // Round trip re-parses to the same dataset (tids are positional).
        let d2 = parse_fimi(&to_fimi(&d)).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn pairs_round_trip() {
        let d = crate::example::paper_example_dataset();
        let text = to_pairs(&d);
        assert!(text.starts_with("10 1\n10 2\n10 3\n"));
        let d2 = parse_pairs(&text).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn fimi_duplicate_items_within_line_collapse() {
        let d = parse_fimi("7 7 7\n").unwrap();
        assert_eq!(d.n_rows(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_fimi("1 2\n3 x\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("\"x\""));
        let err = parse_pairs("1 2\n1 2 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_pairs("1\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn empty_and_comment_only_inputs() {
        assert_eq!(parse_fimi("").unwrap().n_transactions(), 0);
        assert_eq!(parse_fimi("# nothing\n\n").unwrap().n_transactions(), 0);
        assert_eq!(parse_pairs("# nothing\n").unwrap().n_rows(), 0);
    }

    #[test]
    fn file_formats_parse_by_name_and_load_from_disk() {
        assert_eq!("fimi".parse::<FileFormat>().unwrap(), FileFormat::Fimi);
        assert_eq!("pairs".parse::<FileFormat>().unwrap(), FileFormat::Pairs);
        assert!("csv".parse::<FileFormat>().is_err());
        for format in [FileFormat::Fimi, FileFormat::Pairs] {
            assert_eq!(format.name().parse::<FileFormat>().unwrap(), format);
        }

        let d = crate::example::paper_example_dataset();
        let dir = std::env::temp_dir().join(format!("setm-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sales.pairs");
        std::fs::write(&path, to_pairs(&d)).unwrap();
        let loaded = load_path(&path, FileFormat::Pairs).unwrap();
        assert_eq!(loaded, d);
        assert!(matches!(
            load_path(dir.join("missing.pairs"), FileFormat::Pairs),
            Err(LoadError::Io(_))
        ));
        std::fs::write(&path, "not numbers\n").unwrap();
        assert!(matches!(load_path(&path, FileFormat::Fimi), Err(LoadError::Parse(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mined_results_match_across_formats() {
        use crate::data::{MinSupport, MiningParams};
        let d = crate::example::paper_example_dataset();
        let via_fimi = parse_fimi(&to_fimi(&d)).unwrap();
        let params = MiningParams::new(MinSupport::Fraction(0.3), 0.7);
        // tids differ (positional), but supports are tid-agnostic.
        let a = crate::setm::memory::execute(&d, &params, &Default::default());
        let b = crate::setm::memory::execute(&via_fimi, &params, &Default::default());
        assert_eq!(a.frequent_itemsets(), b.frequent_itemsets());
    }
}
