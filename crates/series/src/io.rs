//! Plain-text persistence for relations of time series.
//!
//! One series per line, comma-separated values — the natural format for
//! dumping generated workloads and re-loading them in examples or external
//! tools — and the `label, v1, v2, ...` rows every append front end reads
//! ([`parse_rows`]). Parsing is strict: a malformed or non-finite number
//! aborts with its line.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::series::TimeSeries;

/// Errors arising while reading a relation from disk.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A value is not a finite number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `label, v1, v2, ...` row lacks its label or its values.
    Row {
        /// 1-based line number.
        line: usize,
        /// What the row lacks.
        reason: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, token } => {
                write!(f, "line {line}: {token:?} is not a finite number")
            }
            IoError::Row { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes one series per line, values comma-separated.
pub fn save_csv(path: &Path, relation: &[TimeSeries]) -> Result<(), IoError> {
    let mut out = BufWriter::new(File::create(path)?);
    for s in relation {
        let mut first = true;
        for v in s.iter() {
            if !first {
                write!(out, ",")?;
            }
            write!(out, "{v}")?;
            first = false;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a relation written by [`save_csv`]. Empty lines produce empty
/// series.
pub fn load_csv(path: &Path) -> Result<Vec<TimeSeries>, IoError> {
    let reader = BufReader::new(File::open(path)?);
    let mut relation = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            relation.push(TimeSeries::new(Vec::new()));
            continue;
        }
        let values = trimmed
            .split(',')
            .map(|token| finite(token.trim(), lineno + 1))
            .collect::<Result<_, _>>()?;
        relation.push(TimeSeries::new(values));
    }
    Ok(relation)
}

/// The lines of `text` that carry content, trimmed, with their 1-based
/// numbers: blank lines and `#` comments are skipped.
pub fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(at, line)| (at + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
}

/// Parses `label, v1, v2, ...` rows, as [`content_lines`] yields them,
/// into `(label, values)` pairs under [`load_csv`]'s rule: every value a
/// finite number. The one parser behind every append file and body.
///
/// # Errors
/// [`IoError::Parse`] for a value that is not a finite number, and
/// [`IoError::Row`] for a row without a label or without values — each
/// with its line, and before any row is returned.
pub fn parse_rows<'a>(
    lines: impl IntoIterator<Item = (usize, &'a str)>,
) -> Result<Vec<(String, Vec<f64>)>, IoError> {
    let mut rows = Vec::new();
    for (line, text) in lines {
        let mut fields = text.split(',').map(str::trim);
        let label = fields.next().unwrap_or("").to_string();
        if label.is_empty() {
            return Err(IoError::Row {
                line,
                reason: "missing label".to_string(),
            });
        }
        let values: Vec<f64> = fields
            .map(|token| finite(token, line))
            .collect::<Result<_, _>>()?;
        if values.is_empty() {
            return Err(IoError::Row {
                line,
                reason: format!("no values for {label:?}"),
            });
        }
        rows.push((label, values));
    }
    Ok(rows)
}

/// `token` as a finite number. `parse` happily produces NaN ("nan") and
/// ±∞ ("inf", or any overflowing literal like 1e999); those would panic
/// deep in the engine, so they are rejected here as parse errors.
fn finite(token: &str, line: usize) -> Result<f64, IoError> {
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(IoError::Parse {
            line,
            token: token.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tsq-series-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip.csv");
        let rel = vec![
            TimeSeries::from([1.0, 2.5, -3.0]),
            TimeSeries::from([42.0]),
            TimeSeries::new(vec![]),
        ];
        save_csv(&path, &rel).unwrap();
        let back = load_csv(&path).unwrap();
        assert_eq!(rel, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_error_reports_location() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1.0,2.0\n3.0,oops\n").unwrap();
        let err = load_csv(&path).unwrap_err();
        match err {
            IoError::Parse { line, token } => {
                assert_eq!(line, 2);
                assert_eq!(token, "oops");
            }
            other => panic!("unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_values_rejected() {
        let path = tmp("nonfinite.csv");
        for (content, token) in [
            ("1.0,nan,3.0\n", "nan"),
            ("inf\n", "inf"),
            ("2.0,-1e999\n", "-1e999"),
        ] {
            std::fs::write(&path, content).unwrap();
            match load_csv(&path).unwrap_err() {
                IoError::Parse { line, token: t } => {
                    assert_eq!(line, 1);
                    assert_eq!(t, token);
                }
                other => panic!("{content:?}: unexpected error {other}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rows_carry_labels_and_finite_values() {
        let text = "# header\n\ns0, 1, 2.5\n  fresh,7  \n";
        let rows = parse_rows(content_lines(text)).unwrap();
        assert_eq!(
            rows,
            vec![
                ("s0".to_string(), vec![1.0, 2.5]),
                ("fresh".to_string(), vec![7.0])
            ]
        );
        for (text, want) in [
            (
                "s0, 1\n# c\ns1, 1, nan\n",
                "line 3: \"nan\" is not a finite number",
            ),
            ("\ns0, inf\n", "line 2: \"inf\" is not a finite number"),
            ("s0, soup\n", "line 1: \"soup\" is not a finite number"),
            (", 1\n", "line 1: missing label"),
            ("s0, 1\ns1\n", "line 2: no values for \"s1\""),
        ] {
            let err = parse_rows(content_lines(text)).unwrap_err();
            assert_eq!(err.to_string(), want, "{text:?}");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_csv(Path::new("/nonexistent/tsq.csv")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
        assert!(err.to_string().contains("I/O error"));
    }
}
