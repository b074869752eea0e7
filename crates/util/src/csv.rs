//! Minimal CSV output for experiment results.
//!
//! The harness emits simple numeric tables; a full CSV dependency is not
//! justified. Fields containing commas, quotes, or newlines are quoted per
//! RFC 4180 so the output stays loadable by standard tools.

use std::fs;
use std::io;
use std::path::Path;

/// An in-memory CSV table flushed to disk with [`CsvTable::write_to`].
#[derive(Clone, Debug)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. A width differing from the header always indicates
    /// a harness bug and is rejected by `invariant!`.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, fields: I) {
        let row: Vec<String> = fields.into_iter().map(Into::into).collect();
        crate::invariant!(
            row.len() == self.header.len(),
            "CSV row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Appends a row of floats formatted with 6 decimal *places*
    /// (`{x:.6}`), the byte-stable format every golden result file is
    /// pinned to. Values ≥ 1e7 therefore carry more than 6 significant
    /// digits and values below 5e-7 print `0.000000`; when magnitudes
    /// vary that widely, format the fields to suit and use
    /// [`CsvTable::row`] instead.
    pub fn row_f64<I: IntoIterator<Item = f64>>(&mut self, fields: I) {
        self.row(fields.into_iter().map(|x| format!("{x:.6}")));
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a CSV string.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, &self.header);
        for row in &self.rows {
            write_record(&mut out, row);
        }
        out
    }

    /// Writes the table to `path`, creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv_string())
    }
}

fn write_record(out: &mut String, fields: &[String]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["1", "2"]);
        t.row_f64([0.5, 1.25]);
        let s = t.to_csv_string();
        assert_eq!(s, "a,b\n1,2\n0.500000,1.250000\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn quotes_special_fields() {
        let mut t = CsvTable::new(["x"]);
        t.row(["has,comma"]);
        t.row(["has\"quote"]);
        let s = t.to_csv_string();
        assert!(s.contains("\"has,comma\""));
        assert!(s.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "CSV row width")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn width_mismatch_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("l2s-csv-test");
        let path = dir.join("t.csv");
        let mut t = CsvTable::new(["v"]);
        t.row(["7"]);
        t.write_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "v\n7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_f64_is_fixed_decimal_places_not_significant_digits() {
        // Regression: the doc used to claim "6 significant digits" while
        // the code emitted 6 decimal places. The *format* is load-bearing
        // (golden CSVs are byte-pinned to it), so the doc was fixed and
        // this test pins the behavior for both extremes.
        let mut t = CsvTable::new(["big", "tiny"]);
        t.row_f64([12_345_678.0, 1e-8]);
        assert_eq!(t.to_csv_string(), "big,tiny\n12345678.000000,0.000000\n");
    }
}
