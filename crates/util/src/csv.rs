//! Minimal CSV output for experiment results.
//!
//! The harness emits simple numeric tables; a full CSV dependency is not
//! justified. Fields containing commas, quotes, or newlines are quoted per
//! RFC 4180 so the output stays loadable by standard tools.

use std::fmt::Write as _;
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
    /// vary that widely, format the fields with [`fmt_sig`] and use
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

/// Formats `x` with `sig` significant digits in plain decimal notation,
/// rounding the value itself: `fmt_sig(12_345_678.0, 6)` is `"12345700"`,
/// not the 8-digit raw integer, and `fmt_sig(1.2345678e-5, 6)` is
/// `"0.0000123457"`, not `"0.000012"`. Zero prints as `"0"`; non-finite
/// values fall back to Rust's default float formatting. `sig == 0` is a
/// caller bug rejected by `invariant!` (one digit is used instead when
/// the invariant is compiled out).
pub fn fmt_sig(x: f64, sig: usize) -> String {
    crate::invariant!(sig > 0, "fmt_sig needs at least one significant digit");
    let sig = sig.max(1);
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == 0.0 {
        return "0".to_string();
    }
    // Round to `sig` digits first, then derive how many decimal places the
    // *rounded* value needs — rounding can carry into a new decade
    // (999.9996 at 6 digits becomes 1000.00).
    let exp = x.abs().log10().floor() as i32;
    let scale = 10f64.powi(exp + 1 - sig as i32);
    let rounded = (x / scale).round() * scale;
    if rounded == 0.0 {
        return "0".to_string();
    }
    let exp = rounded.abs().log10().floor() as i32;
    let decimals = (sig as i32 - 1 - exp).max(0) as usize;
    format!("{rounded:.decimals$}")
}

/// Formats a float compactly for human-facing tables (3 significant
/// decimals, dropping the fraction for large magnitudes).
pub fn fmt_compact(x: f64) -> String {
    let mut s = String::new();
    if x.abs() >= 1000.0 {
        let _ = write!(s, "{x:.0}");
    } else if x.abs() >= 10.0 {
        let _ = write!(s, "{x:.1}");
    } else {
        let _ = write!(s, "{x:.3}");
    }
    s
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

    #[test]
    fn sig_digit_formatting_rounds_the_value() {
        assert_eq!(fmt_sig(12_345_678.0, 6), "12345700");
        assert_eq!(fmt_sig(-12_345_678.0, 6), "-12345700");
        assert_eq!(fmt_sig(1.2345678e-5, 6), "0.0000123457");
        assert_eq!(fmt_sig(1.0, 6), "1.00000");
        assert_eq!(fmt_sig(0.5, 6), "0.500000");
        assert_eq!(fmt_sig(0.0, 6), "0");
        assert_eq!(fmt_sig(-0.0, 6), "0");
        assert_eq!(fmt_sig(123.456, 3), "123");
        assert_eq!(fmt_sig(7.0, 1), "7");
    }

    #[test]
    fn sig_digit_rounding_can_carry_into_a_new_decade() {
        assert_eq!(fmt_sig(999.9996, 6), "1000.00");
        assert_eq!(fmt_sig(0.99999995, 6), "1.00000");
        assert_eq!(fmt_sig(9.99, 2), "10");
    }

    #[test]
    fn sig_digit_formatting_is_total() {
        assert_eq!(fmt_sig(f64::NAN, 6), "NaN");
        assert_eq!(fmt_sig(f64::INFINITY, 6), "inf");
        assert_eq!(fmt_sig(f64::NEG_INFINITY, 6), "-inf");
    }

    #[test]
    #[should_panic(expected = "at least one significant digit")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn sig_digit_zero_width_is_rejected() {
        let _ = fmt_sig(1.0, 0);
    }

    #[test]
    fn compact_formatting() {
        assert_eq!(fmt_compact(12345.6), "12346");
        assert_eq!(fmt_compact(12.34), "12.3");
        assert_eq!(fmt_compact(0.1234), "0.123");
    }
}
