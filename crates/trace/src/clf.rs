//! Common Log Format parsing.
//!
//! The paper's traces are standard httpd access logs. Following Section
//! 5.1, incomplete transfers are dropped: only successful `GET` requests
//! with a known, positive size are kept.
//!
//! One reader, [`ClfStream`], applies that filter: it pulls the kept
//! requests one line at a time from any [`BufRead`] with memory bounded
//! by the number of *distinct* files, not the log length, and carries
//! each request's arrival time parsed from the CLF timestamp
//! (`[dd/Mon/yyyy:hh:mm:ss ±zzzz]`). Live replay tails a log through it;
//! [`read_log`] drains it into a [`Trace`], which the rest of the
//! workspace treats identically to a synthetic one.

use crate::{FileId, FileSet, Trace};
use l2s_util::cast;
use std::fmt;
use std::io::{self, BufRead};

/// Interns URL paths as dense [`FileId`]s in first-seen order.
///
/// The interner is the single point where external file identities (log
/// paths) become the dense `u32` indices the rest of the workspace is
/// built on: ids are handed out consecutively from 0, so downstream
/// per-file state can be a flat `Vec` indexed by [`FileId::index`].
///
/// Interning runs once per kept line of a live replay, so it is on that
/// path's hot loop. Every path lives in one arena string; an
/// open-addressing slot table (FNV-1a, linear probing, at most half
/// full) maps a path to its id. Ids depend only on first-seen order,
/// never on hash values, so the table's layout cannot leak into
/// results — and the determinism lint's ban on hash containers in this
/// crate holds. A log crafted so that many paths collide degrades
/// lookups toward a linear scan; it cannot change an id.
#[derive(Clone, Debug, Default)]
pub struct FileInterner {
    arena: String,
    /// `ends[i]` is the arena offset one past path `i`.
    ends: Vec<usize>,
    /// `0` marks an empty slot; otherwise the slot holds `id + 1`.
    slots: Vec<u32>,
}

impl FileInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `path`'s id, assigning the next dense index on first sight.
    pub fn intern(&mut self, path: &str) -> FileId {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(path);
        if self.slots[slot] != 0 {
            return FileId::from_raw(self.slots[slot] - 1);
        }
        let id = cast::index_u32(self.ends.len());
        self.arena.push_str(path);
        self.ends.push(self.arena.len());
        self.slots[slot] = id + 1;
        FileId::from_raw(id)
    }

    /// The id previously assigned to `path`, if any.
    pub fn get(&self, path: &str) -> Option<FileId> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(path)] {
            0 => None,
            raw => Some(FileId::from_raw(raw - 1)),
        }
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The interned paths in dense-id order (index `i` is the path of
    /// `FileId(i)`).
    pub fn into_paths(self) -> Vec<String> {
        (0..self.len()).map(|i| self.path(i).to_string()).collect()
    }

    /// Resident bytes of the arena and both tables.
    fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<usize>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// The path of dense id `i`.
    fn path(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }

    /// The slot holding `path`, or the empty slot where it belongs. The
    /// table is never full, so the probe always stops.
    fn probe(&self, path: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(path, mask);
        loop {
            match self.slots[slot] {
                0 => return slot,
                raw if self.path(cast::wide_usize(raw - 1)) == path => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the slot table (minimum 16 slots) and re-files every id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![0; len];
        for i in 0..self.ends.len() {
            let mut slot = home_slot(self.path(i), len - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = cast::index_u32(i) + 1;
        }
    }
}

/// The first slot probed for `path` in a table of `mask + 1` slots: its
/// 64-bit FNV-1a hash, masked.
fn home_slot(path: &str, mask: usize) -> usize {
    let h = path.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    cast::index_usize(h & cast::len_u64(mask))
}

/// One parsed access-log line.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Requested URL path.
    pub path: String,
    /// HTTP method (`GET`, `POST`, ...).
    pub method: String,
    /// Response status code.
    pub status: u16,
    /// Response size in bytes, when reported.
    pub bytes: Option<u64>,
    /// Request time as seconds since the Unix epoch, when the line
    /// carries a parseable `[dd/Mon/yyyy:hh:mm:ss ±zzzz]` field.
    pub timestamp_s: Option<i64>,
}

/// The fields of one access-log line, borrowed from it. The date field
/// is kept as its raw bracket body so callers decide whether (and how
/// often) to parse it.
#[derive(Clone, Copy)]
struct LogFields<'a> {
    path: &'a str,
    method: &'a str,
    status: u16,
    bytes: Option<u64>,
    date: Option<&'a str>,
}

impl LogFields<'_> {
    /// The Section 5.1 keep-filter of [`ClfStream`]: successful `GET`s
    /// with a reported, positive size.
    /// Returns the transfer size in bytes for kept entries.
    fn kept_bytes(&self) -> Option<u64> {
        if self.method != "GET" || self.status != 200 {
            return None;
        }
        self.bytes.filter(|&b| b > 0)
    }
}

/// Parses one Common Log Format line:
///
/// ```text
/// host ident authuser [date] "METHOD /path PROTO" status bytes
/// ```
///
/// Returns `None` for lines that do not match the format.
///
/// The request field is located structurally, not as the first quoted
/// span: real logs put arbitrary client-supplied text in the ident and
/// authuser fields, so a stray `"` there used to shift the request field
/// and yield a garbage entry. The opening quote is anchored on a known
/// HTTP method and the closing quote on the numeric status that must
/// follow it, which also keeps Combined Log Format (trailing quoted
/// referrer/user-agent fields) parsing correctly.
pub fn parse_line(line: &str) -> Option<LogEntry> {
    let f = parse_fields(line)?;
    Some(LogEntry {
        path: f.path.to_string(),
        method: f.method.to_string(),
        status: f.status,
        bytes: f.bytes,
        timestamp_s: f.date.and_then(parse_clf_timestamp),
    })
}

/// The one CLF line parser behind [`parse_line`] and [`ClfStream`]: the
/// same fields, borrowed from `line`.
fn parse_fields(line: &str) -> Option<LogFields<'_>> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let (quote_start, quote_end) = request_span(line)?;
    let request = &line[quote_start + 1..quote_end];
    let mut req_parts = request.split_whitespace();
    let method = req_parts.next()?;
    let path = req_parts.next()?;

    let tail = line[quote_end + 1..].trim();
    let mut tail_parts = tail.split_whitespace();
    let status: u16 = tail_parts.next()?.parse().ok()?;
    let bytes = match tail_parts.next() {
        Some("-") | None => None,
        Some(b) => b.parse::<u64>().ok(),
    };
    // The date field is the bracketed span nearest the request quote
    // (ident/authuser are client-supplied and may contain stray '[').
    let date = line[..quote_start].rfind('[').and_then(|i| {
        let rest = &line[i + 1..quote_start];
        rest.find(']').map(|end| &rest[..end])
    });
    Some(LogFields {
        path,
        method,
        status,
        bytes,
        date,
    })
}

/// Days from 1970-01-01 to `year`-`month`-`day` in the proleptic
/// Gregorian calendar (Howard Hinnant's `days_from_civil`), keeping the
/// crate dependency-free.
fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from(if month > 2 { month - 3 } else { month + 9 });
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Month number (1-12) for a CLF three-letter month name.
fn month_number(name: &str) -> Option<u32> {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    MONTHS
        .iter()
        .position(|&m| m == name)
        .map(|i| cast::index_u32(i + 1))
}

/// Seconds east of UTC for a `±HHMM` zone field.
fn parse_zone(zone: &str) -> Option<i64> {
    let (sign, digits) = match zone.as_bytes().first()? {
        b'+' => (1, &zone[1..]),
        b'-' => (-1, &zone[1..]),
        _ => return None,
    };
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let hh: i64 = digits[..2].parse().ok()?;
    let mm: i64 = digits[2..].parse().ok()?;
    if hh > 23 || mm > 59 {
        return None;
    }
    Some(sign * (hh * 3600 + mm * 60))
}

/// Parses a CLF date field body (`dd/Mon/yyyy:hh:mm:ss ±zzzz`, without
/// the brackets) into seconds since the Unix epoch. Returns `None` for
/// anything that does not match.
///
/// The year must be the four digits CLF specifies and the time fields
/// non-negative, so every result lies within years 0000–9999 and the
/// arithmetic cannot overflow, whatever the log holds.
fn parse_clf_timestamp(s: &str) -> Option<i64> {
    let (date_time, zone) = s.trim().split_once(' ')?;
    let mut dmy = date_time.splitn(3, '/');
    let day: u32 = dmy.next()?.parse().ok()?;
    let month = month_number(dmy.next()?)?;
    let mut hms = dmy.next()?.split(':');
    let year = hms.next()?;
    if year.len() != 4 || !year.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let year: i64 = year.parse().ok()?;
    let hh: u32 = hms.next()?.parse().ok()?;
    let mm: u32 = hms.next()?.parse().ok()?;
    let ss: u32 = hms.next()?.parse().ok()?;
    if hms.next().is_some() || !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    let offset = parse_zone(zone)?;
    let seconds = i64::from(hh * 3600 + mm * 60 + ss);
    Some(days_from_civil(year, month, day) * 86_400 + seconds - offset)
}

/// HTTP methods recognized when anchoring the request field's opening
/// quote (RFC 9110's method registry plus `PATCH`).
const METHODS: [&str; 9] = [
    "GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE", "PATCH",
];

/// Finds the byte offsets of the quotes delimiting the request field:
/// the first `"` immediately followed by a known method and a space, and
/// the first subsequent `"` whose next non-space character is a digit
/// (the status code). Returns `None` when no such pair exists.
fn request_span(line: &str) -> Option<(usize, usize)> {
    let mut from = 0;
    let open = loop {
        let i = from + line[from..].find('"')?;
        let rest = &line[i + 1..];
        if METHODS
            .iter()
            .any(|m| rest.strip_prefix(m).is_some_and(|r| r.starts_with(' ')))
        {
            break i;
        }
        from = i + 1;
    };
    let mut from = open + 1;
    loop {
        let i = from + line[from..].find('"')?;
        let after = line[i + 1..].trim_start();
        if after.starts_with(|c: char| c.is_ascii_digit()) {
            break Some((open, i));
        }
        from = i + 1;
    }
}

/// Reads a whole Common Log Format log into a [`Trace`] named `name`,
/// plus its line counters: a [`ClfStream`] drained to its end, so it
/// keeps exactly the lines live replay keeps, and the log text is never
/// held whole.
pub fn read_log<R: BufRead>(name: &str, reader: R) -> io::Result<(Trace, ClfStreamStats)> {
    let mut stream = ClfStream::new(reader);
    let mut requests: Vec<FileId> = Vec::new();
    while let Some(rec) = stream.next_record()? {
        requests.push(rec.file);
    }
    let trace = Trace::new(name, FileSet::new(stream.sizes_kb), requests);
    Ok((trace, stream.stats))
}

/// Ingestion counters for a [`ClfStream`]. They display as the one
/// summary line both command-line tools print for a log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClfStreamStats {
    /// Complete lines read, whether or not they were kept.
    pub lines: u64,
    /// Lines that passed parsing and the Section 5.1 keep-filter.
    pub kept: u64,
    /// Lines dropped: unparseable, non-`GET`, non-200, or sizeless.
    pub dropped: u64,
    /// Kept lines whose timestamp ran backwards and was clamped to the
    /// previous arrival time (log writers interleave buffered workers).
    pub out_of_order: u64,
    /// Kept lines with no parseable date field (arrival time reuses the
    /// previous entry's).
    pub missing_timestamp: u64,
    /// Whether the input ended mid-line (a final line with no `\n`,
    /// typically a log still being written); the fragment is dropped.
    pub truncated_tail: bool,
}

impl fmt::Display for ClfStreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} read, {} kept, {} dropped",
            self.lines, self.kept, self.dropped
        )?;
        if self.out_of_order > 0 {
            write!(f, ", {} out-of-order timestamps clamped", self.out_of_order)?;
        }
        if self.truncated_tail {
            f.write_str(", truncated final line discarded")?;
        }
        Ok(())
    }
}

/// One kept request pulled from a [`ClfStream`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClfRecord {
    /// Dense interned file id (index into [`ClfStream::sizes_kb`]).
    pub file: FileId,
    /// Largest size reported for this file so far, in KB.
    pub size_kb: f64,
    /// Arrival time in seconds since the stream's first kept entry,
    /// clamped monotone non-decreasing.
    pub at_s: f64,
}

/// A streaming CLF reader: pulls one kept request at a time from any
/// [`BufRead`] source (a log file, stdin, a pipe being tailed).
///
/// Memory is bounded by the number of *distinct* files plus one line
/// buffer — independent of log length — so arbitrarily large logs can
/// be replayed without loading them ([`ClfStream::state_bytes`] exposes
/// the resident footprint for tests to pin). Timestamps are parsed from
/// the CLF date field, rebased to the first kept entry, and clamped
/// monotone; a truncated final line (log mid-write) is dropped and
/// flagged rather than half-parsed, and so is a line that is not valid
/// UTF-8.
///
/// The per-line path allocates nothing: lines are read as bytes into one
/// reused buffer, parsed into fields borrowed from it, the date field is
/// parsed only when it differs from the previous kept line's, and the
/// path is interned into an arena.
#[derive(Debug)]
pub struct ClfStream<R> {
    reader: R,
    interner: FileInterner,
    sizes_kb: Vec<f64>,
    line: Vec<u8>,
    date: DateMemo,
    base_ts_s: Option<i64>,
    last_at_s: f64,
    stats: ClfStreamStats,
}

/// The last date field parsed and its result. Consecutive log lines
/// mostly share one date field (it has one-second resolution), and
/// [`parse_clf_timestamp`] is pure, so reusing the result is exact —
/// `None` results included. The empty initial body is consistent too:
/// it parses to `None`.
#[derive(Debug, Default)]
struct DateMemo {
    body: String,
    timestamp_s: Option<i64>,
}

impl DateMemo {
    fn timestamp_s(&mut self, body: &str) -> Option<i64> {
        if self.body != body {
            self.body.clear();
            self.body.push_str(body);
            self.timestamp_s = parse_clf_timestamp(body);
        }
        self.timestamp_s
    }
}

impl<R: BufRead> ClfStream<R> {
    /// A stream over `reader`, consuming it line by line on demand.
    pub fn new(reader: R) -> Self {
        ClfStream {
            reader,
            interner: FileInterner::new(),
            sizes_kb: Vec::new(),
            line: Vec::new(),
            date: DateMemo::default(),
            base_ts_s: None,
            last_at_s: 0.0,
            stats: ClfStreamStats::default(),
        }
    }

    /// Pulls the next kept request, or `Ok(None)` at end of input.
    /// Dropped lines are consumed silently (counted in
    /// [`ClfStream::stats`]); I/O errors surface as `Err`.
    pub fn next_record(&mut self) -> io::Result<Option<ClfRecord>> {
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Ok(None);
            }
            if self.line.last() != Some(&b'\n') {
                // Final line with no terminator: the writer is mid-line
                // (or the file was cut). Parsing the fragment would
                // fabricate a request from half a record.
                self.stats.truncated_tail = true;
                return Ok(None);
            }
            self.stats.lines += 1;
            let kept = std::str::from_utf8(&self.line)
                .ok()
                .and_then(parse_fields)
                .and_then(|f| Some((f, f.kept_bytes()?)));
            let Some((fields, bytes)) = kept else {
                self.stats.dropped += 1;
                continue;
            };
            let timestamp_s = fields.date.and_then(|d| self.date.timestamp_s(d));
            // A file keeps the largest size ever reported: logs record
            // partial transfers as smaller byte counts.
            let kb = cast::exact_f64(bytes) / 1024.0;
            let file = self.interner.intern(fields.path);
            match self.sizes_kb.get_mut(file.index()) {
                Some(size) => *size = size.max(kb),
                None => self.sizes_kb.push(kb),
            }
            self.note_arrival(timestamp_s);
            self.stats.kept += 1;
            return Ok(Some(ClfRecord {
                file,
                size_kb: self.sizes_kb[file.index()],
                at_s: self.last_at_s,
            }));
        }
    }

    /// Folds `timestamp_s` into the monotone arrival clock.
    fn note_arrival(&mut self, timestamp_s: Option<i64>) {
        match (timestamp_s, self.base_ts_s) {
            (Some(ts), None) => {
                self.base_ts_s = Some(ts);
                self.last_at_s = 0.0;
            }
            (Some(ts), Some(base)) => {
                // Exact: timestamps span at most years 0000-9999, far
                // inside the 2^53 s an f64 holds exactly.
                let at_s = cast::exact_f64(ts.abs_diff(base));
                let at_s = if ts < base { -at_s } else { at_s };
                if at_s < self.last_at_s {
                    self.stats.out_of_order += 1;
                } else {
                    self.last_at_s = at_s;
                }
            }
            (None, _) => self.stats.missing_timestamp += 1,
        }
    }

    /// Largest size seen per file in KB, indexed by dense file id.
    pub fn sizes_kb(&self) -> &[f64] {
        &self.sizes_kb
    }

    /// Number of distinct files seen so far.
    pub fn distinct_files(&self) -> usize {
        self.sizes_kb.len()
    }

    /// Ingestion counters so far.
    pub fn stats(&self) -> ClfStreamStats {
        self.stats
    }

    /// Approximate resident state in bytes: the line and date buffers
    /// plus the per-distinct-file tables. Deliberately excludes the
    /// reader so tests can assert the *stream's* footprint stays
    /// O(distinct files) on logs far larger than it.
    pub fn state_bytes(&self) -> usize {
        self.line.capacity()
            + self.date.body.capacity()
            + self.sizes_kb.capacity() * std::mem::size_of::<f64>()
            + self.interner.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
host1 - - [01/Mar/2000:00:00:01 -0500] "GET /index.html HTTP/1.0" 200 2048
host2 - - [01/Mar/2000:00:00:02 -0500] "GET /img/logo.gif HTTP/1.0" 200 10240
host1 - - [01/Mar/2000:00:00:03 -0500] "GET /index.html HTTP/1.0" 200 2048
host3 - - [01/Mar/2000:00:00:04 -0500] "GET /missing.html HTTP/1.0" 404 512
host4 - - [01/Mar/2000:00:00:05 -0500] "POST /cgi-bin/form HTTP/1.0" 200 128
host5 - - [01/Mar/2000:00:00:06 -0500] "GET /truncated.bin HTTP/1.0" 200 -
host6 - - [01/Mar/2000:00:00:07 -0500] "GET /index.html HTTP/1.0" 304 0
"#;

    #[test]
    fn parses_well_formed_line() {
        let e = parse_line(
            r#"foo.com - - [01/Jan/2000:10:00:00 +0000] "GET /a/b.html HTTP/1.0" 200 1234"#,
        )
        .unwrap();
        assert_eq!(e.method, "GET");
        assert_eq!(e.path, "/a/b.html");
        assert_eq!(e.status, 200);
        assert_eq!(e.bytes, Some(1234));
    }

    #[test]
    fn parses_missing_bytes_as_none() {
        let e = parse_line(r#"h - - [d] "GET /x HTTP/1.0" 200 -"#).unwrap();
        assert_eq!(e.bytes, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("not a log line"), None);
        assert_eq!(parse_line(r#"h - - [d] "GET" 200 5"#), None);
        assert_eq!(
            parse_line(r#"h - - [d] "GET /x HTTP/1.0" notanumber 5"#),
            None
        );
    }

    #[test]
    fn stray_quote_in_ident_does_not_shift_the_request_field() {
        // Regression: the parser used to take the *first* quoted span as
        // the request, so client-supplied ident/authuser text containing
        // a '"' produced a garbage entry (method `evil`, path `user`).
        let e = parse_line(
            r#"h "evil user [01/Jan/2000:10:00:00 +0000] "GET /x.html HTTP/1.0" 200 77"#,
        )
        .unwrap();
        assert_eq!(e.method, "GET");
        assert_eq!(e.path, "/x.html");
        assert_eq!(e.status, 200);
        assert_eq!(e.bytes, Some(77));
    }

    #[test]
    fn quoted_non_request_text_alone_is_rejected() {
        // A quoted span that is not `METHOD <sp>...` must not be treated
        // as the request field.
        assert_eq!(parse_line(r#"h "quoted junk" - [d] 200 5"#), None);
        assert_eq!(
            parse_line(r#"h - - [d] "NOTAMETHOD /x HTTP/1.0" 200 5"#),
            None
        );
        // Method followed by the closing quote instead of a space.
        assert_eq!(parse_line(r#"h - - [d] "GET" 200 5"#), None);
    }

    #[test]
    fn combined_log_format_trailing_quotes_parse() {
        // Combined Log Format appends quoted referrer and user-agent
        // fields; anchoring the closing quote on the status keeps them
        // out of the request span.
        let e = parse_line(
            r#"h - - [d] "GET /a.html HTTP/1.0" 200 321 "http://ref.example/" "Mozilla/4.08 [en] (Win98)""#,
        )
        .unwrap();
        assert_eq!(e.method, "GET");
        assert_eq!(e.path, "/a.html");
        assert_eq!(e.bytes, Some(321));
    }

    #[test]
    fn quote_inside_the_path_recovers() {
        // The closing quote is the one followed by the numeric status, so
        // an embedded quote stays part of the path.
        let e = parse_line(r#"h - - [d] "GET /a"b.html HTTP/1.0" 200 5"#).unwrap();
        assert_eq!(e.path, "/a\"b.html");
    }

    #[test]
    fn builds_trace_keeping_only_complete_gets() {
        let (t, _) = read_log("sample", SAMPLE.as_bytes()).unwrap();
        // index.html twice + logo.gif once; 404/POST/dash/304 dropped.
        assert_eq!(t.len(), 3);
        assert_eq!(t.files().len(), 2);
        assert!((t.files().size_kb(0) - 2.0).abs() < 1e-9);
        assert!((t.files().size_kb(1) - 10.0).abs() < 1e-9);
        assert_eq!(t.requests(), &[0, 1, 0]);
    }

    #[test]
    fn partial_transfers_keep_the_largest_size() {
        let log = r#"
h - - [d] "GET /big.iso HTTP/1.0" 200 1024
h - - [d] "GET /big.iso HTTP/1.0" 200 1048576
h - - [d] "GET /big.iso HTTP/1.0" 200 2048
"#;
        let (t, _) = read_log("partials", log.as_bytes()).unwrap();
        assert_eq!(t.files().len(), 1);
        assert!((t.files().size_kb(0) - 1024.0).abs() < 1e-9);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn interner_hands_out_dense_first_seen_ids() {
        let mut i = FileInterner::new();
        assert!(i.is_empty());
        let a = i.intern("/a.html");
        let b = i.intern("/b.html");
        assert_eq!(i.intern("/a.html"), a, "re-interning is stable");
        assert_eq!((a, b), (FileId::from_raw(0), FileId::from_raw(1)));
        assert_eq!(i.get("/b.html"), Some(b));
        assert_eq!(i.get("/missing"), None);
        assert_eq!(i.len(), 2);
        assert_eq!(i.into_paths(), vec!["/a.html", "/b.html"]);
    }

    #[test]
    fn empty_log_is_empty_trace() {
        let (t, stats) = read_log("empty", &b""[..]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.files().len(), 0);
        assert_eq!(stats.to_string(), "0 read, 0 kept, 0 dropped");
    }

    #[test]
    fn timestamp_parses_with_zone_offset() {
        // 01/Jan/2000:10:00:00 UTC = 946 720 800.
        let e =
            parse_line(r#"h - - [01/Jan/2000:10:00:00 +0000] "GET /x HTTP/1.0" 200 5"#).unwrap();
        assert_eq!(e.timestamp_s, Some(946_720_800));
        // Same instant expressed five hours behind UTC.
        let e =
            parse_line(r#"h - - [01/Jan/2000:05:00:00 -0500] "GET /x HTTP/1.0" 200 5"#).unwrap();
        assert_eq!(e.timestamp_s, Some(946_720_800));
        // An unparseable date field degrades to None, not a reject.
        let e = parse_line(r#"h - - [d] "GET /x HTTP/1.0" 200 5"#).unwrap();
        assert_eq!(e.timestamp_s, None);
    }

    #[test]
    fn unrepresentable_dates_parse_to_none() {
        // Regression: the year was parsed as any i64 and multiplied
        // unchecked, so this line panicked with "attempt to multiply with
        // overflow" in debug builds and wrapped to -7755433628903219936
        // in release.
        for date in [
            "01/Jan/99999999999999999:10:00:00 +0000",
            "01/Jan/10000:10:00:00 +0000",
            "01/Jan/-999:10:00:00 +0000",
            "01/Jan/+200:10:00:00 +0000",
            "01/Jan/2000:-9999999999999999:00:00 +0000",
            "01/Jan/2000:10:-9999999999999999:00 +0000",
            "01/Jan/2000:10:00:-9999999999999999 +0000",
        ] {
            let line = format!("h - - [{date}] \"GET /x HTTP/1.0\" 200 5");
            let e = parse_line(&line).expect("the request itself is well formed");
            assert_eq!(e.timestamp_s, None, "{date}");
        }
        // The widest four-digit years still parse.
        let e = parse_line(r#"h - - [31/Dec/9999:23:59:59 +0000] "GET /x HTTP/1.0" 200 5"#);
        assert_eq!(e.unwrap().timestamp_s, Some(253_402_300_799));
        let e = parse_line(r#"h - - [01/Jan/0000:00:00:00 +0000] "GET /x HTTP/1.0" 200 5"#);
        assert_eq!(e.unwrap().timestamp_s, Some(-62_167_219_200));
    }

    #[test]
    fn stream_counts_an_overflowing_year_as_missing_timestamp() {
        let log = "h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/99999999999999999:10:00:00 +0000] \"GET /b HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:10:00:03 +0000] \"GET /c HTTP/1.0\" 200 5\n";
        let mut s = ClfStream::new(log.as_bytes());
        let mut at = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            at.push(r.at_s);
        }
        assert_eq!(at, vec![0.0, 0.0, 3.0]);
        assert_eq!(s.stats().missing_timestamp, 1);
        assert_eq!(s.stats().out_of_order, 0);
    }

    #[test]
    fn arrivals_more_than_68_years_apart_do_not_wrap() {
        // Regression: the offset from the first kept line was narrowed to
        // i32, so a gap past 2^31 s panicked in debug builds and wrapped
        // negative in release, where the century jump below was clamped
        // as out of order (at_s = [0, 0, 5]).
        let log = "h - - [01/Jan/2000:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2100:00:00:00 +0000] \"GET /b HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:00:00:05 +0000] \"GET /c HTTP/1.0\" 200 5\n";
        let mut s = ClfStream::new(log.as_bytes());
        let mut at = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            at.push(r.at_s);
        }
        assert_eq!(at, vec![0.0, 3_155_760_000.0, 3_155_760_000.0]);
        assert_eq!(s.stats().out_of_order, 1);
    }

    #[test]
    fn days_from_civil_matches_known_epochs() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
        // 2000 is a leap year (divisible by 400).
        assert_eq!(days_from_civil(2000, 2, 29), 11_016);
    }

    #[test]
    fn stream_yields_kept_requests_with_rebased_times() {
        let mut s = ClfStream::new(SAMPLE.as_bytes());
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push((r.file.index(), r.at_s));
        }
        // Kept: index, logo, index.
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (0, 2.0)]);
        let st = s.stats();
        assert_eq!(st.kept, 3);
        assert_eq!(st.dropped, 5); // blank first line + 404/POST/dash/304
        assert_eq!(st.out_of_order, 0);
        assert!(!st.truncated_tail);
        assert_eq!(s.distinct_files(), 2);
        assert!((s.sizes_kb()[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stream_drops_truncated_final_line() {
        let log = "h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:10:00:01 +0000] \"GET /b HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:10:00:02 +0000] \"GET /c HTT";
        let mut s = ClfStream::new(log.as_bytes());
        assert!(s.next_record().unwrap().is_some());
        assert!(s.next_record().unwrap().is_some());
        assert_eq!(s.next_record().unwrap(), None, "fragment must not parse");
        assert!(s.stats().truncated_tail);
        assert_eq!(s.stats().kept, 2);
        // A trailing newline on the same content is NOT a truncation.
        let whole = format!("{log}P/1.0\" 200 5\n");
        let mut s = ClfStream::new(whole.as_bytes());
        let mut n = 0;
        while s.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(!s.stats().truncated_tail);
    }

    #[test]
    fn stream_clamps_out_of_order_timestamps() {
        let log = "h - - [01/Jan/2000:10:00:05 +0000] \"GET /a HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:10:00:02 +0000] \"GET /b HTTP/1.0\" 200 5\n\
                   h - - [01/Jan/2000:10:00:09 +0000] \"GET /c HTTP/1.0\" 200 5\n";
        let mut s = ClfStream::new(log.as_bytes());
        let mut at = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            at.push(r.at_s);
        }
        // The backwards step clamps to the previous arrival; later
        // entries resume from the true clock.
        assert_eq!(at, vec![0.0, 0.0, 4.0]);
        assert_eq!(s.stats().out_of_order, 1);
    }

    #[test]
    fn stream_accounts_for_megabyte_lines() {
        const MIB: usize = 1 << 20;
        let line = |second: u32, rest: &str| {
            format!("h - - [01/Jan/2000:10:00:{second:02} +0000] {rest}\n")
        };
        let long_path = format!("/{}", "p".repeat(MIB));
        let lines = [
            line(0, "\"GET /a HTTP/1.0\" 200 5"),
            line(1, &format!("\"GET {long_path} HTTP/1.0\" 200 5")),
            line(2, &format!("{} 200 5", "\"".repeat(MIB))),
            line(3, &format!("\"GET /s HTTP/1.0\"{}200 5", " ".repeat(MIB))),
            line(4, "\"GET /a HTTP/1.0\" 200 5"),
        ];
        let log = lines.concat();
        let mut s = ClfStream::new(log.as_bytes());
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push((r.file.index(), r.at_s));
        }
        // The quote run hides the request field; every other line parses,
        // and the normal line after them is still file 0 at 4 s.
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 3.0), (0, 4.0)]);
        let st = s.stats();
        assert_eq!((st.lines, st.kept, st.dropped), (5, 4, 1));
        assert!(!st.truncated_tail);
        for (i, l) in lines.iter().enumerate() {
            let kept = parse_line(l).is_some_and(|e| e.bytes == Some(5));
            assert_eq!(kept, i != 2, "line {i} disagrees with parse_line");
        }
        assert_eq!(parse_line(&lines[1]).unwrap().path, long_path);
    }

    #[test]
    fn stream_state_is_bounded_by_distinct_files_not_log_length() {
        // A synthetic reader serving millions of requests over a small
        // file population, without the log ever existing in memory.
        struct Synth {
            next: u64,
            total: u64,
            buf: Vec<u8>,
        }
        impl io::Read for Synth {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.buf.is_empty() {
                    if self.next == self.total {
                        return Ok(0);
                    }
                    let f = self.next % 64;
                    let line = format!(
                        "h - - [01/Jan/2000:10:00:00 +0000] \"GET /f{f}.html HTTP/1.0\" 200 2048\n"
                    );
                    self.buf = line.into_bytes();
                    self.next += 1;
                }
                let n = out.len().min(self.buf.len());
                out[..n].copy_from_slice(&self.buf[..n]);
                self.buf.drain(..n);
                Ok(n)
            }
        }
        let total = 2_000_000u64;
        let reader = io::BufReader::new(Synth {
            next: 0,
            total,
            buf: Vec::new(),
        });
        let mut s = ClfStream::new(reader);
        let mut kept = 0u64;
        while s.next_record().unwrap().is_some() {
            kept += 1;
        }
        assert_eq!(kept, total);
        assert_eq!(s.distinct_files(), 64);
        // ~2M log lines (~150 MB of text) must leave only O(64 files)
        // of resident stream state.
        assert!(
            s.state_bytes() < 16 * 1024,
            "stream state grew with log length: {} bytes",
            s.state_bytes()
        );
    }
}
