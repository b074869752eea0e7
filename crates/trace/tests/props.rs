//! Property-based tests for the trace substrate.

use l2s_trace::{clf, ClfStream, ClfStreamStats, FileId, FileInterner, TraceSpec, TraceStats};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What a [`ClfStream`] must produce for `log`, computed line by line
/// with the public [`clf::parse_line`] and the Section 5.1 keep-filter:
/// every record as `(file, size_kb bits, at_s bits)`, the counters, and
/// the final per-file sizes.
fn reference_stream(log: &[u8]) -> (Vec<(u32, u64, u64)>, ClfStreamStats, Vec<f64>) {
    let mut stats = ClfStreamStats::default();
    let mut ids: BTreeMap<String, u32> = BTreeMap::new();
    let mut sizes_kb: Vec<f64> = Vec::new();
    let mut records = Vec::new();
    let (mut base, mut last_at_s) = (None::<i64>, 0.0f64);
    let mut rest = log;
    while !rest.is_empty() {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            stats.truncated_tail = true;
            break;
        };
        let (line, tail) = rest.split_at(nl + 1);
        rest = tail;
        stats.lines += 1;
        let entry = std::str::from_utf8(line)
            .ok()
            .and_then(clf::parse_line)
            .filter(|e| e.method == "GET" && e.status == 200 && e.bytes.is_some_and(|b| b > 0));
        let Some(entry) = entry else {
            stats.dropped += 1;
            continue;
        };
        stats.kept += 1;
        match (entry.timestamp_s, base) {
            (Some(ts), None) => {
                base = Some(ts);
                last_at_s = 0.0;
            }
            (Some(ts), Some(b)) => {
                let at_s = (ts - b) as f64;
                if at_s < last_at_s {
                    stats.out_of_order += 1;
                } else {
                    last_at_s = at_s;
                }
            }
            (None, _) => stats.missing_timestamp += 1,
        }
        let next = ids.len() as u32;
        let id = *ids.entry(entry.path).or_insert(next);
        let kb = entry.bytes.unwrap_or(0) as f64 / 1024.0;
        if id as usize == sizes_kb.len() {
            sizes_kb.push(kb);
        } else {
            sizes_kb[id as usize] = sizes_kb[id as usize].max(kb);
        }
        records.push((id, sizes_kb[id as usize].to_bits(), last_at_s.to_bits()));
    }
    (records, stats, sizes_kb)
}

/// Drains a [`ClfStream`] over `log` into the shape of
/// [`reference_stream`].
fn run_stream(log: &[u8]) -> (Vec<(u32, u64, u64)>, ClfStreamStats, Vec<f64>) {
    let mut s = ClfStream::new(log);
    let mut records = Vec::new();
    while let Some(r) = s.next_record().expect("in-memory reads cannot fail") {
        records.push((r.file.raw(), r.size_kb.to_bits(), r.at_s.to_bits()));
    }
    (records, s.stats(), s.sizes_kb().to_vec())
}

/// One structured CLF line. The date field repeats, steps forward,
/// steps back, is malformed or is missing, so the date memo sees hits,
/// misses and memoized `None`s; method, status and size vary so the
/// keep-filter drops some lines.
fn structured_line(
    (date, second, path, method, status, bytes): (u8, u8, u8, u8, u8, u32),
) -> String {
    let date = match date {
        0..=3 => "[01/Jan/2000:10:00:00 +0000] ".to_string(),
        4..=6 => format!("[01/Jan/2000:10:00:{:02} +0000] ", second % 60),
        7 => format!("[01/Foo/2000:10:00:{:02} +0000] ", second % 60),
        8 => "[01/Jan/2000:10:00:00 +0000 ".to_string(),
        9 => "[garbage] ".to_string(),
        _ => String::new(),
    };
    let method = ["GET", "GET", "POST", "HEAD"][usize::from(method % 4)];
    let status = [200, 200, 404, 304][usize::from(status % 4)];
    let bytes = match bytes % 8 {
        0 => "-".to_string(),
        1 => "0".to_string(),
        _ => bytes.to_string(),
    };
    format!("h - - {date}\"{method} /f{path} HTTP/1.0\" {status} {bytes}\n")
}

proptest! {
    /// `ClfStream` (borrowed parse, date memo, arena interner) yields
    /// exactly the records and counters of a line-by-line `parse_line`
    /// reference on structured logs.
    #[test]
    fn clf_stream_matches_line_by_line_reference_on_structured_logs(
        lines in prop::collection::vec(
            (0u8..12, 0u8..255, 0u8..40, 0u8..4, 0u8..4, 0u32..100_000),
            0..120,
        ),
        cut in 0usize..40,
    ) {
        let mut log: Vec<u8> = lines.into_iter().flat_map(|l| structured_line(l).into_bytes()).collect();
        // Sometimes end mid-line, like a log still being written.
        if cut < 10 {
            log.truncate(log.len().saturating_sub(cut));
        }
        let (got, want) = (run_stream(&log), reference_stream(&log));
        prop_assert_eq!(&got.0, &want.0);
        prop_assert_eq!(got.1, want.1);
        prop_assert_eq!(
            got.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The same agreement on byte soup: stray quotes and brackets,
    /// digits, blank lines, and invalid UTF-8.
    #[test]
    fn clf_stream_matches_line_by_line_reference_on_byte_soup(
        picks in prop::collection::vec(0usize..64, 0..600),
        splice in prop::collection::vec(
            (0u8..12, 0u8..255, 0u8..40, 0u8..4, 0u8..4, 0u32..100_000),
            0..8,
        ),
    ) {
        const SOUP: &[u8] = b"\n\n\n  \"\"[]/GET 200 -0123456789:+h\xff\xfe\xc3\xa9\xc2\xa0\r\tJan/2000:10:00:00 +0000";
        let mut log: Vec<u8> = picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect();
        // Splice in some well-formed lines so records come out too.
        for (k, l) in splice.into_iter().enumerate() {
            let at = (k * 97) % (log.len() + 1);
            let line = structured_line(l).into_bytes();
            log.splice(at..at, line);
        }
        let (got, want) = (run_stream(&log), reference_stream(&log));
        prop_assert_eq!(&got.0, &want.0);
        prop_assert_eq!(got.1, want.1);
        prop_assert_eq!(
            got.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The arena interner hands out the same dense first-seen ids as an
    /// ordered map, through several table growths.
    #[test]
    fn interner_matches_ordered_map_reference(
        picks in prop::collection::vec((0u32..300, "\\PC{0,6}", prop::bool::ANY), 0..400),
    ) {
        let mut interner = FileInterner::new();
        let mut reference: BTreeMap<String, u32> = BTreeMap::new();
        for (n, text, numbered) in picks {
            let path = if numbered { format!("/p{n}") } else { text };
            let next = reference.len() as u32;
            let want = *reference.entry(path.clone()).or_insert(next);
            prop_assert_eq!(interner.intern(&path), FileId::from_raw(want));
            prop_assert_eq!(interner.get(&path), Some(FileId::from_raw(want)));
        }
        prop_assert_eq!(interner.len(), reference.len());
        prop_assert_eq!(interner.get("never interned \u{0}"), None);
        let mut by_id: Vec<(u32, String)> = reference.into_iter().map(|(p, id)| (id, p)).collect();
        by_id.sort();
        prop_assert_eq!(interner.into_paths(), by_id.into_iter().map(|(_, p)| p).collect::<Vec<_>>());
    }

    /// The CLF parser never panics on arbitrary input and only ever
    /// produces complete GET requests.
    #[test]
    fn clf_parser_total(input in "\\PC{0,300}") {
        let _ = clf::parse_line(&input);
        let (trace, stats) = clf::read_log("fuzz", format!("{input}\n").as_bytes()).unwrap();
        prop_assert!(trace.len() <= input.lines().count());
        prop_assert_eq!(stats.kept + stats.dropped, stats.lines);
    }

    /// Structured random CLF logs parse into consistent traces.
    #[test]
    fn clf_structured_round_trip(
        entries in prop::collection::vec(
            (0u32..20, 1u64..1_000_000, prop::bool::ANY, prop::bool::ANY),
            0..50,
        )
    ) {
        let mut log = String::new();
        let mut expected = 0usize;
        for (path_id, bytes, ok_status, is_get) in &entries {
            let status = if *ok_status { 200 } else { 404 };
            let method = if *is_get { "GET" } else { "POST" };
            log.push_str(&format!(
                "host{path_id} - - [01/Jan/2000:00:00:00 +0000] \"{method} /f{path_id} HTTP/1.0\" {status} {bytes}\n"
            ));
            if *ok_status && *is_get {
                expected += 1;
            }
        }
        let (trace, _) = clf::read_log("structured", log.as_bytes()).unwrap();
        prop_assert_eq!(trace.len(), expected);
        // Every recorded size is the max over that path's entries.
        for (id, kb) in trace.files().iter() {
            prop_assert!(kb > 0.0);
            let _ = id;
        }
    }

    /// Generated traces always satisfy their structural contract.
    #[test]
    fn generator_structural_contract(
        files in 10usize..2_000,
        requests in 10usize..5_000,
        alpha in 0.1f64..1.3,
        avg_file in 2.0f64..100.0,
        ratio in 0.4f64..1.1,
        seed in any::<u64>(),
    ) {
        let spec = TraceSpec {
            name: "prop".into(),
            num_files: files,
            avg_file_kb: avg_file,
            num_requests: requests,
            avg_request_kb: avg_file * ratio,
            alpha,
            temporal: 0.3,
        };
        let trace = spec.generate(seed);
        prop_assert_eq!(trace.files().len(), files);
        prop_assert_eq!(trace.len(), requests);
        for (_, kb) in trace.files().iter() {
            prop_assert!(kb > 0.0 && kb.is_finite());
        }
        // The calibrated mean file size lands near the target.
        let mean = trace.files().avg_file_kb();
        prop_assert!(
            (mean / avg_file - 1.0).abs() < 0.05,
            "mean {mean} vs target {avg_file}"
        );
        // Stats never panic and are internally consistent.
        let stats = TraceStats::compute(&trace);
        prop_assert!(stats.distinct_files <= files);
        prop_assert!(stats.working_set_kb <= trace.files().total_kb() + 1e-6);
    }
}
