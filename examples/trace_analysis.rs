//! Trace ingestion and characterization: parse a Common Log Format
//! access log (the format of the paper's four traces), report its
//! Table 2-style statistics, and compare against a synthetic trace
//! calibrated to the same numbers.
//!
//! ```sh
//! cargo run --release --example trace_analysis [path/to/access.log]
//! ```
//!
//! Without an argument, a small embedded sample log is analyzed.

use cluster_server_eval::trace::{clf, TraceSpec, TraceStats};

const SAMPLE_LOG: &str = r#"
alpha.example.com - - [01/Mar/2000:08:00:01 -0500] "GET /index.html HTTP/1.0" 200 4096
beta.example.com - - [01/Mar/2000:08:00:02 -0500] "GET /img/banner.gif HTTP/1.0" 200 24576
alpha.example.com - - [01/Mar/2000:08:00:03 -0500] "GET /index.html HTTP/1.0" 200 4096
gamma.example.com - - [01/Mar/2000:08:00:04 -0500] "GET /docs/paper.ps HTTP/1.0" 200 524288
beta.example.com - - [01/Mar/2000:08:00:05 -0500] "GET /index.html HTTP/1.0" 200 4096
delta.example.com - - [01/Mar/2000:08:00:06 -0500] "GET /img/banner.gif HTTP/1.0" 200 24576
alpha.example.com - - [01/Mar/2000:08:00:07 -0500] "GET /missing.html HTTP/1.0" 404 512
gamma.example.com - - [01/Mar/2000:08:00:08 -0500] "POST /cgi-bin/vote HTTP/1.0" 200 128
delta.example.com - - [01/Mar/2000:08:00:09 -0500] "GET /index.html HTTP/1.0" 200 4096
beta.example.com - - [01/Mar/2000:08:00:10 -0500] "GET /partial.zip HTTP/1.0" 200 -
"#;

fn print_stats(label: &str, stats: &TraceStats) {
    println!("{label}:");
    println!("  files requested : {}", stats.distinct_files);
    println!("  file population : {}", stats.num_files);
    println!("  requests        : {}", stats.num_requests);
    println!("  avg file size   : {:.1} KB", stats.avg_file_kb);
    println!("  avg request size: {:.1} KB", stats.avg_request_kb);
    println!(
        "  working set     : {:.1} MB",
        stats.working_set_kb / 1024.0
    );
    println!("  Zipf alpha (fit): {:.2}", stats.alpha);
}

fn main() {
    let (trace, lines) = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path).expect("readable log file");
            clf::read_log(&path, std::io::BufReader::new(file))
        }
        None => clf::read_log("embedded sample", SAMPLE_LOG.as_bytes()),
    }
    .expect("log reads to its end");
    println!("log lines: {lines}");
    println!(
        "parsed {} complete GET requests from {}\n",
        trace.len(),
        trace.name()
    );
    print_stats("real log", &TraceStats::compute(&trace));

    // Now generate a synthetic Calgary (Table 2 row 1) at reduced scale
    // and show it matches its calibration targets.
    let spec = TraceSpec::calgary().scaled(4_000, 150_000);
    let synthetic = spec.generate(99);
    println!();
    print_stats(
        "synthetic calgary (scaled to 4000 files / 150k requests)",
        &TraceStats::compute(&synthetic),
    );
    println!(
        "\ntargets were: avg file {:.1} KB, avg request {:.1} KB, alpha {:.2}",
        spec.avg_file_kb, spec.avg_request_kb, spec.alpha
    );
}
