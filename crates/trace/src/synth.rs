//! Synthetic trace generation calibrated to the paper's Table 2.

use crate::{FileSet, Trace};
use l2s_util::{cast, DetRng};
use l2s_zipf::{ZipfLaw, ZipfSampler};

/// Shape (`σ` of the underlying normal) of the lognormal file-size
/// distribution. WWW file sizes are heavy tailed; 1.4 is a typical fit
/// for late-90s server logs.
const SIZE_SIGMA: f64 = 1.4;

/// Size of the recent-request window re-references draw from.
const TEMPORAL_WINDOW: usize = 1_000;

/// A recipe for a synthetic WWW trace, pinned to the statistics the
/// paper reports per trace in Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpec {
    /// Trace name.
    pub name: String,
    /// Number of files in the population.
    pub num_files: usize,
    /// Target mean file size in KB.
    pub avg_file_kb: f64,
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Target request-frequency-weighted mean size in KB. Popular WWW
    /// files are smaller than average, so this is usually below
    /// `avg_file_kb`.
    pub avg_request_kb: f64,
    /// Zipf exponent of the popularity law.
    pub alpha: f64,
    /// Temporal-locality strength: probability that a request re-references
    /// a file from the recent 1 000 requests instead of drawing fresh from
    /// the popularity law. Real WWW logs exhibit strong recency beyond
    /// their stationary popularity skew; without this component a
    /// sequential 32 MB LRU sees 40-70 % misses on the Table 2 workloads,
    /// far above the 9-28 % band the paper reports. 0 disables.
    pub temporal: f64,
}

impl TraceSpec {
    /// University of Calgary trace (Table 2, row 1).
    pub fn calgary() -> Self {
        TraceSpec {
            name: "calgary".into(),
            num_files: 8_397,
            avg_file_kb: 42.9,
            num_requests: 567_895,
            avg_request_kb: 19.7,
            alpha: 1.08,
            temporal: 0.5,
        }
    }

    /// Clarknet (commercial ISP) trace (Table 2, row 2).
    pub fn clarknet() -> Self {
        TraceSpec {
            name: "clarknet".into(),
            num_files: 35_885,
            avg_file_kb: 11.6,
            num_requests: 3_053_525,
            avg_request_kb: 11.9,
            alpha: 0.78,
            temporal: 0.6,
        }
    }

    /// NASA Kennedy Space Center trace (Table 2, row 3).
    pub fn nasa() -> Self {
        TraceSpec {
            name: "nasa".into(),
            num_files: 5_500,
            avg_file_kb: 53.7,
            num_requests: 3_147_719,
            avg_request_kb: 47.0,
            alpha: 0.91,
            temporal: 0.5,
        }
    }

    /// Rutgers CS departmental server trace (Table 2, row 4).
    pub fn rutgers() -> Self {
        TraceSpec {
            name: "rutgers".into(),
            num_files: 24_098,
            avg_file_kb: 30.5,
            num_requests: 535_021,
            avg_request_kb: 26.2,
            alpha: 0.79,
            temporal: 0.6,
        }
    }

    /// All four Table 2 presets, in the paper's order.
    pub fn paper_presets() -> Vec<TraceSpec> {
        vec![
            Self::calgary(),
            Self::clarknet(),
            Self::nasa(),
            Self::rutgers(),
        ]
    }

    /// A smaller spec with the same size/popularity structure, for tests
    /// and examples. A zero count is rejected by `invariant!`.
    pub fn scaled(&self, num_files: usize, num_requests: usize) -> TraceSpec {
        l2s_util::invariant!(
            num_files > 0 && num_requests > 0,
            "scaled trace needs at least one file and one request"
        );
        TraceSpec {
            num_files,
            num_requests,
            ..self.clone()
        }
    }

    /// Generates the trace deterministically from `seed`, materializing
    /// every request. Delegates to [`TraceSpec::stream`], so the request
    /// sequence is byte-identical to what the streaming path yields —
    /// pinned by the `streaming` test module.
    pub fn generate(&self, seed: u64) -> Trace {
        let (files, stream) = self.stream(seed);
        let requests: Vec<u32> = stream.collect();
        Trace::new(self.name.clone(), files, requests)
    }

    /// Builds the file population and a *streaming* request generator —
    /// the memory-flat path: request count no longer bounds resident
    /// memory, so billion-request runs hold only the file table and the
    /// recency window.
    ///
    /// Steps:
    /// 1. draw `num_files` lognormal sizes and rescale them so the sample
    ///    mean is exactly `avg_file_kb`;
    /// 2. assign sizes to popularity ranks with a *noisy ascending sort*
    ///    whose noise is bisected so the Zipf-weighted mean size matches
    ///    `avg_request_kb` (clamped to the attainable range);
    /// 3. return a [`RequestStream`] sampling `num_requests` ranks from a
    ///    Zipf(`alpha`) law, with recency re-references.
    ///
    /// File ids are a random permutation of ranks so that id order
    /// carries no popularity information.
    pub fn stream(&self, seed: u64) -> (FileSet, RequestStream) {
        let mut rng = DetRng::new(seed ^ 0x5eed_7ace);
        let mut size_rng = rng.fork();
        let mut assign_rng = rng.fork();
        let req_rng = rng.fork();
        let mut perm_rng = rng.fork();

        // 1. Sizes, rescaled to the exact target mean, clamped to a
        // sensible range (100 bytes .. 16 MB).
        let sigma = SIZE_SIGMA;
        let mu = self.avg_file_kb.ln() - sigma * sigma / 2.0;
        let mut sizes: Vec<f64> = (0..self.num_files)
            .map(|_| size_rng.lognormal(mu, sigma).clamp(0.1, 16_384.0))
            .collect();
        let mean: f64 = sizes.iter().sum::<f64>() / cast::len_f64(sizes.len());
        let scale = self.avg_file_kb / mean;
        for s in &mut sizes {
            *s = (*s * scale).clamp(0.05, 32_768.0);
        }

        // 2. Rank -> size assignment via calibrated noisy sort.
        let law = ZipfLaw::new(cast::len_f64(self.num_files), self.alpha);
        let probs = law.probabilities(self.num_files);
        let rank_sizes = assign_sizes(&mut assign_rng, &sizes, &probs, self.avg_request_kb);

        // 3. Relabel ranks with shuffled ids; requests are drawn lazily.
        let sampler = ZipfSampler::new(self.num_files, self.alpha);
        let mut rank_to_id: Vec<u32> = (0..cast::index_u32(self.num_files)).collect();
        perm_rng.shuffle(&mut rank_to_id);
        let mut sizes_by_id = vec![0.0; self.num_files];
        for (rank, &id) in rank_to_id.iter().enumerate() {
            sizes_by_id[cast::wide_usize(id)] = rank_sizes[rank];
        }
        let stream = RequestStream {
            sampler,
            rank_to_id,
            temporal: self.temporal,
            recent: Vec::with_capacity(TEMPORAL_WINDOW),
            cursor: 0,
            rng: req_rng.clone(),
            rng0: req_rng,
            remaining: self.num_requests,
            total: self.num_requests,
        };
        (FileSet::new(sizes_by_id), stream)
    }
}

/// Lazily yields the request sequence of a [`TraceSpec`] — the same ids,
/// in the same order, as [`TraceSpec::generate`] materializes, but in
/// O(window) memory. With probability `temporal` a request re-references
/// a file from the recent-request window (uniformly), modeling the
/// recency bursts of real access logs on top of the stationary Zipf law.
#[derive(Clone, Debug)]
pub struct RequestStream {
    sampler: ZipfSampler,
    rank_to_id: Vec<u32>,
    temporal: f64,
    recent: Vec<u32>,
    cursor: usize,
    rng: DetRng,
    /// Pristine copy of the request RNG, so `rewind` replays the exact
    /// sequence (the engine's warm-up pass needs two identical laps).
    rng0: DetRng,
    remaining: usize,
    total: usize,
}

impl RequestStream {
    /// Total number of requests the stream yields per lap.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Requests not yet yielded in the current lap.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Restarts the sequence from the first request.
    pub fn rewind(&mut self) {
        self.rng = self.rng0.clone();
        self.recent.clear();
        self.cursor = 0;
        self.remaining = self.total;
    }

    /// The popularity-rank → file-id relabeling this stream draws
    /// through (index = 0-based rank).
    pub fn rank_to_id(&self) -> &[u32] {
        &self.rank_to_id
    }

    /// Stationary per-*id* request probabilities of the underlying
    /// Zipf draw, dense by file id — the exact frequencies the sampler
    /// uses, routed through the rank relabeling. The temporal
    /// re-reference layer redraws from recent requests and so preserves
    /// these aggregates; analytic models that assume independent draws
    /// should validate against `temporal = 0` specs.
    pub fn probabilities_by_id(&self) -> Vec<f64> {
        let ranked = self.sampler.probabilities();
        let mut by_id = vec![0.0; ranked.len()];
        for (rank, &id) in self.rank_to_id.iter().enumerate() {
            by_id[cast::wide_usize(id)] = ranked[rank];
        }
        by_id
    }
}

impl Iterator for RequestStream {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let file =
            if self.temporal > 0.0 && !self.recent.is_empty() && self.rng.chance(self.temporal) {
                self.recent[self.rng.index(self.recent.len())]
            } else {
                self.rank_to_id[cast::index_usize(self.sampler.sample(&mut self.rng) - 1)]
            };
        if self.recent.len() < TEMPORAL_WINDOW {
            self.recent.push(file);
        } else {
            self.recent[self.cursor] = file;
            self.cursor = (self.cursor + 1) % TEMPORAL_WINDOW;
        }
        Some(file)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RequestStream {}

/// Assigns `sizes` to popularity ranks so the probability-weighted mean
/// approximates `target_kb`.
///
/// A rank's size is chosen by sorting keys `i + noise·N(0,1)·n`: zero
/// noise yields perfect (ascending) popularity–size correlation — the
/// smallest attainable weighted mean — while infinite noise yields a
/// random assignment whose weighted mean is the population mean. The
/// noise level is found by bisection. Targets above the population mean
/// use a descending base sort instead.
fn assign_sizes(rng: &mut DetRng, sizes: &[f64], probs: &[f64], target_kb: f64) -> Vec<f64> {
    let n = sizes.len();
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let population_mean: f64 = sizes.iter().sum::<f64>() / cast::len_f64(n);
    let ascending = target_kb <= population_mean;
    if !ascending {
        sorted.reverse();
    }

    // Fixed per-rank noise draws so the bisection is over a deterministic
    // family of permutations.
    let noise: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
    let weighted = |assignment: &[f64]| -> f64 {
        assignment
            .iter()
            .zip(probs)
            .map(|(s, p)| s * p)
            .sum::<f64>()
    };
    let build = |eta: f64| -> Vec<f64> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            let ka = cast::len_f64(a) + eta * cast::len_f64(n) * noise[a];
            let kb = cast::len_f64(b) + eta * cast::len_f64(n) * noise[b];
            ka.total_cmp(&kb)
        });
        // order[rank] = which sorted-size slot rank gets.
        order.iter().map(|&slot| sorted[slot]).collect()
    };

    // Attainable range: eta = 0 is the extreme correlation; huge eta is
    // random (mean). Clamp the target accordingly.
    let extreme = weighted(&build(0.0));
    let target = if ascending {
        target_kb.clamp(extreme.min(population_mean), population_mean.max(extreme))
    } else {
        target_kb.clamp(population_mean.min(extreme), extreme.max(population_mean))
    };

    let (mut lo, mut hi) = (0.0_f64, 64.0_f64);
    let mut best = build(0.0);
    let mut best_err = (weighted(&best) - target).abs();
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let candidate = build(mid);
        let w = weighted(&candidate);
        let err = (w - target).abs();
        if err < best_err {
            best = candidate;
            best_err = err;
        }
        // More noise always moves the weighted mean towards the
        // population mean, i.e. away from the eta = 0 extreme.
        let toward_mean_of = |x: f64| (x - population_mean).abs();
        if toward_mean_of(w) > toward_mean_of(target) {
            lo = mid; // still too extreme -> need more noise
        } else {
            hi = mid; // too washed out -> need less noise
        }
        if best_err / target.max(1e-9) < 0.005 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn presets_match_table_2() {
        let presets = TraceSpec::paper_presets();
        assert_eq!(presets.len(), 4);
        let calgary = &presets[0];
        assert_eq!(calgary.num_files, 8_397);
        assert_eq!(calgary.num_requests, 567_895);
        assert!((calgary.avg_file_kb - 42.9).abs() < 1e-12);
        assert!((calgary.alpha - 1.08).abs() < 1e-12);
        let clarknet = &presets[1];
        assert_eq!(clarknet.num_files, 35_885);
        assert!((clarknet.avg_request_kb - 11.9).abs() < 1e-12);
    }

    #[test]
    fn generated_trace_has_requested_shape() {
        let spec = TraceSpec::calgary().scaled(1_500, 60_000);
        let t = spec.generate(11);
        assert_eq!(t.files().len(), 1_500);
        assert_eq!(t.len(), 60_000);
    }

    #[test]
    fn mean_file_size_is_calibrated() {
        for spec in TraceSpec::paper_presets() {
            let small = spec.scaled(2_000, 50_000);
            let t = small.generate(7);
            let mean = t.files().avg_file_kb();
            assert!(
                (mean / spec.avg_file_kb - 1.0).abs() < 0.02,
                "{}: mean {mean} vs target {}",
                spec.name,
                spec.avg_file_kb
            );
        }
    }

    #[test]
    fn mean_request_size_is_calibrated() {
        for spec in TraceSpec::paper_presets() {
            let small = spec.scaled(2_000, 200_000);
            let t = small.generate(13);
            let mean = t.avg_request_kb();
            assert!(
                (mean / spec.avg_request_kb - 1.0).abs() < 0.15,
                "{}: request mean {mean} vs target {}",
                spec.name,
                spec.avg_request_kb
            );
        }
    }

    #[test]
    fn popularity_follows_zipf() {
        let spec = TraceSpec::clarknet().scaled(1_000, 300_000);
        let t = spec.generate(17);
        let est = crate::stats::estimate_alpha(&t);
        assert!(
            (est - spec.alpha).abs() < 0.15,
            "estimated alpha {est} vs {}",
            spec.alpha
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = TraceSpec::nasa().scaled(500, 5_000);
        let a = spec.generate(3);
        let b = spec.generate(3);
        assert_eq!(a, b);
        let c = spec.generate(4);
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn file_ids_carry_no_popularity_order() {
        // The most popular file should not systematically be id 0.
        let spec = TraceSpec::calgary().scaled(300, 30_000);
        let hot_ids: Vec<u32> = (0..5)
            .map(|seed| {
                let t = spec.generate(seed);
                let counts = t.request_counts();
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i as u32)
                    .unwrap()
            })
            .collect();
        assert!(
            hot_ids.iter().any(|&id| id != hot_ids[0]),
            "hottest file always the same id: {hot_ids:?}"
        );
    }

    #[test]
    fn stats_pipeline_reports_presets() {
        let spec = TraceSpec::rutgers().scaled(1_000, 100_000);
        let t = spec.generate(23);
        let s = TraceStats::compute(&t);
        assert_eq!(s.num_files, 1_000);
        assert_eq!(s.num_requests, 100_000);
        assert!(s.working_set_kb > 0.0);
        assert!(s.distinct_files <= 1_000);
    }

    /// FNV-1a over a request-id sequence: a compact fingerprint of the
    /// exact bytes a stream yields.
    fn checksum(ids: impl Iterator<Item = u32>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in ids {
            h ^= u64::from(id);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn streaming_is_byte_identical_to_materialized_for_scaled_specs() {
        for spec in TraceSpec::paper_presets() {
            let small = spec.scaled(800, 20_000);
            let materialized = small.generate(42);
            let (files, stream) = small.stream(42);
            assert_eq!(
                files,
                *materialized.files(),
                "{}: file sets differ",
                spec.name
            );
            assert_eq!(stream.len(), materialized.len());
            let streamed: Vec<u32> = stream.collect();
            let reference: Vec<u32> = materialized.requests().iter().map(|f| f.raw()).collect();
            assert_eq!(streamed, reference, "{}: request bytes differ", spec.name);
        }
    }

    #[test]
    fn stream_rewind_replays_the_identical_sequence() {
        let spec = TraceSpec::nasa().scaled(400, 8_000);
        let (_files, mut stream) = spec.stream(9);
        let first: Vec<u32> = stream.by_ref().collect();
        assert_eq!(stream.remaining(), 0);
        stream.rewind();
        assert_eq!(stream.remaining(), stream.total());
        let second: Vec<u32> = stream.by_ref().collect();
        assert_eq!(first, second, "rewind must replay byte-identically");
        // Rewinding mid-lap restarts from the top too.
        stream.rewind();
        let head: Vec<u32> = stream.by_ref().take(100).collect();
        assert_eq!(head, first[..100]);
    }

    /// Full Table 2 pin: the streaming generator's exact output for all
    /// four presets at their *full* request counts, as FNV-1a checksums
    /// (computed once from the materialized path, which `generate`
    /// shares). Comparing fingerprints instead of materialized vectors
    /// keeps this fast and memory-flat; any drift in the RNG fork order,
    /// the Zipf sampler, or the recency window flips the checksum.
    #[test]
    fn full_table2_stream_checksums_are_pinned() {
        let pinned = [
            ("calgary", 0xf47f_9cec_4198_4cf1_u64),
            ("clarknet", 0xd69a_3fdd_1a61_bd00),
            ("nasa", 0x9781_2239_45e7_a403),
            ("rutgers", 0x796d_28d8_0590_05be),
        ];
        for (spec, (name, expect)) in TraceSpec::paper_presets().iter().zip(pinned) {
            assert_eq!(spec.name, name);
            let (_files, stream) = spec.stream(42);
            assert_eq!(
                checksum(stream),
                expect,
                "{name}: full-spec request sequence drifted"
            );
        }
    }

    #[test]
    fn probabilities_by_id_match_empirical_frequencies() {
        // temporal = 0 so the stream is a pure independent Zipf draw.
        let mut spec = TraceSpec::clarknet().scaled(50, 300_000);
        spec.temporal = 0.0;
        let (_files, stream) = spec.stream(17);
        let by_id = stream.probabilities_by_id();
        assert_eq!(by_id.len(), 50);
        assert!((by_id.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The hottest rank's id carries the largest probability.
        let hottest = stream.rank_to_id()[0];
        let max = by_id
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .unwrap();
        assert_eq!(hottest, max);
        let mut counts = vec![0u64; 50];
        let total = stream.total();
        for id in stream {
            counts[cast::wide_usize(id)] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            let got = cast::exact_f64(c) / cast::len_f64(total);
            let want = by_id[id];
            assert!(
                (got - want).abs() < 0.005,
                "id {id}: empirical {got} vs table {want}"
            );
        }
    }

    #[test]
    fn clarknet_request_mean_can_exceed_file_mean() {
        // Clarknet's Table 2 row has avg request (11.9) > avg file (11.6):
        // the noisy sort must support (mild) descending correlation too.
        let spec = TraceSpec::clarknet().scaled(3_000, 200_000);
        let t = spec.generate(29);
        assert!(
            t.avg_request_kb() > t.files().avg_file_kb() * 0.95,
            "req mean {} should be near/above file mean {}",
            t.avg_request_kb(),
            t.files().avg_file_kb()
        );
    }
}
