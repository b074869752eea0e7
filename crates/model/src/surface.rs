//! Parameter-space sweeps that regenerate the paper's model figures.

use crate::{ModelParams, QueueModel, ServerKind};
use l2s_util::cast;

/// A throughput (or ratio) surface over the paper's two axes: the
/// locality-oblivious hit rate and the average requested-file size.
#[derive(Clone, Debug)]
pub struct Surface {
    /// Hit-rate axis values (the paper sweeps 0 → 1).
    pub hit_rates: Vec<f64>,
    /// Average-file-size axis values in KB (the paper sweeps 0 → 128).
    pub sizes_kb: Vec<f64>,
    /// `values[i][j]` is the metric at `hit_rates[i]`, `sizes_kb[j]`;
    /// `None` marks a sweep point whose parameters the model rejected,
    /// so consumers must render the gap explicitly (the CSV layer
    /// writes `none`) instead of inheriting a silent NaN.
    pub values: Vec<Vec<Option<f64>>>,
}

impl Surface {
    /// The largest value on the surface, with its axis coordinates
    /// `(value, hit_rate, size_kb)`. Invalid (`None`) cells are
    /// skipped; an all-invalid surface reports `f64::NEG_INFINITY`.
    pub fn peak(&self) -> (f64, f64, f64) {
        let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
        for (i, row) in self.values.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if let Some(v) = v {
                    if v > best.0 {
                        best = (v, self.hit_rates[i], self.sizes_kb[j]);
                    }
                }
            }
        }
        best
    }

    /// Per-row maxima — the paper's "side view" (Figure 6) collapses the
    /// size axis this way. Invalid cells are skipped; an all-invalid
    /// row reports `f64::NEG_INFINITY`.
    pub fn row_max(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|row| {
                row.iter()
                    .copied()
                    .flatten()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// The surface with invalid cells as NaN — the lossy view the ASCII
    /// heat map needs (NaN cells render as the lowest ramp glyph).
    pub fn values_or_nan(&self) -> Vec<Vec<f64>> {
        self.values
            .iter()
            .map(|row| row.iter().map(|v| v.unwrap_or(f64::NAN)).collect())
            .collect()
    }
}

/// Default axes used by the Figure 3–5 experiments: hit rate
/// 0.02..=1.00 and file size 4..=128 KB (the paper's surfaces are
/// meshed at roughly 8 KB granularity along the size axis; starting
/// below ~4 KB grows the peak ratio past what Figure 5 shows).
pub fn default_axes(hit_steps: usize, size_steps: usize) -> (Vec<f64>, Vec<f64>) {
    l2s_util::invariant!(
        hit_steps >= 2 && size_steps >= 2,
        "surface axes need at least two steps each"
    );
    let hit_rates = (0..hit_steps)
        .map(|i| 0.02 + 0.98 * cast::len_f64(i) / cast::len_f64(hit_steps - 1))
        .collect();
    let sizes_kb = (0..size_steps)
        .map(|j| 4.0 + 124.0 * cast::len_f64(j) / cast::len_f64(size_steps - 1))
        .collect();
    (hit_rates, sizes_kb)
}

/// Figure 3 / Figure 4: throughput surface of a server kind over the
/// (hit rate, file size) grid.
pub fn throughput_surface(
    base: &ModelParams,
    kind: ServerKind,
    hit_rates: &[f64],
    sizes_kb: &[f64],
) -> Surface {
    let values = hit_rates
        .iter()
        .map(|&h| {
            sizes_kb
                .iter()
                .map(|&s| {
                    let mut p = *base;
                    p.avg_file_kb = s;
                    // Invalid sweep points surface as explicit None cells
                    // rather than aborting the whole surface.
                    QueueModel::new(p).ok().map(|m| m.max_throughput(kind, h))
                })
                .collect()
        })
        .collect();
    Surface {
        hit_rates: hit_rates.to_vec(),
        sizes_kb: sizes_kb.to_vec(),
        values,
    }
}

/// Figure 5 (and 6): element-wise ratio of the conscious surface to the
/// oblivious surface.
pub fn throughput_increase_surface(
    base: &ModelParams,
    hit_rates: &[f64],
    sizes_kb: &[f64],
) -> Surface {
    let lc = throughput_surface(base, ServerKind::LocalityConscious, hit_rates, sizes_kb);
    let lo = throughput_surface(base, ServerKind::LocalityOblivious, hit_rates, sizes_kb);
    let values = lc
        .values
        .iter()
        .zip(&lo.values)
        .map(|(a, b)| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.zip(*y).map(|(x, y)| x / y))
                .collect()
        })
        .collect();
    Surface {
        hit_rates: hit_rates.to_vec(),
        sizes_kb: sizes_kb.to_vec(),
        values,
    }
}

/// Section 3.2's memory study: peak locality gain for each per-node
/// memory size, returned as `(cache_kb, peak_gain)` pairs.
pub fn memory_sweep(
    base: &ModelParams,
    cache_kbs: &[f64],
    hit_rates: &[f64],
    sizes_kb: &[f64],
) -> Vec<(f64, f64)> {
    cache_kbs
        .iter()
        .map(|&c| {
            let mut p = *base;
            p.cache_kb = c;
            let surface = throughput_increase_surface(&p, hit_rates, sizes_kb);
            (c, surface.peak().0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_axes_cover_paper_ranges() {
        let (hits, sizes) = default_axes(10, 8);
        assert_eq!(hits.len(), 10);
        assert_eq!(sizes.len(), 8);
        assert!(hits[0] > 0.0 && (hits[9] - 1.0).abs() < 1e-12);
        assert!(sizes[0] >= 4.0 && (sizes[7] - 128.0).abs() < 1e-12);
    }

    #[test]
    fn conscious_surface_dominates_oblivious_almost_everywhere() {
        let base = ModelParams::default();
        let (hits, sizes) = default_axes(8, 6);
        let ratio = throughput_increase_surface(&base, &hits, &sizes);
        let mut above = 0usize;
        let mut total = 0usize;
        for row in &ratio.values {
            for v in row.iter().copied().flatten() {
                total += 1;
                if v >= 1.0 {
                    above += 1;
                }
            }
        }
        // The conscious server loses only where the oblivious one already
        // caches (nearly) everything — the paper's ">= 95% hit rate" strip.
        assert!(above * 4 >= total * 3, "{above}/{total} cells >= 1.0");
        // And even there the loss is bounded by the forwarding overhead.
        let min = ratio
            .values
            .iter()
            .flatten()
            .copied()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        assert!(min > 0.7, "worst-case ratio = {min}");
    }

    #[test]
    fn ratio_surface_peaks_several_fold() {
        let base = ModelParams::default();
        let (hits, sizes) = default_axes(25, 16);
        let ratio = throughput_increase_surface(&base, &hits, &sizes);
        let (peak, at_hit, at_size) = ratio.peak();
        assert!(peak > 5.0, "peak = {peak} at ({at_hit}, {at_size})");
        assert!(peak < 14.0, "peak = {peak} implausibly large");
        // The paper's peak sits at moderately high hit rates.
        assert!(at_hit > 0.5 && at_hit < 1.0, "peak hit = {at_hit}");
    }

    #[test]
    fn larger_memories_shrink_the_gain() {
        let base = ModelParams::default();
        let (hits, sizes) = default_axes(15, 10);
        let mb = 1024.0;
        let sweep = memory_sweep(&base, &[128.0 * mb, 256.0 * mb, 512.0 * mb], &hits, &sizes);
        assert!(
            sweep[0].1 >= sweep[1].1 && sweep[1].1 >= sweep[2].1,
            "gains should fall with memory: {sweep:?}"
        );
        // At 512 MB the paper still reports a ~6.5x peak.
        assert!(sweep[2].1 > 4.0, "512 MB gain = {}", sweep[2].1);
    }

    #[test]
    fn row_max_matches_manual_scan() {
        let base = ModelParams::default();
        let (hits, sizes) = default_axes(5, 4);
        let s = throughput_surface(&base, ServerKind::LocalityOblivious, &hits, &sizes);
        let maxes = s.row_max();
        for (i, row) in s.values.iter().enumerate() {
            let want = row
                .iter()
                .copied()
                .flatten()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(maxes[i], want);
        }
    }

    #[test]
    fn invalid_cells_are_skipped_not_propagated() {
        let s = Surface {
            hit_rates: vec![0.2, 0.8],
            sizes_kb: vec![8.0, 16.0],
            values: vec![vec![Some(1.0), None], vec![None, Some(3.0)]],
        };
        let (peak, at_hit, at_size) = s.peak();
        assert_eq!((peak, at_hit, at_size), (3.0, 0.8, 16.0));
        assert_eq!(s.row_max(), vec![1.0, 3.0]);
        let nan_view = s.values_or_nan();
        assert!(nan_view[0][1].is_nan() && nan_view[1][0].is_nan());
        assert_eq!(nan_view[0][0], 1.0);
    }
}
