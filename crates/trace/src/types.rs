//! Core trace types.

use l2s_util::cast;
use std::fmt;

/// Identifies one file served by the cluster — a dense index into a
/// [`FileSet`].
///
/// Ids are *interned*: every producer of traces (the synthetic generator,
/// and [`crate::ClfStream`] via [`crate::FileInterner`], which
/// [`crate::clf::read_log`] drains) hands out consecutive indices starting at 0
/// in first-seen order, so any per-file state elsewhere in the workspace
/// can live in a flat `Vec` indexed by [`FileId::index`] instead of a
/// map. Iterating such a `Vec` visits files in dense-index order, which
/// keeps results deterministic *by construction*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FileId(u32);

impl FileId {
    /// Wraps a raw dense index.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        FileId(raw)
    }

    /// The raw dense index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `Vec` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for FileId {
    #[inline]
    fn from(raw: u32) -> Self {
        FileId(raw)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

// Comparisons against raw indices, so call sites (tests especially) can
// say `file == 3` and `assert_eq!(evicted, vec![2, 3])` without wrapping.
impl PartialEq<u32> for FileId {
    #[inline]
    fn eq(&self, other: &u32) -> bool {
        self.0 == *other
    }
}

impl PartialEq<FileId> for u32 {
    #[inline]
    fn eq(&self, other: &FileId) -> bool {
        *self == other.0
    }
}

/// The population of files a trace requests, with their sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct FileSet {
    sizes_kb: Vec<f64>,
}

impl FileSet {
    /// Builds a file set from per-file sizes in KB. A non-positive or
    /// non-finite size is rejected by `invariant!`.
    pub fn new(sizes_kb: Vec<f64>) -> Self {
        l2s_util::invariant!(
            sizes_kb.iter().all(|s| s.is_finite() && *s > 0.0),
            "file sizes must be positive and finite"
        );
        FileSet { sizes_kb }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.sizes_kb.len()
    }

    /// True when the set holds no files.
    pub fn is_empty(&self) -> bool {
        self.sizes_kb.is_empty()
    }

    /// Size of `file` in KB. Accepts a raw `u32` index as well.
    #[inline]
    pub fn size_kb(&self, file: impl Into<FileId>) -> f64 {
        self.sizes_kb[file.into().index()]
    }

    /// Every file's size in KB, indexed by interned file id.
    pub fn sizes_kb(&self) -> &[f64] {
        &self.sizes_kb
    }

    /// Sum of all file sizes in KB.
    pub fn total_kb(&self) -> f64 {
        self.sizes_kb.iter().sum()
    }

    /// Mean file size in KB (0 for an empty set).
    pub fn avg_file_kb(&self) -> f64 {
        if self.sizes_kb.is_empty() {
            0.0
        } else {
            self.total_kb() / cast::len_f64(self.sizes_kb.len())
        }
    }

    /// Iterates over `(FileId, size_kb)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, f64)> + '_ {
        self.sizes_kb
            .iter()
            .enumerate()
            .map(|(i, &s)| (FileId::from_raw(cast::index_u32(i)), s))
    }
}

/// A request stream over a [`FileSet`].
///
/// The paper's evaluation disregards trace timing ("scheduled new
/// requests as soon as the router and network interface buffers would
/// accept them"), so a trace is an ordered sequence of file references
/// with no timestamps.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    name: String,
    files: FileSet,
    requests: Vec<FileId>,
}

impl Trace {
    /// Builds a trace. Panics if any request references a file outside
    /// the set. Accepts raw `u32` indices as well as [`FileId`]s.
    pub fn new<S, I>(name: S, files: FileSet, requests: I) -> Self
    where
        S: Into<String>,
        I: IntoIterator,
        I::Item: Into<FileId>,
    {
        let requests: Vec<FileId> = requests.into_iter().map(Into::into).collect();
        let n = files.len();
        l2s_util::invariant!(
            requests.iter().all(|f| f.index() < n),
            "request references unknown file"
        );
        Trace {
            name: name.into(),
            files,
            requests,
        }
    }

    /// The trace's name (e.g. `"calgary"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The file population.
    pub fn files(&self) -> &FileSet {
        &self.files
    }

    /// The ordered request stream.
    pub fn requests(&self) -> &[FileId] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Mean size in KB of the files *as requested* (weighted by request
    /// frequency), 0 for an empty trace.
    pub fn avg_request_kb(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let total: f64 = self.requests.iter().map(|&f| self.files.size_kb(f)).sum();
        total / cast::len_f64(self.requests.len())
    }

    /// Total distinct bytes requested (the trace's working set), in KB.
    pub fn working_set_kb(&self) -> f64 {
        let mut seen = vec![false; self.files.len()];
        let mut total = 0.0;
        for &f in &self.requests {
            if !seen[f.index()] {
                seen[f.index()] = true;
                total += self.files.size_kb(f);
            }
        }
        total
    }

    /// Number of distinct files requested at least once.
    pub fn distinct_files(&self) -> usize {
        let mut seen = vec![false; self.files.len()];
        let mut count = 0;
        for &f in &self.requests {
            if !seen[f.index()] {
                seen[f.index()] = true;
                count += 1;
            }
        }
        count
    }

    /// Per-file request counts, indexed by [`FileId`].
    pub fn request_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.files.len()];
        for &f in &self.requests {
            counts[f.index()] += 1;
        }
        counts
    }
}

// Compile-time Send/Sync audit: the bench harness memoizes traces in
// `Arc<Trace>` and shares them across sweep worker threads, so these
// bounds are part of the public contract. A field change that breaks
// them fails here rather than deep inside the parallel executor.
#[allow(dead_code)]
fn traces_are_shared_across_threads() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Trace>();
    send_and_sync::<FileSet>();
    send_and_sync::<FileId>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        let files = FileSet::new(vec![10.0, 20.0, 30.0]);
        Trace::new("t", files, vec![0, 0, 1, 2, 0])
    }

    #[test]
    fn file_set_accessors() {
        let fs = FileSet::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(fs.len(), 3);
        assert!(!fs.is_empty());
        assert_eq!(fs.size_kb(1), 2.0);
        assert_eq!(fs.total_kb(), 6.0);
        assert_eq!(fs.avg_file_kb(), 2.0);
        assert_eq!(fs.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "file sizes must be positive")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn zero_size_rejected() {
        FileSet::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "request references unknown file")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn out_of_range_request_rejected() {
        Trace::new("bad", FileSet::new(vec![1.0]), vec![1]);
    }

    #[test]
    fn request_weighted_average() {
        let t = small_trace();
        // (10 + 10 + 20 + 30 + 10) / 5 = 16.
        assert_eq!(t.avg_request_kb(), 16.0);
    }

    #[test]
    fn working_set_counts_distinct_bytes() {
        let t = small_trace();
        assert_eq!(t.working_set_kb(), 60.0);
        assert_eq!(t.distinct_files(), 3);
    }

    #[test]
    fn working_set_ignores_unrequested_files() {
        let files = FileSet::new(vec![10.0, 999.0]);
        let t = Trace::new("t", files, vec![0, 0]);
        assert_eq!(t.working_set_kb(), 10.0);
        assert_eq!(t.distinct_files(), 1);
    }

    #[test]
    fn request_counts_tally() {
        let t = small_trace();
        assert_eq!(t.request_counts(), vec![3, 1, 1]);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new("e", FileSet::new(vec![5.0]), Vec::<u32>::new());
        assert!(t.is_empty());
        assert_eq!(t.avg_request_kb(), 0.0);
        assert_eq!(t.working_set_kb(), 0.0);
    }
}
