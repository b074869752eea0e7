//! The future-event list.

use l2s_util::{cast, invariant, SimDuration, SimTime};

/// One scheduled entry; ordered by `(time, seq)` so that events scheduled
/// for the same instant pop in scheduling order (deterministic FIFO
/// tie-breaking). Keys are unique (`seq` never repeats), so the pop
/// sequence is the fully sorted order regardless of which lane an entry
/// traversed — the simulator's determinism does not depend on queue
/// internals.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// Null link in the calendar's intrusive lists.
const NIL: u32 = u32::MAX;

/// One calendar slab slot. A pending entry is threaded onto its
/// bucket's list through `next`; a free slot is threaded onto the free
/// list instead and holds no event (`event` is `None` exactly then).
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// log2 of the calendar bucket width in nanoseconds: 2^18 ns = 262 µs.
/// A power of two turns time-to-bucket mapping into a shift. The width
/// sets the near/far split — events within the current epoch go to the
/// sorted near ring (sequential memmove insert), later ones to a random
/// calendar bucket (a dependent pointer chase at insert and again at
/// sweep) — so wider buckets trade random-access far traffic for
/// sequential ring shifting. Measured across widths at 16 and 256
/// nodes: 33 µs (right when the near lane was a binary heap, whose
/// sift depth the width must bound) loses 20-30 % under the ring, and
/// 1 ms overshoots — per-epoch event cardinality grows linearly with
/// cluster size, and at 256 nodes millisecond epochs mean ~40
/// shifted entries (≈1 KB memmove) per event. 262 µs keeps the
/// CPU-scale delays (hops, NI, parse) in the ring, leaves the
/// quantum- and disk-scale ones in the calendar, and shifts ~9
/// entries per event at 256 nodes.
const BUCKET_SHIFT: u32 = 18;

/// Number of calendar buckets (power of two, a multiple of 4096 so both
/// bitmap levels stay full words). The calendar spans
/// `BUCKET_COUNT << BUCKET_SHIFT` ns ≈ 1.07 s — two orders past the
/// longest single delay (a ~28 ms disk read), so only deep per-node
/// disk backlogs under large admission windows ever wrap. Wrapped
/// entries land on buckets still holding earlier laps and take the
/// sweep's entry-by-entry epoch-filter path. Raising the bucket count
/// instead of the width was measured and *lost* when each bucket was a
/// 24-byte vector header — 8x the count meant 768 KB of headers (vs
/// 96 KB, L2-resident), and the extra misses on the headers cost more
/// than the wrap filtering saved at every cluster size. A bucket is now
/// a 4-byte list head (16 KB in all).
const BUCKET_COUNT: usize = 4096;

/// Words in the occupancy bitmap: one bit per bucket.
const OCC_WORDS: usize = BUCKET_COUNT / 64;

/// Words in the bitmap's summary level: one bit per occupancy word.
const SUM_WORDS: usize = OCC_WORDS / 64;

/// Epoch of a timestamp: its global bucket number (not wrapped).
#[inline]
fn epoch(t: SimTime) -> u64 {
    t.as_nanos() >> BUCKET_SHIFT
}

/// A future-event list with an embedded simulation clock.
///
/// The clock advances only through [`EventQueue::pop`]; scheduling an
/// event in the past is a causality violation, checked by `invariant!`
/// (debug builds always; release builds under `strict-invariants`).
///
/// # Structure
///
/// A two-stage calendar queue split by a moving time `horizon`:
///
/// * the *near lane* — events inside the bucket epoch currently being
///   serviced (`time < horizon`), kept sorted *descending* on
///   `(time, seq)` so the minimum is at the tail: pop is O(1). The lane
///   is struct-of-arrays: `near_key` holds the 16-byte keys and
///   `near_ev` the payloads, index-matched. Inserts binary-search the
///   dense key lane and memmove both lanes. This replaced a binary
///   min-heap after operation counters showed the heap's sift work is
///   the queue's dominant scale-variant cost: sifts grow with per-epoch
///   event cardinality k (event density rises linearly with cluster
///   size — ~2.3 dependent-compare swaps per event at 256 nodes versus
///   0.15 at 16), while the ring's memmoves are sequential and k is
///   bounded by one epoch's worth of events (tens, not the admission
///   window), so an insert shifts a couple hundred bytes. Cheap deep
///   lanes also let the buckets be wide (`BUCKET_SHIFT`), halving
///   the random calendar traffic the heap's depth bound forced.
/// * the *calendar* — `BUCKET_COUNT` unsorted buckets for events at or
///   beyond the horizon. A bucket is an intrusive singly-linked list
///   threaded through one slab of slots (`heads[b]` is its first slot),
///   and a free list recycles the slots sweeps release, so the calendar
///   holds O(peak pending) bytes however bursty its history: a bucket
///   owns no buffer of its own that could stay at the size of the
///   largest epoch it ever held. Insertion is O(1): take a slot and
///   link it at the head of bucket `epoch(time) % BUCKET_COUNT`. When
///   the near lane drains, the sweep advances to the next epoch holding
///   events, unlinks exactly that epoch's entries (wrapped future-epoch
///   entries stay linked) into a scratch buffer and sorts them into the
///   near lanes. A two-level occupancy bitmap (one bit per bucket plus a
///   summary word per 64 buckets) lets the sweep jump straight to the
///   next non-empty bucket, so runs whose inter-event gaps span many
///   bucket widths (disk-bound, small clusters) never walk empty epochs
///   one by one.
///
/// Both stages order by the same total key `(time, seq)`, and `seq`
/// never repeats, so the pop sequence is the fully sorted event order —
/// lane internals cannot reorder equal keys because keys are unique.
pub struct EventQueue<E> {
    /// Near-lane keys `(time, seq)`, sorted descending; the minimum —
    /// the next pop — is at the tail.
    near_key: Vec<(SimTime, u64)>,
    /// Payload lane, index-matched to `near_key`.
    near_ev: Vec<E>,
    /// Calendar slots: pending entries on their bucket lists, released
    /// ones on the free list. Its length is the peak number of entries
    /// ever bucketed at once.
    slab: Vec<Slot<E>>,
    /// First slot of each bucket's list, or [`NIL`]; entry `e` lives on
    /// list `epoch(e.time) & (BUCKET_COUNT - 1)`, in no particular order.
    heads: Box<[u32; BUCKET_COUNT]>,
    /// First slot of the free list, or [`NIL`].
    free: u32,
    /// Occupancy bitmap: bit `b` of word `b / 64` is set iff bucket `b`
    /// is non-empty.
    occupied: Box<[u64; OCC_WORDS]>,
    /// Summary level: bit `w` of word `w / 64` is set iff
    /// `occupied[w] != 0`.
    summary: [u64; SUM_WORDS],
    /// Sweep staging buffer, reused across sweeps; its capacity is the
    /// largest single epoch swept, which never exceeds peak pending.
    scratch: Vec<Entry<E>>,
    /// Total entries across all buckets.
    bucketed: usize,
    /// Epoch the near lane is serving; `horizon` is its exclusive end.
    cur_epoch: u64,
    /// Lane split: the near lane holds times strictly below this.
    horizon: SimTime,
    seq: u64,
    now: SimTime,
    stats: QueueStats,
}

/// Operation counters, maintained unconditionally (each costs one
/// add to state the operation already touches). They answer *where the
/// queue's work goes* independently of wall-clock noise: `ins_shifted`
/// totals the ring entries memmoved by near-lane inserts (the effective
/// insert depth), `sweep_sorted` the entries sweeps sorted, `deferred`
/// the wrapped entries re-filtered by sweeps, `scanned` the buckets
/// visited (including bitmap-skipped ones).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled into the near-lane ring.
    pub near_pushes: u64,
    /// Events scheduled into calendar buckets.
    pub far_pushes: u64,
    /// Ring entries shifted (memmoved) by near-lane inserts.
    pub ins_shifted: u64,
    /// Entries sorted into the near lane by sweeps.
    pub sweep_sorted: u64,
    /// Sweeps that refilled the near lane.
    pub sweeps: u64,
    /// Buckets advanced over by sweeps (occupied or bitmap-skipped).
    pub scanned: u64,
    /// Entries inspected by sweeps but left for a later lap (wrapped
    /// beyond the calendar span).
    pub deferred: u64,
    /// Full-lap fallbacks (every pending entry wrapped at least once).
    pub full_laps: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue preallocated for `capacity` pending near events, so
    /// steady-state scheduling never reallocates the hot lane.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            near_key: Vec::with_capacity(capacity),
            near_ev: Vec::with_capacity(capacity),
            slab: Vec::new(),
            heads: Box::new([NIL; BUCKET_COUNT]),
            free: NIL,
            occupied: Box::new([0; OCC_WORDS]),
            summary: [0; SUM_WORDS],
            scratch: Vec::new(),
            stats: QueueStats::default(),
            bucketed: 0,
            cur_epoch: 0,
            horizon: SimTime::from_nanos(1 << BUCKET_SHIFT),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time (the timestamp of the last popped
    /// event, or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock (checked in debug builds
    /// and, under `strict-invariants`, in release builds too).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        invariant!(
            at >= self.now,
            "causality violation: scheduling at {at} before now {now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        if at < self.horizon {
            self.stats.near_pushes += 1;
            let key = (at, seq);
            // Descending lane: first index whose key is not greater than
            // ours. Keys are unique, so no tie handling is needed.
            let pos = self.near_key.partition_point(|&k| k > key);
            self.stats.ins_shifted += cast::len_u64(self.near_key.len() - pos);
            self.near_key.insert(pos, key);
            self.near_ev.insert(pos, event);
        } else {
            self.stats.far_pushes += 1;
            let b = cast::index_usize(epoch(at) & (cast::len_u64(BUCKET_COUNT) - 1));
            let slot = Slot {
                time: at,
                seq,
                next: self.heads[b],
                event: Some(event),
            };
            self.heads[b] = match self.free {
                NIL => {
                    self.slab.push(slot);
                    cast::index_u32(self.slab.len() - 1)
                }
                i => {
                    let s = &mut self.slab[cast::wide_usize(i)];
                    self.free = s.next;
                    *s = slot;
                    i
                }
            };
            self.occupied[b >> 6] |= 1 << (b & 63);
            self.summary[b >> 12] |= 1 << ((b >> 6) & 63);
            self.bucketed += 1;
        }
    }

    /// Clears bucket `b`'s occupancy bit (call when the bucket empties).
    #[inline]
    fn mark_empty(&mut self, b: usize) {
        let w = b >> 6;
        self.occupied[w] &= !(1 << (b & 63));
        if self.occupied[w] == 0 {
            self.summary[w >> 6] &= !(1 << (w & 63));
        }
    }

    /// First non-empty occupancy word at or after word `from`, in
    /// circular order, via the summary level; `None` when the whole
    /// bitmap is clear.
    #[inline]
    fn next_word(&self, from: usize) -> Option<usize> {
        let s0 = from >> 6;
        let masked = self.summary[s0] & (!0u64 << (from & 63));
        if masked != 0 {
            return Some((s0 << 6) | cast::index_usize(u64::from(masked.trailing_zeros())));
        }
        // At most SUM_WORDS further words to inspect; the final step
        // re-reads `s0` unmasked, which is the circular wrap.
        for step in 1..=SUM_WORDS {
            let s = (s0 + step) & (SUM_WORDS - 1);
            if self.summary[s] != 0 {
                let w = cast::index_usize(u64::from(self.summary[s].trailing_zeros()));
                return Some((s << 6) | w);
            }
        }
        None
    }

    /// First occupied bucket index at or after `start` in circular
    /// order. Caller guarantees at least one bucket is occupied
    /// (`bucketed > 0`).
    #[inline]
    fn next_occupied(&self, start: usize) -> usize {
        let w0 = start >> 6;
        let in_word = self.occupied[w0] & (!0u64 << (start & 63));
        if in_word != 0 {
            return (w0 << 6) | cast::index_usize(u64::from(in_word.trailing_zeros()));
        }
        // Later words via the summary level, wrapping past the end.
        let from = (w0 + 1) & (OCC_WORDS - 1);
        match self.next_word(from) {
            Some(w) => (w << 6) | cast::index_usize(u64::from(self.occupied[w].trailing_zeros())),
            None => invariant::invariant_failed(format_args!(
                "occupancy bitmap empty with bucketed entries pending"
            )),
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Advances the horizon to the next epoch holding events and installs
    /// that epoch's entries — sorted, each exactly once — as the near
    /// lane. Caller guarantees the near lane is empty and at least one
    /// bucketed entry exists.
    fn sweep(&mut self) {
        debug_assert!(self.near_key.is_empty() && self.bucketed > 0);
        let mask = BUCKET_COUNT - 1;
        let mut scanned = 0usize;
        loop {
            // Jump to the next occupied bucket instead of probing empty
            // epochs one by one — sparse runs (inter-event gaps of many
            // bucket widths) advance in O(1) word scans per sweep.
            let from = cast::index_usize((self.cur_epoch + 1) & cast::len_u64(mask));
            let b = self.next_occupied(from);
            let skipped = (b.wrapping_sub(from)) & mask;
            self.cur_epoch += 1 + cast::len_u64(skipped);
            scanned += 1 + skipped;
            self.stats.scanned += cast::len_u64(1 + skipped);
            // Unlink current-epoch entries into the scratch buffer and
            // free their slots; wrapped future-epoch entries stay linked
            // for a later lap.
            let mut prev = NIL;
            let mut i = self.heads[b];
            while i != NIL {
                let s = &mut self.slab[cast::wide_usize(i)];
                let next = s.next;
                if epoch(s.time) == self.cur_epoch {
                    let Some(event) = s.event.take() else {
                        invariant::invariant_failed(format_args!(
                            "calendar list reached a free slot"
                        ))
                    };
                    self.scratch.push(Entry {
                        time: s.time,
                        seq: s.seq,
                        event,
                    });
                    s.next = self.free;
                    self.free = i;
                    match prev {
                        NIL => self.heads[b] = next,
                        p => self.slab[cast::wide_usize(p)].next = next,
                    }
                } else {
                    self.stats.deferred += 1;
                    prev = i;
                }
                i = next;
            }
            if self.heads[b] == NIL {
                self.mark_empty(b);
            }
            if !self.scratch.is_empty() {
                self.stats.sweeps += 1;
                self.stats.sweep_sorted += cast::len_u64(self.scratch.len());
                self.bucketed -= self.scratch.len();
                // Descending, so the epoch's earliest entry lands at the
                // tail; the lane was empty on entry.
                self.scratch
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                for e in self.scratch.drain(..) {
                    self.near_key.push((e.time, e.seq));
                    self.near_ev.push(e.event);
                }
                self.horizon = SimTime::from_nanos((self.cur_epoch + 1) << BUCKET_SHIFT);
                return;
            }
            if scanned >= BUCKET_COUNT {
                // A full lap found nothing current: every pending entry
                // wrapped at least once (delays beyond the calendar
                // span). Jump straight to just before the earliest
                // pending epoch instead of lapping epoch by epoch. The
                // minimum always exists (`bucketed > 0` on entry).
                self.stats.full_laps += 1;
                if let Some(min_epoch) = self.pending_times().map(epoch).min() {
                    self.cur_epoch = min_epoch - 1;
                }
                scanned = 0;
            }
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_key.is_empty() {
            if self.bucketed == 0 {
                return None;
            }
            self.sweep();
        }
        let (time, _) = self.near_key.pop()?;
        let event = self.near_ev.pop()?;
        invariant!(
            time >= self.now,
            "clock monotonicity violated: popped {at} behind now {now}",
            at = time,
            now = self.now
        );
        self.now = time;
        Some((time, event))
    }

    /// Timestamps of every bucketed entry, in slab order.
    fn pending_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.slab
            .iter()
            .filter(|s| s.event.is_some())
            .map(|s| s.time)
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_key.len() + self.bucketed
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near_key.is_empty() && self.bucketed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(t(42), ());
        q.pop();
        assert_eq!(q.now(), t(42));
    }

    #[test]
    fn schedule_after_uses_clock() {
        let mut q = EventQueue::new();
        q.schedule(t(100), "first");
        q.pop();
        q.schedule_after(SimDuration::from_nanos(5), "second");
        assert_eq!(q.pop(), Some((t(105), "second")));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(50), ());
        q.pop();
        q.schedule(t(49), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(50), 1);
        q.pop();
        q.schedule(t(50), 2);
        assert_eq!(q.pop(), Some((t(50), 2)));
    }

    #[test]
    fn len_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.schedule(t(7), ());
        q.schedule(t(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(3), ())));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 0u32);
        q.schedule(t(30), 1);
        let (now, _) = q.pop().unwrap();
        assert_eq!(now, t(10));
        q.schedule(t(20), 2);
        q.schedule(t(25), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    /// The two near lanes stay index-matched through mixed inserts,
    /// sweeps, and pops: every popped payload equals the id encoded in
    /// its own timestamp.
    #[test]
    fn near_lanes_stay_in_lockstep() {
        let mut rng = l2s_util::DetRng::new(9);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut scheduled = 0u64;
        let mut popped = 0usize;
        for round in 0..2_000u64 {
            // Encode the timestamp in the payload so any lane skew is
            // immediately visible.
            let at = now + 1 + rng.below(500_000);
            q.schedule(t(at), (at, round));
            scheduled += 1;
            if rng.below(3) > 0 {
                let (time, (at, _)) = q.pop().unwrap();
                assert_eq!(time, t(at), "payload skewed from its key");
                now = time.as_nanos();
                popped += 1;
            }
        }
        while let Some((time, (at, _))) = q.pop() {
            assert_eq!(time, t(at));
            popped += 1;
        }
        assert_eq!(popped as u64, scheduled);
    }

    /// Delays far beyond the calendar span (multiple wraps) still pop in
    /// order — the epoch check defers wrapped entries to their own lap.
    #[test]
    fn wrapped_far_future_events_stay_ordered() {
        let span = (BUCKET_COUNT as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.schedule(t(3 * span + 7), "far");
        q.schedule(t(span + 9), "mid");
        q.schedule(t(40), "soon");
        assert_eq!(q.pop(), Some((t(40), "soon")));
        assert_eq!(q.pop(), Some((t(span + 9), "mid")));
        assert_eq!(q.pop(), Some((t(3 * span + 7), "far")));
        assert_eq!(q.pop(), None);
    }

    /// Heap bytes the calendar holds: its slab plus the sweep buffer.
    fn calendar_bytes<E>(q: &EventQueue<E>) -> usize {
        q.slab.capacity() * std::mem::size_of::<Slot<E>>()
            + q.scratch.capacity() * std::mem::size_of::<Entry<E>>()
    }

    /// A long hold run whose delays are whole multiples of seven bucket
    /// widths (so pending entries bunch into a few hundred epochs) and
    /// spread past the calendar span (so some wrap): every bucket in
    /// turn holds a burst of entries, yet the calendar's memory stays a
    /// small multiple of the peak number pending, not of the bucket
    /// count times the largest burst.
    #[test]
    fn calendar_memory_follows_peak_pending() {
        let width = 1u64 << BUCKET_SHIFT;
        let mut rng = l2s_util::DetRng::new(23);
        let mut q = EventQueue::new();
        for i in 0..4_096u64 {
            q.schedule(t(width), i);
        }
        let mut peak = q.len();
        for _ in 0..400_000 {
            let (now, id) = q.pop().unwrap();
            let delay = (1 + rng.below(1_024)) * 7 * width;
            q.schedule(t(now.as_nanos() + delay), id);
            peak = peak.max(q.len());
        }
        let stats = q.stats();
        assert!(stats.deferred > 0, "the run must wrap the calendar");
        let bound = 4 * peak * std::mem::size_of::<Slot<u64>>();
        let bytes = calendar_bytes(&q);
        assert!(
            bytes <= bound,
            "calendar holds {bytes} B for {peak} pending (bound {bound} B)"
        );
    }

    #[test]
    fn large_volume_stays_sorted() {
        let mut rng = l2s_util::DetRng::new(3);
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(t(rng.below(1_000_000)), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
        }
    }

    /// The queue's pop sequence matches a naive fully-sorted reference
    /// under a workload mixing hop-scale and disk-scale delays with
    /// interleaved pops, including delays that wrap the calendar.
    #[test]
    fn matches_sorted_reference_under_mixed_delays() {
        let delays: [u64; 8] = [
            1_000,         // switch hop
            7_143,         // NI
            158_700,       // parse
            1_000_000,     // CPU quantum
            29_000_000,    // disk read
            100,           // immediate
            70_000_000,    // deep disk backlog
            3_000_000_000, // beyond the calendar span (multiple wraps)
        ];
        let mut rng = l2s_util::DetRng::new(17);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, id)
        let mut id = 0u64;
        let mut now = 0u64;
        for _ in 0..5_000 {
            for _ in 0..1 + rng.below(3) {
                let at = now + delays[rng.below(delays.len() as u64) as usize];
                q.schedule(t(at), id);
                reference.push((at, id));
                id += 1;
            }
            // The reference pops its (time, insertion-order) minimum.
            reference.sort_by_key(|&(at, id)| (at, id));
            let (rt, rid) = reference.remove(0);
            let (qt, qid) = q.pop().unwrap();
            assert_eq!((qt, qid), (t(rt), rid));
            now = rt;
        }
        reference.sort_by_key(|&(at, id)| (at, id));
        for (rt, rid) in reference {
            assert_eq!(q.pop(), Some((t(rt), rid)));
        }
        assert_eq!(q.pop(), None);
    }
}
