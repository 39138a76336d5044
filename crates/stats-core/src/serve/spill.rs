//! Disk-backed FIFO spill queues for the multi-tenant front door.
//!
//! A [`SpillQueue`] keeps ingestion bounded-memory per tenant: the newest
//! inputs accumulate in a small in-memory tail, overflow is serialized
//! into numbered FIFO segment files, and the tenant's session drains an
//! in-memory head that is refilled by replaying the oldest segment. The
//! pop order is always exactly the push order — head (oldest), then disk
//! segments in segment-number order, then the tail (newest) — so a run
//! whose inputs passed through disk is bit-identical to one whose inputs
//! never spilled (property-tested in `tests/serve_properties.rs`).
//!
//! Inputs cross the disk boundary through [`SpillCodec`], whose byte-exact
//! round trip is what makes spilled replay *bit*-identical rather than
//! merely approximately equal.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::PathBuf;

use crate::codec::SpillCodec;

/// Monotonic spill activity counters for one queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Inputs that were serialized into disk segments.
    pub spilled_inputs: u64,
    /// Segment files written.
    pub spilled_segments: u64,
    /// Inputs deserialized back out of segments.
    pub replayed_inputs: u64,
    /// Segment files replayed (and deleted).
    pub replayed_segments: u64,
}

/// What a [`SpillQueue::push`] did, so the caller can emit the matching
/// observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillEffect {
    /// The input stayed in memory.
    InMemory,
    /// The push tipped the tail over the segment size: a segment file with
    /// this number and input count was written.
    Spilled {
        /// Monotonic segment number.
        segment: u64,
        /// Inputs serialized into it.
        inputs: usize,
    },
}

/// A bounded-memory FIFO queue that overflows to numbered disk segments.
///
/// Memory never holds more than `mem_capacity + segment_size` items: the
/// head (pop side) is capped at `mem_capacity` and the tail (push side)
/// flushes to disk every `segment_size` items while any segment is
/// outstanding. Disk is the unbounded part — exactly the property the
/// front door needs under bursty tenants.
#[derive(Debug)]
pub struct SpillQueue<I> {
    head: VecDeque<I>,
    tail: VecDeque<I>,
    /// Outstanding segment files: (segment number, path, item count).
    segments: VecDeque<(u64, PathBuf, usize)>,
    mem_capacity: usize,
    segment_size: usize,
    dir: PathBuf,
    next_segment: u64,
    len: usize,
    stats: SpillStats,
    /// The codec, captured at [`new`](SpillQueue::new) so that pushing and
    /// popping need no `SpillCodec` bound.
    encode: fn(&I, &mut Vec<u8>),
    decode: fn(&mut &[u8]) -> Option<I>,
}

impl<I: SpillCodec> SpillQueue<I> {
    /// Open a spill queue writing segments under `dir` (created lazily on
    /// first spill). `mem_capacity` bounds the in-memory head;
    /// `segment_size` is the item count per disk segment. Both are clamped
    /// to at least 1.
    pub fn new(dir: PathBuf, mem_capacity: usize, segment_size: usize) -> Self {
        SpillQueue {
            head: VecDeque::new(),
            tail: VecDeque::new(),
            segments: VecDeque::new(),
            mem_capacity: mem_capacity.max(1),
            segment_size: segment_size.max(1),
            dir,
            next_segment: 0,
            len: 0,
            stats: SpillStats::default(),
            encode: I::encode,
            decode: I::decode,
        }
    }
}

impl<I> SpillQueue<I> {
    /// Total queued items, wherever they live (memory or disk).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot of the spill counters.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Enqueue one input, spilling a segment to disk when the in-memory
    /// bound would otherwise be exceeded.
    pub fn push(&mut self, input: I) -> io::Result<SpillEffect> {
        if self.segments.is_empty() && self.tail.is_empty() && self.head.len() < self.mem_capacity {
            self.head.push_back(input);
            self.len += 1;
            return Ok(SpillEffect::InMemory);
        }
        self.tail.push_back(input);
        self.len += 1;
        if self.tail.len() >= self.segment_size {
            let (segment, inputs) = self.flush_tail()?;
            return Ok(SpillEffect::Spilled { segment, inputs });
        }
        Ok(SpillEffect::InMemory)
    }

    /// Dequeue the oldest input, replaying the oldest disk segment when
    /// the in-memory head runs dry. Returns the replayed segment's
    /// `(number, count)` alongside the input when a replay happened.
    #[allow(clippy::type_complexity)] // (input, replay coordinates) is the honest shape
    pub fn pop(&mut self) -> io::Result<Option<(I, Option<(u64, usize)>)>> {
        if let Some(input) = self.head.pop_front() {
            self.len -= 1;
            return Ok(Some((input, None)));
        }
        if let Some((segment, path, count)) = self.segments.pop_front() {
            let bytes = fs::read(&path);
            // The segment has left the queue, so its file goes too, even
            // when it cannot be read back.
            let _ = fs::remove_file(&path);
            let bytes = bytes?;
            let mut cursor: &[u8] = &bytes;
            for _ in 0..count {
                let item = (self.decode)(&mut cursor).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt spill segment {}", path.display()),
                    )
                })?;
                self.head.push_back(item);
            }
            self.stats.replayed_inputs += count as u64;
            self.stats.replayed_segments += 1;
            let input = self.head.pop_front().expect("segment count >= 1");
            self.len -= 1;
            return Ok(Some((input, Some((segment, count)))));
        }
        // No head, no disk: the tail is the whole queue. Promote it back
        // to being the head so the queue returns to pure-memory mode.
        std::mem::swap(&mut self.head, &mut self.tail);
        match self.head.pop_front() {
            Some(input) => {
                self.len -= 1;
                Ok(Some((input, None)))
            }
            None => Ok(None),
        }
    }

    /// Serialize the whole tail into a fresh segment file.
    fn flush_tail(&mut self) -> io::Result<(u64, usize)> {
        fs::create_dir_all(&self.dir)?;
        let segment = self.next_segment;
        self.next_segment += 1;
        let count = self.tail.len();
        let mut bytes = Vec::with_capacity(count * 8);
        for item in &self.tail {
            (self.encode)(item, &mut bytes);
        }
        let path = self.dir.join(format!("seg-{segment:08}.spill"));
        fs::write(&path, &bytes)?;
        self.tail.clear();
        self.segments.push_back((segment, path, count));
        self.stats.spilled_inputs += count as u64;
        self.stats.spilled_segments += 1;
        Ok((segment, count))
    }

    /// Drop everything queued, segment files and directory (made by the
    /// first segment) included, best effort; the counters stay.
    pub(crate) fn clear(&mut self) {
        self.head.clear();
        self.tail.clear();
        self.len = 0;
        for (_, path, _) in self.segments.drain(..) {
            let _ = fs::remove_file(path);
        }
        if self.next_segment > 0 {
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

impl<I> Drop for SpillQueue<I> {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stats-spill-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn fifo_order_survives_spill() {
        let mut q: SpillQueue<u64> = SpillQueue::new(temp_dir("fifo"), 4, 3);
        for i in 0..40u64 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 40);
        let stats = q.stats();
        assert!(stats.spilled_segments > 0, "spill never engaged");
        let mut out = Vec::new();
        while let Some((v, _)) = q.pop().unwrap() {
            out.push(v);
        }
        assert_eq!(out, (0..40u64).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.stats().replayed_segments, stats.spilled_segments);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q: SpillQueue<u64> = SpillQueue::new(temp_dir("interleave"), 2, 2);
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        // Deterministic interleave: push bursts, pop dribbles.
        for round in 0..50 {
            for _ in 0..(round % 5) + 1 {
                q.push(next).unwrap();
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..(round % 3) {
                match (q.pop().unwrap(), expect.pop_front()) {
                    (Some((got, _)), Some(want)) => assert_eq!(got, want),
                    (None, None) => {}
                    (got, want) => panic!("diverged: got {got:?}, want {want:?}"),
                }
            }
        }
        while let Some((got, _)) = q.pop().unwrap() {
            assert_eq!(Some(got), expect.pop_front());
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn memory_stays_bounded_while_disk_grows() {
        let mem = 8;
        let seg = 4;
        let mut q: SpillQueue<u64> = SpillQueue::new(temp_dir("bounded"), mem, seg);
        for i in 0..10_000u64 {
            q.push(i).unwrap();
            assert!(
                q.head.len() + q.tail.len() <= mem + seg,
                "in-memory footprint exceeded the bound"
            );
        }
        assert_eq!(q.len(), 10_000);
    }
}
