//! The engine's bounded job queue.
//!
//! A [`StageQueue`] has three priority lanes (first in, first out within
//! each), a hard capacity enforced by a reject-on-full `try_push` (the
//! engine's explicit-backpressure stance: `submit` never blocks), and a
//! `pop_batch` that blocks the workers until there is work and coalesces
//! sweep points of one template. It keeps its own occupancy statistics so
//! operators can see how deep jobs pile up.

use crate::packet::SubmitError;
use crate::templates::TemplateId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Behavior a packet type must expose to ride a [`StageQueue`].
pub(crate) trait StageItem {
    /// Priority lane index: 0 high, 1 normal, 2 low.
    fn lane(&self) -> usize;
    /// Coalescing key: queued items sharing the head's key may be popped
    /// together by [`StageQueue::pop_batch`].
    fn coalesce_key(&self) -> Option<TemplateId>;
}

/// Occupancy counters for one queue.
#[derive(Debug, Default)]
pub(crate) struct StageStats {
    pushed: AtomicU64,
    popped: AtomicU64,
    rejected: AtomicU64,
    high_water: AtomicU64,
}

/// Point-in-time view of the engine's queue, for [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct StageSnapshot {
    /// Queue name: always "admit", the name metric readers look up.
    pub name: &'static str,
    /// Packets queued right now.
    pub depth: usize,
    /// Highest queue depth ever observed.
    pub high_water: u64,
    /// Packets accepted into the queue over the engine's life.
    pub pushed: u64,
    /// Packets dequeued by the workers.
    pub popped: u64,
    /// Packets refused because the queue was full.
    pub rejected: u64,
    /// Always 0: no producer ever blocks on the one queue. Kept only
    /// because the benchmark still reads it.
    pub blocked: u64,
}

#[derive(Debug)]
struct Lanes<T> {
    lanes: [VecDeque<T>; 3],
    closed: bool,
}

impl<T> Lanes<T> {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// One bounded, priority-aware queue.
#[derive(Debug)]
pub(crate) struct StageQueue<T> {
    inner: Mutex<Lanes<T>>,
    /// Signals consumers: work available or queue closed.
    work: Condvar,
    capacity: usize,
    stats: StageStats,
}

impl<T: StageItem> StageQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            work: Condvar::new(),
            capacity: capacity.max(1),
            stats: StageStats::default(),
        }
    }

    /// Admit an item or refuse immediately; a refused item is dropped.
    pub(crate) fn try_push(&self, item: T) -> Result<(), SubmitError> {
        let mut inner = self.inner.lock().expect("stage queue lock");
        if inner.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.len() >= self.capacity {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        inner.lanes[item.lane().min(2)].push_back(item);
        self.stats.pushed.fetch_add(1, Ordering::Relaxed);
        self.stats
            .high_water
            .fetch_max(inner.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.work.notify_one();
        Ok(())
    }

    /// Items queued right now.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("stage queue lock").len()
    }

    /// Block until an item is available, then pop the highest-priority
    /// one; when it carries a coalescing key, also pop up to
    /// `max_batch - 1` more items with the same key for one batched
    /// execution, scanning the head's lane and lower-priority lanes in
    /// order. Returns `None` once the queue is closed and empty.
    ///
    /// Coalescing may skip over *other* keyed items (sweep points of a
    /// different template — they are batch workloads and will coalesce on
    /// a later pop), but a keyless item is a **barrier**: a one-shot
    /// queued ahead of later sweep points is never leapfrogged, so its
    /// latency can't be inflated by batches assembled from work submitted
    /// after it — an any-position scan does exactly that, and shows up as
    /// small-job tail inflation (`small_ms_p95` on the benchmark's
    /// `serve_mixed` workload).
    pub(crate) fn pop_batch(&self, max_batch: usize) -> Option<Vec<T>> {
        let mut inner = self.inner.lock().expect("stage queue lock");
        loop {
            if let Some(head) = inner
                .lanes
                .iter_mut()
                .find_map(|l| (!l.is_empty()).then(|| l.pop_front().expect("non-empty lane")))
            {
                let mut batch = vec![head];
                if let Some(key) = batch[0].coalesce_key() {
                    let head_lane = batch[0].lane().min(2);
                    let want = max_batch.saturating_sub(1);
                    for l in &mut inner.lanes[head_lane..] {
                        let mut pos = 0;
                        while batch.len() <= want && pos < l.len() {
                            match l[pos].coalesce_key() {
                                None => break,
                                Some(k) if k == key => {
                                    batch.push(l.remove(pos).expect("position in bounds"));
                                }
                                Some(_) => pos += 1,
                            }
                        }
                    }
                }
                self.stats
                    .popped
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self.work.wait(inner).expect("stage queue lock");
        }
    }

    /// Close the queue. With `drain`, queued items stay and keep flowing
    /// to the consumers; without, they are removed and returned so
    /// the caller can fail their handles.
    pub(crate) fn close(&self, drain: bool) -> Vec<T> {
        let mut inner = self.inner.lock().expect("stage queue lock");
        inner.closed = true;
        let orphans = if drain {
            Vec::new()
        } else {
            inner.lanes.iter_mut().flat_map(std::mem::take).collect()
        };
        drop(inner);
        self.work.notify_all();
        orphans
    }

    /// Point-in-time occupancy view.
    pub(crate) fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            name: "admit",
            depth: self.len(),
            high_water: self.stats.high_water.load(Ordering::Relaxed),
            pushed: self.stats.pushed.load(Ordering::Relaxed),
            popped: self.stats.popped.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            blocked: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Item {
        id: u32,
        lane: usize,
        key: Option<TemplateId>,
    }

    impl Item {
        fn plain(id: u32, lane: usize) -> Self {
            Self {
                id,
                lane,
                key: None,
            }
        }

        fn keyed(id: u32, lane: usize, key: u64) -> Self {
            Self {
                id,
                lane,
                key: Some(TemplateId(key)),
            }
        }
    }

    impl StageItem for Item {
        fn lane(&self) -> usize {
            self.lane
        }
        fn coalesce_key(&self) -> Option<TemplateId> {
            self.key
        }
    }

    fn drain_ids(q: &StageQueue<Item>) -> Vec<u32> {
        let mut out = Vec::new();
        while q.len() > 0 {
            out.push(q.pop_batch(1).expect("non-empty")[0].id);
        }
        out
    }

    #[test]
    fn fifo_preserves_order_within_each_lane() {
        let q = StageQueue::new(16);
        q.try_push(Item::plain(1, 2)).unwrap();
        q.try_push(Item::plain(2, 0)).unwrap();
        q.try_push(Item::plain(3, 2)).unwrap();
        q.try_push(Item::plain(4, 0)).unwrap();
        assert_eq!(drain_ids(&q), [2, 4, 1, 3]);
    }

    #[test]
    fn pop_batch_coalesces_one_template_across_interleaved_lanes() {
        // Sweep points of template 7 sit in all three lanes, interleaved
        // with other traffic. One batch must collect exactly the
        // template-7 points (lane order preserved) and leave the rest.
        let q = StageQueue::new(16);
        q.try_push(Item::keyed(1, 0, 7)).unwrap();
        q.try_push(Item::plain(2, 0)).unwrap();
        q.try_push(Item::keyed(3, 1, 7)).unwrap();
        q.try_push(Item::keyed(4, 1, 9)).unwrap();
        q.try_push(Item::keyed(5, 2, 7)).unwrap();

        let batch = q.pop_batch(8).expect("items queued");
        let ids: Vec<u32> = batch.iter().map(|i| i.id).collect();
        assert_eq!(ids, [1, 3, 5], "template-7 points from every lane");

        // The stragglers are untouched and still in priority order.
        assert_eq!(drain_ids(&q), [2, 4]);
    }

    #[test]
    fn pop_batch_never_leapfrogs_a_one_shot() {
        // A keyless one-shot queued between sweep points is a barrier:
        // coalescing must not assemble a batch from points submitted
        // after it (that inflates the one-shot's tail latency). Points of
        // a *different* template may be skipped over — they batch later.
        let q = StageQueue::new(16);
        q.try_push(Item::keyed(1, 1, 7)).unwrap();
        q.try_push(Item::keyed(2, 1, 9)).unwrap();
        q.try_push(Item::plain(3, 1)).unwrap();
        q.try_push(Item::keyed(4, 1, 7)).unwrap();

        let batch = q.pop_batch(8).expect("items queued");
        let ids: Vec<u32> = batch.iter().map(|i| i.id).collect();
        assert_eq!(ids, [1], "the one-shot at position 3 blocks item 4");
        assert_eq!(drain_ids(&q), [2, 3, 4]);
    }

    #[test]
    fn pop_batch_respects_max_batch_and_uncoalescable_heads() {
        let q = StageQueue::new(16);
        for id in 1..=4 {
            q.try_push(Item::keyed(id, 1, 3)).unwrap();
        }
        let first = q.pop_batch(2).expect("items queued");
        assert_eq!(first.len(), 2, "batch capped at max_batch");

        // A keyless head never coalesces, even with keyed items behind.
        q.try_push(Item::plain(9, 0)).unwrap();
        let solo = q.pop_batch(8).expect("items queued");
        assert_eq!(solo.iter().map(|i| i.id).collect::<Vec<_>>(), [9]);
        assert_eq!(drain_ids(&q), [3, 4]);
    }

    #[test]
    fn rejection_and_occupancy_stats_track_the_edge() {
        let q = StageQueue::new(2);
        q.try_push(Item::plain(1, 1)).unwrap();
        q.try_push(Item::plain(2, 1)).unwrap();
        let err = q.try_push(Item::plain(3, 1)).unwrap_err();
        assert!(matches!(err, SubmitError::QueueFull));
        let s = q.snapshot();
        assert_eq!((s.pushed, s.rejected, s.depth, s.high_water), (2, 1, 2, 2));
    }
}
