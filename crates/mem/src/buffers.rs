//! Write buffer and prefetch buffer.
//!
//! The processor environment (paper Figure 1) interposes a 16-entry write
//! buffer between the write-through primary cache and the write-back
//! secondary cache; reads may bypass the writes queued there when the
//! consistency model permits. Prefetches are issued to a separate 16-entry
//! prefetch buffer — identical to the write buffer but carrying only
//! prefetch requests — so that prefetches are not delayed behind writes
//! (§5.1).
//!
//! These types are pure bounded FIFOs plus the entry bookkeeping; the
//! *timing* of retirement (one entry in service at a time, service time from
//! the memory system) is driven by the processor model in `dashlat-cpu`.

use std::collections::VecDeque;

use dashlat_sim::Cycle;

use crate::addr::Addr;

/// Capacity of both buffers in the paper's machine.
pub const BUFFER_ENTRIES: usize = 16;

/// What a write-buffer entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// An ordinary data write.
    Data,
    /// A release (e.g. an unlock): under RC it may not retire until all
    /// previously issued writes have completed, including their
    /// invalidation acknowledgements.
    Release,
}

/// A write waiting in the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingWrite {
    /// Target address.
    pub addr: Addr,
    /// When the processor issued it (for occupancy statistics).
    pub enqueued_at: Cycle,
    /// Data write or release.
    pub kind: WriteKind,
}

/// The 16-entry write buffer.
///
/// # Example
///
/// ```
/// use dashlat_mem::addr::Addr;
/// use dashlat_mem::buffers::{PendingWrite, WriteBuffer, WriteKind};
/// use dashlat_sim::Cycle;
///
/// let mut wb = WriteBuffer::new(2);
/// assert!(wb.try_push(PendingWrite { addr: Addr(0), enqueued_at: Cycle(0), kind: WriteKind::Data }));
/// assert!(wb.try_push(PendingWrite { addr: Addr(16), enqueued_at: Cycle(1), kind: WriteKind::Data }));
/// assert!(!wb.try_push(PendingWrite { addr: Addr(32), enqueued_at: Cycle(2), kind: WriteKind::Data }));
/// assert_eq!(wb.pop().map(|w| w.addr), Some(Addr(0)));
/// ```
#[derive(Debug)]
pub struct WriteBuffer {
    entries: VecDeque<PendingWrite>,
    capacity: usize,
    high_water: usize,
    total_pushed: u64,
    /// Enqueue sequence number of each queued entry, in lockstep with
    /// `entries` — the ground truth for W→W program order.
    seqs: VecDeque<u64>,
    next_seq: u64,
    serviced_high: Option<u64>,
    fifo_violation: Option<String>,
}

dashlat_sim::clone_fields!(WriteBuffer {
    entries,
    capacity,
    high_water,
    total_pushed,
    seqs,
    next_seq,
    serviced_high,
    fifo_violation
});

impl WriteBuffer {
    /// Creates a buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        WriteBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            total_pushed: 0,
            seqs: VecDeque::with_capacity(capacity),
            next_seq: 0,
            serviced_high: None,
            fifo_violation: None,
        }
    }

    /// Enqueues a write; returns false (and does nothing) when full.
    pub fn try_push(&mut self, w: PendingWrite) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push_back(w);
        self.seqs.push_back(self.next_seq);
        self.next_seq += 1;
        self.high_water = self.high_water.max(self.entries.len());
        self.total_pushed += 1;
        true
    }

    /// Records that the entry with enqueue sequence `seq` left the
    /// buffer, flagging a W→W FIFO violation if a *later* write was
    /// already serviced before it.
    fn note_serviced(&mut self, seq: u64, addr: Addr) {
        if let Some(high) = self.serviced_high {
            if seq < high && self.fifo_violation.is_none() {
                self.fifo_violation = Some(format!(
                    "write buffer serviced write #{seq} (addr {:#x}) after \
                     newer write #{high} had already issued: W->W program \
                     order (FIFO retirement) broken",
                    addr.0
                ));
            }
        }
        self.serviced_high = Some(self.serviced_high.map_or(seq, |h| h.max(seq)));
    }

    /// Takes the pending W→W FIFO-order violation, if the buffer ever
    /// serviced an entry out of enqueue order. The normal head-only
    /// service path can never trip this; it exists as the detection side
    /// of the opt-in write-buffer FIFO invariant
    /// (`ProcConfig::enforce_wb_fifo` in `dashlat-cpu`), which is what
    /// lets chaos testing catch reordering bugs like the seeded
    /// `verify-mutations` one as first-class invariant violations.
    pub fn take_fifo_violation(&mut self) -> Option<String> {
        self.fifo_violation.take()
    }

    /// The entry currently at the head (next to retire).
    pub fn head(&self) -> Option<&PendingWrite> {
        self.entries.front()
    }

    /// Removes and returns the head entry.
    pub fn pop(&mut self) -> Option<PendingWrite> {
        let w = self.entries.pop_front()?;
        let seq = self.seqs.pop_front().expect("seqs in lockstep");
        self.note_serviced(seq, w.addr);
        Some(w)
    }

    /// Removes an entry *out of FIFO order* — the support surface for the
    /// verifier's deliberately seeded write-buffer reordering bug
    /// (`ProcConfig::relaxation_bug` in `dashlat-cpu`). Never part of the
    /// real machine model.
    #[cfg(feature = "verify-mutations")]
    pub fn remove_at(&mut self, index: usize) -> Option<PendingWrite> {
        let w = self.entries.remove(index)?;
        let seq = self.seqs.remove(index).expect("seqs in lockstep");
        self.note_serviced(seq, w.addr);
        Some(w)
    }

    /// Inspects an arbitrary entry — companion of
    /// [`WriteBuffer::remove_at`], same caveat.
    #[cfg(feature = "verify-mutations")]
    pub fn peek_at(&self, index: usize) -> Option<&PendingWrite> {
        self.entries.get(index)
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further write can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Deepest occupancy seen (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total writes ever enqueued (telemetry).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }
}

/// A prefetch waiting in the prefetch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPrefetch {
    /// Target address.
    pub addr: Addr,
    /// Read-exclusive (ownership) prefetch vs read-shared.
    pub exclusive: bool,
    /// When the processor issued it.
    pub enqueued_at: Cycle,
}

/// The 16-entry prefetch buffer.
///
/// When an entry reaches the head, the secondary cache is checked: if the
/// line is already present the prefetch is discarded, otherwise it is issued
/// to the memory system like a normal request (§5.1). That check-and-issue
/// sequencing is driven by the processor model.
#[derive(Debug)]
pub struct PrefetchBuffer {
    entries: VecDeque<PendingPrefetch>,
    capacity: usize,
    high_water: usize,
    total_pushed: u64,
}

dashlat_sim::clone_fields!(PrefetchBuffer {
    entries,
    capacity,
    high_water,
    total_pushed
});

impl PrefetchBuffer {
    /// Creates a buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer needs at least one entry");
        PrefetchBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            total_pushed: 0,
        }
    }

    /// Enqueues a prefetch; returns false (and does nothing) when full.
    pub fn try_push(&mut self, p: PendingPrefetch) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push_back(p);
        self.high_water = self.high_water.max(self.entries.len());
        self.total_pushed += 1;
        true
    }

    /// The entry next to be issued.
    pub fn head(&self) -> Option<&PendingPrefetch> {
        self.entries.front()
    }

    /// Removes and returns the head entry.
    pub fn pop(&mut self) -> Option<PendingPrefetch> {
        self.entries.pop_front()
    }

    /// Number of queued prefetches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no further prefetch can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Deepest occupancy seen (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total prefetches ever enqueued (telemetry).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(addr: u64) -> PendingWrite {
        PendingWrite {
            addr: Addr(addr),
            enqueued_at: Cycle::ZERO,
            kind: WriteKind::Data,
        }
    }

    #[test]
    fn write_buffer_fifo_order() {
        let mut wb = WriteBuffer::new(4);
        for i in 0..4 {
            assert!(wb.try_push(w(i * 16)));
        }
        assert!(wb.is_full());
        for i in 0..4 {
            assert_eq!(wb.pop().map(|e| e.addr), Some(Addr(i * 16)));
        }
        assert!(wb.is_empty());
    }

    #[test]
    fn write_buffer_rejects_when_full() {
        let mut wb = WriteBuffer::new(1);
        assert!(wb.try_push(w(0)));
        assert!(!wb.try_push(w(16)));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.total_pushed(), 1);
    }

    #[test]
    fn write_buffer_head_peeks() {
        let mut wb = WriteBuffer::new(2);
        wb.try_push(w(0));
        wb.try_push(PendingWrite {
            addr: Addr(16),
            enqueued_at: Cycle(5),
            kind: WriteKind::Release,
        });
        assert_eq!(wb.head().map(|e| e.addr), Some(Addr(0)));
        wb.pop();
        assert_eq!(wb.head().map(|e| e.kind), Some(WriteKind::Release));
    }

    #[test]
    fn high_water_tracks_depth() {
        let mut wb = WriteBuffer::new(8);
        wb.try_push(w(0));
        wb.try_push(w(16));
        wb.try_push(w(32));
        wb.pop();
        wb.pop();
        wb.try_push(w(48));
        assert_eq!(wb.high_water(), 3);
    }

    #[test]
    fn fifo_service_never_flags_violation() {
        let mut wb = WriteBuffer::new(4);
        for i in 0..4 {
            wb.try_push(w(i * 16));
        }
        wb.pop();
        wb.pop();
        wb.try_push(w(64));
        while wb.pop().is_some() {}
        assert_eq!(wb.take_fifo_violation(), None);
    }

    #[cfg(feature = "verify-mutations")]
    #[test]
    fn out_of_order_removal_flags_violation() {
        let mut wb = WriteBuffer::new(4);
        wb.try_push(w(0));
        wb.try_push(w(16));
        wb.try_push(w(32));
        // Service #1 ahead of #0 — the seeded bug's exact move. The
        // violation fires when the *older* #0 is then serviced late.
        assert_eq!(wb.remove_at(1).map(|e| e.addr), Some(Addr(16)));
        assert_eq!(wb.take_fifo_violation(), None);
        wb.pop();
        let detail = wb.take_fifo_violation().expect("violation detected");
        assert!(detail.contains("write #0"), "detail: {detail}");
        assert!(detail.contains("write #1"), "detail: {detail}");
        // take() drains it; later in-order service stays clean.
        assert_eq!(wb.take_fifo_violation(), None);
        wb.pop();
        assert_eq!(wb.take_fifo_violation(), None);
    }

    #[test]
    fn prefetch_buffer_basics() {
        let mut pb = PrefetchBuffer::new(2);
        assert!(pb.is_empty());
        assert!(pb.try_push(PendingPrefetch {
            addr: Addr(0),
            exclusive: false,
            enqueued_at: Cycle(0),
        }));
        assert!(pb.try_push(PendingPrefetch {
            addr: Addr(16),
            exclusive: true,
            enqueued_at: Cycle(1),
        }));
        assert!(pb.is_full());
        assert!(!pb.try_push(PendingPrefetch {
            addr: Addr(32),
            exclusive: false,
            enqueued_at: Cycle(2),
        }));
        let first = pb.pop().expect("non-empty");
        assert!(!first.exclusive);
        let second = pb.pop().expect("non-empty");
        assert!(second.exclusive);
        assert_eq!(pb.total_pushed(), 2);
        assert_eq!(pb.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
