//! Logical lock and barrier state.
//!
//! The paper's applications synchronize with the Argonne macro package:
//! spin locks and global barriers over ordinary shared lines. The machine
//! charges the *memory traffic* of acquiring/releasing through the memory
//! system (the lock/barrier lines are real addresses that bounce between
//! caches); this module tracks the *logical* state — who holds which lock,
//! who is queued, how many processes have arrived at a barrier.
//!
//! Modelling note: waiters are queued and woken in FIFO order, each paying a
//! fresh miss on the lock line at wake-up, instead of simulating every spin
//! iteration. The elapsed wait is identical; only the (cached, hence cheap)
//! intermediate spin reads are elided. RC's earlier-release benefit is
//! preserved because the release propagates through the write buffer before
//! the wake-up happens.

use std::collections::VecDeque;

use dashlat_mem::addr::Addr;

use crate::ops::{BarrierId, LockId, ProcId, SyncConfig};

#[derive(Debug)]
struct Lock {
    addr: Addr,
    holder: Option<ProcId>,
    waiters: VecDeque<ProcId>,
}

dashlat_sim::clone_fields!(Lock {
    addr,
    holder,
    waiters
});

#[derive(Debug)]
struct Barrier {
    addr: Addr,
    arrived: usize,
    waiting: Vec<ProcId>,
    episodes: u64,
}

dashlat_sim::clone_fields!(Barrier {
    addr,
    arrived,
    waiting,
    episodes
});

/// Result of a lock acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was free and is now held by the caller.
    Granted,
    /// The lock is held; the caller has been queued.
    Queued,
}

/// Result of arriving at a barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// More processes are still missing; the caller waits.
    Wait,
    /// The caller was the last to arrive: everyone listed (the earlier
    /// arrivals) must be woken, and the caller proceeds.
    ReleaseAll(Vec<ProcId>),
}

/// Machine-wide synchronization state.
#[derive(Debug)]
pub struct SyncState {
    locks: Vec<Lock>,
    barriers: Vec<Barrier>,
    participants: usize,
    lock_ops: u64,
    barrier_ops: u64,
}

dashlat_sim::clone_fields!(SyncState {
    locks,
    barriers,
    participants,
    lock_ops,
    barrier_ops
});

impl SyncState {
    /// Builds the lock/barrier tables for a workload.
    pub fn new(cfg: &SyncConfig, participants: usize) -> Self {
        SyncState {
            locks: cfg
                .lock_addrs
                .iter()
                .map(|&addr| Lock {
                    addr,
                    holder: None,
                    waiters: VecDeque::new(),
                })
                .collect(),
            barriers: cfg
                .barrier_addrs
                .iter()
                .map(|&addr| Barrier {
                    addr,
                    arrived: 0,
                    waiting: Vec::new(),
                    episodes: 0,
                })
                .collect(),
            participants,
            lock_ops: 0,
            barrier_ops: 0,
        }
    }

    /// Backing address of a lock (its cache line carries the traffic).
    pub fn lock_addr(&self, lock: LockId) -> Addr {
        self.locks[lock.0].addr
    }

    /// Backing address of a barrier.
    pub fn barrier_addr(&self, barrier: BarrierId) -> Addr {
        self.barriers[barrier.0].addr
    }

    /// Current holder of a lock, if any (watchdog diagnostics).
    pub fn lock_holder(&self, lock: LockId) -> Option<ProcId> {
        self.locks[lock.0].holder
    }

    /// Attempts to acquire `lock` for `pid`.
    ///
    /// Note that `pid` may legitimately queue behind *itself*: under
    /// release consistency the processor runs ahead of its write buffer, so
    /// a process can reach its next acquire of a lock while its own release
    /// of that lock is still buffered. The queued acquire is granted when
    /// the release retires. (A genuine double-acquire without a release is
    /// a workload bug and surfaces as a reported deadlock.)
    pub fn acquire(&mut self, lock: LockId, pid: ProcId) -> AcquireOutcome {
        self.lock_ops += 1;
        let l = &mut self.locks[lock.0];
        match l.holder {
            None => {
                l.holder = Some(pid);
                AcquireOutcome::Granted
            }
            Some(_) => {
                l.waiters.push_back(pid);
                AcquireOutcome::Queued
            }
        }
    }

    /// Releases `lock`; if a waiter was queued, ownership passes to it and
    /// it is returned so the machine can wake it.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not hold the lock.
    pub fn release(&mut self, lock: LockId, pid: ProcId) -> Option<ProcId> {
        self.lock_ops += 1;
        let l = &mut self.locks[lock.0];
        assert_eq!(
            l.holder,
            Some(pid),
            "{pid} releasing a lock it does not hold"
        );
        match l.waiters.pop_front() {
            Some(next) => {
                l.holder = Some(next);
                Some(next)
            }
            None => {
                l.holder = None;
                None
            }
        }
    }

    /// Records `pid` arriving at `barrier`.
    pub fn arrive(&mut self, barrier: BarrierId, pid: ProcId) -> BarrierOutcome {
        self.barrier_ops += 1;
        let b = &mut self.barriers[barrier.0];
        b.arrived += 1;
        if b.arrived == self.participants {
            b.arrived = 0;
            b.episodes += 1;
            BarrierOutcome::ReleaseAll(std::mem::take(&mut b.waiting))
        } else {
            b.waiting.push(pid);
            BarrierOutcome::Wait
        }
    }

    /// Total lock operations (acquires + releases) — Table 2's "Locks".
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops
    }

    /// Total individual barrier arrivals — Table 2 counts per-process
    /// barrier operations.
    pub fn barrier_ops(&self) -> u64 {
        self.barrier_ops
    }

    /// Completed barrier episodes.
    pub fn barrier_episodes(&self) -> u64 {
        self.barriers.iter().map(|b| b.episodes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(locks: usize, barriers: usize) -> SyncConfig {
        SyncConfig {
            lock_addrs: (0..locks).map(|i| Addr(i as u64 * 16)).collect(),
            barrier_addrs: (0..barriers)
                .map(|i| Addr(0x1000 + i as u64 * 16))
                .collect(),
            labeled_ranges: Vec::new(),
        }
    }

    #[test]
    fn uncontended_lock() {
        let mut s = SyncState::new(&cfg(1, 0), 2);
        assert_eq!(s.acquire(LockId(0), ProcId(0)), AcquireOutcome::Granted);
        assert_eq!(s.release(LockId(0), ProcId(0)), None);
        assert_eq!(s.lock_ops(), 2);
    }

    #[test]
    fn contended_lock_hands_off_fifo() {
        let mut s = SyncState::new(&cfg(1, 0), 4);
        assert_eq!(s.acquire(LockId(0), ProcId(0)), AcquireOutcome::Granted);
        assert_eq!(s.acquire(LockId(0), ProcId(1)), AcquireOutcome::Queued);
        assert_eq!(s.acquire(LockId(0), ProcId(2)), AcquireOutcome::Queued);
        assert_eq!(s.release(LockId(0), ProcId(0)), Some(ProcId(1)));
        assert_eq!(s.release(LockId(0), ProcId(1)), Some(ProcId(2)));
        assert_eq!(s.release(LockId(0), ProcId(2)), None);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_by_non_holder_panics() {
        let mut s = SyncState::new(&cfg(1, 0), 2);
        s.acquire(LockId(0), ProcId(0));
        s.release(LockId(0), ProcId(1));
    }

    #[test]
    fn reacquire_behind_own_buffered_release_queues() {
        // RC lets a process reach its next acquire before its own release
        // retires: the acquire queues and is granted by the release.
        let mut s = SyncState::new(&cfg(1, 0), 2);
        assert_eq!(s.acquire(LockId(0), ProcId(0)), AcquireOutcome::Granted);
        assert_eq!(s.acquire(LockId(0), ProcId(0)), AcquireOutcome::Queued);
        assert_eq!(s.release(LockId(0), ProcId(0)), Some(ProcId(0)));
        assert_eq!(s.release(LockId(0), ProcId(0)), None);
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut s = SyncState::new(&cfg(0, 1), 3);
        assert_eq!(s.arrive(BarrierId(0), ProcId(0)), BarrierOutcome::Wait);
        assert_eq!(s.arrive(BarrierId(0), ProcId(1)), BarrierOutcome::Wait);
        match s.arrive(BarrierId(0), ProcId(2)) {
            BarrierOutcome::ReleaseAll(w) => assert_eq!(w, vec![ProcId(0), ProcId(1)]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.barrier_episodes(), 1);
        assert_eq!(s.barrier_ops(), 3);
    }

    #[test]
    fn barrier_is_reusable() {
        let mut s = SyncState::new(&cfg(0, 1), 2);
        for _ in 0..3 {
            assert_eq!(s.arrive(BarrierId(0), ProcId(0)), BarrierOutcome::Wait);
            assert!(matches!(
                s.arrive(BarrierId(0), ProcId(1)),
                BarrierOutcome::ReleaseAll(_)
            ));
        }
        assert_eq!(s.barrier_episodes(), 3);
    }

    #[test]
    fn addresses_exposed() {
        let s = SyncState::new(&cfg(2, 1), 2);
        assert_eq!(s.lock_addr(LockId(1)), Addr(16));
        assert_eq!(s.barrier_addr(BarrierId(0)), Addr(0x1000));
    }
}
