//! Occupancy-based contention model for buses, network ports and
//! directory/memory controllers.
//!
//! The paper models "the contention and arbitration for buses … in detail"
//! (§2.3) on top of the fixed Table 1 latencies. We reproduce that with a
//! queueing model: every serially-shared resource (a node's bus, its network
//! in/out ports, its memory/directory controller) has a `busy-until` time;
//! a transaction that needs the resource starts no earlier than that time
//! and pushes it forward by the transaction's occupancy. Because the
//! simulator processes requests in nondecreasing simulated time, this yields
//! a consistent FCFS queueing discipline.
//!
//! Occupancies are derived from the paper's bandwidths: a 16-byte line on a
//! 133 Mbyte/s node bus takes ~120 ns = 4 pclocks; the ~150 Mbyte/s network
//! ports are similar.

use dashlat_sim::Cycle;

use crate::addr::NodeId;

/// A serially shared resource with FCFS queueing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Resource {
    free_at: Cycle,
}

impl Resource {
    /// Acquires the resource at or after `now` for `occupancy` cycles;
    /// returns the queueing delay suffered (start − now).
    ///
    /// This is the whole bookkeeping cost of the contention model: an idle
    /// resource stores only the time it last went free, so idle cycles
    /// cost nothing and each acquisition is one compare and one add.
    #[inline]
    pub fn acquire(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        let start = self.free_at.max(now);
        self.free_at = start + occupancy;
        start.saturating_sub(now)
    }

    /// When the resource next becomes free.
    #[inline]
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }
}

/// Occupancy parameters (cycles a transaction holds each resource).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyTable {
    /// Node bus occupancy per bus transaction (16-byte line @133 MB/s).
    pub bus: Cycle,
    /// Network port occupancy per line-sized message (@150 MB/s).
    pub network: Cycle,
    /// Memory/directory controller occupancy per request.
    pub memory: Cycle,
}

impl OccupancyTable {
    /// DASH-prototype derived defaults.
    pub fn dash() -> Self {
        OccupancyTable {
            bus: Cycle(4),
            network: Cycle(4),
            memory: Cycle(8),
        }
    }
}

impl Default for OccupancyTable {
    fn default() -> Self {
        Self::dash()
    }
}

/// How the interconnection network's queueing is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkModel {
    /// Per-node in/out port occupancy (endpoint queueing only).
    #[default]
    Ports,
    /// A 2-D wormhole mesh with dimension-ordered routing: queueing on
    /// every directed link along the route (see [`crate::mesh::Mesh`]).
    Mesh2D,
}

/// All contended resources of the machine: a handful of `busy-until`
/// vectors, so a clone is a flat memcpy.
#[derive(Debug)]
pub struct Contention {
    enabled: bool,
    occ: OccupancyTable,
    bus: Vec<Resource>,
    net_out: Vec<Resource>,
    net_in: Vec<Resource>,
    memory: Vec<Resource>,
    mesh: Option<crate::mesh::Mesh>,
}

dashlat_sim::clone_fields!(Contention {
    enabled,
    occ,
    bus,
    net_out,
    net_in,
    memory,
    mesh
});

impl Contention {
    /// Creates the resource pools for `nodes` nodes. When `enabled` is
    /// false every acquisition is free (useful for isolating protocol
    /// effects in tests).
    pub fn new(nodes: usize, occ: OccupancyTable, enabled: bool) -> Self {
        Self::with_network(nodes, occ, enabled, NetworkModel::Ports)
    }

    /// Creates the resource pools with an explicit network model.
    pub fn with_network(
        nodes: usize,
        occ: OccupancyTable,
        enabled: bool,
        network: NetworkModel,
    ) -> Self {
        let mesh = match network {
            NetworkModel::Ports => None,
            NetworkModel::Mesh2D => Some(crate::mesh::Mesh::new(nodes, occ.network)),
        };
        Contention {
            enabled,
            occ,
            bus: vec![Resource::default(); nodes],
            net_out: vec![Resource::default(); nodes],
            net_in: vec![Resource::default(); nodes],
            memory: vec![Resource::default(); nodes],
            mesh,
        }
    }

    /// Queueing delay for a transaction on `node`'s bus.
    #[inline]
    pub fn bus(&mut self, now: Cycle, node: NodeId) -> Cycle {
        if !self.enabled {
            return Cycle::ZERO;
        }
        self.bus[node.0].acquire(now, self.occ.bus)
    }

    /// Queueing delay for `node`'s memory/directory controller.
    #[inline]
    pub fn memory(&mut self, now: Cycle, node: NodeId) -> Cycle {
        if !self.enabled {
            return Cycle::ZERO;
        }
        self.memory[node.0].acquire(now, self.occ.memory)
    }

    /// Queueing delay for a network message `from → to`. Under the port
    /// model this occupies the sender's out port and the receiver's in
    /// port; under the mesh model every directed link along the
    /// dimension-ordered route.
    #[inline]
    pub fn network(&mut self, now: Cycle, from: NodeId, to: NodeId) -> Cycle {
        self.network_perturbed(now, from, to, Cycle::ZERO)
    }

    /// Like [`Contention::network`], but the packet is `slow_by` cycles
    /// slower in transit (fault injection): the extra time is added to the
    /// returned delay *and* to the occupancy of every resource the packet
    /// crosses, so traffic behind a delayed packet queues longer too.
    pub fn network_perturbed(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        slow_by: Cycle,
    ) -> Cycle {
        if from == to {
            return Cycle::ZERO;
        }
        if !self.enabled {
            return slow_by;
        }
        let occ = self.occ.network + slow_by;
        if let Some(mesh) = &mut self.mesh {
            let d1 = self.net_out[from.0].acquire(now, occ);
            let d2 = mesh.send_occupying(now + d1, from, to, occ);
            return d1 + d2 + slow_by;
        }
        let d1 = self.net_out[from.0].acquire(now, occ);
        let d2 = self.net_in[to.0].acquire(now + d1, occ);
        d1 + d2 + slow_by
    }

    /// Whether queueing is being modelled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Frees every resource, as if no transaction had occupied any.
    pub(crate) fn reset(&mut self) {
        for r in [
            &mut self.bus,
            &mut self.net_out,
            &mut self.net_in,
            &mut self.memory,
        ] {
            r.fill(Resource::default());
        }
        if let Some(mesh) = &mut self.mesh {
            mesh.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_resource_is_free() {
        let mut r = Resource::default();
        assert_eq!(r.acquire(Cycle(100), Cycle(4)), Cycle::ZERO);
        assert_eq!(r.free_at(), Cycle(104));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::default();
        assert_eq!(r.acquire(Cycle(0), Cycle(4)), Cycle::ZERO);
        assert_eq!(r.acquire(Cycle(0), Cycle(4)), Cycle(4));
        assert_eq!(r.acquire(Cycle(0), Cycle(4)), Cycle(8));
        assert_eq!(r.free_at(), Cycle(12));
    }

    #[test]
    fn late_request_after_idle_is_free() {
        let mut r = Resource::default();
        r.acquire(Cycle(0), Cycle(4));
        assert_eq!(r.acquire(Cycle(50), Cycle(4)), Cycle::ZERO);
        assert_eq!(r.free_at(), Cycle(54));
    }

    #[test]
    fn disabled_contention_is_always_free() {
        let mut c = Contention::new(2, OccupancyTable::dash(), false);
        for _ in 0..10 {
            assert_eq!(c.bus(Cycle(0), NodeId(0)), Cycle::ZERO);
            assert_eq!(c.network(Cycle(0), NodeId(0), NodeId(1)), Cycle::ZERO);
            assert_eq!(c.memory(Cycle(0), NodeId(0)), Cycle::ZERO);
        }
        assert!(!c.is_enabled());
    }

    #[test]
    fn buses_are_per_node() {
        let mut c = Contention::new(2, OccupancyTable::dash(), true);
        assert_eq!(c.bus(Cycle(0), NodeId(0)), Cycle::ZERO);
        // Other node's bus is independent.
        assert_eq!(c.bus(Cycle(0), NodeId(1)), Cycle::ZERO);
        // Same node queues.
        assert_eq!(c.bus(Cycle(0), NodeId(0)), Cycle(4));
    }

    #[test]
    fn local_network_hop_is_free() {
        let mut c = Contention::new(2, OccupancyTable::dash(), true);
        assert_eq!(c.network(Cycle(0), NodeId(0), NodeId(0)), Cycle::ZERO);
        assert_eq!(c.network(Cycle(0), NodeId(0), NodeId(0)), Cycle::ZERO);
    }

    #[test]
    fn network_occupies_both_ports() {
        let mut c = Contention::new(3, OccupancyTable::dash(), true);
        assert_eq!(c.network(Cycle(0), NodeId(0), NodeId(1)), Cycle::ZERO);
        // 2 -> 1 contends on node 1's in-port.
        let d = c.network(Cycle(0), NodeId(2), NodeId(1));
        assert_eq!(d, Cycle(4));
        // 0 -> 2: node 0's out port is busy until cycle 4.
        let d2 = c.network(Cycle(0), NodeId(0), NodeId(2));
        assert_eq!(d2, Cycle(4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// FCFS invariant: serving requests in time order, each request's
        /// start time (now + delay) is at least the previous request's start
        /// and the resource is never double-booked.
        #[test]
        fn resource_never_double_books(gaps in proptest::collection::vec(0u64..10, 1..100),
                                       occ in 1u64..8) {
            let mut r = Resource::default();
            let mut now = Cycle::ZERO;
            let mut prev_end = Cycle::ZERO;
            for g in gaps {
                now += Cycle(g);
                let delay = r.acquire(now, Cycle(occ));
                let start = now + delay;
                prop_assert!(start >= prev_end, "overlapping service intervals");
                prev_end = start + Cycle(occ);
                prop_assert_eq!(r.free_at(), prev_end);
            }
        }
    }
}
