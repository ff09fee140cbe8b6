//! 2-D mesh interconnect model.
//!
//! The paper's machine uses "a low-latency scalable interconnection
//! network" (DASH's is a pair of 2-D wormhole-routed meshes). The default
//! contention model charges queueing at each node's network ports; this
//! module provides the finer alternative: a 2-D mesh with
//! dimension-ordered (X then Y) routing where every *directed link* is a
//! serially shared resource, so messages crossing the same link queue
//! behind each other and hot links become visible.
//!
//! The Table 1 latencies already include uncontended network transit time;
//! the mesh therefore only contributes *queueing* delay, exactly like the
//! port model — just at link rather than endpoint granularity.

use dashlat_sim::Cycle;

use crate::addr::NodeId;
use crate::contention::Resource;

/// Direction of a mesh link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }
}

/// A 2-D mesh of directed links with dimension-ordered routing.
///
/// Nodes are numbered row-major: node `i` sits at
/// `(i % width, i / width)`.
#[derive(Debug)]
pub struct Mesh {
    width: usize,
    height: usize,
    /// `links[node * 4 + dir]`: the outgoing link of `node` in `dir`.
    links: Vec<Resource>,
    /// Cycles a line-sized message occupies each link.
    occupancy: Cycle,
    /// `coords[node]` = grid `(x, y)`, precomputed so routing never
    /// divides by the mesh width on the per-message path.
    coords: Vec<(u32, u32)>,
}

dashlat_sim::clone_fields!(Mesh {
    width,
    height,
    links,
    occupancy,
    coords
});

impl Mesh {
    /// Frees every link, as if no message had crossed any.
    pub(crate) fn reset(&mut self) {
        self.links.fill(Resource::default());
    }

    /// Builds the smallest mesh that fits `nodes` (width = ⌈√nodes⌉).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, occupancy: Cycle) -> Self {
        assert!(nodes > 0, "mesh needs at least one node");
        let width = (nodes as f64).sqrt().ceil() as usize;
        let height = nodes.div_ceil(width);
        let coords = (0..width * height)
            .map(|n| ((n % width) as u32, (n / width) as u32))
            .collect();
        Mesh {
            width,
            height,
            links: vec![Resource::default(); width * height * 4],
            occupancy,
            coords,
        }
    }

    /// Grid position of a node.
    #[inline]
    fn pos(&self, n: NodeId) -> (usize, usize) {
        let (x, y) = self.coords[n.0];
        (x as usize, y as usize)
    }

    /// Mesh dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of hops of the dimension-ordered route between two nodes
    /// (the Manhattan distance).
    #[inline]
    pub fn hops(&self, from: NodeId, to: NodeId) -> usize {
        let (fx, fy) = self.pos(from);
        let (tx, ty) = self.pos(to);
        fx.abs_diff(tx) + fy.abs_diff(ty)
    }

    /// Sends a line-sized message `from → to` starting at `now`;
    /// returns the total queueing delay over the route's links
    /// (dimension-ordered: X first, then Y). Zero for `from == to`.
    pub fn send(&mut self, now: Cycle, from: NodeId, to: NodeId) -> Cycle {
        self.send_occupying(now, from, to, self.occupancy)
    }

    /// Like [`Mesh::send`], but the message holds each link for an explicit
    /// `occupancy` — used by fault injection to model a delayed packet
    /// congesting every link it crosses.
    pub fn send_occupying(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        occupancy: Cycle,
    ) -> Cycle {
        if from == to {
            return Cycle::ZERO;
        }
        let (mut x, mut y) = self.pos(from);
        let (tx, ty) = self.pos(to);
        let mut t = now;
        let mut delay = Cycle::ZERO;
        while x != tx {
            let (dir, nx) = if x < tx {
                (Dir::East, x + 1)
            } else {
                (Dir::West, x - 1)
            };
            let node = y * self.width + x;
            let d = self.links[node * 4 + dir.index()].acquire(t, occupancy);
            delay += d;
            t += d;
            x = nx;
        }
        while y != ty {
            let (dir, ny) = if y < ty {
                (Dir::South, y + 1)
            } else {
                (Dir::North, y - 1)
            };
            let node = y * self.width + x;
            let d = self.links[node * 4 + dir.index()].acquire(t, occupancy);
            delay += d;
            t += d;
            y = ny;
        }
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_cover_the_node_count() {
        for n in [1usize, 2, 4, 9, 15, 16, 17, 64] {
            let m = Mesh::new(n, Cycle(4));
            let (w, h) = m.dims();
            assert!(w * h >= n, "{n} nodes don't fit a {w}x{h} mesh");
        }
        let m = Mesh::new(16, Cycle(4));
        assert_eq!(m.dims(), (4, 4));
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = Mesh::new(16, Cycle(4)); // 4x4
        assert_eq!(m.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3); // same row
        assert_eq!(m.hops(NodeId(0), NodeId(12)), 3); // same column
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6); // opposite corner
        assert_eq!(m.hops(NodeId(5), NodeId(10)), 2);
    }

    #[test]
    fn local_send_is_free() {
        let mut m = Mesh::new(16, Cycle(4));
        assert_eq!(m.send(Cycle(0), NodeId(7), NodeId(7)), Cycle::ZERO);
    }

    #[test]
    fn uncontended_send_has_no_queueing() {
        let mut m = Mesh::new(16, Cycle(4));
        assert_eq!(m.send(Cycle(0), NodeId(0), NodeId(15)), Cycle::ZERO);
    }

    #[test]
    fn messages_sharing_a_link_queue() {
        let mut m = Mesh::new(16, Cycle(4));
        // 0 -> 3 and 1 -> 3 share the links 1->2 and 2->3 (X routing).
        assert_eq!(m.send(Cycle(0), NodeId(0), NodeId(3)), Cycle::ZERO);
        let d = m.send(Cycle(0), NodeId(1), NodeId(3));
        assert!(d > Cycle::ZERO, "no queueing on the shared row links");
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut m = Mesh::new(16, Cycle(4));
        assert_eq!(m.send(Cycle(0), NodeId(0), NodeId(3)), Cycle::ZERO);
        // Row 1 is untouched by the first message.
        assert_eq!(m.send(Cycle(0), NodeId(4), NodeId(7)), Cycle::ZERO);
    }

    #[test]
    fn dimension_order_goes_x_first() {
        let mut m = Mesh::new(16, Cycle(4));
        // 0 -> 5 routes 0->1 (east) then 1->5 (south). A prior message on
        // 0's south link must NOT delay it.
        assert_eq!(m.send(Cycle(0), NodeId(0), NodeId(4)), Cycle::ZERO); // uses 0's south link
        let d = m.send(Cycle(0), NodeId(0), NodeId(5));
        assert_eq!(
            d,
            Cycle::ZERO,
            "X-first routing should avoid 0's south link"
        );
        // But a message using 0's east link does delay it.
        let d2 = m.send(Cycle(0), NodeId(0), NodeId(1));
        assert!(d2 > Cycle::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Total queueing is finite and monotone: issuing the same message
        /// set twice in a row can only see equal-or-larger delays, and
        /// every send's delay is bounded by (messages so far) × occupancy ×
        /// hops.
        #[test]
        fn delays_are_bounded(sends in proptest::collection::vec((0usize..16, 0usize..16), 1..100)) {
            let occ = 4u64;
            let mut m = Mesh::new(16, Cycle(occ));
            for (i, &(f, t)) in sends.iter().enumerate() {
                let hops = m.hops(NodeId(f), NodeId(t)) as u64;
                let d = m.send(Cycle::ZERO, NodeId(f), NodeId(t));
                prop_assert!(
                    d.as_u64() <= (i as u64 + 1) * occ * hops.max(1),
                    "send {i} delayed {d} beyond the all-conflict bound"
                );
            }
        }
    }
}
