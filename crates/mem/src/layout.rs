//! Shared-address-space layout and page placement.
//!
//! The paper's applications control data placement explicitly: MP3D
//! allocates each processor's particles from that processor's node memory,
//! LU allocates owned columns locally, and everything without a directive is
//! distributed round-robin across nodes page by page (§2.3). The
//! [`AddressSpaceBuilder`] reproduces those semantics: workloads allocate
//! named segments with a [`Placement`], and the resulting [`PageMap`] tells
//! the memory system which node is the *home* of every page.

use std::fmt;

use crate::addr::{Addr, NodeId, PAGE_BYTES};

/// Where the pages of a segment live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All pages homed on one node (the "allocate from local shared memory"
    /// directive the applications use for per-processor data).
    Local(NodeId),
    /// Pages distributed round-robin across all nodes — the default policy
    /// for data without directives.
    RoundRobin,
}

/// A contiguous allocation returned by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    base: Addr,
    len: u64,
}

impl Segment {
    /// First byte of the segment.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of byte `offset` within the segment.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len` (the segment does not contain that byte).
    pub fn at(&self, offset: u64) -> Addr {
        assert!(
            offset < self.len,
            "offset {offset} beyond segment of {} bytes",
            self.len
        );
        self.base.offset(offset)
    }

    /// Address of element `index` in an array of `stride`-byte records.
    ///
    /// # Panics
    ///
    /// Panics if the element extends past the end of the segment.
    pub fn elem(&self, index: u64, stride: u64) -> Addr {
        let off = index * stride;
        assert!(
            off + stride <= self.len,
            "element {index} (stride {stride}) beyond segment of {} bytes",
            self.len
        );
        self.base.offset(off)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, +{})", self.base, self.len)
    }
}

/// Maps every page of the shared space to its home node.
#[derive(Debug)]
pub struct PageMap {
    homes: Vec<NodeId>,
    nodes: usize,
}

dashlat_sim::clone_fields!(PageMap { homes, nodes });

impl PageMap {
    /// Rebuilds a page map from explicit per-page homes (e.g. from a
    /// recorded trace).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or any home is out of range.
    pub fn from_homes(homes: Vec<NodeId>, nodes: usize) -> Self {
        assert!(nodes > 0, "page map needs at least one node");
        assert!(homes.iter().all(|h| h.0 < nodes), "page home out of range");
        PageMap { homes, nodes }
    }

    /// Per-page home nodes (index = page number).
    pub fn homes(&self) -> &[NodeId] {
        &self.homes
    }

    /// Home node of `addr`'s page.
    ///
    /// Pages beyond the allocated space fall back to round-robin by page
    /// number, so stray addresses still have a well-defined home.
    pub fn home_of(&self, addr: Addr) -> NodeId {
        let page = addr.page();
        self.homes
            .get(page.0 as usize)
            .copied()
            .unwrap_or(NodeId(page.0 as usize % self.nodes))
    }

    /// Number of mapped pages.
    pub fn pages(&self) -> usize {
        self.homes.len()
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total shared bytes that have been allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.homes.len() as u64 * PAGE_BYTES
    }
}

/// Incrementally builds the shared address space for a workload.
///
/// Each allocation is rounded up to whole pages (placement is a per-page
/// property) and segments never share a page, so a `Local` directive for one
/// structure can't accidentally re-home another.
///
/// # Example
///
/// ```
/// use dashlat_mem::addr::NodeId;
/// use dashlat_mem::layout::{AddressSpaceBuilder, Placement};
///
/// let mut b = AddressSpaceBuilder::new(4);
/// let particles = b.alloc("particles-p0", 10_000, Placement::Local(NodeId(0)));
/// let cells = b.alloc("cells", 100_000, Placement::RoundRobin);
/// let map = b.build();
/// assert_eq!(map.home_of(particles.base()), NodeId(0));
/// assert!(map.home_of(cells.base()).0 < 4);
/// ```
#[derive(Debug)]
pub struct AddressSpaceBuilder {
    nodes: usize,
    homes: Vec<NodeId>,
    rr_next: usize,
    segments: Vec<(String, Segment)>,
}

impl AddressSpaceBuilder {
    /// Starts a layout for a machine with `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds [`NodeId::MAX_NODES`].
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0 && nodes <= crate::addr::NodeId::MAX_NODES);
        AddressSpaceBuilder {
            nodes,
            homes: Vec::new(),
            rr_next: 0,
            segments: Vec::new(),
        }
    }

    /// Allocates `bytes` (rounded up to whole pages) with the given
    /// placement, returning the segment.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or a `Local` placement names a node outside
    /// the machine.
    pub fn alloc(&mut self, name: &str, bytes: u64, placement: Placement) -> Segment {
        assert!(bytes > 0, "zero-byte allocation for segment {name:?}");
        if let Placement::Local(n) = placement {
            assert!(n.0 < self.nodes, "local placement on nonexistent {n}");
        }
        let pages = bytes.div_ceil(PAGE_BYTES);
        let base = Addr(self.homes.len() as u64 * PAGE_BYTES);
        for _ in 0..pages {
            let home = match placement {
                Placement::Local(n) => n,
                Placement::RoundRobin => {
                    let n = NodeId(self.rr_next);
                    self.rr_next = (self.rr_next + 1) % self.nodes;
                    n
                }
            };
            self.homes.push(home);
        }
        let seg = Segment { base, len: bytes };
        self.segments.push((name.to_owned(), seg));
        seg
    }

    /// Allocates one segment per node, each `bytes_per_node` long and homed
    /// on its node — the common "per-processor local arrays" pattern.
    pub fn alloc_per_node(&mut self, name: &str, bytes_per_node: u64) -> Vec<Segment> {
        (0..self.nodes)
            .map(|n| {
                self.alloc(
                    &format!("{name}-n{n}"),
                    bytes_per_node,
                    Placement::Local(NodeId(n)),
                )
            })
            .collect()
    }

    /// Total bytes allocated so far (page granular).
    pub fn allocated_bytes(&self) -> u64 {
        self.homes.len() as u64 * PAGE_BYTES
    }

    /// Finishes the layout.
    pub fn build(self) -> PageMap {
        PageMap {
            homes: self.homes,
            nodes: self.nodes,
        }
    }

    /// Named segments allocated so far (for debugging/reporting).
    pub fn segments(&self) -> impl Iterator<Item = (&str, Segment)> {
        self.segments.iter().map(|(n, s)| (n.as_str(), *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_placement_homes_all_pages() {
        let mut b = AddressSpaceBuilder::new(8);
        let seg = b.alloc("x", 3 * PAGE_BYTES + 1, Placement::Local(NodeId(5)));
        let map = b.build();
        for off in [0, PAGE_BYTES, 2 * PAGE_BYTES, 3 * PAGE_BYTES] {
            assert_eq!(map.home_of(seg.base().offset(off)), NodeId(5));
        }
    }

    #[test]
    fn round_robin_cycles_nodes() {
        let mut b = AddressSpaceBuilder::new(4);
        let seg = b.alloc("y", 8 * PAGE_BYTES, Placement::RoundRobin);
        let map = b.build();
        let homes: Vec<usize> = (0..8)
            .map(|p| map.home_of(seg.base().offset(p * PAGE_BYTES)).0)
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_continues_across_allocations() {
        let mut b = AddressSpaceBuilder::new(4);
        b.alloc("a", PAGE_BYTES, Placement::RoundRobin); // takes node 0
        let seg = b.alloc("b", PAGE_BYTES, Placement::RoundRobin);
        let map = b.build();
        assert_eq!(map.home_of(seg.base()), NodeId(1));
    }

    #[test]
    fn segments_do_not_share_pages() {
        let mut b = AddressSpaceBuilder::new(2);
        let a = b.alloc("a", 10, Placement::Local(NodeId(0)));
        let c = b.alloc("c", 10, Placement::Local(NodeId(1)));
        assert_eq!(c.base().0, a.base().0 + PAGE_BYTES);
        let map = b.build();
        assert_eq!(map.home_of(a.base()), NodeId(0));
        assert_eq!(map.home_of(c.base()), NodeId(1));
    }

    #[test]
    fn elem_addressing() {
        let mut b = AddressSpaceBuilder::new(1);
        let seg = b.alloc("arr", 64, Placement::RoundRobin);
        assert_eq!(seg.elem(0, 16), seg.base());
        assert_eq!(seg.elem(3, 16), seg.base().offset(48));
    }

    #[test]
    #[should_panic(expected = "beyond segment")]
    fn elem_out_of_bounds_panics() {
        let mut b = AddressSpaceBuilder::new(1);
        let seg = b.alloc("arr", 64, Placement::RoundRobin);
        let _ = seg.elem(4, 16);
    }

    #[test]
    fn per_node_allocation() {
        let mut b = AddressSpaceBuilder::new(3);
        let segs = b.alloc_per_node("loc", 100);
        let map = b.build();
        assert_eq!(segs.len(), 3);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(map.home_of(s.base()), NodeId(i));
        }
    }

    #[test]
    fn unmapped_pages_fall_back_round_robin() {
        let b = AddressSpaceBuilder::new(4);
        let map = b.build();
        assert_eq!(map.home_of(Addr(0)), NodeId(0));
        assert_eq!(map.home_of(Addr(PAGE_BYTES)), NodeId(1));
        assert_eq!(map.home_of(Addr(5 * PAGE_BYTES)), NodeId(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every address inside an allocated segment has a home within the
        /// machine, and Local segments are homed exactly where requested.
        #[test]
        fn homes_are_valid(nodes in 1usize..16,
                           sizes in proptest::collection::vec(1u64..20_000, 1..10),
                           locals in proptest::collection::vec(any::<bool>(), 10)) {
            let mut b = AddressSpaceBuilder::new(nodes);
            let mut segs = Vec::new();
            for (i, &sz) in sizes.iter().enumerate() {
                let placement = if locals[i % locals.len()] {
                    Placement::Local(NodeId(i % nodes))
                } else {
                    Placement::RoundRobin
                };
                segs.push((b.alloc(&format!("s{i}"), sz, placement), placement));
            }
            let map = b.build();
            for (seg, placement) in segs {
                for probe in [0, seg.len() / 2, seg.len() - 1] {
                    let home = map.home_of(seg.at(probe));
                    prop_assert!(home.0 < nodes);
                    if let Placement::Local(n) = placement {
                        prop_assert_eq!(home, n);
                    }
                }
            }
        }
    }
}
