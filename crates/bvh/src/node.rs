//! Node identifiers and layout conventions.
//!
//! For `n` leaves the tree stores `n − 1` internal nodes and `n` leaves in
//! one id space:
//!
//! - ids `0 .. n-1` are **internal** nodes (id = Apetrei split position);
//! - ids `n-1 .. 2n-1` are **leaves**; leaf id `n-1 + r` holds the point of
//!   Morton rank `r`.
//!
//! With `n == 1` there are no internal nodes and the root is the single leaf
//! (id `0`).

/// A node identifier inside one [`crate::Bvh`].
pub type NodeId = u32;

/// Sentinel for "no node" (the root's parent).
pub const INVALID_NODE: NodeId = u32::MAX;

/// Compile-time-ish helpers tying ids, ranks and leaf counts together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Number of leaves (== number of points).
    pub n: usize,
}

impl Layout {
    /// Number of internal nodes.
    #[inline]
    pub fn internal_count(&self) -> usize {
        self.n.saturating_sub(1)
    }

    /// Total node count (`2n − 1`, or 1 when `n == 1`).
    #[inline]
    pub fn node_count(&self) -> usize {
        2 * self.n - 1
    }

    /// True when `id` denotes a leaf.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        (id as usize) >= self.internal_count()
    }

    /// Morton rank of a leaf id.
    #[inline]
    pub fn leaf_rank(&self, id: NodeId) -> u32 {
        debug_assert!(self.is_leaf(id));
        id - self.internal_count() as u32
    }

    /// Leaf id of a Morton rank.
    #[inline]
    pub fn leaf_id(&self, rank: u32) -> NodeId {
        self.internal_count() as u32 + rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_ids() {
        let l = Layout { n: 5 };
        assert_eq!(l.internal_count(), 4);
        assert_eq!(l.node_count(), 9);
        assert!(!l.is_leaf(0));
        assert!(!l.is_leaf(3));
        assert!(l.is_leaf(4));
        assert!(l.is_leaf(8));
        assert_eq!(l.leaf_rank(4), 0);
        assert_eq!(l.leaf_rank(8), 4);
        assert_eq!(l.leaf_id(2), 6);
    }

    #[test]
    fn single_point_layout_has_leaf_root() {
        let l = Layout { n: 1 };
        assert_eq!(l.internal_count(), 0);
        assert_eq!(l.node_count(), 1);
        assert!(l.is_leaf(0));
        assert_eq!(l.leaf_rank(0), 0);
    }
}
