use std::fmt;

/// Identifier of a node in a graph.
///
/// `NodeId` is a lightweight copyable newtype over `u32`. Identifiers are
/// assigned by the caller (generators use `0..n`); the graph types do not
/// require them to be contiguous.
///
/// ```
/// use lr_graph::NodeId;
/// let d = NodeId::new(0);
/// assert_eq!(d.index(), 0);
/// assert_eq!(format!("{d}"), "n0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier with the given raw value.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// Returns the raw value as a `usize`, convenient for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.raw(), 7);
        assert_eq!(u32::from(n), 7);
        assert_eq!(NodeId::from(7u32), n);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId::new(5)), "n5");
        assert_eq!(format!("{:?}", NodeId::new(5)), "n5");
    }
}
