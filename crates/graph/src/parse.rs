//! A small textual format for oriented graphs, used by tests and fixtures.
//!
//! Each non-empty, non-comment line describes one directed edge
//! `u > v` (edge `{u, v}` directed from `u` to `v`), where `u` and `v` are
//! non-negative integers. Lines starting with `#` are comments. A line
//! `dest N` names the destination node.
//!
//! ```
//! use lr_graph::parse::parse_instance;
//! let inst = parse_instance("
//!     ## a 3-chain pointing away from the destination
//!     dest 0
//!     0 > 1
//!     1 > 2
//! ").unwrap();
//! assert_eq!(inst.node_count(), 3);
//! ```

use crate::{GraphError, NodeId, ReversalInstance};

/// Parses the textual instance format described at module level.
///
/// # Errors
///
/// The first malformed line ([`GraphError::Parse`]), self-loop or
/// repeated edge wins; after those come the validation errors of
/// [`ReversalInstance::from_edges`] (unknown destination, disconnection,
/// cycle). A missing `dest` line defaults the destination to node 0.
pub fn parse_instance(text: &str) -> Result<ReversalInstance, GraphError> {
    let (mut arcs, mut dest) = (Vec::new(), 0);
    let read = read_lines(text, &mut arcs, &mut dest);
    match (read, ReversalInstance::from_edges(&arcs, NodeId::new(dest))) {
        // A self-loop or repeated edge before the malformed line wins.
        (Err(_), Err(early @ (GraphError::SelfLoop(_) | GraphError::DuplicateEdge(..)))) => {
            Err(early)
        }
        (Err(malformed), _) => Err(malformed),
        (Ok(()), built) => built,
    }
}

/// Collects the arcs and the destination up to the first malformed line.
fn read_lines(text: &str, arcs: &mut Vec<(u32, u32)>, dest: &mut u32) -> Result<(), GraphError> {
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let error = |message: String| GraphError::Parse {
            line: idx + 1,
            message,
        };
        if let Some(rest) = line.strip_prefix("dest") {
            *dest = rest
                .trim()
                .parse()
                .map_err(|_| error(format!("invalid destination id {rest:?}")))?;
            continue;
        }
        let mut parts = line.split('>');
        let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(error(format!("expected `u > v`, got {line:?}")));
        };
        let id = |s: &str| {
            let s = s.trim();
            s.parse::<u32>()
                .map_err(|_| error(format!("invalid node id {s:?}")))
        };
        arcs.push((id(a)?, id(b)?));
    }
    Ok(())
}

/// Serializes an instance back to the textual format (inverse of
/// [`parse_instance`] up to comments and whitespace): the destination,
/// then every edge in canonical `(min, max)` order.
pub fn to_text(inst: &ReversalInstance) -> String {
    use std::fmt::Write as _;
    let mut out = format!("dest {}\n", inst.dest.raw());
    for (t, h) in inst.init().directed_edges() {
        let _ = writeln!(out, "{} > {}", t.raw(), h.raw());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_chain_with_comments_and_blanks() {
        let inst = parse_instance("# comment\n\ndest 2\n0 > 1\n1 > 2\n").unwrap();
        assert_eq!(inst.dest, NodeId::new(2));
        assert_eq!(inst.csr().edge_count(), 2);
        assert!(inst.init().points_from_to(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn missing_dest_defaults_to_zero() {
        let inst = parse_instance("0 > 1").unwrap();
        assert_eq!(inst.dest, NodeId::new(0));
    }

    #[test]
    fn malformed_edge_reports_line() {
        let err = parse_instance("0 > 1\nnot an edge\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_node_id_reports_line() {
        let err = parse_instance("0 > x").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_dest_reports_line() {
        let err = parse_instance("dest banana\n0 > 1").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn structural_validation_still_applies() {
        // A directed cycle parses but fails validation.
        let err = parse_instance("0 > 1\n1 > 2\n2 > 0").unwrap_err();
        assert_eq!(err, GraphError::ContainsCycle);
    }

    #[test]
    fn the_first_offending_line_wins() {
        let err = |text: &str| parse_instance(text).unwrap_err().to_string();
        assert_eq!(err("0 > 1\n1 > 0\n"), "edge {n1, n0} already exists");
        assert_eq!(err("0 > 1\n1 > 0\nbogus\n"), "edge {n1, n0} already exists");
        assert_eq!(
            err("0 > 1\nbogus\n1 > 0\n2 > 2\n"),
            "parse error on line 2: expected `u > v`, got \"bogus\""
        );
        assert_eq!(err("3 > 3\n0 > x\n"), "self-loop at node n3 is not allowed");
        assert_eq!(err("dest 7\n0 > 1\n"), "node n7 is not in the graph");
        assert_eq!(err("0 > 1\n2 > 3\n"), "graph is not connected");
        assert_eq!(err(""), "node n0 is not in the graph");
    }

    #[test]
    fn any_u32_is_a_node_id() {
        let inst = parse_instance("dest 4294967295\n4294967295 > 0\n").unwrap();
        assert_eq!(to_text(&inst), "dest 4294967295\n4294967295 > 0\n");
    }

    #[test]
    fn round_trips_through_text() {
        let inst = parse_instance("dest 1\n0 > 1\n2 > 1\n0 > 2").unwrap();
        let text = to_text(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back, inst);
    }
}
