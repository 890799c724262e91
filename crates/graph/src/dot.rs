//! Graphviz DOT export for orientations, handy for debugging executions
//! and for the examples' visual output.

use std::fmt::Write as _;

use crate::{NodeId, Orientation};

/// Options controlling [`to_dot`] output.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Node drawn with a double circle (typically the destination).
    pub destination: Option<NodeId>,
    /// Fill sinks with a highlight color.
    pub highlight_sinks: bool,
    /// Graph name in the output.
    pub name: Option<String>,
}

/// Renders an orientation as a Graphviz `digraph`.
///
/// ```
/// use lr_graph::{dot, stream};
/// let inst = stream::chain_away(3);
/// let s = dot::to_dot(inst.init(), &dot::DotOptions {
///     destination: Some(inst.dest),
///     highlight_sinks: true,
///     name: Some("chain".into()),
/// });
/// assert!(s.contains("digraph chain"));
/// assert!(s.contains("n0 -> n1"));
/// ```
pub fn to_dot(orientation: &Orientation, opts: &DotOptions) -> String {
    let mut out = String::new();
    let name = opts.name.as_deref().unwrap_or("G");
    writeln!(out, "digraph {name} {{").expect("write to String cannot fail");
    writeln!(out, "    rankdir=LR;").expect("write to String cannot fail");
    for (i, u) in orientation.csr().nodes().enumerate() {
        let mut attrs: Vec<String> = Vec::new();
        if opts.destination == Some(u) {
            attrs.push("shape=doublecircle".to_string());
        }
        if opts.highlight_sinks && orientation.is_sink_at(i) {
            attrs.push("style=filled".to_string());
            attrs.push("fillcolor=lightcoral".to_string());
        }
        if attrs.is_empty() {
            writeln!(out, "    {u};").expect("write to String cannot fail");
        } else {
            writeln!(out, "    {u} [{}];", attrs.join(", ")).expect("write to String cannot fail");
        }
    }
    for (t, h) in orientation.directed_edges() {
        writeln!(out, "    {t} -> {h};").expect("write to String cannot fail");
    }
    writeln!(out, "}}").expect("write to String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream;

    #[test]
    fn renders_nodes_edges_and_destination() {
        let inst = stream::chain_away(3);
        let s = to_dot(
            inst.init(),
            &DotOptions {
                destination: Some(inst.dest),
                highlight_sinks: true,
                name: Some("t".into()),
            },
        );
        assert!(s.starts_with("digraph t {"));
        assert!(s.contains("n0 [shape=doublecircle]"));
        assert!(s.contains("n2 [style=filled, fillcolor=lightcoral]"));
        assert!(s.contains("n0 -> n1;"));
        assert!(s.contains("n1 -> n2;"));
        assert!(s.trim_end().ends_with('}'));
    }

    #[test]
    fn default_options_render_plain_nodes() {
        let s = to_dot(stream::chain_away(3).init(), &DotOptions::default());
        assert!(s.contains("digraph G {"));
        assert!(s.contains("    n1;"));
        assert!(!s.contains("doublecircle"));
    }
}
