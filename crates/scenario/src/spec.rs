//! The declarative scenario specification: JSON in, validated spec out.
//!
//! A spec describes one reproducible experiment: a topology (an
//! `lr-graph` generator family or an inline edge list), link timing
//! defaults plus per-link overrides, a timed churn schedule, a traffic
//! workload, the sweep dimensions (`seeds × trials`), and optionally a
//! [`MatrixSpec`] grid that multiplies the base experiment over
//! protocols, topologies, link configurations, and churn intensities.
//! Parsing is hand-rolled over [`serde_json::Value`] rather than
//! derived so every error carries the JSON path that caused it
//! (`churn[2].at: expected a non-negative integer, found string`) —
//! malformed specs must produce actionable errors, never panics.
//!
//! The parser is the one statement of the schema: defaults are resolved
//! here and nowhere else. `tests/proptest_spec.rs` draws spec texts
//! beside the specs they must parse to, with and without their
//! defaulted keys.

use std::collections::BTreeSet;
use std::fmt;

use lr_graph::check_slot_capacity;
use serde_json::{Map, Value};

/// A spec-level error: the JSON path that failed plus a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path into the spec (`topology.family`, `churn[0].fail`).
    pub path: String,
    /// What went wrong and, where possible, what was expected.
    pub msg: String,
}

impl SpecError {
    pub(crate) fn new(path: impl Into<String>, msg: impl Into<String>) -> Self {
        SpecError {
            path: path.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.msg)
    }
}

impl std::error::Error for SpecError {}

// ───────────────────────── parse helpers ─────────────────────────

fn want_object<'a>(v: &'a Value, path: &str) -> Result<&'a Map<String, Value>, SpecError> {
    v.as_object()
        .ok_or_else(|| SpecError::new(path, format!("expected an object, found {}", v.kind())))
}

fn want_array<'a>(v: &'a Value, path: &str) -> Result<&'a Vec<Value>, SpecError> {
    v.as_array()
        .ok_or_else(|| SpecError::new(path, format!("expected an array, found {}", v.kind())))
}

fn want_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, SpecError> {
    v.as_str()
        .ok_or_else(|| SpecError::new(path, format!("expected a string, found {}", v.kind())))
}

fn want_u64(v: &Value, path: &str) -> Result<u64, SpecError> {
    v.as_u64().ok_or_else(|| {
        SpecError::new(
            path,
            format!("expected a non-negative integer, found {}", v.kind()),
        )
    })
}

fn want_usize(v: &Value, path: &str) -> Result<usize, SpecError> {
    want_u64(v, path).map(|n| n as usize)
}

fn want_u32(v: &Value, path: &str) -> Result<u32, SpecError> {
    let n = want_u64(v, path)?;
    u32::try_from(n).map_err(|_| SpecError::new(path, format!("{n} does not fit a node id (u32)")))
}

fn want_f64(v: &Value, path: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .ok_or_else(|| SpecError::new(path, format!("expected a number, found {}", v.kind())))
}

fn want_bool(v: &Value, path: &str) -> Result<bool, SpecError> {
    v.as_bool()
        .ok_or_else(|| SpecError::new(path, format!("expected a boolean, found {}", v.kind())))
}

/// Rejects keys outside `allowed` — typos in a declarative spec should
/// fail loudly, not be silently ignored.
fn reject_unknown_keys(
    map: &Map<String, Value>,
    allowed: &[&str],
    path: &str,
) -> Result<(), SpecError> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::new(
                format!("{path}.{key}"),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_edge(v: &Value, path: &str) -> Result<(u32, u32), SpecError> {
    let arr = want_array(v, path)?;
    if arr.len() != 2 {
        return Err(SpecError::new(
            path,
            format!(
                "an edge is a two-element array [u, v], found {} elements",
                arr.len()
            ),
        ));
    }
    let u = want_u32(&arr[0], &format!("{path}[0]"))?;
    let w = want_u32(&arr[1], &format!("{path}[1]"))?;
    if u == w {
        return Err(SpecError::new(
            path,
            format!("self-loop {u}-{w} is not a link"),
        ));
    }
    Ok((u, w))
}

fn parse_edge_list(v: &Value, path: &str) -> Result<Vec<(u32, u32)>, SpecError> {
    let arr = want_array(v, path)?;
    arr.iter()
        .enumerate()
        .map(|(i, e)| parse_edge(e, &format!("{path}[{i}]")))
        .collect()
}

// ───────────────────────── protocol ─────────────────────────

/// Which `lr-net` protocol the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// TORA-style greedy-downhill routing with packet traffic (the
    /// full-metrics path: delivery rate, hops, stretch, revisits).
    Routing,
    /// The distributed Partial Reversal protocol alone — churn and
    /// convergence metrics, no data traffic.
    Reversal,
    /// Full TORA (QRY/UPD route creation, reference levels, partition
    /// detection); traffic = route queries from the sources.
    Tora,
    /// Raymond's token-based mutual exclusion on a spanning tree;
    /// traffic = critical-section requests from the sources.
    Mutex,
    /// Leader election by DAG re-orientation; churn may include
    /// `crash_leader`.
    Election,
}

impl ProtocolKind {
    /// All protocols, for error messages and sweeps.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Routing,
        ProtocolKind::Reversal,
        ProtocolKind::Tora,
        ProtocolKind::Mutex,
        ProtocolKind::Election,
    ];

    /// The spec-facing name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Routing => "routing",
            ProtocolKind::Reversal => "reversal",
            ProtocolKind::Tora => "tora",
            ProtocolKind::Mutex => "mutex",
            ProtocolKind::Election => "election",
        }
    }

    /// Whether the protocol is driven by a traffic workload (packets,
    /// route queries or critical-section requests); reversal and
    /// election are convergence-only.
    pub(crate) fn takes_traffic(self) -> bool {
        matches!(
            self,
            ProtocolKind::Routing | ProtocolKind::Tora | ProtocolKind::Mutex
        )
    }

    /// Whether the protocol keeps a DAG toward a fixed destination, so
    /// link churn applies to it and a route's stretch is priced against
    /// the distance to that destination. The mutex token and an
    /// electable leader move.
    pub(crate) fn keeps_dest_dag(self) -> bool {
        matches!(
            self,
            ProtocolKind::Routing | ProtocolKind::Reversal | ProtocolKind::Tora
        )
    }

    /// Whether the destination may be a request source: under mutex it
    /// is only the initial token holder, and a legal requester.
    pub(crate) fn dest_may_request(self) -> bool {
        self == ProtocolKind::Mutex
    }

    fn parse(s: &str, path: &str) -> Result<Self, SpecError> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|p| p.name()).collect();
                SpecError::new(
                    path,
                    format!(
                        "unknown protocol {s:?} (expected one of: {})",
                        names.join(", ")
                    ),
                )
            })
    }
}

// ───────────────────────── topology ─────────────────────────

/// The communication graph and initial orientation of the experiment.
///
/// Families map onto the `lr_graph::stream` generators; `Inline` is
/// a literal edge list oriented from the higher node id to the lower
/// (which is always acyclic), with a caller-chosen destination.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `stream::chain_away(n)`.
    ChainAway {
        /// Node count (≥ 2).
        n: usize,
    },
    /// `stream::chain_toward(n)`.
    ChainToward {
        /// Node count (≥ 2).
        n: usize,
    },
    /// `stream::alternating_chain(n)`.
    Alternating {
        /// Node count (≥ 2).
        n: usize,
    },
    /// `stream::star_away(leaves)`.
    Star {
        /// Leaf count (≥ 1).
        leaves: usize,
    },
    /// `stream::binary_tree_away(depth)`.
    Tree {
        /// Tree depth (≥ 1).
        depth: usize,
    },
    /// `stream::grid_away(rows, cols)`.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count (`rows × cols ≥ 2`).
        cols: usize,
    },
    /// `stream::complete_away(n)`.
    Complete {
        /// Node count (≥ 2).
        n: usize,
    },
    /// `stream::random_connected(n, extra_edges, seed)`.
    Random {
        /// Node count (≥ 2).
        n: usize,
        /// Edges beyond the random spanning tree.
        extra_edges: usize,
        /// Topology seed; when absent the run seed is used, so every
        /// sweep run sees a different random topology.
        seed: Option<u64>,
    },
    /// `stream::bipartite_away(width, degree, seed)`.
    Bipartite {
        /// Nodes per side (≥ 2).
        width: usize,
        /// Per-node degree (2 ..= width).
        degree: usize,
        /// Topology seed (run seed when absent).
        seed: Option<u64>,
    },
    /// `stream::layered(width, depth, p, seed)`.
    Layered {
        /// Nodes per layer (≥ 1).
        width: usize,
        /// Layer count (≥ 2).
        depth: usize,
        /// Inter-layer edge probability.
        p: f64,
        /// Topology seed (run seed when absent).
        seed: Option<u64>,
    },
    /// A literal edge list.
    Inline {
        /// Undirected edges as `[u, v]` pairs.
        edges: Vec<(u32, u32)>,
        /// The destination node.
        dest: u32,
    },
}

impl TopologySpec {
    /// The family name used in the spec and in result rows.
    pub fn family_name(&self) -> &'static str {
        match self {
            TopologySpec::ChainAway { .. } => "chain-away",
            TopologySpec::ChainToward { .. } => "chain-toward",
            TopologySpec::Alternating { .. } => "alternating",
            TopologySpec::Star { .. } => "star",
            TopologySpec::Tree { .. } => "tree",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Complete { .. } => "complete",
            TopologySpec::Random { .. } => "random",
            TopologySpec::Bipartite { .. } => "bipartite",
            TopologySpec::Layered { .. } => "layered",
            TopologySpec::Inline { .. } => "inline",
        }
    }

    /// Compact one-line description with the family's parameters, used
    /// in matrix-point labels (`random(n=16,extra=10,seed=3)`).
    pub fn describe(&self) -> String {
        let seed_part = |seed: &Option<u64>| match seed {
            Some(s) => format!(",seed={s}"),
            None => String::new(),
        };
        match self {
            TopologySpec::ChainAway { n }
            | TopologySpec::ChainToward { n }
            | TopologySpec::Alternating { n }
            | TopologySpec::Complete { n } => format!("{}(n={n})", self.family_name()),
            TopologySpec::Star { leaves } => format!("star(leaves={leaves})"),
            TopologySpec::Tree { depth } => format!("tree(depth={depth})"),
            TopologySpec::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            TopologySpec::Random {
                n,
                extra_edges,
                seed,
            } => format!("random(n={n},extra={extra_edges}{})", seed_part(seed)),
            TopologySpec::Bipartite {
                width,
                degree,
                seed,
            } => format!(
                "bipartite(width={width},degree={degree}{})",
                seed_part(seed)
            ),
            TopologySpec::Layered {
                width,
                depth,
                p,
                seed,
            } => format!(
                "layered(width={width},depth={depth},p={p}{})",
                seed_part(seed)
            ),
            TopologySpec::Inline { edges, dest } => {
                format!("inline({} edges,dest={dest})", edges.len())
            }
        }
    }

    /// Half-edge slots the family's instance needs, or `None` when the
    /// count overflows `usize`. For `layered`, whose edges are drawn at
    /// build time, this is the worst case: every pair of adjacent-layer
    /// nodes linked.
    fn half_edges(&self) -> Option<usize> {
        let edges = match *self {
            TopologySpec::ChainAway { n }
            | TopologySpec::ChainToward { n }
            | TopologySpec::Alternating { n } => n.checked_sub(1)?,
            TopologySpec::Star { leaves } => leaves,
            TopologySpec::Tree { depth } => {
                // 2^(depth + 2) - 1 nodes, one edge fewer.
                let levels = u32::try_from(depth.checked_add(2)?).ok()?;
                1usize.checked_shl(levels)?.checked_sub(2)?
            }
            TopologySpec::Grid { rows, cols } => rows
                .checked_mul(cols.checked_sub(1)?)?
                .checked_add(rows.checked_sub(1)?.checked_mul(cols)?)?,
            TopologySpec::Complete { n } => n.checked_mul(n.checked_sub(1)?)? / 2,
            TopologySpec::Random { n, extra_edges, .. } => {
                // The generator stops at the complete graph.
                let complete = n
                    .checked_mul(n.checked_sub(1)?)
                    .map_or(usize::MAX, |m| m / 2);
                n.checked_sub(1)?.saturating_add(extra_edges).min(complete)
            }
            TopologySpec::Bipartite { width, degree, .. } => width.checked_mul(degree)?,
            TopologySpec::Layered { width, depth, .. } => width
                .checked_mul(width)?
                .checked_mul(depth.checked_sub(1)?)?
                .checked_add(width)?,
            TopologySpec::Inline { ref edges, .. } => edges.len(),
        };
        edges.checked_mul(2)
    }

    /// Checks that the family's instance fits the CSR's u32 slot index
    /// and the [`MAX_GENERATED_HALF_EDGES`] memory ceiling, so an
    /// oversize topology is an error before anything is built.
    ///
    /// # Errors
    ///
    /// Returns a message naming the family, its size, and the limit,
    /// e.g. `chain-away(n=…) is too large: … half-edges exceed the u32
    /// slot-index capacity (4294967295)`.
    pub fn check_capacity(&self) -> Result<(), String> {
        let half_edges = self.half_edges().unwrap_or(usize::MAX);
        check_slot_capacity(half_edges)
            .map_err(|e| format!("{} is too large: {e}", self.describe()))?;
        if half_edges > MAX_GENERATED_HALF_EDGES {
            return Err(format!(
                "{} is too large: {half_edges} half-edges exceed the 268,435,456-half-edge \
                 memory ceiling",
                self.describe()
            ));
        }
        Ok(())
    }

    fn parse(v: &Value, path: &str) -> Result<Self, SpecError> {
        let spec = Self::parse_family(v, path)?;
        spec.check_capacity()
            .map_err(|msg| SpecError::new(path, msg))?;
        Ok(spec)
    }

    fn parse_family(v: &Value, path: &str) -> Result<Self, SpecError> {
        let obj = want_object(v, path)?;
        let family = match obj.get("family") {
            Some(f) => want_str(f, &format!("{path}.family"))?,
            None => {
                return Err(SpecError::new(
                    format!("{path}.family"),
                    "missing (expected one of: chain-away, chain-toward, alternating, star, \
                     tree, grid, complete, random, bipartite, layered, inline)",
                ))
            }
        };
        let req_usize = |key: &str, floor: usize| -> Result<usize, SpecError> {
            let p = format!("{path}.{key}");
            let v = obj.get(key).ok_or_else(|| {
                SpecError::new(&p, format!("missing (required by family {family:?})"))
            })?;
            let n = want_usize(v, &p)?;
            if n < floor {
                return Err(SpecError::new(
                    &p,
                    format!("must be at least {floor}, got {n}"),
                ));
            }
            Ok(n)
        };
        let opt_seed = || -> Result<Option<u64>, SpecError> {
            obj.get("seed")
                .map(|v| want_u64(v, &format!("{path}.seed")))
                .transpose()
        };
        let allow = |keys: &[&str]| reject_unknown_keys(obj, keys, path);
        match family {
            "chain-away" => {
                allow(&["family", "n"])?;
                Ok(TopologySpec::ChainAway {
                    n: req_usize("n", 2)?,
                })
            }
            "chain-toward" => {
                allow(&["family", "n"])?;
                Ok(TopologySpec::ChainToward {
                    n: req_usize("n", 2)?,
                })
            }
            "alternating" => {
                allow(&["family", "n"])?;
                Ok(TopologySpec::Alternating {
                    n: req_usize("n", 2)?,
                })
            }
            "star" => {
                allow(&["family", "leaves"])?;
                Ok(TopologySpec::Star {
                    leaves: req_usize("leaves", 1)?,
                })
            }
            "tree" => {
                allow(&["family", "depth"])?;
                Ok(TopologySpec::Tree {
                    depth: req_usize("depth", 1)?,
                })
            }
            "grid" => {
                allow(&["family", "rows", "cols"])?;
                let rows = req_usize("rows", 1)?;
                let cols = req_usize("cols", 1)?;
                if rows == 1 && cols == 1 {
                    return Err(SpecError::new(path, "grid needs at least 2 nodes"));
                }
                Ok(TopologySpec::Grid { rows, cols })
            }
            "complete" => {
                allow(&["family", "n"])?;
                Ok(TopologySpec::Complete {
                    n: req_usize("n", 2)?,
                })
            }
            "random" => {
                allow(&["family", "n", "extra_edges", "seed"])?;
                Ok(TopologySpec::Random {
                    n: req_usize("n", 2)?,
                    extra_edges: req_usize("extra_edges", 0)?,
                    seed: opt_seed()?,
                })
            }
            "bipartite" => {
                allow(&["family", "width", "degree", "seed"])?;
                let width = req_usize("width", 2)?;
                let degree = req_usize("degree", 2)?;
                if degree > width {
                    return Err(SpecError::new(
                        format!("{path}.degree"),
                        format!("must be in 2..={width} (the side width), got {degree}"),
                    ));
                }
                Ok(TopologySpec::Bipartite {
                    width,
                    degree,
                    seed: opt_seed()?,
                })
            }
            "layered" => {
                allow(&["family", "width", "depth", "p", "seed"])?;
                let p_path = format!("{path}.p");
                let p = match obj.get("p") {
                    Some(v) => want_f64(v, &p_path)?,
                    None => 0.5,
                };
                if !(0.0..=1.0).contains(&p) {
                    return Err(SpecError::new(
                        p_path,
                        format!("must be a probability, got {p}"),
                    ));
                }
                Ok(TopologySpec::Layered {
                    width: req_usize("width", 1)?,
                    depth: req_usize("depth", 1)?,
                    p,
                    seed: opt_seed()?,
                })
            }
            "inline" => {
                allow(&["family", "edges", "dest"])?;
                let edges_path = format!("{path}.edges");
                let edges = match obj.get("edges") {
                    Some(v) => parse_edge_list(v, &edges_path)?,
                    None => {
                        return Err(SpecError::new(
                            edges_path,
                            "missing (required by family \"inline\")",
                        ))
                    }
                };
                if edges.is_empty() {
                    return Err(SpecError::new(edges_path, "must contain at least one edge"));
                }
                let dest = match obj.get("dest") {
                    Some(v) => want_u32(v, &format!("{path}.dest"))?,
                    None => 0,
                };
                Ok(TopologySpec::Inline { edges, dest })
            }
            other => Err(SpecError::new(
                format!("{path}.family"),
                format!(
                    "unknown family {other:?} (expected one of: chain-away, chain-toward, \
                     alternating, star, tree, grid, complete, random, bipartite, layered, inline)"
                ),
            )),
        }
    }
}

// ───────────────────────── links ─────────────────────────

/// Link timing/loss parameters (the spec-level mirror of
/// `lr_net::sim::LinkConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way delay in ticks (≥ 1).
    pub delay: u64,
    /// Maximum extra uniform random delay.
    pub jitter: u64,
    /// Drop probability in `[0, 1]`.
    pub loss: f64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            delay: 1,
            jitter: 0,
            loss: 0.0,
        }
    }
}

impl LinkSpec {
    /// Parses the three optional keys of `obj`, falling back to `base`.
    fn parse_fields(
        obj: &Map<String, Value>,
        base: LinkSpec,
        path: &str,
    ) -> Result<Self, SpecError> {
        let delay = match obj.get("delay") {
            Some(v) => {
                let d = want_u64(v, &format!("{path}.delay"))?;
                if d == 0 {
                    return Err(SpecError::new(
                        format!("{path}.delay"),
                        "must be at least 1 tick",
                    ));
                }
                d
            }
            None => base.delay,
        };
        let jitter = match obj.get("jitter") {
            Some(v) => want_u64(v, &format!("{path}.jitter"))?,
            None => base.jitter,
        };
        let loss = match obj.get("loss") {
            Some(v) => {
                let l = want_f64(v, &format!("{path}.loss"))?;
                if !(0.0..=1.0).contains(&l) {
                    return Err(SpecError::new(
                        format!("{path}.loss"),
                        format!("must be a probability in [0, 1], got {l}"),
                    ));
                }
                l
            }
            None => base.loss,
        };
        Ok(LinkSpec {
            delay,
            jitter,
            loss,
        })
    }
}

/// One per-link override of the global link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOverride {
    /// One endpoint.
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// The overriding parameters (unspecified keys inherit the global
    /// default).
    pub link: LinkSpec,
}

/// The `links` section: global defaults plus heterogeneous per-link
/// overrides.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinksSpec {
    /// The global default for every link without an override.
    pub default: LinkSpec,
    /// Per-link overrides.
    pub overrides: Vec<LinkOverride>,
}

impl LinksSpec {
    fn parse(v: &Value, path: &str) -> Result<Self, SpecError> {
        let obj = want_object(v, path)?;
        reject_unknown_keys(obj, &["delay", "jitter", "loss", "overrides"], path)?;
        let default = LinkSpec::parse_fields(obj, LinkSpec::default(), path)?;
        let mut overrides = Vec::new();
        if let Some(list) = obj.get("overrides") {
            let list_path = format!("{path}.overrides");
            for (i, item) in want_array(list, &list_path)?.iter().enumerate() {
                let item_path = format!("{list_path}[{i}]");
                let o = want_object(item, &item_path)?;
                reject_unknown_keys(o, &["u", "v", "delay", "jitter", "loss"], &item_path)?;
                let u = match o.get("u") {
                    Some(v) => want_u32(v, &format!("{item_path}.u"))?,
                    None => {
                        return Err(SpecError::new(format!("{item_path}.u"), "missing endpoint"))
                    }
                };
                let w = match o.get("v") {
                    Some(v) => want_u32(v, &format!("{item_path}.v"))?,
                    None => {
                        return Err(SpecError::new(format!("{item_path}.v"), "missing endpoint"))
                    }
                };
                let link = LinkSpec::parse_fields(o, default, &item_path)?;
                overrides.push(LinkOverride { u, v: w, link });
            }
        }
        Ok(LinksSpec { default, overrides })
    }
}

// ───────────────────────── churn ─────────────────────────

/// What a churn event does to the network.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnKind {
    /// Fail the listed links.
    Fail(Vec<(u32, u32)>),
    /// Heal the listed links.
    Heal(Vec<(u32, u32)>),
    /// Fail every link crossing between `side` and the rest of the
    /// graph (a partition wave).
    Partition(Vec<u32>),
    /// Mobility-style random churn from the run's seeded RNG: fail
    /// `fail` random live links, heal `heal` random failed links.
    Random {
        /// Live links to fail.
        fail: usize,
        /// Failed links to heal.
        heal: usize,
    },
    /// Crash the current leader (election scenarios only).
    CrashLeader,
}

impl ChurnKind {
    /// Short description for result rows (`"fail 2 link(s)"`).
    pub fn describe(&self) -> String {
        match self {
            ChurnKind::Fail(edges) => format!("fail {} link(s)", edges.len()),
            ChurnKind::Heal(edges) => format!("heal {} link(s)", edges.len()),
            ChurnKind::Partition(side) => format!("partition {} node(s)", side.len()),
            ChurnKind::Random { fail, heal } => format!("random churn -{fail}/+{heal}"),
            ChurnKind::CrashLeader => "crash leader".into(),
        }
    }
}

/// One timed entry of the churn schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Virtual time at which the event fires (a lower bound: the engine
    /// measures convergence by running each event to quiescence before
    /// the next one, so a late-converging event pushes later times
    /// forward).
    pub at: u64,
    /// The action.
    pub kind: ChurnKind,
}

impl ChurnEvent {
    fn parse(v: &Value, path: &str) -> Result<Self, SpecError> {
        let obj = want_object(v, path)?;
        reject_unknown_keys(
            obj,
            &["at", "fail", "heal", "partition", "random", "crash_leader"],
            path,
        )?;
        let at = match obj.get("at") {
            Some(v) => want_u64(v, &format!("{path}.at"))?,
            None => return Err(SpecError::new(format!("{path}.at"), "missing event time")),
        };
        let actions: Vec<&str> = ["fail", "heal", "partition", "random", "crash_leader"]
            .into_iter()
            .filter(|k| obj.get(*k).is_some())
            .collect();
        if actions.len() != 1 {
            return Err(SpecError::new(
                path,
                format!(
                    "a churn event needs exactly one action of fail, heal, partition, random, \
                     crash_leader; found {}",
                    if actions.is_empty() {
                        "none".to_string()
                    } else {
                        actions.join(" and ")
                    }
                ),
            ));
        }
        let kind = match actions[0] {
            "fail" => ChurnKind::Fail(parse_edge_list(
                obj.get("fail").expect("checked"),
                &format!("{path}.fail"),
            )?),
            "heal" => ChurnKind::Heal(parse_edge_list(
                obj.get("heal").expect("checked"),
                &format!("{path}.heal"),
            )?),
            "partition" => {
                let side_path = format!("{path}.partition");
                let side = want_array(obj.get("partition").expect("checked"), &side_path)?
                    .iter()
                    .enumerate()
                    .map(|(i, v)| want_u32(v, &format!("{side_path}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?;
                if side.is_empty() {
                    return Err(SpecError::new(
                        side_path,
                        "partition side must be non-empty",
                    ));
                }
                ChurnKind::Partition(side)
            }
            "random" => {
                let rnd_path = format!("{path}.random");
                let o = want_object(obj.get("random").expect("checked"), &rnd_path)?;
                reject_unknown_keys(o, &["fail", "heal"], &rnd_path)?;
                let fail = match o.get("fail") {
                    Some(v) => want_usize(v, &format!("{rnd_path}.fail"))?,
                    None => 0,
                };
                let heal = match o.get("heal") {
                    Some(v) => want_usize(v, &format!("{rnd_path}.heal"))?,
                    None => 0,
                };
                if fail == 0 && heal == 0 {
                    return Err(SpecError::new(
                        rnd_path,
                        "random churn must fail or heal at least one link",
                    ));
                }
                ChurnKind::Random { fail, heal }
            }
            "crash_leader" => {
                let flag_path = format!("{path}.crash_leader");
                if !want_bool(obj.get("crash_leader").expect("checked"), &flag_path)? {
                    return Err(SpecError::new(flag_path, "must be true when present"));
                }
                ChurnKind::CrashLeader
            }
            _ => unreachable!("action list is exhaustive"),
        };
        Ok(ChurnEvent { at, kind })
    }
}

// ───────────────────────── traffic ─────────────────────────

/// Which nodes inject traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Sources {
    /// Every non-destination node.
    #[default]
    All,
    /// An explicit list.
    List(Vec<u32>),
}

/// The traffic workload: waves of injections from the sources.
///
/// Wave `k` (for `k < packets_per_source`) fires at
/// `start + k × interval`; each wave injects one packet (routing), route
/// query (tora), or critical-section request (mutex) per source.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// The injecting nodes.
    pub sources: Sources,
    /// Waves per source.
    pub packets_per_source: u64,
    /// Virtual time of the first wave.
    pub start: u64,
    /// Ticks between waves.
    pub interval: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            sources: Sources::All,
            packets_per_source: 1,
            start: 0,
            interval: 1,
        }
    }
}

impl TrafficSpec {
    fn parse(v: &Value, path: &str) -> Result<Self, SpecError> {
        let obj = want_object(v, path)?;
        reject_unknown_keys(
            obj,
            &["sources", "packets_per_source", "start", "interval"],
            path,
        )?;
        let sources = match obj.get("sources") {
            None => Sources::All,
            Some(Value::String(s)) if s == "all" => Sources::All,
            Some(Value::Array(items)) => {
                let list_path = format!("{path}.sources");
                let list = items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| want_u32(v, &format!("{list_path}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err(SpecError::new(list_path, "source list must be non-empty"));
                }
                Sources::List(list)
            }
            Some(other) => {
                return Err(SpecError::new(
                    format!("{path}.sources"),
                    format!(
                        "expected \"all\" or an array of node ids, found {}",
                        other.kind()
                    ),
                ))
            }
        };
        let num = |key: &str, default: u64, floor: u64| -> Result<u64, SpecError> {
            let p = format!("{path}.{key}");
            let n = match obj.get(key) {
                Some(v) => want_u64(v, &p)?,
                None => default,
            };
            if n < floor {
                return Err(SpecError::new(
                    p,
                    format!("must be at least {floor}, got {n}"),
                ));
            }
            Ok(n)
        };
        let packets_per_source = num("packets_per_source", 1, 1)?;
        // Each wave is one timeline entry; an absurd count must be a
        // path-carrying error, not an out-of-memory abort at run time.
        if packets_per_source > MAX_TRAFFIC_WAVES {
            return Err(SpecError::new(
                format!("{path}.packets_per_source"),
                format!("must be at most {MAX_TRAFFIC_WAVES} waves, got {packets_per_source}"),
            ));
        }
        Ok(TrafficSpec {
            sources,
            packets_per_source,
            start: num("start", 0, 0)?,
            interval: num("interval", 1, 1)?,
        })
    }
}

// ───────────────────────── matrix ─────────────────────────

/// The `matrix` section: a grid of variants multiplied onto the base
/// spec. Every combination of one entry per declared axis becomes one
/// **matrix point** — an independent scenario sharing the base spec's
/// churn schedule, traffic workload, and `seeds × trials` sweep — and
/// each point's `seeds × trials` runs become independent sweep cells.
///
/// Axes (each optional; an absent axis keeps the base spec's value):
///
/// * `protocol` — protocols to drive. A convergence-only protocol
///   (reversal, election) drops the base traffic workload, mirroring
///   the parse-time defaulting rule; a traffic-driven one without a
///   base `traffic` section gets the default workload.
/// * `topology` — full topology objects (so the grid can range over
///   sizes *and* families).
/// * `links` — global link-default variants (delay/jitter/loss).
///   Per-link overrides from the base spec are kept as resolved.
/// * `churn_scale` — intensity multipliers (≥ 1) applied to the
///   fail/heal counts of `random` churn events; explicit fail/heal/
///   partition events are structural and pass through unscaled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixSpec {
    /// Protocol variants (empty = base protocol only).
    pub protocols: Vec<ProtocolKind>,
    /// Topology variants (empty = base topology only).
    pub topologies: Vec<TopologySpec>,
    /// Global link-default variants (empty = base default only).
    pub links: Vec<LinkSpec>,
    /// Random-churn intensity multipliers (empty = ×1 only).
    pub churn_scales: Vec<u64>,
}

impl MatrixSpec {
    fn parse(v: &Value, path: &str, base_link: LinkSpec) -> Result<Self, SpecError> {
        let obj = want_object(v, path)?;
        reject_unknown_keys(obj, &["protocol", "topology", "links", "churn_scale"], path)?;
        let non_empty = |key: &str| -> Result<Option<&Vec<Value>>, SpecError> {
            let p = format!("{path}.{key}");
            match obj.get(key) {
                None => Ok(None),
                Some(v) => {
                    let arr = want_array(v, &p)?;
                    if arr.is_empty() {
                        return Err(SpecError::new(p, "a matrix axis must be non-empty"));
                    }
                    Ok(Some(arr))
                }
            }
        };
        let mut matrix = MatrixSpec::default();
        if let Some(arr) = non_empty("protocol")? {
            for (i, item) in arr.iter().enumerate() {
                let p = format!("{path}.protocol[{i}]");
                matrix
                    .protocols
                    .push(ProtocolKind::parse(want_str(item, &p)?, &p)?);
            }
        }
        if let Some(arr) = non_empty("topology")? {
            for (i, item) in arr.iter().enumerate() {
                matrix
                    .topologies
                    .push(TopologySpec::parse(item, &format!("{path}.topology[{i}]"))?);
            }
        }
        if let Some(arr) = non_empty("links")? {
            for (i, item) in arr.iter().enumerate() {
                let p = format!("{path}.links[{i}]");
                let o = want_object(item, &p)?;
                reject_unknown_keys(o, &["delay", "jitter", "loss"], &p)?;
                matrix.links.push(LinkSpec::parse_fields(o, base_link, &p)?);
            }
        }
        if let Some(arr) = non_empty("churn_scale")? {
            for (i, item) in arr.iter().enumerate() {
                let p = format!("{path}.churn_scale[{i}]");
                let s = want_u64(item, &p)?;
                if s == 0 {
                    return Err(SpecError::new(p, "a churn scale must be at least 1"));
                }
                matrix.churn_scales.push(s);
            }
        }
        let points = matrix.point_count();
        if points > MAX_MATRIX_POINTS {
            return Err(SpecError::new(
                path,
                format!("matrix expands to {points} points (at most {MAX_MATRIX_POINTS})"),
            ));
        }
        Ok(matrix)
    }

    /// Number of matrix points the grid expands to (axes of length 0
    /// count as 1: "use the base value"). Saturating, so an absurd
    /// grid cannot wrap past `usize::MAX` and sneak under the
    /// [`MAX_MATRIX_POINTS`] guard.
    pub fn point_count(&self) -> usize {
        self.protocols
            .len()
            .max(1)
            .saturating_mul(self.topologies.len().max(1))
            .saturating_mul(self.links.len().max(1))
            .saturating_mul(self.churn_scales.len().max(1))
    }
}

/// One expanded matrix point: a self-contained scenario (no nested
/// matrix) plus its canonical index and human-readable label.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPoint {
    /// Row-major index in canonical axis order
    /// (protocol ≻ topology ≻ links ≻ churn_scale); merge order of the
    /// sweep no matter which worker finishes first.
    pub index: usize,
    /// Compact label, e.g. `routing|random(n=16,extra=10,seed=3)|d1j0l0.05|x2`.
    pub label: String,
    /// The churn-intensity multiplier this point was expanded with
    /// (already applied to the spec's random churn events).
    pub churn_scale: u64,
    /// The expanded, validated spec (`matrix` is `None`).
    pub spec: ScenarioSpec,
}

// ───────────────────────── the spec ─────────────────────────

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in result rows).
    pub name: String,
    /// The protocol to drive.
    pub protocol: ProtocolKind,
    /// The communication graph.
    pub topology: TopologySpec,
    /// Link timing defaults and per-link overrides.
    pub links: LinksSpec,
    /// The timed churn schedule (kept in `at` order).
    pub churn: Vec<ChurnEvent>,
    /// The traffic workload (`None` for convergence-only scenarios).
    pub traffic: Option<TrafficSpec>,
    /// Trials per seed (each trial derives a distinct run seed).
    pub trials: usize,
    /// Base seeds of the sweep.
    pub seeds: Vec<u64>,
    /// Event budget per settle phase (a run errors when one phase
    /// delivers more events — the guard against runaway scenarios).
    pub max_events: u64,
    /// Settle window in virtual ticks: after each churn event (and at
    /// the start and end of the run) the engine waits at most this long
    /// for quiescence. A phase that does not quiesce is recorded with
    /// `quiesced = false` — Partial Reversal in a component cut off
    /// from the destination reverses forever, and a bounded window
    /// turns that livelock into a measurement instead of a hang.
    pub settle: u64,
    /// Optional matrix grid multiplied onto the base experiment
    /// ([`ScenarioSpec::expand_matrix`]). `None` = a single point.
    pub matrix: Option<MatrixSpec>,
}

/// Default event budget per settle phase.
pub const DEFAULT_MAX_EVENTS: u64 = 10_000_000;

/// Default settle window in virtual ticks.
pub const DEFAULT_SETTLE_TICKS: u64 = 10_000;

/// Hard ceiling on `traffic.packets_per_source` (waves are
/// materialized as timeline entries).
pub const MAX_TRAFFIC_WAVES: u64 = 100_000;

/// Hard ceiling on the number of matrix points one spec may expand to
/// (every point clones the spec and runs `seeds × trials` cells).
pub const MAX_MATRIX_POINTS: usize = 4096;

/// Hard ceiling on a topology's half-edge slots, 2^28: 67× the
/// 1000 × 1000 grid's 3,996,000, and about 2.1 GB of CSR targets and
/// twins at 8 B per half-edge. Checked by
/// [`TopologySpec::check_capacity`] after the u32 slot-index capacity.
pub const MAX_GENERATED_HALF_EDGES: usize = 1 << 28;

impl ScenarioSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the JSON path for malformed JSON,
    /// unknown keys, wrong types, or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| SpecError::new("(json)", format!("malformed JSON: {e}")))?;
        let obj = want_object(&value, "(root)")?;
        reject_unknown_keys(
            obj,
            &[
                "name",
                "protocol",
                "topology",
                "links",
                "churn",
                "traffic",
                "trials",
                "seeds",
                "max_events",
                "settle",
                "matrix",
            ],
            "(root)",
        )?;
        let name = match obj.get("name") {
            Some(v) => want_str(v, "name")?.to_string(),
            None => return Err(SpecError::new("name", "missing scenario name")),
        };
        if name.is_empty() {
            return Err(SpecError::new("name", "must be non-empty"));
        }
        let protocol = match obj.get("protocol") {
            Some(v) => ProtocolKind::parse(want_str(v, "protocol")?, "protocol")?,
            None => ProtocolKind::Routing,
        };
        let topology = match obj.get("topology") {
            Some(v) => TopologySpec::parse(v, "topology")?,
            None => return Err(SpecError::new("topology", "missing topology section")),
        };
        let links = match obj.get("links") {
            Some(v) => LinksSpec::parse(v, "links")?,
            None => LinksSpec::default(),
        };
        let mut churn = Vec::new();
        if let Some(v) = obj.get("churn") {
            for (i, item) in want_array(v, "churn")?.iter().enumerate() {
                churn.push(ChurnEvent::parse(item, &format!("churn[{i}]"))?);
            }
        }
        if let Some(w) = churn.windows(2).find(|w| w[0].at > w[1].at) {
            return Err(SpecError::new(
                "churn",
                format!(
                    "events must be sorted by time (found at = {} after at = {})",
                    w[1].at, w[0].at
                ),
            ));
        }
        let traffic = match obj.get("traffic") {
            Some(v) => Some(TrafficSpec::parse(v, "traffic")?),
            // Traffic-driven protocols get the default workload; the
            // convergence-only ones get none.
            None => protocol.takes_traffic().then(TrafficSpec::default),
        };
        let trials = match obj.get("trials") {
            Some(v) => {
                let t = want_usize(v, "trials")?;
                if t == 0 {
                    return Err(SpecError::new("trials", "must be at least 1"));
                }
                t
            }
            None => 1,
        };
        let seeds = match obj.get("seeds") {
            Some(v) => {
                let list = want_array(v, "seeds")?
                    .iter()
                    .enumerate()
                    .map(|(i, s)| want_u64(s, &format!("seeds[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err(SpecError::new("seeds", "must contain at least one seed"));
                }
                list
            }
            None => vec![0],
        };
        let max_events = match obj.get("max_events") {
            Some(v) => {
                let m = want_u64(v, "max_events")?;
                if m == 0 {
                    return Err(SpecError::new("max_events", "must be at least 1"));
                }
                m
            }
            None => DEFAULT_MAX_EVENTS,
        };
        let settle = match obj.get("settle") {
            Some(v) => {
                let s = want_u64(v, "settle")?;
                if s == 0 {
                    return Err(SpecError::new("settle", "must be at least 1 tick"));
                }
                s
            }
            None => DEFAULT_SETTLE_TICKS,
        };
        let matrix = match obj.get("matrix") {
            Some(v) => Some(MatrixSpec::parse(v, "matrix", links.default)?),
            None => None,
        };
        let spec = ScenarioSpec {
            name,
            protocol,
            topology,
            links,
            churn,
            traffic,
            trials,
            seeds,
            max_events,
            settle,
            matrix,
        };
        spec.check_protocol_constraints()?;
        // Every matrix point must itself satisfy the protocol rules;
        // surfacing the violation at parse time names the axis entry
        // instead of failing mid-sweep. The rules depend only on the
        // protocol axis (churn kinds and traffic presence are shared
        // by every point), so this checks one probe per axis entry
        // rather than materializing the whole grid.
        spec.check_matrix_protocol_rules()?;
        Ok(spec)
    }

    /// The traffic workload a matrix point running `protocol` carries,
    /// mirroring the parse-time defaulting rule: convergence-only
    /// protocols drop the base traffic, traffic-driven ones without a
    /// base section gain the default workload.
    fn traffic_for_protocol(&self, protocol: ProtocolKind) -> Option<TrafficSpec> {
        protocol
            .takes_traffic()
            .then(|| self.traffic.clone().unwrap_or_default())
    }

    /// Parse-time protocol-rule check over the matrix's protocol axis
    /// (one probe spec per axis entry — O(protocols), not O(points)).
    fn check_matrix_protocol_rules(&self) -> Result<(), SpecError> {
        let Some(matrix) = &self.matrix else {
            return Ok(());
        };
        for (i, &protocol) in matrix.protocols.iter().enumerate() {
            let mut probe = self.clone();
            probe.matrix = None;
            probe.protocol = protocol;
            probe.traffic = self.traffic_for_protocol(protocol);
            probe.check_protocol_constraints().map_err(|e| {
                SpecError::new(
                    format!("matrix.protocol[{i}].{}", e.path),
                    format!("{} (protocol {:?})", e.msg, protocol.name()),
                )
            })?;
        }
        Ok(())
    }

    /// Protocol-specific structural rules, checked at parse time so
    /// `validate` and `run` can rely on them.
    fn check_protocol_constraints(&self) -> Result<(), SpecError> {
        let crash_events = self
            .churn
            .iter()
            .filter(|e| matches!(e.kind, ChurnKind::CrashLeader))
            .count();
        if crash_events > 0 && self.protocol != ProtocolKind::Election {
            return Err(SpecError::new(
                "churn",
                format!(
                    "crash_leader events require protocol \"election\", not {:?}",
                    self.protocol.name()
                ),
            ));
        }
        if crash_events > 1 {
            return Err(SpecError::new(
                "churn",
                "at most one crash_leader event per scenario (the harness crashes the \
                 initial leader exactly once)",
            ));
        }
        match self.protocol {
            ProtocolKind::Mutex if !self.churn.is_empty() => Err(SpecError::new(
                "churn",
                "mutex scenarios do not support churn: Raymond's algorithm runs on a static \
                 spanning tree (fail a tree link and the token can never cross it)",
            )),
            ProtocolKind::Election if self.traffic.is_some() => Err(SpecError::new(
                "traffic",
                "election scenarios take no traffic workload; drive them with crash_leader \
                 churn events",
            )),
            ProtocolKind::Election
                if self
                    .churn
                    .iter()
                    .any(|e| !matches!(e.kind, ChurnKind::CrashLeader)) =>
            {
                Err(SpecError::new(
                    "churn",
                    "election scenarios support only crash_leader churn events",
                ))
            }
            ProtocolKind::Reversal if self.traffic.is_some() => Err(SpecError::new(
                "traffic",
                "reversal scenarios are convergence-only and take no traffic workload",
            )),
            _ => Ok(()),
        }
    }

    /// Whether the built topology depends on the run seed (a random
    /// family with no pinned topology seed).
    fn topology_varies_per_run(&self) -> bool {
        matches!(
            self.topology,
            TopologySpec::Random { seed: None, .. }
                | TopologySpec::Bipartite { seed: None, .. }
                | TopologySpec::Layered { seed: None, .. }
        )
    }

    /// Expands the matrix grid into its [`MatrixPoint`]s, in canonical
    /// row-major axis order (protocol outermost, then topology, links,
    /// churn_scale). A spec without a `matrix` section expands to one
    /// point carrying the base spec. Each point is re-checked against
    /// the protocol rules; traffic follows the parse-time defaulting
    /// rule when the protocol axis changes it (convergence-only
    /// protocols drop it, traffic-driven ones gain the default).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose path names the matrix point when a
    /// combination violates the protocol rules (e.g. a `mutex` axis
    /// entry crossed with a churn schedule).
    pub fn expand_matrix(&self) -> Result<Vec<MatrixPoint>, SpecError> {
        let empty = MatrixSpec::default();
        let matrix = self.matrix.as_ref().unwrap_or(&empty);
        // Re-checked here (not only at parse) so a programmatically
        // built spec cannot expand an absurd grid either.
        let count = matrix.point_count();
        if count > MAX_MATRIX_POINTS {
            return Err(SpecError::new(
                "matrix",
                format!("matrix expands to {count} points (at most {MAX_MATRIX_POINTS})"),
            ));
        }
        let protocols: Vec<ProtocolKind> = if matrix.protocols.is_empty() {
            vec![self.protocol]
        } else {
            matrix.protocols.clone()
        };
        let topologies: Vec<TopologySpec> = if matrix.topologies.is_empty() {
            vec![self.topology.clone()]
        } else {
            matrix.topologies.clone()
        };
        let links: Vec<LinkSpec> = if matrix.links.is_empty() {
            vec![self.links.default]
        } else {
            matrix.links.clone()
        };
        let scales: Vec<u64> = if matrix.churn_scales.is_empty() {
            vec![1]
        } else {
            matrix.churn_scales.clone()
        };
        let mut points = Vec::with_capacity(count);
        for &protocol in &protocols {
            for topology in &topologies {
                for &link in &links {
                    for &scale in &scales {
                        let index = points.len();
                        let label = format!(
                            "{}|{}|d{}j{}l{}|x{scale}",
                            protocol.name(),
                            topology.describe(),
                            link.delay,
                            link.jitter,
                            link.loss,
                        );
                        let mut spec = self.clone();
                        spec.matrix = None;
                        spec.protocol = protocol;
                        spec.topology = topology.clone();
                        spec.links.default = link;
                        for event in &mut spec.churn {
                            if let ChurnKind::Random { fail, heal } = &mut event.kind {
                                *fail = fail.saturating_mul(scale as usize);
                                *heal = heal.saturating_mul(scale as usize);
                            }
                        }
                        spec.traffic = self.traffic_for_protocol(protocol);
                        spec.check_protocol_constraints().map_err(|e| {
                            SpecError::new(
                                format!("matrix[{index}].{}", e.path),
                                format!("{} (point {label})", e.msg),
                            )
                        })?;
                        points.push(MatrixPoint {
                            index,
                            label,
                            churn_scale: scale,
                            spec,
                        });
                    }
                }
            }
        }
        Ok(points)
    }

    /// The `(seed, trial)` cells of this spec's sweep, in canonical
    /// order. Smoke mode shrinks to the first seed's first trial — the
    /// single source of truth for the sweep dimensions, shared by the
    /// serial runner, the parallel executor, and [`Self::validate`].
    pub fn sweep_runs(&self, smoke: bool) -> Vec<(u64, usize)> {
        let seeds: &[u64] = if smoke { &self.seeds[..1] } else { &self.seeds };
        let trials = if smoke { 1 } else { self.trials };
        seeds
            .iter()
            .flat_map(|&seed| (0..trials).map(move |trial| (seed, trial)))
            .collect()
    }

    /// Full validation: parse-level rules plus the cross-checks that
    /// need the topology (override/churn edges exist, sources are
    /// nodes). Seedless random topologies differ per run, so those are
    /// checked for every `(seed, trial)` of the sweep; deterministic
    /// topologies are built and checked once. A spec with a matrix
    /// validates every expanded point.
    ///
    /// # Errors
    ///
    /// Returns the first failing path.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.matrix.is_some() {
            for point in self.expand_matrix()? {
                point.spec.validate().map_err(|e| {
                    SpecError::new(
                        format!("matrix[{}].{}", point.index, e.path),
                        format!("{} (point {})", e.msg, point.label),
                    )
                })?;
            }
            return Ok(());
        }
        if !self.topology_varies_per_run() {
            let seed = self.seeds[0];
            let inst = crate::topology::build_instance(&self.topology, derive_run_seed(seed, 0))?;
            return self.validate_against(&inst, seed, 0);
        }
        for &(seed, trial) in &self.sweep_runs(false) {
            let run_seed = derive_run_seed(seed, trial);
            let inst = crate::topology::build_instance(&self.topology, run_seed)?;
            self.validate_against(&inst, seed, trial)?;
        }
        Ok(())
    }

    /// The topology cross-checks against a built instance, by CSR
    /// lookups alone (a million-node grid spec validates in the CSR
    /// footprint).
    pub(crate) fn validate_against(
        &self,
        inst: &lr_graph::ReversalInstance,
        seed: u64,
        trial: usize,
    ) -> Result<(), SpecError> {
        let node = lr_graph::NodeId::new;
        let node_ok = |u: u32| inst.csr().index_of(node(u)).is_some();
        let edge_ok = |u: u32, v: u32| inst.init().dir(node(u), node(v)).is_some();
        let (node_count, dest) = (inst.node_count(), inst.dest.raw());
        let ctx = |path: &str| format!("{path} (seed {seed}, trial {trial})");
        for (i, o) in self.links.overrides.iter().enumerate() {
            if !edge_ok(o.u, o.v) {
                return Err(SpecError::new(
                    ctx(&format!("links.overrides[{i}]")),
                    format!("no link {}-{} in the topology", o.u, o.v),
                ));
            }
        }
        for (i, event) in self.churn.iter().enumerate() {
            let path = format!("churn[{i}]");
            match &event.kind {
                ChurnKind::Fail(edges) | ChurnKind::Heal(edges) => {
                    for &(u, v) in edges {
                        if !edge_ok(u, v) {
                            return Err(SpecError::new(
                                ctx(&path),
                                format!("no link {u}-{v} in the topology"),
                            ));
                        }
                    }
                }
                ChurnKind::Partition(side) => {
                    for &u in side {
                        if !node_ok(u) {
                            return Err(SpecError::new(
                                ctx(&path),
                                format!("partition names node {u}, which is not in the topology"),
                            ));
                        }
                    }
                    let side_set: BTreeSet<u32> = side.iter().copied().collect();
                    if side_set.len() == node_count {
                        return Err(SpecError::new(
                            ctx(&path),
                            "partition side contains every node; nothing to cut",
                        ));
                    }
                }
                ChurnKind::Random { .. } | ChurnKind::CrashLeader => {}
            }
        }
        if let Some(traffic) = &self.traffic {
            if let Sources::List(list) = &traffic.sources {
                for &u in list {
                    if !node_ok(u) {
                        return Err(SpecError::new(
                            ctx("traffic.sources"),
                            format!("source {u} is not a node of the topology"),
                        ));
                    }
                    if dest == u && !self.protocol.dest_may_request() {
                        return Err(SpecError::new(
                            ctx("traffic.sources"),
                            format!("source {u} is the destination; it has nothing to send"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Derives the per-run seed from a base seed and trial index
/// (trial 0 keeps the base seed so single-trial sweeps read naturally).
///
/// Together with [`derive_churn_seed`] this is the single source of
/// truth for `(spec, seed, trial)` → RNG derivation; a pinned-value
/// regression test keeps the mapping stable across refactors (changing
/// it would silently re-randomize every recorded scenario row).
pub fn derive_run_seed(seed: u64, trial: usize) -> u64 {
    seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derives the churn-RNG seed from a run seed. The churn stream (random
/// fail/heal sampling) is decorrelated from the simulator's
/// jitter/loss stream, which is seeded with the run seed directly.
pub fn derive_churn_seed(run_seed: u64) -> u64 {
    run_seed ^ 0xC4E1_15C0_0B5E_55ED
}

#[cfg(test)]
mod derivation_tests {
    use super::*;

    /// Golden values: the `(seed, trial)` → RNG derivation is part of
    /// the scenario-row contract. If this test fails, a
    /// refactor changed which runs a spec names — fix the refactor, do
    /// not re-pin the constants.
    #[test]
    fn seed_derivation_is_stable_across_refactors() {
        assert_eq!(derive_run_seed(0, 0), 0);
        assert_eq!(derive_run_seed(5, 0), 5, "trial 0 keeps the base seed");
        assert_eq!(derive_run_seed(5, 1), 0x9E37_79B9_7F4A_7C10);
        assert_eq!(derive_run_seed(7, 3), 0xDAA6_6D2C_7DDF_7438);
        assert_eq!(derive_run_seed(123_456_789, 7), 0x5384_5412_7C52_A986);
        assert_eq!(derive_churn_seed(0), 0xC4E1_15C0_0B5E_55ED);
        assert_eq!(derive_churn_seed(42), 0xC4E1_15C0_0B5E_55C7);
    }

    #[test]
    fn sweep_runs_enumerate_seeds_then_trials() {
        let mut spec = ScenarioSpec::from_json(
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "seeds": [9, 4], "trials": 2}"#,
        )
        .unwrap();
        assert_eq!(spec.sweep_runs(false), vec![(9, 0), (9, 1), (4, 0), (4, 1)]);
        assert_eq!(spec.sweep_runs(true), vec![(9, 0)], "smoke = first cell");
        spec.trials = 1;
        assert_eq!(spec.sweep_runs(false), vec![(9, 0), (4, 0)]);
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    fn topology(json: &str) -> Result<TopologySpec, SpecError> {
        TopologySpec::parse(&serde_json::from_str(json).expect("valid JSON"), "topology")
    }

    #[test]
    fn topologies_over_the_slot_capacity_are_spec_errors() {
        for json in [
            r#"{"family": "grid", "rows": 100000, "cols": 100000}"#,
            r#"{"family": "star", "leaves": 5000000000}"#,
            r#"{"family": "tree", "depth": 100}"#,
            r#"{"family": "tree", "depth": 18446744073709551615}"#,
            r#"{"family": "chain-away", "n": 5000000000}"#,
            r#"{"family": "complete", "n": 100000}"#,
            r#"{"family": "complete", "n": 18446744073709551615}"#,
            r#"{"family": "random", "n": 4000000000, "extra_edges": 0}"#,
            r#"{"family": "random", "n": 100000, "extra_edges": 18446744073709551615}"#,
            r#"{"family": "bipartite", "width": 100000, "degree": 30000}"#,
            r#"{"family": "layered", "width": 100000, "depth": 2}"#,
        ] {
            let e = topology(json).unwrap_err();
            assert_eq!(e.path, "topology", "{json}: {e}");
            assert!(e.msg.contains("slot-index capacity"), "{json}: {e}");
        }
    }

    #[test]
    fn topologies_at_the_memory_ceiling_parse_and_one_past_it_errors() {
        assert_eq!(MAX_GENERATED_HALF_EDGES, 268_435_456);
        // A star of 2^27 leaves and a chain of 2^27 + 1 nodes need 2^28
        // slots, a depth-25 tree 2^28 - 4; one leaf, node or level more
        // passes the ceiling while staying within the u32 slot index.
        for (at, past) in [
            (
                r#"{"family": "star", "leaves": 134217728}"#,
                r#"{"family": "star", "leaves": 134217729}"#,
            ),
            (
                r#"{"family": "chain-away", "n": 134217729}"#,
                r#"{"family": "chain-away", "n": 134217730}"#,
            ),
            (
                r#"{"family": "tree", "depth": 25}"#,
                r#"{"family": "tree", "depth": 26}"#,
            ),
        ] {
            assert!(topology(at).is_ok(), "{at}");
            let e = topology(past).unwrap_err();
            assert_eq!(e.path, "topology", "{past}: {e}");
            assert!(
                e.msg.contains(" is too large: ")
                    && e.msg
                        .ends_with("exceed the 268,435,456-half-edge memory ceiling"),
                "{past}: {e}"
            );
        }
        let e = topology(r#"{"family": "complete", "n": 46000}"#).unwrap_err();
        assert_eq!(
            e.msg,
            "complete(n=46000) is too large: 2115954000 half-edges exceed the \
             268,435,456-half-edge memory ceiling"
        );
        for json in [
            r#"{"family": "random", "n": 1000, "extra_edges": 18446744073709551615}"#,
            r#"{"family": "grid", "rows": 1, "cols": 2}"#,
        ] {
            assert!(topology(json).is_ok(), "{json}");
        }
        let e = topology(r#"{"family": "grid", "rows": 1, "cols": 1}"#).unwrap_err();
        assert!(e.msg.contains("at least 2 nodes"), "{e}");
    }

    /// The closed-form slot counts behind the capacity check, against
    /// the instances the generators actually build: exact for the
    /// deterministic families, an upper bound for the random ones.
    #[test]
    fn half_edge_counts_match_the_built_instances() {
        for json in [
            r#"{"family": "chain-away", "n": 2}"#,
            r#"{"family": "chain-away", "n": 9}"#,
            r#"{"family": "chain-toward", "n": 6}"#,
            r#"{"family": "alternating", "n": 11}"#,
            r#"{"family": "star", "leaves": 1}"#,
            r#"{"family": "star", "leaves": 7}"#,
            r#"{"family": "tree", "depth": 1}"#,
            r#"{"family": "tree", "depth": 4}"#,
            r#"{"family": "grid", "rows": 1, "cols": 5}"#,
            r#"{"family": "grid", "rows": 4, "cols": 6}"#,
            r#"{"family": "complete", "n": 7}"#,
            r#"{"family": "random", "n": 12, "extra_edges": 9}"#,
            r#"{"family": "random", "n": 6, "extra_edges": 100}"#,
            r#"{"family": "bipartite", "width": 6, "degree": 4}"#,
            r#"{"family": "bipartite", "width": 5, "degree": 5}"#,
            r#"{"family": "layered", "width": 4, "depth": 3, "p": 0.3}"#,
            r#"{"family": "layered", "width": 3, "depth": 4, "p": 1.0}"#,
        ] {
            let spec = topology(json).unwrap();
            let closed_form = spec.half_edges().unwrap();
            for run_seed in 0..4 {
                let built = crate::topology::build_instance(&spec, run_seed)
                    .unwrap()
                    .half_edge_count();
                match spec {
                    TopologySpec::Random { .. }
                    | TopologySpec::Bipartite { .. }
                    | TopologySpec::Layered { .. } => assert!(built <= closed_form, "{json}"),
                    _ => assert_eq!(built, closed_form, "{json}"),
                }
            }
        }
    }
}
