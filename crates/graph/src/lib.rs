//! Bipartite factor graphs for BayesPerf.
//!
//! BayesPerf aggregates all statistical dependencies between events into one
//! graphical structure — a *factor graph* (§4.1): a bipartite graph whose
//! variable nodes are events (or event-at-time-slice instances) and whose
//! factor nodes are joint probability functions derived from
//! microarchitectural invariants, observations, or temporal smoothing.
//!
//! The crate provides the two graph queries the paper's scheduler relies on:
//!
//! * **Markov blankets** ([`FactorGraph::markov_blanket`]) — used to decide
//!   whether two consecutive counter configurations already share a
//!   (transitive) statistical dependency;
//! * **shortest paths** ([`FactorGraph::shortest_path`]) — used to build the
//!   minimal bridge of intermediate configurations when they do not
//!   (Dijkstra with unit edge costs, i.e. BFS, with a per-variable validity
//!   filter).
//!
//! Nodes carry arbitrary payloads so the same structure serves both the
//! schedule-planning graph (variables = events) and the inference graph
//! (variables = event × time slice).
//!
//! The core crate's chunk solve asks one more question of the schedule
//! graph: its **connected components** ([`FactorGraph::components`]).
//! Events in different components share no invariant, so each component's
//! precision matrix is solved on its own.

mod fg;

pub use fg::{FactorGraph, FactorId, VarId};
