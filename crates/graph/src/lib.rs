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
//! For the software EP engine farm the crate additionally provides the
//! structural query parallel inference is built on: **conflict coloring**
//! ([`FactorGraph::greedy_factor_coloring`]) — a deterministic greedy
//! partition of factors into independent sets, which the parallel EP sweep
//! uses to batch sites that share no variable.

mod fg;

pub use fg::{ColorBatches, FactorGraph, FactorId, VarId};
