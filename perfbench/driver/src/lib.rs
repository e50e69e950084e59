//! Seeded end-to-end and per-layer benchmark of the hinet simulator.
//!
//! [`workloads`] prepares and runs the four named workloads through the
//! program's public entry points and checks every result; [`timed`] wraps
//! the calls that cross a public layer boundary for the traced run, and
//! [`layers`] turns what the wrappers saw into per-layer metrics. The
//! `hinet-perfbench` binary measures one workload for a fixed time and
//! prints every metric with its unit; `perfbench/run.py` builds and runs it.

pub mod layers;
pub mod timed;
pub mod workloads;
