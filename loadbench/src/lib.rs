//! Open-loop end-to-end benchmark of the HyRec serving stack.
//!
//! One process binds the stock HTTP stack on loopback, drives it with a
//! seeded open-loop generator over a few pipelined keep-alive
//! connections, checks every response, and prints every metric with its
//! unit. See `loadbench/README.md` for the workloads and metrics.

pub mod cpu;
pub mod generator;
pub mod inflate;
pub mod schedule;
pub mod stack;
pub mod stats;
pub mod traced;
