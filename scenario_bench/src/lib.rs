//! The AN2 scenario benchmark: whole scenarios driven through the public
//! `an2::Network` API, with the output checks, run digest and per-layer
//! spans taken from outside the simulator. `run.py` runs the binary once
//! per repetition and aggregates; see README.md.

pub mod scenario;
mod spans;
pub mod workload;

#[cfg(test)]
mod tests;
