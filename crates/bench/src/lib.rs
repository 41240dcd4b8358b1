//! Experiment harness library for the NetKernel reproduction.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation; shared helpers (table formatting, experiment output)
//! live here.

#![forbid(unsafe_code)]

pub mod report;
