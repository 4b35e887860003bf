//! # nsb-bench
//!
//! Table/figure regeneration binaries and Criterion micro-benchmarks for
//! the MICRO 2022 reproduction. See the `bin/` targets:
//!
//! * `table1`, `table2` — the paper's evaluation tables;
//! * `fig2_trajectory`, `fig4_regions`, `fig5_stability`, `fig7_device` —
//!   the figures;
//!
//! and the benches `synthesis` (including the Section VII depth-oracle
//! ablation), `weyl_geometry`, `routing`, `trajectory`.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp
    )
)]
