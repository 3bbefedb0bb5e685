//! Measured TR-XPUT of the paper's validation tables — the reference for
//! `model_paper_err` and `sim_paper_err`.
//!
//! Source: Jenq, Kohler, Towsley, "A Queueing Network Model for a
//! Distributed Database Testbed System", ICDE 1987, Table 3 (workload MB8)
//! and Table 4 (workload UB6), column "measured TR-XPUT" (committed
//! transactions per second homed at the node; node 0 = A, node 1 = B).
//! The same figures are typed into the repository's `tests/paper_numbers.rs`,
//! which a separate package cannot import.

use carat_workload::StandardWorkload;

/// `(workload, n, node, measured TR-XPUT in tx/s)`.
pub const MEASURED_XPUT: &[(StandardWorkload, u32, usize, f64)] = &[
    (StandardWorkload::Mb8, 4, 0, 0.94),
    (StandardWorkload::Mb8, 4, 1, 0.72),
    (StandardWorkload::Mb8, 8, 0, 0.45),
    (StandardWorkload::Mb8, 8, 1, 0.39),
    (StandardWorkload::Mb8, 12, 0, 0.23),
    (StandardWorkload::Mb8, 12, 1, 0.21),
    (StandardWorkload::Mb8, 16, 0, 0.15),
    (StandardWorkload::Mb8, 16, 1, 0.12),
    (StandardWorkload::Mb8, 20, 0, 0.09),
    (StandardWorkload::Mb8, 20, 1, 0.08),
    (StandardWorkload::Ub6, 4, 0, 0.99),
    (StandardWorkload::Ub6, 4, 1, 0.70),
    (StandardWorkload::Ub6, 8, 0, 0.53),
    (StandardWorkload::Ub6, 8, 1, 0.39),
    (StandardWorkload::Ub6, 12, 0, 0.27),
    (StandardWorkload::Ub6, 12, 1, 0.21),
    (StandardWorkload::Ub6, 16, 0, 0.15),
    (StandardWorkload::Ub6, 16, 1, 0.14),
    (StandardWorkload::Ub6, 20, 0, 0.10),
    (StandardWorkload::Ub6, 20, 1, 0.08),
];
