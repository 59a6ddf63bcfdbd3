//! # `cxl0-explore` — explicit-state exploration for the CXL0 model
//!
//! This crate turns the per-step semantics of [`cxl0_model`] into the
//! paper's full `γ ⟹ γ′` relation and builds four analyses on top:
//!
//! * [`interp`] — the nondeterministic interpreter (τ-closure, label
//!   application, trace executability);
//! * [`litmus`] / [`paper`] — the litmus-test engine and the paper's 13
//!   tests (Fig. 3 tests 1–9, §3.5 tests 10–12, §6 test 13);
//! * [`space`] — bounded reachable-state exploration, invariant checking,
//!   and label-alphabet generation;
//! * [`simulate`] — exhaustive checking of Proposition 1 (the paper's Rocq
//!   proofs, rechecked over finite configurations);
//! * [`refine`] — bounded trace refinement between model variants (the
//!   paper's FDR4/CSP analysis);
//! * [`asyncinterp`] / [`paper_async`] — the same machinery for the
//!   `CXL0_AF` asynchronous-flush extension (§3.2's persistency-buffer
//!   sketch), with its `A1`–`A8` litmus suite and the
//!   `AFlush;Barrier ≡ RFlush` equivalence check;
//! * [`dot`] — Graphviz export of explored graphs.
//!
//! ## Example: running a paper litmus test
//!
//! ```
//! use cxl0_explore::{paper, litmus::run_suite};
//!
//! let report = run_suite(&paper::figure3_tests());
//! assert!(report.all_pass());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod asyncinterp;
pub mod dot;
pub mod interp;
pub mod litmus;
pub mod paper;
pub mod paper_async;
pub mod program;
pub mod refine;
pub mod simulate;
pub mod space;

pub use asyncinterp::{AsyncExplorer, AsyncStateSet};
pub use interp::{Explorer, StateSet, StepSystem};
pub use litmus::{Litmus, LitmusOutcome, SuiteReport, Verdict};
pub use program::{outcomes, Instr, Outcome, Program, Reg};
pub use refine::{check_refinement, incomparability_witnesses, Refinement};
pub use simulate::{check_all as check_proposition1, CounterExample, Prop1Item};
pub use space::{explore, AlphabetBuilder, Edge, ReachableGraph};
