//! Nondeterministic interpretation of the `CXL0_AF` asynchronous-flush
//! extension (`cxl0_model::asyncflush`).
//!
//! [`AsyncExplorer`] is the generic [`Explorer`] over [`AsyncSemantics`]:
//! the silent-step alphabet additionally contains *retirement* steps that
//! discharge pending persistency-buffer entries, so the τ-closure
//! saturates under propagation **and** retirement. On top of the `⟹`
//! relation it answers the same trace-executability and outcome-comparison
//! queries, which the `paper_async` litmus suite and the
//! `AFlush;Barrier ≡ RFlush` equivalence checks are built on.

use std::collections::BTreeSet;

use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics, AsyncSilentStep, AsyncState};
use cxl0_model::StepError;

use crate::interp::{step_system, Explorer, StepSystem};

step_system!(AsyncSemantics, AsyncState, AsyncLabel, AsyncSilentStep);

/// A canonical set of extended states.
pub type AsyncStateSet = BTreeSet<AsyncState>;

/// Interprets `CXL0_AF` traces under a fixed [`AsyncSemantics`].
///
/// # Examples
///
/// ```
/// use cxl0_explore::AsyncExplorer;
/// use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics};
/// use cxl0_model::{Label, Loc, MachineId, SystemConfig, Val};
///
/// let sem = AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 1));
/// let exp = AsyncExplorer::new(&sem);
/// let (m1, m2) = (MachineId(0), MachineId(1));
/// let x = Loc::new(m2, 0);
///
/// // An un-barriered AFlush guarantees nothing: the stored value may be
/// // lost with the owner's crash (litmus A4).
/// let lossy = [
///     Label::lstore(m1, x, Val(1)).into(),
///     AsyncLabel::aflush(m1, x),
///     Label::crash(m2).into(),
///     Label::load(m1, x, Val(0)).into(),
/// ];
/// assert!(exp.is_allowed(&lossy));
///
/// // With a barrier the behavior is forbidden, exactly like RFlush
/// // (litmus A3 vs. paper test 5).
/// let safe = [
///     Label::lstore(m1, x, Val(1)).into(),
///     AsyncLabel::aflush(m1, x),
///     AsyncLabel::barrier(m1),
///     Label::crash(m2).into(),
///     Label::load(m1, x, Val(0)).into(),
/// ];
/// assert!(!exp.is_allowed(&safe));
/// ```
pub type AsyncExplorer<'a> = Explorer<'a, AsyncSemantics>;

#[cfg(test)]
mod tests {
    use super::*;
    use cxl0_model::{Label, Loc, MachineId, SystemConfig, Val};

    const M1: MachineId = MachineId(0);
    const M2: MachineId = MachineId(1);

    fn sem2() -> AsyncSemantics {
        AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 1))
    }

    fn x(owner: usize) -> Loc {
        Loc::new(MachineId(owner), 0)
    }

    #[test]
    fn tau_closure_includes_retirement() {
        let sem = sem2();
        let exp = AsyncExplorer::new(&sem);
        let st = sem
            .apply(&sem.initial_state(), &AsyncLabel::aflush(M1, x(1)))
            .unwrap();
        let mut set = AsyncStateSet::new();
        set.insert(st);
        let closed = exp.tau_closure(&set);
        // Pending and retired variants of the same base state.
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().any(AsyncState::all_buffers_empty));
    }

    #[test]
    fn barrier_filters_unretired_branches() {
        let sem = sem2();
        let exp = AsyncExplorer::new(&sem);
        let trace = [
            Label::lstore(M1, x(1), Val(1)).into(),
            AsyncLabel::aflush(M1, x(1)),
            AsyncLabel::barrier(M1),
        ];
        let set = exp.run_trace(&trace);
        assert!(!set.is_empty());
        for st in &set {
            // Every surviving branch has drained and persisted the store.
            assert!(st.all_buffers_empty());
            assert_eq!(st.memory(x(1)), Val(1));
        }
    }

    #[test]
    fn aflush_barrier_equals_rflush_from_reachable_states() {
        // The headline equivalence: from every reachable state with an
        // empty issuer buffer, AFlush;Barrier has exactly RFlush's
        // outcomes. (With a non-empty buffer it is strictly stronger —
        // covered by the inclusion check below.)
        let sem = sem2();
        let exp = AsyncExplorer::new(&sem);
        let alphabet: Vec<AsyncLabel> = vec![
            Label::lstore(M1, x(1), Val(1)).into(),
            Label::lstore(M2, x(1), Val(2)).into(),
            Label::crash(M2).into(),
            AsyncLabel::aflush(M1, x(0)),
        ];
        let reachable = exp.reachable_states(&alphabet, 500);
        assert!(reachable.len() > 3);
        let via_async = [AsyncLabel::aflush(M1, x(1)), AsyncLabel::barrier(M1)];
        let via_sync = [Label::rflush(M1, x(1)).into()];
        for st in &reachable {
            let mut set = AsyncStateSet::new();
            set.insert(st.clone());
            if st.pending_of(M1).is_empty() {
                assert!(
                    exp.same_outcomes(&set, &via_async, &via_sync),
                    "outcome mismatch from {st}"
                );
            } else {
                assert!(
                    exp.simulates(&set, &via_async, &via_sync),
                    "AFlush;Barrier must refine RFlush from {st}"
                );
            }
        }
    }

    #[test]
    fn empty_trace_allowed() {
        let sem = sem2();
        let exp = AsyncExplorer::new(&sem);
        assert!(exp.is_allowed(&[]));
    }

    #[test]
    fn reachable_states_respects_cap() {
        let sem = sem2();
        let exp = AsyncExplorer::new(&sem);
        let alphabet: Vec<AsyncLabel> = vec![
            Label::lstore(M1, x(1), Val(1)).into(),
            AsyncLabel::aflush(M1, x(1)),
        ];
        let capped = exp.reachable_states(&alphabet, 2);
        assert!(capped.len() <= 2, "cap exceeded: {}", capped.len());
    }
}
