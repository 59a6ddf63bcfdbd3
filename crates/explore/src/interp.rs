//! The nondeterministic interpreter: lifts the per-label semantics of
//! `cxl0-model` to the paper's `γ ⟹ γ′` relation, in which visible labels
//! may be interleaved with arbitrary silent `τ` propagation steps.
//!
//! Because the CXL0 semantics is deterministic per visible label, the set
//! of states reachable after a trace is computed by alternating
//! *τ-closure* (saturating under propagation) and *label application*.
//! These state sets are exactly the subsets used by a determinized view of
//! the LTS, which the refinement checker builds products of.
//! [`Explorer`] is generic over a [`StepSystem`], so the same code also
//! interprets the `CXL0_AF` extension ([`crate::asyncinterp`]).

use std::collections::BTreeSet;

#[cfg(test)]
use cxl0_model::Trace;
use cxl0_model::{Label, Semantics, SilentStep, State, StepError};

/// A canonical set of states (τ-closures are represented this way so that
/// they can be hashed and compared during product exploration).
pub type StateSet = BTreeSet<State>;

/// What an [`Explorer`] needs of a semantics: an initial state, visible
/// labels, and enumerable silent steps. A step that is not enabled is an
/// `Err`, which explorers treat as a dead branch.
pub trait StepSystem {
    /// A system state.
    type State: Clone + Ord;
    /// A visible label.
    type Label: 'static;
    /// A silent (τ) step.
    type Silent;
    /// The initial state.
    fn initial_state(&self) -> Self::State;
    /// Applies one visible label.
    fn apply(&self, st: &Self::State, label: &Self::Label) -> Result<Self::State, StepError>;
    /// The silent steps enabled in `st`.
    fn silent_steps(&self, st: &Self::State) -> Vec<Self::Silent>;
    /// Applies one silent step.
    fn apply_silent(&self, st: &Self::State, step: &Self::Silent)
        -> Result<Self::State, StepError>;
}

/// Implements [`StepSystem`] by forwarding to a semantics' inherent
/// methods of the same names.
macro_rules! step_system {
    ($sem:ty, $state:ty, $label:ty, $silent:ty) => {
        impl StepSystem for $sem {
            type State = $state;
            type Label = $label;
            type Silent = $silent;
            fn initial_state(&self) -> $state {
                <$sem>::initial_state(self)
            }
            fn apply(&self, st: &$state, label: &$label) -> Result<$state, StepError> {
                <$sem>::apply(self, st, label)
            }
            fn silent_steps(&self, st: &$state) -> Vec<$silent> {
                <$sem>::silent_steps(self, st)
            }
            fn apply_silent(&self, st: &$state, step: &$silent) -> Result<$state, StepError> {
                <$sem>::apply_silent(self, st, step)
            }
        }
    };
}

pub(crate) use step_system;

step_system!(Semantics, State, Label, SilentStep);

/// Interprets traces under a fixed semantics: the base [`Semantics`] by
/// default, or any other [`StepSystem`] such as the `CXL0_AF` extension
/// ([`AsyncExplorer`](crate::AsyncExplorer)).
///
/// # Examples
///
/// ```
/// use cxl0_explore::Explorer;
/// use cxl0_model::{Semantics, SystemConfig, Label, Loc, MachineId, Val, Trace};
///
/// let sem = Semantics::new(SystemConfig::symmetric_nvm(1, 1));
/// let exp = Explorer::new(&sem);
/// let x = Loc::new(MachineId(0), 0);
///
/// // Litmus test 1: an RStore may be lost on crash.
/// let t = Trace::from_labels([
///     Label::rstore(MachineId(0), x, Val(1)),
///     Label::crash(MachineId(0)),
///     Label::load(MachineId(0), x, Val(0)),
/// ]);
/// assert!(exp.is_allowed(&t));
///
/// // Litmus test 2: an MStore cannot be lost.
/// let t = Trace::from_labels([
///     Label::mstore(MachineId(0), x, Val(1)),
///     Label::crash(MachineId(0)),
///     Label::load(MachineId(0), x, Val(0)),
/// ]);
/// assert!(!exp.is_allowed(&t));
/// ```
#[derive(Debug)]
pub struct Explorer<'a, S = Semantics> {
    sem: &'a S,
}

impl<S> Clone for Explorer<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for Explorer<'_, S> {}

impl<'a, S: StepSystem> Explorer<'a, S> {
    /// Creates an explorer over the given semantics.
    pub fn new(sem: &'a S) -> Self {
        Explorer { sem }
    }

    /// The underlying semantics.
    pub fn semantics(&self) -> &'a S {
        self.sem
    }

    /// The τ-closed singleton of the initial state.
    pub fn initial_set(&self) -> BTreeSet<S::State> {
        self.tau_closure(&BTreeSet::from([self.sem.initial_state()]))
    }

    /// All states reachable from `set` by zero or more silent steps (a
    /// fixpoint; always terminates because propagation strictly moves
    /// values toward memory, retirement strictly shrinks persistency
    /// buffers, and the state space is finite).
    pub fn tau_closure(&self, set: &BTreeSet<S::State>) -> BTreeSet<S::State> {
        let mut closed = set.clone();
        let mut frontier: Vec<S::State> = set.iter().cloned().collect();
        while let Some(st) = frontier.pop() {
            for step in self.sem.silent_steps(&st) {
                let next = self
                    .sem
                    .apply_silent(&st, &step)
                    .expect("enumerated silent step must be enabled");
                if closed.insert(next.clone()) {
                    frontier.push(next);
                }
            }
        }
        closed
    }

    /// Applies one visible label to every state in `set` (states where the
    /// label is blocked or mismatching simply drop out), without silent
    /// steps.
    pub fn apply_label(&self, set: &BTreeSet<S::State>, label: &S::Label) -> BTreeSet<S::State> {
        set.iter()
            .filter_map(|st| self.sem.apply(st, label).ok())
            .collect()
    }

    /// The `⟹` step for one label: τ-closure, then the label, then
    /// τ-closure again. Input need not be τ-closed.
    pub fn after_label(&self, set: &BTreeSet<S::State>, label: &S::Label) -> BTreeSet<S::State> {
        let closed = self.tau_closure(set);
        let stepped = self.apply_label(&closed, label);
        self.tau_closure(&stepped)
    }

    /// The `⟹` relation for a whole trace starting from `set`. Here and
    /// below a trace is any sequence of label references: a `&`[`Trace`](cxl0_model::Trace),
    /// a slice or an array.
    pub fn after_trace<'t>(
        &self,
        set: &BTreeSet<S::State>,
        trace: impl IntoIterator<Item = &'t S::Label>,
    ) -> BTreeSet<S::State> {
        let mut cur = self.tau_closure(set);
        for label in trace {
            if cur.is_empty() {
                break;
            }
            cur = self.after_label(&cur, label);
        }
        cur
    }

    /// The states reachable from the initial state via `trace` (with τ
    /// steps interleaved freely).
    pub fn run_trace<'t>(
        &self,
        trace: impl IntoIterator<Item = &'t S::Label>,
    ) -> BTreeSet<S::State> {
        self.after_trace(&self.initial_set(), trace)
    }

    /// Whether `trace` is executable from the initial state — i.e. whether
    /// the behavior it describes is *allowed* by the model.
    pub fn is_allowed<'t>(&self, trace: impl IntoIterator<Item = &'t S::Label>) -> bool {
        !self.run_trace(trace).is_empty()
    }

    /// Whether two label sequences lead to exactly the same τ-closed state
    /// sets from `set` — the workhorse for Proposition-1 style equivalence
    /// checks.
    pub fn same_outcomes<'t>(
        &self,
        set: &BTreeSet<S::State>,
        a: impl IntoIterator<Item = &'t S::Label>,
        b: impl IntoIterator<Item = &'t S::Label>,
    ) -> bool {
        self.after_trace(set, a) == self.after_trace(set, b)
    }

    /// Whether every outcome of `a` is an outcome of `b` from `set`
    /// (`S(a) ⊆ S(b)` in the Prop.-1 reading of "`b` can simulate `a`").
    pub fn simulates<'t>(
        &self,
        set: &BTreeSet<S::State>,
        a: impl IntoIterator<Item = &'t S::Label>,
        b: impl IntoIterator<Item = &'t S::Label>,
    ) -> bool {
        self.after_trace(set, a)
            .is_subset(&self.after_trace(set, b))
    }

    /// Enumerates every state reachable from the initial state using the
    /// given visible-label alphabet (with τ steps interleaved freely),
    /// up to `max_states` states. Used by the exhaustive
    /// `AFlush;Barrier ≡ RFlush` equivalence checks.
    pub fn reachable_states(&self, alphabet: &[S::Label], max_states: usize) -> BTreeSet<S::State> {
        let mut seen = self.initial_set();
        let mut frontier: Vec<S::State> = seen.iter().cloned().collect();
        'explore: while let Some(st) = frontier.pop() {
            let singleton = BTreeSet::from([st]);
            for label in alphabet {
                for next in self.after_label(&singleton, label) {
                    if seen.len() >= max_states {
                        break 'explore;
                    }
                    if seen.insert(next.clone()) {
                        frontier.push(next);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl0_model::{Loc, MachineId, SystemConfig, Val};

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn sem2() -> Semantics {
        Semantics::new(SystemConfig::symmetric_nvm(2, 1))
    }

    fn x(o: usize) -> Loc {
        Loc::new(MachineId(o), 0)
    }

    #[test]
    fn tau_closure_saturates_both_propagation_kinds() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let st = sem
            .apply(&sem.initial_state(), &Label::lstore(M0, x(1), Val(1)))
            .unwrap();
        let mut set = StateSet::new();
        set.insert(st);
        let closed = exp.tau_closure(&set);
        // States: {C0=1}, {C1=1} (after C-C), {M=1} (after C-M).
        assert_eq!(closed.len(), 3);
        assert!(closed.iter().any(|s| s.memory(x(1)) == Val(1)));
    }

    #[test]
    fn after_label_filters_blocked_branches() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.initial_set();
        let set = exp.after_label(&set, &Label::lstore(M0, x(1), Val(1)));
        // RFlush only proceeds on the branch where propagation completed.
        let flushed = exp.after_label(&set, &Label::rflush(M0, x(1)));
        assert!(!flushed.is_empty());
        for st in &flushed {
            assert_eq!(st.memory(x(1)), Val(1));
            assert!(st.no_cache_holds(x(1)));
        }
    }

    #[test]
    fn run_trace_empty_trace_is_initial_closure() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.run_trace(&Trace::new());
        assert_eq!(set.len(), 1); // initial state has nothing to propagate
    }

    #[test]
    fn load_observation_disambiguates() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        // After a crash of the owner, a load of x(1) must see 0 even though
        // it saw 1 before the crash.
        let t = Trace::from_labels([
            Label::lstore(M0, x(1), Val(1)),
            Label::load(M1, x(1), Val(1)),
            Label::crash(M0),
        ]);
        let set = exp.run_trace(&t);
        assert!(!set.is_empty());
        // Both observations remain possible depending on propagation:
        let sees1 = exp.after_label(&set, &Label::load(M1, x(1), Val(1)));
        let sees0 = exp.after_label(&set, &Label::load(M1, x(1), Val(0)));
        assert!(!sees1.is_empty());
        // 0 requires m1's copy to have drained and been wiped — m1 never
        // crashed and the owner is m1 itself, so its copy persists in cache
        // or memory; 0 must be impossible here.
        assert!(sees0.is_empty());
    }

    #[test]
    fn simulates_and_same_outcomes_agree_on_owner_stores() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.initial_set();
        let ls = Trace::from_labels([Label::lstore(M1, x(1), Val(1))]);
        let rs = Trace::from_labels([Label::rstore(M1, x(1), Val(1))]);
        assert!(exp.same_outcomes(&set, &ls, &rs));
        assert!(exp.simulates(&set, &ls, &rs));
        assert!(exp.simulates(&set, &rs, &ls));
    }
}
