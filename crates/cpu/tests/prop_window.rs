//! Property test for the core's dense incomplete-instruction window: random
//! dispatch / complete / squash sequences, with every query checked after
//! every step against a reference model of ordered sets.

use ede_cpu::window::Incomplete;
use ede_isa::{InstId, InstKind};
use ede_util::check::{self, CaseResult, Strategy};
use ede_util::{prop_assert_eq, prop_oneof, property};
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Dispatch the next instruction of the trace with this kind.
    Dispatch(InstKind),
    /// Complete the dispatched instruction at this position (modulo the
    /// prefix length; completing a complete one is a no-op).
    Complete(u16),
    /// Squash everything younger than the dispatched instruction at this
    /// position (modulo the prefix length).
    Squash(u16),
}

const KINDS: [InstKind; 6] = [
    InstKind::Alu,
    InstKind::Load,
    InstKind::Store,
    InstKind::Writeback,
    InstKind::FenceMem,
    InstKind::Branch,
];

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0usize..KINDS.len()).prop_map(|k| Step::Dispatch(KINDS[k])),
        3 => (0u16..512).prop_map(Step::Complete),
        1 => (0u16..512).prop_map(Step::Squash),
    ]
}

/// The ordered-set model the window replaced: one set per class.
#[derive(Default)]
struct Model {
    kinds: Vec<InstKind>,
    incomplete: BTreeSet<InstId>,
    mem: BTreeSet<InstId>,
    stores: BTreeSet<InstId>,
}

impl Model {
    fn sets(&mut self) -> [&mut BTreeSet<InstId>; 3] {
        [&mut self.incomplete, &mut self.mem, &mut self.stores]
    }
}

fn window_matches_model_impl(steps: &[Step]) -> CaseResult {
    let mut w = Incomplete::new(steps.len());
    let mut m = Model::default();
    for &step in steps {
        match step {
            Step::Dispatch(kind) => {
                let id = InstId(m.kinds.len() as u64);
                m.kinds.push(kind);
                w.dispatch(id, kind);
                m.incomplete.insert(id);
                if matches!(kind, InstKind::Load | InstKind::Store | InstKind::Writeback) {
                    m.mem.insert(id);
                }
                if kind == InstKind::Store {
                    m.stores.insert(id);
                }
            }
            Step::Complete(_) | Step::Squash(_) if m.kinds.is_empty() => {}
            Step::Complete(at) => {
                let id = InstId(u64::from(at) % m.kinds.len() as u64);
                w.complete(id);
                for set in m.sets() {
                    set.remove(&id);
                }
            }
            Step::Squash(at) => {
                let branch = InstId(u64::from(at) % m.kinds.len() as u64);
                w.squash_after(branch);
                m.kinds.truncate(branch.index() + 1);
                for set in m.sets() {
                    set.retain(|&id| id <= branch);
                }
            }
        }
        prop_assert_eq!(w.len(), m.incomplete.len());
        prop_assert_eq!(w.is_empty(), m.incomplete.is_empty());
        prop_assert_eq!(w.oldest(), m.incomplete.first().copied());
        for probe in 0..=m.kinds.len() as u64 + 1 {
            let id = InstId(probe);
            prop_assert_eq!(w.contains(id), m.incomplete.contains(&id));
            prop_assert_eq!(
                w.oldest_before(id),
                m.incomplete.range(..id).next().copied()
            );
            prop_assert_eq!(w.mem_before(id), m.mem.range(..id).next().is_some());
            prop_assert_eq!(w.store_before(id), m.stores.range(..id).next().is_some());
        }
    }
    Ok(())
}

property! {
    fn window_matches_ordered_set_model(steps in check::vec(step_strategy(), 1..160)) {
        window_matches_model_impl(&steps)?;
    }
}
