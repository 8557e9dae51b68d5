//! Dense tracking of incomplete instructions in the dispatched window.
//!
//! The core dispatches in program order and a squash discards a suffix of
//! what it dispatched, so the dispatched instructions are always a prefix
//! `[0, end)` of the trace. Within that prefix an instruction is
//! *incomplete* from dispatch until it completes in the EDE sense (or is
//! squashed). The ordering questions the pipeline asks — "is any
//! instruction / memory operation / store older than `id` incomplete?" —
//! then reduce to comparing `id` with the oldest incomplete member of each
//! class, and that oldest member only ever moves forward, except that a
//! squash pulls it back to the new end of the prefix.
//!
//! # Example
//!
//! ```
//! use ede_cpu::window::Incomplete;
//! use ede_isa::{InstId, InstKind};
//!
//! let mut w = Incomplete::new(4);
//! w.dispatch(InstId(0), InstKind::Writeback);
//! w.dispatch(InstId(1), InstKind::Alu);
//! w.dispatch(InstId(2), InstKind::Store);
//! assert_eq!(w.oldest_before(InstId(2)), Some(InstId(0)));
//! w.complete(InstId(0));
//! assert_eq!(w.oldest_before(InstId(2)), Some(InstId(1)));
//! assert!(!w.mem_before(InstId(2)));
//! assert!(w.store_before(InstId(3)));
//! w.squash_after(InstId(1)); // the store is discarded
//! assert!(!w.store_before(InstId(3)));
//! assert_eq!(w.len(), 1);
//! ```

use ede_isa::{InstId, InstKind};

const INCOMPLETE: u8 = 1;
const MEM: u8 = 2;
const STORE: u8 = 4;

/// The flag set that makes an instruction a member of each tracked class:
/// every incomplete instruction, incomplete memory operations, and
/// incomplete stores.
const CLASSES: [u8; 3] = [INCOMPLETE, INCOMPLETE | MEM, INCOMPLETE | STORE];
const ANY: usize = 0;
const MEM_OPS: usize = 1;
const STORES: usize = 2;

/// The incomplete instructions of the dispatched prefix, indexed by
/// [`InstId`].
#[derive(Clone, Debug)]
pub struct Incomplete {
    /// Per instruction: `INCOMPLETE` plus its class bits; zero past `end`.
    flags: Vec<u8>,
    /// End of the dispatched prefix.
    end: usize,
    /// Number of incomplete instructions.
    count: usize,
    /// Per class: the oldest incomplete member, or `end` if there is none.
    oldest: [usize; 3],
}

impl Incomplete {
    /// An empty window over a trace of `len` instructions.
    pub fn new(len: usize) -> Incomplete {
        Incomplete {
            flags: vec![0; len],
            end: 0,
            count: 0,
            oldest: [0; 3],
        }
    }

    fn is_member(&self, i: usize, class: usize) -> bool {
        self.flags[i] & CLASSES[class] == CLASSES[class]
    }

    /// Dispatches `id`, which must be the next instruction after the
    /// dispatched prefix, as incomplete.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the end of the prefix.
    pub fn dispatch(&mut self, id: InstId, kind: InstKind) {
        let i = id.index();
        assert_eq!(i, self.end, "dispatch out of program order");
        self.flags[i] = INCOMPLETE
            | match kind {
                InstKind::Store => MEM | STORE,
                InstKind::Load | InstKind::Writeback => MEM,
                _ => 0,
            };
        self.end = i + 1;
        self.count += 1;
        for class in 0..CLASSES.len() {
            if self.oldest[class] == i && !self.is_member(i, class) {
                self.oldest[class] = self.end;
            }
        }
    }

    /// Marks `id` complete. Completing an instruction that is not
    /// incomplete is a no-op.
    pub fn complete(&mut self, id: InstId) {
        if !self.contains(id) {
            return;
        }
        let i = id.index();
        self.flags[i] &= !INCOMPLETE;
        self.count -= 1;
        for class in 0..CLASSES.len() {
            if self.oldest[class] == i {
                let mut j = i + 1;
                while j < self.end && !self.is_member(j, class) {
                    j += 1;
                }
                self.oldest[class] = j;
            }
        }
    }

    /// Discards every dispatched instruction younger than `branch`; the
    /// prefix ends right after it.
    pub fn squash_after(&mut self, branch: InstId) {
        let keep = (branch.index() + 1).min(self.end);
        for f in &mut self.flags[keep..self.end] {
            if *f & INCOMPLETE != 0 {
                self.count -= 1;
            }
            *f = 0;
        }
        self.end = keep;
        for oldest in &mut self.oldest {
            *oldest = (*oldest).min(keep);
        }
    }

    /// Whether `id` is dispatched and incomplete.
    pub fn contains(&self, id: InstId) -> bool {
        self.flags
            .get(id.index())
            .is_some_and(|&f| f & INCOMPLETE != 0)
    }

    /// Number of incomplete instructions.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no instruction is incomplete.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn oldest_of(&self, class: usize) -> Option<InstId> {
        let i = self.oldest[class];
        (i < self.end).then_some(InstId(i as u64))
    }

    /// The oldest incomplete instruction.
    pub fn oldest(&self) -> Option<InstId> {
        self.oldest_of(ANY)
    }

    /// The oldest incomplete instruction older than `id`.
    pub fn oldest_before(&self, id: InstId) -> Option<InstId> {
        self.oldest().filter(|&o| o < id)
    }

    /// Whether an incomplete memory operation (load, store or writeback)
    /// is older than `id`.
    pub fn mem_before(&self, id: InstId) -> bool {
        self.oldest_of(MEM_OPS).is_some_and(|o| o < id)
    }

    /// Whether an incomplete store is older than `id`.
    pub fn store_before(&self, id: InstId) -> bool {
        self.oldest_of(STORES).is_some_and(|o| o < id)
    }
}
