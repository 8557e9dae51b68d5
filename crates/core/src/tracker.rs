//! Ordered tracking of incomplete EDE instructions.

use ede_isa::{Edk, Inst, InstId, Op, NUM_EDKS};

/// Tracks EDE instructions that have entered the enforcement window but
/// not yet completed.
///
/// The WB design of §V-D uses a set of counters — per-EDK and overall —
/// incremented when an EDE instruction enters the write buffer and
/// decremented when it completes; `WAIT_KEY` / `WAIT_ALL_KEYS` retire only
/// when the matching counter reaches zero. This implementation keeps
/// *sorted lists* of instruction IDs instead, which subsumes the counters
/// (`count`/`total` reproduce them) while also answering the
/// program-order-aware question the IQ design needs: "is any instruction
/// *older than me* still outstanding for this key?" — the head of the
/// list. A pipeline inserts in program order, so insertion appends.
///
/// # Example
///
/// ```
/// use ede_core::InFlightEde;
/// use ede_isa::{Edk, EdkPair, Inst, InstId, Op, Reg};
///
/// let k = Edk::new(1).unwrap();
/// let p = Inst::with_edks(
///     Op::DcCvap { base: Reg::x(0).unwrap(), addr: 0 },
///     EdkPair::producer(k),
/// );
/// let mut t = InFlightEde::new();
/// t.insert(&p, InstId(0));
/// assert!(t.has_producer_before(k, InstId(5)));
/// t.complete(&p, InstId(0));
/// assert!(!t.has_producer_before(k, InstId(5)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct InFlightEde {
    /// Incomplete producers, per key, oldest first. Index 0 (the zero
    /// key) stays empty.
    producers: [Vec<InstId>; NUM_EDKS],
    /// All incomplete EDE instructions (producers *and* consumers), for
    /// `WAIT_ALL_KEYS`, oldest first.
    all: Vec<InstId>,
}

/// Inserts `id` into a sorted list (appending in the common case).
fn insert_sorted(list: &mut Vec<InstId>, id: InstId) {
    match list.last() {
        Some(&last) if last >= id => {
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        _ => list.push(id),
    }
}

/// Removes `id` from a sorted list, if present.
fn remove_sorted(list: &mut Vec<InstId>, id: InstId) {
    if let Ok(pos) = list.binary_search(&id) {
        list.remove(pos);
    }
}

/// Whether a sorted list holds an id older than `id`.
fn any_before(list: &[InstId], id: InstId) -> bool {
    list.first().is_some_and(|&first| first < id)
}

impl InFlightEde {
    /// An empty tracker.
    pub fn new() -> InFlightEde {
        InFlightEde::default()
    }

    fn produced_key(inst: &Inst) -> Edk {
        match inst.op {
            Op::WaitKey { key } => key,
            _ => inst.edks.def,
        }
    }

    /// Registers an EDE instruction as outstanding. Non-EDE instructions
    /// are ignored.
    ///
    /// In the IQ design, call this at dispatch; in the WB design, at
    /// write-buffer insertion (the paper increments its counters there).
    pub fn insert(&mut self, inst: &Inst, id: InstId) {
        if !inst.is_ede() {
            return;
        }
        let key = Self::produced_key(inst);
        if !key.is_zero() {
            insert_sorted(&mut self.producers[key.index() as usize], id);
        }
        insert_sorted(&mut self.all, id);
    }

    /// Marks an EDE instruction complete, removing it from all sets.
    pub fn complete(&mut self, inst: &Inst, id: InstId) {
        if !inst.is_ede() {
            return;
        }
        let key = Self::produced_key(inst);
        if !key.is_zero() {
            remove_sorted(&mut self.producers[key.index() as usize], id);
        }
        remove_sorted(&mut self.all, id);
    }

    /// Removes every tracked instruction younger than `id` (pipeline
    /// squash).
    pub fn squash_younger(&mut self, id: InstId) {
        for list in self.producers.iter_mut().chain([&mut self.all]) {
            let keep = list.partition_point(|&e| e <= id);
            list.truncate(keep);
        }
    }

    /// Whether any incomplete producer of `key` is older than `id`.
    ///
    /// This is the `WAIT_KEY` completion condition: "only considered
    /// complete once all prior dependence producers of the matching key
    /// have also finished" (§IV-B2).
    pub fn has_producer_before(&self, key: Edk, id: InstId) -> bool {
        !key.is_zero() && any_before(&self.producers[key.index() as usize], id)
    }

    /// Whether any incomplete EDE instruction (producer or consumer) is
    /// older than `id` — the `WAIT_ALL_KEYS` completion condition.
    pub fn has_any_before(&self, id: InstId) -> bool {
        any_before(&self.all, id)
    }

    /// The per-key counter of the WB design: number of outstanding
    /// producers of `key`.
    pub fn count(&self, key: Edk) -> usize {
        if key.is_zero() {
            0
        } else {
            self.producers[key.index() as usize].len()
        }
    }

    /// The overall counter of the WB design: number of outstanding EDE
    /// instructions.
    pub fn total(&self) -> usize {
        self.all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{EdkPair, Reg};

    fn k(n: u8) -> Edk {
        Edk::new(n).unwrap()
    }

    fn producer(key: Edk) -> Inst {
        Inst::with_edks(
            Op::DcCvap {
                base: Reg::x(0).unwrap(),
                addr: 0,
            },
            EdkPair::producer(key),
        )
    }

    fn consumer(key: Edk) -> Inst {
        Inst::with_edks(
            Op::Str {
                src: Reg::x(1).unwrap(),
                base: Reg::x(2).unwrap(),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(key),
        )
    }

    #[test]
    fn non_ede_instructions_ignored() {
        let mut t = InFlightEde::new();
        t.insert(&Inst::plain(Op::Nop), InstId(0));
        t.insert(
            &Inst::plain(Op::Str {
                src: Reg::x(1).unwrap(),
                base: Reg::x(0).unwrap(),
                addr: 0,
                value: 0,
            }),
            InstId(1),
        );
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn wait_key_blocks_on_all_older_producers() {
        // Two producers of key 1; a WAIT_KEY at id 5 must see both.
        let mut t = InFlightEde::new();
        t.insert(&producer(k(1)), InstId(0));
        t.insert(&producer(k(1)), InstId(3));
        assert!(t.has_producer_before(k(1), InstId(5)));
        t.complete(&producer(k(1)), InstId(3));
        // The EDM would have forgotten producer 0 (overwritten by 3), but
        // the tracker still sees it — the WAIT_KEY semantics the paper
        // needs for calling conventions.
        assert!(t.has_producer_before(k(1), InstId(5)));
        t.complete(&producer(k(1)), InstId(0));
        assert!(!t.has_producer_before(k(1), InstId(5)));
    }

    #[test]
    fn producers_younger_than_wait_do_not_block_it() {
        let mut t = InFlightEde::new();
        t.insert(&producer(k(1)), InstId(9));
        assert!(!t.has_producer_before(k(1), InstId(5)));
        assert!(t.has_producer_before(k(1), InstId(10)));
    }

    #[test]
    fn wait_all_sees_consumers_too() {
        let mut t = InFlightEde::new();
        t.insert(&consumer(k(2)), InstId(1));
        assert!(t.has_any_before(InstId(4)));
        assert_eq!(t.count(k(2)), 0); // a consumer produces nothing
        assert_eq!(t.total(), 1);
        t.complete(&consumer(k(2)), InstId(1));
        assert!(!t.has_any_before(InstId(4)));
    }

    #[test]
    fn wait_key_instruction_is_tracked_as_producer_of_its_key() {
        let mut t = InFlightEde::new();
        let w = Inst::plain(Op::WaitKey { key: k(3) });
        t.insert(&w, InstId(2));
        assert_eq!(t.count(k(3)), 1);
        t.complete(&w, InstId(2));
        assert_eq!(t.count(k(3)), 0);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut t = InFlightEde::new();
        t.insert(&producer(k(1)), InstId(1));
        t.insert(&producer(k(1)), InstId(8));
        t.insert(&consumer(k(1)), InstId(9));
        t.squash_younger(InstId(5));
        assert_eq!(t.count(k(1)), 1);
        assert_eq!(t.total(), 1);
        assert!(t.has_producer_before(k(1), InstId(5)));
    }

    #[test]
    fn counters_match_paper_semantics() {
        let mut t = InFlightEde::new();
        for i in 0..4 {
            t.insert(&producer(k(5)), InstId(i));
        }
        assert_eq!(t.count(k(5)), 4);
        assert_eq!(t.total(), 4);
        for i in 0..4 {
            t.complete(&producer(k(5)), InstId(i));
        }
        assert_eq!(t.count(k(5)), 0);
        assert_eq!(t.total(), 0);
    }
}
