//! Persist tracing and NVM-image reconstruction.
//!
//! The memory system records two event streams while it simulates:
//!
//! * **store events** — a retired store's data becoming visible in the
//!   cache hierarchy (still volatile!);
//! * **persist events** — a 64-byte line's current contents entering the
//!   persistent domain (persist-buffer admission, whether from a
//!   `DC CVAP` or a dirty NVM eviction).
//!
//! Replaying both streams up to an arbitrary crash instant yields the
//! exact NVM contents a power failure at that instant would leave behind;
//! [`nvm_image_at`] does exactly that for one instant, and [`Replayer`]
//! does it for a nondecreasing series of instants in one pass. The
//! `ede-nvm` crate runs undo-log recovery over the resulting images to
//! test crash consistency.

use ede_util::hash::U64Map;

/// A store's data becoming visible in the (volatile) cache hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreEvent {
    /// Completion cycle (global visibility).
    pub cycle: u64,
    /// Destination virtual address (8-byte aligned).
    pub addr: u64,
    /// Access width in bytes: 8 (`STR`) or 16 (`STP`).
    pub width: u8,
    /// The stored word(s): `value[0]` at `addr`, `value[1]` at `addr + 8`
    /// for 16-byte stores.
    pub value: [u64; 2],
}

/// A 64-byte line's contents entering the persistent domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PersistEvent {
    /// Admission cycle into the persist buffer.
    pub cycle: u64,
    /// Line-aligned address (64-byte granularity).
    pub line: u64,
}

/// The combined event record of one simulation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PersistTrace {
    /// Store-visibility events, in nondecreasing cycle order.
    pub stores: Vec<StoreEvent>,
    /// Persist events, in nondecreasing cycle order.
    pub persists: Vec<PersistEvent>,
}

impl PersistTrace {
    /// Records a store event.
    pub fn record_store(&mut self, ev: StoreEvent) {
        self.stores.push(ev);
    }

    /// Records a persist event.
    pub fn record_persist(&mut self, ev: PersistEvent) {
        self.persists.push(ev);
    }

    /// The last event cycle in the trace (0 if empty).
    pub fn horizon(&self) -> u64 {
        let s = self.stores.last().map_or(0, |e| e.cycle);
        let p = self.persists.last().map_or(0, |e| e.cycle);
        s.max(p)
    }

    /// Every crash cycle worth checking: cycle 0 (nothing persisted yet),
    /// each persist-event cycle (that persist just landed), and one past
    /// the horizon (the completed run). Sorted and deduplicated — crashing
    /// between two consecutive entries yields the same NVM image as
    /// crashing at the earlier one, so this list covers all distinct
    /// crash images.
    pub fn persist_cycles(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self.persists.iter().map(|e| e.cycle).collect();
        cycles.push(0);
        cycles.push(self.horizon() + 1);
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }
}

/// Reconstructs the NVM contents observable after a crash at
/// `crash_cycle` (inclusive), as a map from 8-byte-aligned word address to
/// value. Words never persisted are absent (read as their initial value).
///
/// Stores at the crash cycle are applied before persists at the same
/// cycle, matching the simulator's intra-cycle ordering (a persist
/// admission snapshots the line as of that cycle's visible stores).
/// A one-shot [`Replayer`]; sweeps over many crash instants should keep
/// one replayer and advance it instead.
///
/// # Example
///
/// ```
/// use ede_mem::trace::{nvm_image_at, PersistEvent, PersistTrace, StoreEvent};
///
/// let mut t = PersistTrace::default();
/// t.record_store(StoreEvent { cycle: 10, addr: 0x1000, width: 8, value: [42, 0] });
/// t.record_persist(PersistEvent { cycle: 20, line: 0x1000 });
///
/// assert!(nvm_image_at(&t, 15, 64).is_empty());      // visible but not persistent
/// assert_eq!(nvm_image_at(&t, 20, 64)[&0x1000], 42); // persisted at 20
/// ```
pub fn nvm_image_at(trace: &PersistTrace, crash_cycle: u64, line_bytes: u64) -> U64Map<u64> {
    let mut replay = Replayer::new(trace, line_bytes);
    replay.advance_to(crash_cycle);
    replay.into_image()
}

/// Replays a [`PersistTrace`] forward, one crash instant after another:
/// the incremental form of [`nvm_image_at`]. It keeps the volatile view
/// and the persisted image between calls, so visiting every crash
/// instant of a trace costs one pass over its events instead of one
/// pass per instant.
///
/// # Example
///
/// ```
/// use ede_mem::trace::{nvm_image_at, PersistEvent, PersistTrace, Replayer, StoreEvent};
///
/// let mut t = PersistTrace::default();
/// t.record_store(StoreEvent { cycle: 10, addr: 0x1000, width: 8, value: [42, 0] });
/// t.record_persist(PersistEvent { cycle: 20, line: 0x1000 });
///
/// let mut r = Replayer::new(&t, 64);
/// for c in t.persist_cycles() {
///     r.advance_to(c);
///     assert_eq!(*r.image(), nvm_image_at(&t, c, 64));
/// }
/// ```
#[derive(Debug)]
pub struct Replayer<'t> {
    trace: &'t PersistTrace,
    line_bytes: u64,
    next_store: usize,
    next_persist: usize,
    /// Volatile view: word address → value, updated by stores.
    volatile: U64Map<u64>,
    /// Persistent image.
    image: U64Map<u64>,
}

impl<'t> Replayer<'t> {
    /// A replayer positioned before the first event (empty image).
    pub fn new(trace: &'t PersistTrace, line_bytes: u64) -> Replayer<'t> {
        Replayer {
            trace,
            line_bytes,
            next_store: 0,
            next_persist: 0,
            volatile: U64Map::default(),
            image: U64Map::default(),
        }
    }

    /// Applies every event at or before `crash_cycle`, so that
    /// [`image`](Self::image) equals `nvm_image_at(trace, crash_cycle, _)`.
    /// Crash cycles must be nondecreasing across calls: the image only
    /// moves forward, so an earlier cycle leaves it where it is.
    pub fn advance_to(&mut self, crash_cycle: u64) {
        self.advance_with(crash_cycle, |_, _| {});
    }

    /// [`advance_to`](Self::advance_to), calling `changed(addr, value)`
    /// for each persist that gives a word a new value or makes it present
    /// — the changes an incremental consumer must fold in.
    pub fn advance_with(&mut self, crash_cycle: u64, mut changed: impl FnMut(u64, u64)) {
        let stores = &self.trace.stores;
        let persists = &self.trace.persists;
        loop {
            let s = stores
                .get(self.next_store)
                .filter(|e| e.cycle <= crash_cycle);
            let p = persists
                .get(self.next_persist)
                .filter(|e| e.cycle <= crash_cycle);
            let take_store = match (s, p) {
                (None, None) => break,
                (Some(se), Some(pe)) => se.cycle <= pe.cycle,
                (s, _) => s.is_some(),
            };
            if take_store {
                let se = s.expect("store present");
                self.volatile.insert(se.addr, se.value[0]);
                if se.width == 16 {
                    self.volatile.insert(se.addr + 8, se.value[1]);
                }
                self.next_store += 1;
            } else {
                let pe = p.expect("persist present");
                for off in (0..self.line_bytes).step_by(8) {
                    let w = pe.line + off;
                    if let Some(&v) = self.volatile.get(&w) {
                        if self.image.insert(w, v) != Some(v) {
                            changed(w, v);
                        }
                    }
                }
                self.next_persist += 1;
            }
        }
    }

    /// The persisted image as of the last crash cycle advanced to.
    pub fn image(&self) -> &U64Map<u64> {
        &self.image
    }

    /// Consumes the replayer, returning its persisted image.
    pub fn into_image(self) -> U64Map<u64> {
        self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(cycle: u64, addr: u64, value: u64) -> StoreEvent {
        StoreEvent {
            cycle,
            addr,
            width: 8,
            value: [value, 0],
        }
    }

    #[test]
    fn unpersisted_store_invisible() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        let img = nvm_image_at(&t, 100, 64);
        assert!(img.is_empty());
    }

    #[test]
    fn persist_snapshots_line_contents() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_store(st(6, 0x108, 2));
        t.record_store(st(7, 0x140, 3)); // different line
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        let img = nvm_image_at(&t, 10, 64);
        assert_eq!(img.get(&0x100), Some(&1));
        assert_eq!(img.get(&0x108), Some(&2));
        assert_eq!(img.get(&0x140), None);
    }

    #[test]
    fn later_store_not_included_in_earlier_persist() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        t.record_store(st(15, 0x100, 2));
        // Crash after the second store but before any re-persist.
        let img = nvm_image_at(&t, 20, 64);
        assert_eq!(img.get(&0x100), Some(&1));
    }

    #[test]
    fn repersist_updates_image() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        t.record_store(st(15, 0x100, 2));
        t.record_persist(PersistEvent { cycle: 20, line: 0x100 });
        assert_eq!(nvm_image_at(&t, 19, 64).get(&0x100), Some(&1));
        assert_eq!(nvm_image_at(&t, 20, 64).get(&0x100), Some(&2));
    }

    #[test]
    fn same_cycle_store_then_persist() {
        let mut t = PersistTrace::default();
        t.record_store(st(10, 0x100, 7));
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        assert_eq!(nvm_image_at(&t, 10, 64).get(&0x100), Some(&7));
    }

    #[test]
    fn stp_persists_both_words() {
        let mut t = PersistTrace::default();
        t.record_store(StoreEvent {
            cycle: 1,
            addr: 0x200,
            width: 16,
            value: [11, 22],
        });
        t.record_persist(PersistEvent { cycle: 2, line: 0x200 });
        let img = nvm_image_at(&t, 2, 64);
        assert_eq!(img.get(&0x200), Some(&11));
        assert_eq!(img.get(&0x208), Some(&22));
    }

    #[test]
    fn persist_cycles_cover_every_distinct_image() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        t.record_persist(PersistEvent { cycle: 10, line: 0x140 });
        t.record_store(st(15, 0x100, 2));
        t.record_persist(PersistEvent { cycle: 20, line: 0x100 });
        // 0 (empty), 10 (dedup of the two same-cycle persists), 20, and
        // one past the horizon.
        assert_eq!(t.persist_cycles(), vec![0, 10, 20, 21]);
        assert_eq!(PersistTrace::default().persist_cycles(), vec![0, 1]);
    }

    #[test]
    fn replayer_reports_only_changed_words() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_store(st(5, 0x108, 2));
        t.record_persist(PersistEvent { cycle: 10, line: 0x100 });
        t.record_store(st(15, 0x108, 3));
        t.record_persist(PersistEvent { cycle: 20, line: 0x100 });
        let mut r = Replayer::new(&t, 64);
        let mut seen = Vec::new();
        r.advance_with(10, |a, v| seen.push((a, v)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0x100, 1), (0x108, 2)]);
        seen.clear();
        // Re-persisting 0x100 with the same value is not a change.
        r.advance_with(20, |a, v| seen.push((a, v)));
        assert_eq!(seen, vec![(0x108, 3)]);
        // Going back in time leaves the image where it is.
        r.advance_to(0);
        assert_eq!(*r.image(), nvm_image_at(&t, 20, 64));
    }

    #[test]
    fn crash_before_everything_is_empty() {
        let mut t = PersistTrace::default();
        t.record_store(st(10, 0x100, 1));
        t.record_persist(PersistEvent { cycle: 11, line: 0x100 });
        assert!(nvm_image_at(&t, 9, 64).is_empty());
        assert_eq!(t.horizon(), 11);
    }
}
