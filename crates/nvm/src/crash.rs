//! Crash-point replay and failure-atomicity checking.
//!
//! Given a simulation's [`PersistTrace`] and the transaction record from
//! the code generator, [`CrashChecker`] can simulate a power failure at
//! any instant: reconstruct the NVM image, run undo recovery, and check
//! that the recovered state equals the functional state after exactly the
//! committed prefix of transactions — failure atomicity *and* commit
//! ordering in one predicate. [`CrashChecker::check_all_images`] reaches
//! the same verdict for every distinct crash image of a run in one
//! forward pass over its trace.
//!
//! For the crash-safe configurations (B, IQ, WB) this holds at every
//! instant; for SU and U the test suite demonstrates crash points where
//! it fails.

use crate::codegen::{TxOutput, TxRecord};
use crate::layout::Layout;
use crate::log::{classify_marker, MarkerCopy};
use crate::recovery::{recover, NvmImage};
use ede_mem::trace::{nvm_image_at, Replayer};
use ede_mem::PersistTrace;
use ede_util::hash::U64Map;
use std::collections::BTreeSet;
use std::fmt;

/// A failure-atomicity violation found at a crash point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConsistencyError {
    /// The inconsistent address.
    pub addr: u64,
    /// The value the committed prefix implies.
    pub expected: u64,
    /// The value recovery produced.
    pub found: u64,
    /// The committed transaction id the crash image claimed.
    pub committed_txid: u64,
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {:#x}: expected {} after {} committed transactions, recovered {}",
            self.addr, self.expected, self.committed_txid, self.found
        )
    }
}

impl std::error::Error for ConsistencyError {}

/// Why a crash image failed the check — the same taxonomy split the
/// recovery triage engine reports ([`crate::triage::RecoveryOutcome`]),
/// so the fault-injection and corruption campaigns diagnose header
/// destruction identically instead of collapsing it into a bare
/// pass/fail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckFailure {
    /// Recovery ran but the recovered state contradicts the committed
    /// prefix of transactions.
    Inconsistent(ConsistencyError),
    /// The image's commit marker is unparseable on *both* header lines:
    /// recovery has no trustworthy committed id to recover toward, so
    /// no consistency claim is possible either way.
    Unrecoverable {
        /// What made the header unparseable.
        diagnosis: String,
    },
}

impl CheckFailure {
    /// The consistency violation, when recovery got far enough to find
    /// one.
    pub fn inconsistency(&self) -> Option<&ConsistencyError> {
        match self {
            CheckFailure::Inconsistent(e) => Some(e),
            CheckFailure::Unrecoverable { .. } => None,
        }
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Inconsistent(e) => e.fmt(f),
            CheckFailure::Unrecoverable { diagnosis } => {
                write!(f, "unrecoverable image: {diagnosis}")
            }
        }
    }
}

impl std::error::Error for CheckFailure {}

impl From<ConsistencyError> for CheckFailure {
    fn from(e: ConsistencyError) -> CheckFailure {
        CheckFailure::Inconsistent(e)
    }
}

/// A recovery procedure over a crash image (undo rollback by default;
/// the redo module provides its replay counterpart).
///
/// Contract: a recovery procedure reads only the log region,
/// `[log_header, heap_base)`. It may write anywhere. The exhaustive
/// sweep ([`CrashChecker::check_all_images`]) relies on this and runs
/// recovery on a view of the log region alone.
pub type RecoveryFn = fn(&mut NvmImage, &Layout) -> crate::recovery::RecoveryResult;

/// Checks crash consistency of one simulated run.
#[derive(Clone, Debug)]
pub struct CrashChecker {
    layout: Layout,
    initial: U64Map<u64>,
    init_writes: Vec<(u64, u64)>,
    records: Vec<TxRecord>,
    recovery: RecoveryFn,
}

impl CrashChecker {
    /// Builds a checker from the code generator's output, using undo-log
    /// recovery.
    pub fn new(out: &TxOutput) -> CrashChecker {
        CrashChecker::with_recovery(out, recover)
    }

    /// Builds a checker with a custom recovery procedure (e.g. redo
    /// replay).
    pub fn with_recovery(out: &TxOutput, recovery: RecoveryFn) -> CrashChecker {
        CrashChecker {
            layout: out.layout,
            initial: out.init_writes.iter().copied().collect(),
            init_writes: out.init_writes.clone(),
            records: out.records.clone(),
            recovery,
        }
    }

    /// The functional value every tracked address should hold after the
    /// first `k` transactions.
    fn expected_after(&self, k: u64) -> U64Map<u64> {
        let mut m = self.initial.clone();
        for r in self.records.iter().take(k as usize) {
            for &(a, _, new) in &r.writes {
                m.insert(a, new);
            }
        }
        m
    }

    /// Every data address any transaction (or init) touched, in a fixed
    /// order: preloaded words in `init_writes` order, then transaction
    /// writes in record order. The first failing address in this order
    /// is the one a violation names.
    fn tracked_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.init_writes.iter().map(|&(a, _)| a).chain(
            self.records
                .iter()
                .flat_map(|r| r.writes.iter().map(|&(a, _, _)| a)),
        )
    }

    /// Simulates a crash at `cycle`, runs recovery, and checks failure
    /// atomicity. Returns the committed transaction count on success.
    ///
    /// Initial (preloaded) pool contents count as persisted from cycle 0,
    /// so every crash instant is checkable.
    ///
    /// # Errors
    ///
    /// The first [`CheckFailure`] found.
    pub fn check_at(&self, trace: &PersistTrace, cycle: u64) -> Result<u64, CheckFailure> {
        self.check_at_mutated(trace, cycle, &|_| {})
    }

    /// Like [`check_at`](Self::check_at), but applies `mutate` to the
    /// reconstructed crash image *before* recovery runs — the
    /// fault-injection campaign's hook for media faults (bit flips, torn
    /// words, stuck lines). A corruption recovery cannot mask surfaces
    /// as a [`ConsistencyError`]; one it rejects or that lands on unused
    /// words leaves the verdict unchanged.
    ///
    /// # Errors
    ///
    /// The first [`CheckFailure`] found.
    pub fn check_at_mutated(
        &self,
        trace: &PersistTrace,
        cycle: u64,
        mutate: &dyn Fn(&mut NvmImage),
    ) -> Result<u64, CheckFailure> {
        let mut image: NvmImage = nvm_image_at(trace, cycle, 64);
        mutate(&mut image);
        self.check_image(image)
    }

    /// Runs recovery over an arbitrary crash image and checks failure
    /// atomicity against the transaction record — the trace-free core of
    /// [`check_at`](Self::check_at). The exhaustive explorer uses this
    /// directly on model-enumerated images that no single simulation run
    /// produced. Returns the committed transaction count on success.
    ///
    /// # Errors
    ///
    /// The first [`CheckFailure`] found: [`CheckFailure::Unrecoverable`]
    /// when both commit-marker copies are present but fail validation
    /// (at-rest corruption destroyed the header beyond what the twin
    /// can repair), otherwise the first
    /// [`CheckFailure::Inconsistent`] violation.
    pub fn check_image(&self, mut image: NvmImage) -> Result<u64, CheckFailure> {
        // The at-rest media holds the preloaded pool contents wherever
        // the run never persisted; merge them so recovery and header
        // classification see what a real device would. The words come
        // from `init_writes`, newest first (the value `initial` keeps),
        // rather than from `initial`: that map shares the image's hasher,
        // and inserting its keys in bucket order clusters them.
        for &(a, v) in self.init_writes.iter().rev() {
            image.entry(a).or_insert(v);
        }
        self.header_check(&image)?;
        let result = (self.recovery)(&mut image, &self.layout);
        let k = result.committed_txid.min(self.records.len() as u64);
        let expected = self.expected_after(k);
        for addr in self.tracked_addrs() {
            let want = expected.get(&addr).copied().unwrap_or(0);
            // A word never persisted during the run still holds the
            // pool's initial (preloaded) contents.
            let got = image
                .get(&addr)
                .copied()
                .or_else(|| self.initial.get(&addr).copied())
                .unwrap_or(0);
            if want != got {
                return Err(ConsistencyError {
                    addr,
                    expected: want,
                    found: got,
                    committed_txid: result.committed_txid,
                }
                .into());
            }
        }
        Ok(result.committed_txid)
    }

    /// Rejects an image whose commit marker is corrupt on both header
    /// lines: recovery has no committed id to recover toward.
    fn header_check(&self, image: &NvmImage) -> Result<(), CheckFailure> {
        let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
        if classify_marker(rd(self.layout.log_header)) == MarkerCopy::Corrupt
            && classify_marker(rd(self.layout.log_header_twin)) == MarkerCopy::Corrupt
        {
            return Err(CheckFailure::Unrecoverable {
                diagnosis: "both commit-marker copies fail validation — \
                            no committed id to recover toward"
                    .into(),
            });
        }
        Ok(())
    }

    /// Exhaustively checks every distinct crash image the run could leave
    /// behind. The NVM image only changes at persist events, so checking
    /// at each persist cycle (plus the instants just before the first and
    /// after the last) covers *every* possible crash instant.
    ///
    /// One forward sweep: a [`Replayer`] advances through the trace once,
    /// recovery runs on the log region alone (see [`RecoveryFn`]), and
    /// the expected state and the set of mismatched words are updated
    /// only where a persisted word or the committed count changed. The
    /// verdict equals [`check_at`](Self::check_at) at every cycle in
    /// order, stopping at the first failure.
    ///
    /// # Errors
    ///
    /// The first violating `(cycle, error)` pair, in cycle order.
    pub fn check_all_images(&self, trace: &PersistTrace) -> Result<(), (u64, CheckFailure)> {
        let mut sweep = Sweep::new(self);
        let mut replay = Replayer::new(trace, 64);
        for c in trace.persist_cycles() {
            replay.advance_with(c, |addr, value| sweep.persisted(addr, value));
            sweep.check().map_err(|e| (c, e))?;
        }
        Ok(())
    }

    /// [`check_all_images`](Self::check_all_images) with a per-instant
    /// media-corruption hook: `mutate(cycle, image)` runs on each
    /// reconstructed image before recovery, which then runs through
    /// [`check_image`](Self::check_image).
    ///
    /// # Errors
    ///
    /// The first violating `(cycle, error)` pair, in cycle order.
    pub fn check_all_images_mutated(
        &self,
        trace: &PersistTrace,
        mutate: &dyn Fn(u64, &mut NvmImage),
    ) -> Result<(), (u64, CheckFailure)> {
        let mut replay = Replayer::new(trace, 64);
        for c in trace.persist_cycles() {
            replay.advance_to(c);
            let mut image = replay.image().clone();
            mutate(c, &mut image);
            self.check_image(image).map_err(|e| (c, e))?;
        }
        Ok(())
    }

    /// Checks a set of crash instants, returning every violation.
    pub fn violations(
        &self,
        trace: &PersistTrace,
        cycles: impl IntoIterator<Item = u64>,
    ) -> Vec<(u64, CheckFailure)> {
        cycles
            .into_iter()
            .filter_map(|c| self.check_at(trace, c).err().map(|e| (c, e)))
            .collect()
    }
}

/// The oracle state [`CrashChecker::check_all_images`] carries from one
/// crash image to the next. Tracked addresses are numbered in
/// [`CrashChecker::tracked_addrs`] order with duplicates dropped, so the
/// lowest failing index is the address [`CrashChecker::check_image`]
/// would name.
struct Sweep<'c> {
    checker: &'c CrashChecker,
    /// Tracked addresses, first occurrence order.
    addrs: Vec<u64>,
    /// Tracked address → index into `addrs`.
    index: U64Map<usize>,
    /// Per tracked address: `(record index, new value)` of every
    /// transactional write to it, in record order.
    history: Vec<Vec<(usize, u64)>>,
    /// Per tracked address: the preloaded value (0 if none).
    init: Vec<u64>,
    /// Per tracked address: the value before recovery — the persisted
    /// word, else the preloaded one. Log-region words stay at `init`;
    /// `log` holds them.
    base: Vec<u64>,
    /// Per tracked address: the value after the first `k` transactions.
    expected: Vec<u64>,
    k: usize,
    /// Tracked addresses outside the log region whose `base` differs
    /// from `expected`.
    mismatched: BTreeSet<usize>,
    /// Tracked addresses inside the log region, re-checked every image.
    in_log: Vec<usize>,
    /// The log region as recovery sees it: preloaded words overlaid by
    /// persisted ones.
    log: NvmImage,
}

impl<'c> Sweep<'c> {
    fn new(checker: &'c CrashChecker) -> Sweep<'c> {
        let layout = checker.layout;
        let mut addrs = Vec::new();
        let mut index = U64Map::default();
        for a in checker.tracked_addrs() {
            index.entry(a).or_insert_with(|| {
                addrs.push(a);
                addrs.len() - 1
            });
        }
        let mut history = vec![Vec::new(); addrs.len()];
        for (r, rec) in checker.records.iter().enumerate() {
            for &(a, _, new) in &rec.writes {
                history[index[&a]].push((r, new));
            }
        }
        let init: Vec<u64> = addrs
            .iter()
            .map(|a| checker.initial.get(a).copied().unwrap_or(0))
            .collect();
        let in_log = (0..addrs.len())
            .filter(|&i| layout.in_log(addrs[i]))
            .collect();
        // In `init_writes` order: a later write to a word wins, as in
        // `initial`, without re-inserting that map's keys in bucket order.
        let log = checker
            .init_writes
            .iter()
            .copied()
            .filter(|&(a, _)| layout.in_log(a))
            .collect();
        Sweep {
            checker,
            addrs,
            index,
            history,
            base: init.clone(),
            expected: init.clone(),
            init,
            k: 0,
            mismatched: BTreeSet::new(),
            in_log,
            log,
        }
    }

    /// Folds in a persisted word's new value.
    fn persisted(&mut self, addr: u64, value: u64) {
        if self.checker.layout.in_log(addr) {
            self.log.insert(addr, value);
        } else if let Some(&i) = self.index.get(&addr) {
            self.base[i] = value;
            self.refresh(i);
        }
    }

    /// Re-derives whether tracked address `i` is mismatched.
    fn refresh(&mut self, i: usize) {
        if self.base[i] != self.expected[i] && !self.checker.layout.in_log(self.addrs[i]) {
            self.mismatched.insert(i);
        } else {
            self.mismatched.remove(&i);
        }
    }

    /// Moves the expected state to `k` committed transactions, touching
    /// only the addresses the transactions between the two counts wrote.
    fn commit_to(&mut self, k: usize) {
        let (lo, hi) = (self.k.min(k), self.k.max(k));
        let checker = self.checker;
        for rec in &checker.records[lo..hi] {
            for &(a, _, _) in &rec.writes {
                let i = self.index[&a];
                let h = &self.history[i];
                let n = h.partition_point(|&(r, _)| r < k);
                self.expected[i] = if n == 0 { self.init[i] } else { h[n - 1].1 };
                self.refresh(i);
            }
        }
        self.k = k;
    }

    /// Recovers the current image and checks it, as
    /// [`CrashChecker::check_image`] does.
    fn check(&mut self) -> Result<u64, CheckFailure> {
        let checker = self.checker;
        checker.header_check(&self.log)?;
        let mut view = self.log.clone();
        let result = (checker.recovery)(&mut view, &checker.layout);
        self.commit_to(result.committed_txid.min(checker.records.len() as u64) as usize);
        // The view holds the log region plus every word recovery wrote;
        // other tracked words hold their pre-recovery value.
        let found = |i: usize| view.get(&self.addrs[i]).copied().unwrap_or(self.base[i]);
        let fails = |i: &usize| found(*i) != self.expected[*i];
        let written = view
            .keys()
            .filter(|&&a| !checker.layout.in_log(a))
            .filter_map(|a| self.index.get(a));
        let first = written
            .chain(&self.in_log)
            .chain(self.mismatched.iter().find(|i| fails(i)))
            .copied()
            .filter(fails)
            .min();
        match first {
            None => Ok(result.committed_txid),
            Some(i) => Err(ConsistencyError {
                addr: self.addrs[i],
                expected: self.expected[i],
                found: found(i),
                committed_txid: result.committed_txid,
            }
            .into()),
        }
    }
}

/// Convenience: checks crash consistency at `samples` evenly spaced
/// instants between `from` and the trace horizon.
///
/// # Errors
///
/// The first violating `(cycle, error)` pair.
pub fn check_crash_consistency(
    out: &TxOutput,
    trace: &PersistTrace,
    from: u64,
    samples: u64,
) -> Result<(), (u64, CheckFailure)> {
    let checker = CrashChecker::new(out);
    let horizon = trace.horizon().max(from + 1);
    let step = ((horizon - from) / samples.max(1)).max(1);
    let mut cycle = from;
    while cycle <= horizon {
        if let Err(e) = checker.check_at(trace, cycle) {
            return Err((cycle, e));
        }
        cycle += step;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::TxWriter;
    use ede_isa::ArchConfig;
    use ede_mem::trace::{PersistEvent, StoreEvent};

    /// Hand-build a persist trace that persists a set of writes in a given
    /// order, 1 cycle apart, starting at cycle 100.
    fn synthetic_trace(events: &[(u64, u64, bool)]) -> PersistTrace {
        // (addr, value, also_persist)
        let mut t = PersistTrace::default();
        let mut cycle = 100;
        for &(addr, value, persist) in events {
            t.record_store(StoreEvent {
                cycle,
                addr,
                width: 8,
                value: [value, 0],
            });
            if persist {
                t.record_persist(PersistEvent {
                    cycle: cycle + 1,
                    line: addr & !63,
                });
            }
            cycle += 2;
        }
        t
    }

    fn simple_output() -> (TxOutput, u64) {
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 5);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 6);
        tx.commit_tx();
        (tx.finish(), a)
    }

    #[test]
    fn consistent_image_passes() {
        let (out, a) = simple_output();
        let layout = out.layout;
        let slot = layout.slot_addr(0);
        use crate::log::{checksum, header_word, OFF_ADDR, OFF_TXID};
        // Proper order: init, log entry, data, commit header.
        let trace = synthetic_trace(&[
            (a, 5, true),                         // init value persisted
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true), // entry persisted
            (a, 6, true),                         // data persisted
            (layout.log_header, header_word(1), true), // commit persisted
        ]);
        let checker = CrashChecker::new(&out);
        // Every instant from after init persist to the end is consistent.
        for cycle in 102..=trace.horizon() {
            checker
                .check_at(&trace, cycle)
                .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        }
        // At the end, exactly tx 1 is committed.
        assert_eq!(checker.check_at(&trace, trace.horizon()).unwrap(), 1);
    }

    #[test]
    fn data_before_log_is_caught() {
        let (out, a) = simple_output();
        // Unsafe order: data persisted, log entry never persisted, crash.
        let trace = synthetic_trace(&[
            (a, 5, true), // init
            (a, 6, true), // data persisted with no log entry!
        ]);
        let checker = CrashChecker::new(&out);
        let err = checker
            .check_at(&trace, trace.horizon())
            .expect_err("must detect the torn state");
        let e = err.inconsistency().expect("a consistency violation");
        assert_eq!(e.addr, a);
        assert_eq!(e.expected, 5);
        assert_eq!(e.found, 6);
    }

    #[test]
    fn commit_before_data_is_caught() {
        let (out, a) = simple_output();
        let layout = out.layout;
        // Header persisted (claims committed) but data never persisted.
        use crate::log::header_word;
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1), true), // commit marker raced ahead
        ]);
        let checker = CrashChecker::new(&out);
        let err = checker.check_at(&trace, trace.horizon()).unwrap_err();
        let e = err.inconsistency().expect("a consistency violation");
        assert_eq!(e.addr, a);
        assert_eq!(e.expected, 6); // committed ⇒ new value required
        assert_eq!(e.found, 5);
    }

    #[test]
    fn sweep_equals_the_per_cycle_check_at_loop() {
        let (out, a) = simple_output();
        let layout = out.layout;
        let slot = layout.slot_addr(0);
        use crate::log::{checksum, header_word, OFF_ADDR, OFF_MAGIC, OFF_TXID};
        let logged = [
            (a, 5, true),
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true),
            (a, 6, true),
            (layout.log_header, header_word(1), true),
        ];
        let traces = [
            synthetic_trace(&logged),
            // Data persisted with no log entry: a violation exists.
            synthetic_trace(&[(a, 5, true), (a, 6, true)]),
            // Commit marker raced ahead of the data.
            synthetic_trace(&[(a, 5, true), (layout.log_header, header_word(1), true)]),
            // A preloaded log-region word (the superblock magic) lost.
            synthetic_trace(&[(a, 5, true), (layout.log_header + OFF_MAGIC, 0xBAD, true)]),
        ];
        for (n, trace) in traces.iter().enumerate() {
            let checker = CrashChecker::new(&out);
            let reference = trace
                .persist_cycles()
                .into_iter()
                .try_for_each(|c| checker.check_at(trace, c).map(|_| ()).map_err(|e| (c, e)));
            assert_eq!(checker.check_all_images(trace), reference, "trace {n}");
            assert_eq!(reference.is_ok(), n == 0, "trace {n}");
        }
    }

    #[test]
    fn violation_names_the_same_address_for_every_checker() {
        // Two preloaded words are both wrong at the crash instant: the
        // reported address must not depend on hash iteration order.
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let words: Vec<u64> = (0..8).map(|_| tx.heap_alloc(8, 8)).collect();
        for (i, &w) in words.iter().enumerate() {
            tx.write_init(w, 10 + i as u64);
        }
        tx.finish_init();
        let out = tx.finish();
        let mut image = NvmImage::default();
        image.insert(words[5], 0xBAD);
        image.insert(words[2], 0xBAD);
        for _ in 0..32 {
            let err = CrashChecker::new(&out)
                .check_image(image.clone())
                .unwrap_err();
            assert_eq!(err.inconsistency().expect("a violation").addr, words[2]);
        }
    }

    #[test]
    fn media_mutation_hook_feeds_recovery() {
        let (out, a) = simple_output();
        let layout = out.layout;
        let slot = layout.slot_addr(0);
        use crate::log::{checksum, header_word, OFF_ADDR, OFF_TXID};
        let trace = synthetic_trace(&[
            (a, 5, true),
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true),
            (a, 6, true),
            (layout.log_header, header_word(1), true),
        ]);
        let checker = CrashChecker::new(&out);
        // Corrupting a word no transaction tracks is tolerated.
        checker
            .check_all_images_mutated(&trace, &|_, image| {
                image.insert(layout.heap_base + 0x800, 0xDEAD);
            })
            .expect("untracked corruption is tolerated");
        // Corrupting the data word itself is detected.
        let err = checker
            .check_all_images_mutated(&trace, &|_, image| {
                if let Some(w) = image.get_mut(&a) {
                    *w ^= 1;
                }
            })
            .expect_err("corrupted data word must surface");
        assert_eq!(err.1.inconsistency().expect("a violation").addr, a);
    }

    #[test]
    fn destroyed_header_pair_is_typed_unrecoverable() {
        use crate::log::header_word;
        let (out, a) = simple_output();
        let layout = out.layout;
        // Both marker copies present but failing validation: at-rest
        // corruption beyond what the twin can repair.
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1) ^ (1 << 40), true),
            (layout.log_header_twin, header_word(1) ^ (1 << 41), true),
        ]);
        let checker = CrashChecker::new(&out);
        let err = checker.check_at(&trace, trace.horizon()).unwrap_err();
        assert!(
            matches!(err, CheckFailure::Unrecoverable { .. }),
            "expected a typed diagnosis, got {err:?}"
        );
        assert!(err.inconsistency().is_none());
        assert!(err.to_string().contains("unrecoverable"));
    }

    #[test]
    fn legacy_single_copy_torn_header_is_not_unrecoverable() {
        use crate::log::header_word;
        let (out, a) = simple_output();
        let layout = out.layout;
        // Only the primary marker tore and the twin line was never
        // written (reads fresh): the classic single-copy crash state
        // stays an ordinary "nothing committed" rollback, not a typed
        // refusal.
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1) ^ 1, true),
        ]);
        let checker = CrashChecker::new(&out);
        assert_eq!(checker.check_at(&trace, trace.horizon()), Ok(0));
    }

    #[test]
    fn check_image_matches_check_at_on_reconstructed_images() {
        let (out, a) = simple_output();
        let trace = synthetic_trace(&[(a, 5, true), (a, 6, true)]);
        let checker = CrashChecker::new(&out);
        for cycle in trace.persist_cycles() {
            let direct = checker.check_image(ede_mem::trace::nvm_image_at(&trace, cycle, 64));
            assert_eq!(direct, checker.check_at(&trace, cycle), "cycle {cycle}");
        }
        // An image where the data word raced ahead of its log entry is
        // rejected no matter how it was produced.
        let mut torn = NvmImage::default();
        torn.insert(a, 6);
        assert!(checker.check_image(torn).is_err());
    }

    #[test]
    fn violations_collects_bad_cycles() {
        let (out, a) = simple_output();
        let trace = synthetic_trace(&[(a, 5, true), (a, 6, true)]);
        let checker = CrashChecker::new(&out);
        let v = checker.violations(&trace, [101, trace.horizon()]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, trace.horizon());
    }
}
