//! Lowering framework operations to per-configuration instruction traces.
//!
//! [`TxWriter`] is the code generator the paper implements as Clang/LLVM
//! built-ins plus framework code (§VI-A): workloads express reads, writes
//! and transaction boundaries, and the writer emits the Figure 2/4/7
//! instruction sequences for the selected [`ArchConfig`], while
//! maintaining the functional memory state and the per-transaction write
//! record the crash checker needs.

use crate::heap::BumpHeap;
use crate::layout::Layout;
use crate::log::{checksum, header_word, MAGIC, OFF_ADDR, OFF_MAGIC, OFF_TXID};
use crate::memory::SimMemory;
use ede_isa::{ArchConfig, Edk, EdkPair, InstId, Program, TraceBuilder, VAddr};
use ede_util::hash::U64Set;

/// What one transaction did: `(addr, old, new)` per write, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxRecord {
    /// The transaction id (1-based, consecutive).
    pub txid: u64,
    /// Every logged write: target address, pre-image, post-image.
    pub writes: Vec<(u64, u64, u64)>,
}

/// Everything a finished [`TxWriter`] produces.
#[derive(Clone, Debug)]
pub struct TxOutput {
    /// The instruction trace, ready for the core model.
    pub program: Program,
    /// Per-transaction write records, in commit order.
    pub records: Vec<TxRecord>,
    /// Final functional memory contents.
    pub memory: SimMemory,
    /// The address-space layout used.
    pub layout: Layout,
    /// The pool's initial contents (preloaded before the measured phase,
    /// like an existing PMDK pool file).
    pub init_writes: Vec<(u64, u64)>,
    /// Trace position of the first transactional instruction; crash
    /// checks are meaningful from the moment this point's `DSB` completed.
    pub tx_phase_start: Option<InstId>,
}

impl TxOutput {
    /// Reports the workload's shape into a metrics registry under
    /// `nvm.*`: transaction and logged-write counts, generated program
    /// length, and pool-initialization size.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        reg.inc("nvm.transactions", self.records.len() as u64);
        reg.inc(
            "nvm.tx_writes",
            self.records.iter().map(|r| r.writes.len() as u64).sum(),
        );
        reg.inc("nvm.program_len", self.program.len() as u64);
        reg.inc("nvm.init_writes", self.init_writes.len() as u64);
        reg.inc(
            "nvm.tx_phase_start",
            self.tx_phase_start.map(|i| i.0).unwrap_or(0),
        );
    }
}

/// Failure-atomic transaction writer.
///
/// See the [crate documentation](crate) for an end-to-end example.
///
/// # Lifecycle
///
/// 1. allocate and initialize persistent state with
///    [`heap_alloc`](Self::heap_alloc) / [`write_init`](Self::write_init),
///    then call [`finish_init`](Self::finish_init) once;
/// 2. run transactions: [`begin_tx`](Self::begin_tx), any number of
///    [`read`](Self::read) / [`write`](Self::write),
///    [`commit_tx`](Self::commit_tx);
/// 3. [`finish`](Self::finish) to obtain the [`TxOutput`].
#[derive(Debug)]
pub struct TxWriter {
    layout: Layout,
    arch: ArchConfig,
    mem: SimMemory,
    builder: TraceBuilder,
    heap: BumpHeap,
    vheap: BumpHeap,
    txid: Option<u64>,
    next_txid: u64,
    log_tail: u64,
    logged: U64Set,
    key_rotor: u8,
    records: Vec<TxRecord>,
    init_writes: Vec<(u64, u64)>,
    init_finished: bool,
    silent: bool,
    tx_phase_start: Option<InstId>,
}

impl TxWriter {
    /// A writer over a fresh machine with the given layout and target
    /// configuration.
    pub fn new(layout: Layout, arch: ArchConfig) -> TxWriter {
        let mut w = TxWriter {
            layout,
            arch,
            mem: SimMemory::new(),
            builder: TraceBuilder::new(),
            heap: BumpHeap::new(layout.heap_base, 1 << 30),
            vheap: BumpHeap::new(layout.dram_scratch + 64, 1 << 28),
            txid: None,
            next_txid: 1,
            log_tail: 0,
            logged: U64Set::default(),
            key_rotor: 0,
            records: Vec::new(),
            init_writes: Vec::new(),
            init_finished: false,
            silent: false,
            tx_phase_start: None,
        };
        // Format the superblock: the magic word on both header lines,
        // preloaded like a pool file a previous run formatted. Triage
        // uses it to tell a wiped header from genuinely fresh media.
        // (The matching `init_writes` entries are appended in `finish`
        // so the user's first `write_init` stays at index 0.)
        for line in [layout.log_header, layout.log_header_twin] {
            w.mem.write(line + OFF_MAGIC, MAGIC);
        }
        w
    }

    /// The configuration code is being generated for.
    pub fn arch(&self) -> ArchConfig {
        self.arch
    }

    /// The layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Direct access to the functional memory (for workload oracles).
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// Instructions emitted so far.
    pub fn trace_len(&self) -> usize {
        self.builder.len()
    }

    fn next_key(&mut self) -> Edk {
        self.key_rotor = if self.key_rotor >= 15 { 1 } else { self.key_rotor + 1 };
        Edk::new(self.key_rotor).expect("rotor stays in 1..=15")
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates persistent heap space.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted.
    pub fn heap_alloc(&mut self, size: u64, align: u64) -> VAddr {
        self.heap
            .alloc(size, align)
            .expect("persistent heap exhausted")
    }

    /// Allocates volatile (DRAM) scratch space.
    ///
    /// # Panics
    ///
    /// Panics when the scratch region is exhausted.
    pub fn volatile_alloc(&mut self, size: u64, align: u64) -> VAddr {
        self.vheap.alloc(size, align).expect("scratch exhausted")
    }

    // ---- initialization phase ---------------------------------------------

    /// Preloads initial persistent state, emitting no instructions: the
    /// simulated NVM pool starts with these contents, exactly as a PMDK
    /// pool file persisted by a previous run would. The crash checker
    /// treats these values as the media's initial contents.
    ///
    /// # Panics
    ///
    /// Panics if called after `finish_init`.
    pub fn write_init(&mut self, addr: VAddr, value: u64) {
        assert!(!self.init_finished, "init phase is over");
        self.mem.write(addr, value);
        self.init_writes.push((addr, value));
    }

    /// Closes the pre-population phase and opens the measured transaction
    /// phase.
    pub fn finish_init(&mut self) {
        assert!(!self.init_finished, "finish_init called twice");
        self.init_finished = true;
        self.silent = false;
        self.tx_phase_start = Some(self.builder.next_id());
    }

    /// Switches the writer into *silent* mode (only valid before
    /// [`finish_init`](Self::finish_init)): reads and writes update the
    /// functional pool without emitting instructions or undo logging.
    /// This lets workloads pre-populate a data structure through their
    /// normal insert code, building a warm multi-megabyte pool for free —
    /// the measured phase then operates on realistic working sets.
    ///
    /// # Panics
    ///
    /// Panics if the init phase is over.
    pub fn begin_prepopulate(&mut self) {
        assert!(!self.init_finished, "init phase is over");
        self.silent = true;
    }

    /// Leaves silent mode (stays in the init phase).
    pub fn end_prepopulate(&mut self) {
        self.silent = false;
    }

    // ---- reads -------------------------------------------------------------

    /// Reads a word, emitting an address materialization and a load.
    pub fn read(&mut self, addr: VAddr) -> u64 {
        let value = self.mem.read(addr);
        if !self.silent {
            self.builder.load(addr, value);
        }
        value
    }

    /// Reads through an already-materialized base register (cheaper inner
    /// loops for workloads that keep a node pointer live).
    pub fn read_via(&mut self, base: ede_isa::Reg, addr: VAddr) -> u64 {
        let value = self.mem.read(addr);
        if !self.silent {
            self.builder.load_from(base, addr, value);
        }
        value
    }

    /// Emits a materialized pointer for repeated access; release with
    /// [`release`](Self::release).
    pub fn lea(&mut self, addr: VAddr) -> ede_isa::Reg {
        self.builder.lea(addr)
    }

    /// Releases a pinned pointer register.
    pub fn release(&mut self, reg: ede_isa::Reg) {
        self.builder.release(reg);
    }

    /// Emits comparison + branch (for search loops); `mispredicted` is the
    /// trace-resolved prediction outcome.
    pub fn compare_branch(&mut self, lhs: u64, rhs: u64, mispredicted: bool) {
        if self.silent {
            return;
        }
        let l = self.builder.mov_imm(lhs);
        let r = self.builder.mov_imm(rhs);
        self.builder.cmp_branch(l, r, mispredicted);
    }

    /// Emits `n` dependent ALU instructions of bookkeeping work.
    pub fn compute(&mut self, n: usize) {
        if !self.silent {
            self.builder.compute_chain(n);
        }
    }

    // ---- transactions --------------------------------------------------------

    /// Opens a failure-atomic region.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open or init is not finished.
    pub fn begin_tx(&mut self) {
        assert!(self.init_finished, "call finish_init first");
        assert!(self.txid.is_none(), "transaction already open");
        let id = self.next_txid;
        self.next_txid += 1;
        self.txid = Some(id);
        self.logged.clear();
        self.records.push(TxRecord {
            txid: id,
            writes: Vec::new(),
        });
        // tx_begin bookkeeping (PMDK does a bit of setup work).
        self.builder.compute_chain(2);
    }

    /// A logged, persistent write inside the open transaction — the
    /// `p_uint64::operator=` of Figure 1(b): `log_value` then
    /// `update_value`, lowered per the target configuration.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn write(&mut self, addr: VAddr, new: u64) {
        if self.silent {
            // Pre-population: the write lands directly in the initial
            // pool contents.
            self.mem.write(addr, new);
            self.init_writes.push((addr, new));
            return;
        }
        let txid = self.txid.expect("no open transaction");
        let old = self.mem.read(addr);
        let consumer_key = if self.logged.insert(addr) {
            self.emit_log_value(addr, old, txid)
        } else {
            None
        };
        self.emit_update_value(addr, new, consumer_key);
        self.records
            .last_mut()
            .expect("record opened at begin_tx")
            .writes
            .push((addr, old, new));
        self.mem.write(addr, new);
    }

    /// An unlogged volatile write (DRAM scratch).
    pub fn write_volatile(&mut self, addr: VAddr, value: u64) {
        self.mem.write(addr, value);
        if !self.silent {
            self.builder.store(addr, value);
        }
    }

    /// `log_value` (Figure 2a / 7a): reserve a slot, store the entry,
    /// persist it, and order the persist per configuration. Returns the
    /// EDK the following `update_value` must consume, if any.
    fn emit_log_value(&mut self, addr: VAddr, old: u64, txid: u64) -> Option<Edk> {
        // Figure 4, line 5: load the original value.
        self.builder.load(addr, old);
        // Framework bookkeeping, as PMDK's tx_add path performs before
        // touching the log: range-tracking lookup and list append over
        // volatile runtime state.
        self.builder.compute_chain(4);
        let rt = self.layout.dram_scratch + 8;
        self.builder.load(rt, 0);
        self.builder.compute_chain(3);
        self.builder.store(rt + 8, addr);
        // Reserve a slot: bump the volatile tail pointer.
        let tail = self.log_tail;
        self.log_tail += 1;
        let tail_ptr = self.layout.log_tail_ptr;
        self.builder.load(tail_ptr, tail);
        self.builder.store(tail_ptr, tail + 1);
        self.mem.write(tail_ptr, tail + 1);

        let slot = self.layout.slot_addr(tail);
        let csum = checksum(addr, old, txid);
        let base = self.builder.lea(slot);
        self.builder
            .store_pair_to(base, slot + OFF_ADDR, [addr, old]);
        self.builder
            .store_pair_to(base, slot + OFF_TXID, [txid, csum]);
        self.mem.write(slot + OFF_ADDR, addr);
        self.mem.write(slot + OFF_ADDR + 8, old);
        self.mem.write(slot + OFF_TXID, txid);
        self.mem.write(slot + OFF_TXID + 8, csum);

        let key = match self.arch {
            ArchConfig::Baseline => {
                self.builder.cvap_to(base, slot);
                self.builder.dsb_sy();
                None
            }
            ArchConfig::StoreBarrierUnsafe => {
                self.builder.cvap_to(base, slot);
                self.builder.dmb_st();
                None
            }
            ArchConfig::IssueQueue | ArchConfig::WriteBuffer => {
                let k = self.next_key();
                self.builder
                    .cvap_to_edk(base, slot, EdkPair::producer(k));
                Some(k)
            }
            ArchConfig::Unsafe => {
                self.builder.cvap_to(base, slot);
                None
            }
        };
        self.builder.release(base);
        key
    }

    /// `update_value` (Figure 2b / 7b): store the new value (consuming the
    /// log key under EDE) and persist it.
    fn emit_update_value(&mut self, addr: VAddr, new: u64, consumer_key: Option<Edk>) {
        self.builder.compute_chain(2);
        let base = self.builder.lea(addr);
        let store_keys = match consumer_key {
            Some(k) => EdkPair::consumer(k),
            None => EdkPair::NONE,
        };
        self.builder.store_to_edk(base, addr, new, store_keys);
        if self.arch.uses_ede() {
            // The data persist produces a key so the commit-time
            // WAIT_ALL_KEYS covers it.
            let k = self.next_key();
            self.builder.cvap_to_edk(base, addr, EdkPair::producer(k));
        } else {
            self.builder.cvap_to(base, addr);
        }
        self.builder.release(base);
    }

    /// Commits the open transaction: ensure all data persists completed,
    /// then persist the transaction id into the log header — twin line
    /// first, primary second — which invalidates this transaction's undo
    /// entries, ordered per the configuration.
    ///
    /// The twin-first order is the repair invariant the triage engine
    /// relies on: at every crash instant the twin marker is at least as
    /// new as the primary, so a later torn *primary* is exactly
    /// repairable from the surviving twin (see `log::resolve_marker`).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_tx(&mut self) {
        let txid = self.txid.take().expect("no open transaction");
        let header = self.layout.log_header;
        let twin = self.layout.log_header_twin;
        // The marker is the self-validating header word, not the bare id:
        // a torn or bit-flipped header then reads as "nothing committed".
        let marker = header_word(txid);
        match self.arch {
            ArchConfig::Baseline => {
                self.builder.dsb_sy();
                self.builder.store(twin, marker);
                self.builder.cvap(twin);
                self.builder.dsb_sy();
                self.builder.store(header, marker);
                self.builder.cvap(header);
                self.builder.dsb_sy();
            }
            ArchConfig::StoreBarrierUnsafe => {
                self.builder.dmb_st();
                self.builder.store(twin, marker);
                self.builder.cvap(twin);
                self.builder.dmb_st();
                self.builder.store(header, marker);
                self.builder.cvap(header);
                self.builder.dmb_st();
            }
            ArchConfig::IssueQueue | ArchConfig::WriteBuffer => {
                self.builder.wait_all_keys();
                let tb = self.builder.lea(twin);
                self.builder.store_to(tb, twin, marker);
                let kt = self.next_key();
                self.builder.cvap_to_edk(tb, twin, EdkPair::producer(kt));
                self.builder.release(tb);
                // Twin-before-primary is an execution dependence, not a
                // stall: the primary store consumes the twin persist's
                // key, the EDE idiom for write ordering.
                let base = self.builder.lea(header);
                self.builder
                    .store_to_edk(base, header, marker, EdkPair::consumer(kt));
                let k = self.next_key();
                self.builder
                    .cvap_to_edk(base, header, EdkPair::producer(k));
                self.builder.release(base);
                // Commit durability: equal to the baseline's trailing DSB.
                self.builder.wait_key(k);
            }
            ArchConfig::Unsafe => {
                self.builder.store(twin, marker);
                self.builder.cvap(twin);
                self.builder.store(header, marker);
                self.builder.cvap(header);
            }
        }
        self.mem.write(twin, marker);
        self.mem.write(header, marker);
        // Truncate the undo log, as PMDK does at commit: the next
        // transaction reuses the same (now cache-resident) slots. Entry
        // validity is governed by the committed txid, so no slot writes
        // are needed — just the volatile tail reset.
        self.log_tail = 0;
        self.builder.store(self.layout.log_tail_ptr, 0);
        self.mem.write(self.layout.log_tail_ptr, 0);
    }

    /// Ends code generation.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    pub fn finish(self) -> TxOutput {
        assert!(self.txid.is_none(), "transaction still open");
        let mut init_writes = self.init_writes;
        for line in [self.layout.log_header, self.layout.log_header_twin] {
            init_writes.push((line + OFF_MAGIC, MAGIC));
        }
        TxOutput {
            program: self.builder.finish(),
            records: self.records,
            memory: self.mem,
            layout: self.layout,
            init_writes,
            tx_phase_start: self.tx_phase_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::InstKind;

    fn writer(arch: ArchConfig) -> TxWriter {
        TxWriter::new(Layout::standard(), arch)
    }

    fn one_tx_program(arch: ArchConfig) -> Program {
        let mut tx = writer(arch);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 1);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 2);
        tx.commit_tx();
        tx.finish().program
    }

    fn count_kind(p: &Program, k: InstKind) -> usize {
        p.iter().filter(|(_, i)| i.kind() == k).count()
    }

    #[test]
    fn baseline_uses_dsbs_no_ede() {
        let p = one_tx_program(ArchConfig::Baseline);
        assert!(count_kind(&p, InstKind::FenceFull) >= 3); // log + 3×commit
        assert_eq!(count_kind(&p, InstKind::EdeControl), 0);
        assert!(p.iter().all(|(_, i)| !i.is_ede()));
    }

    #[test]
    fn su_uses_store_barriers() {
        let p = one_tx_program(ArchConfig::StoreBarrierUnsafe);
        assert!(count_kind(&p, InstKind::FenceStore) >= 3);
        assert_eq!(count_kind(&p, InstKind::FenceFull), 0);
    }

    #[test]
    fn ede_configs_have_no_tx_phase_fences() {
        for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let p = one_tx_program(arch);
            assert_eq!(count_kind(&p, InstKind::FenceFull), 0, "no fences under EDE");
            assert_eq!(count_kind(&p, InstKind::FenceStore), 0);
            assert!(count_kind(&p, InstKind::EdeControl) >= 2); // wait_all + wait_key
            // The log cvap produces a key; the data store consumes it.
            let deps = ede_core::ordering::execution_deps(&p);
            assert!(!deps.is_empty());
        }
    }

    #[test]
    fn unsafe_has_no_ordering_at_all() {
        let p = one_tx_program(ArchConfig::Unsafe);
        assert_eq!(count_kind(&p, InstKind::FenceFull), 0);
        assert_eq!(count_kind(&p, InstKind::FenceStore), 0);
        assert_eq!(count_kind(&p, InstKind::EdeControl), 0);
    }

    #[test]
    fn records_track_old_and_new() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 10);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 20);
        tx.write(a, 30);
        tx.commit_tx();
        tx.begin_tx();
        tx.write(a, 40);
        tx.commit_tx();
        let out = tx.finish();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].writes, vec![(a, 10, 20), (a, 20, 30)]);
        assert_eq!(out.records[1].writes, vec![(a, 30, 40)]);
        assert_eq!(out.memory.read(a), 40);
        assert_eq!(out.memory.read(out.layout.log_header), header_word(2));
        assert_eq!(
            crate::log::decode_header(out.memory.read(out.layout.log_header)),
            2
        );
    }

    #[test]
    fn superblock_twin_and_magic_are_maintained() {
        for arch in ArchConfig::ALL {
            let mut tx = writer(arch);
            let a = tx.heap_alloc(8, 8);
            tx.write_init(a, 1);
            tx.finish_init();
            tx.begin_tx();
            tx.write(a, 2);
            tx.commit_tx();
            let out = tx.finish();
            let l = &out.layout;
            // Both header lines carry the magic, preloaded (no stores).
            assert_eq!(out.memory.read(l.log_header + OFF_MAGIC), MAGIC);
            assert_eq!(out.memory.read(l.log_header_twin + OFF_MAGIC), MAGIC);
            assert!(out.init_writes.contains(&(l.log_header + OFF_MAGIC, MAGIC)));
            assert!(out.init_writes.contains(&(l.log_header_twin + OFF_MAGIC, MAGIC)));
            // Commit lands the same marker in both copies, and the twin
            // store precedes the primary store in program order.
            assert_eq!(out.memory.read(l.log_header), header_word(1));
            assert_eq!(out.memory.read(l.log_header_twin), header_word(1));
            let pos = |addr: u64| {
                out.program
                    .iter()
                    .position(|(_, i)| match i.op {
                        ede_isa::Op::Str { addr: a, .. } => a == addr,
                        ede_isa::Op::Stp { addr: a, .. } => a == addr,
                        _ => false,
                    })
                    .expect("marker store present")
            };
            assert!(pos(l.log_header_twin) < pos(l.log_header), "{arch:?}: twin first");
        }
    }

    #[test]
    fn same_addr_logged_once_per_tx() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 0);
        tx.finish_init();
        tx.begin_tx();
        let before = tx.trace_len();
        tx.write(a, 1);
        let first = tx.trace_len() - before;
        let mid = tx.trace_len();
        tx.write(a, 2);
        let second = tx.trace_len() - mid;
        tx.commit_tx();
        let _ = tx.finish();
        assert!(second < first, "second write must skip log_value");
    }

    #[test]
    fn log_entries_are_decodable_from_memory() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 7);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 8);
        tx.commit_tx();
        let out = tx.finish();
        let slot = out.layout.slot_addr(0);
        let e = crate::log::decode_entry(slot, |w| out.memory.read(w)).expect("valid entry");
        assert_eq!(e.addr, a);
        assert_eq!(e.old, 7);
        assert_eq!(e.txid, 1);
    }

    #[test]
    fn program_validates_statically() {
        for arch in ArchConfig::ALL {
            let p = one_tx_program(arch);
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "no open transaction")]
    fn write_outside_tx_panics() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.finish_init();
        tx.write(a, 1);
    }

    #[test]
    #[should_panic(expected = "transaction still open")]
    fn finish_with_open_tx_panics() {
        let mut tx = writer(ArchConfig::Baseline);
        tx.finish_init();
        tx.begin_tx();
        let _ = tx.finish();
    }

    #[test]
    fn key_rotor_cycles_through_live_keys() {
        let mut tx = writer(ArchConfig::WriteBuffer);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..30 {
            seen.insert(tx.next_key().index());
        }
        assert_eq!(seen.len(), 15);
        assert!(!seen.contains(&0));
    }
}
