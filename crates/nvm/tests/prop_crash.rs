//! Property tests for undo logging and recovery.

use ede_isa::ArchConfig;
use ede_nvm::log::{
    checksum, decode_entry, header_word, resolve_marker, LogEntry, OFF_ADDR, OFF_CSUM, OFF_OLD,
    OFF_TXID,
};
use ede_nvm::recovery::{recover, NvmImage, RecoveryResult};
use ede_nvm::redo::{recover_redo, OFF_APPLIED};
use ede_nvm::{CrashChecker, Layout, TxWriter};
use ede_util::check::{self, any};
use ede_util::hash::map_with_capacity;
use ede_util::{prop_assert, prop_assert_eq, prop_assume, property};

/// Undo (`redo == false`) or redo recovery scanning every one of the
/// layout's log slots — the reference the present-slot scan must equal.
fn full_scan_recover(image: &mut NvmImage, layout: &Layout, redo: bool) -> RecoveryResult {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let committed = resolve_marker(rd(layout.log_header), rd(layout.log_header_twin));
    let applied = resolve_marker(
        rd(layout.log_header + OFF_APPLIED),
        rd(layout.log_header_twin + OFF_APPLIED),
    );
    let mut entries: Vec<LogEntry> = (0..layout.log_slots)
        .filter_map(|i| decode_entry(layout.slot_addr(i), rd))
        .filter(|e| {
            if redo {
                e.txid > applied && e.txid <= committed
            } else {
                e.txid > committed
            }
        })
        .collect();
    if redo {
        entries.sort_by_key(|e| e.txid);
    } else {
        entries.sort_by_key(|e| std::cmp::Reverse(e.txid));
    }
    for e in &entries {
        image.insert(e.addr, e.old);
    }
    RecoveryResult {
        committed_txid: committed,
        rolled_back: entries.len(),
    }
}

/// A marker word: valid for `id` (`kind` 0), raw zero (1), torn to its
/// id half (2), or bit-flipped (3).
fn marker(kind: u8, id: u64, bit: u32) -> u64 {
    match kind {
        0 => header_word(id),
        1 => 0,
        2 => id,
        _ => header_word(id) ^ (1 << bit),
    }
}

property! {
    /// Present-slot undo and redo recovery equal a scan of all 8,192
    /// slots on random images: valid, torn, corrupt and zero-txid
    /// entries, stray words in unused slot offsets, wrapped slot indices,
    /// and valid, fresh, torn or flipped marker copies.
    fn present_slot_recovery_equals_full_scan(
        entries in check::vec(
            ((0u64..6, 1u64..6, 0u64..4), (any::<u64>(), 0u8..5, 0u32..64)),
            0..24
        ),
        markers in check::vec((0u8..4, 0u64..6, 0u32..64), 4..5)
    ) {
        let layout = Layout::standard();
        let slots = [0, 1, 2, layout.log_slots - 1, layout.log_slots + 1, 3 * layout.log_slots];
        let mut image = NvmImage::default();
        for ((slot, txid, word), (old, damage, bit)) in entries {
            let s = layout.slot_addr(slots[slot as usize]);
            let addr = layout.heap_base + word * 8;
            image.insert(s + OFF_ADDR, addr);
            image.insert(s + OFF_OLD, old);
            image.insert(s + OFF_TXID, if damage == 3 { 0 } else { txid });
            image.insert(s + OFF_CSUM, checksum(addr, old, txid));
            match damage {
                1 => {
                    image.remove(&(s + OFF_CSUM));
                }
                2 => *image.get_mut(&(s + OFF_OLD)).expect("written") ^= 1 << bit,
                4 => {
                    image.insert(s + 32 + 8 * u64::from(bit % 4), old);
                }
                _ => {}
            }
            image.insert(addr, old ^ 1);
        }
        let words = [
            layout.log_header,
            layout.log_header_twin,
            layout.log_header + OFF_APPLIED,
            layout.log_header_twin + OFF_APPLIED,
        ];
        for (&w, (kind, id, bit)) in words.iter().zip(markers) {
            image.insert(w, marker(kind, id, bit));
        }
        for redo in [false, true] {
            let mut fast = image.clone();
            let mut full = image.clone();
            let r = if redo {
                recover_redo(&mut fast, &layout)
            } else {
                recover(&mut fast, &layout)
            };
            prop_assert_eq!(r, full_scan_recover(&mut full, &layout, redo));
            prop_assert_eq!(&fast, &full);
        }
    }

    /// Recovery is idempotent: running it twice gives the same image.
    fn recovery_is_idempotent(
        words in check::vec((0u64..512, any::<u64>()), 0..64),
        header in 0u64..5
    ) {
        let layout = Layout::standard();
        let mut image: NvmImage = words
            .into_iter()
            .map(|(w, v)| (layout.nvm_base + w * 8, v))
            .collect();
        image.insert(layout.log_header, header);
        let mut twice = image.clone();
        let r1 = recover(&mut image, &layout);
        let _ = recover(&mut twice, &layout);
        let r2 = recover(&mut twice, &layout);
        prop_assert_eq!(r1.committed_txid, r2.committed_txid);
        prop_assert_eq!(&image, &twice);
        prop_assert_eq!(r2.rolled_back, 0, "second pass has nothing to undo");
    }

    /// For any sequence of transactional writes, the final functional
    /// memory is consistent with the transaction record, and a "crash"
    /// after full persistence recovers to the final state.
    fn full_persistence_recovers_to_final_state(
        tx_sizes in check::vec(1usize..6, 1..6),
        values in check::vec((0u64..8, any::<u64>()), 1..30)
    ) {
        let layout = Layout::standard();
        let mut tx = TxWriter::new(layout, ArchConfig::Baseline);
        let base = tx.heap_alloc(8 * 8, 64);
        for i in 0..8 {
            tx.write_init(base + i * 8, 1000 + i);
        }
        tx.finish_init();

        let mut vals = values.into_iter();
        let mut any_tx = false;
        for size in tx_sizes {
            let mut batch = Vec::new();
            for _ in 0..size {
                match vals.next() {
                    Some(v) => batch.push(v),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            any_tx = true;
            tx.begin_tx();
            for (slot, v) in batch {
                tx.write(base + slot * 8, v);
            }
            tx.commit_tx();
        }
        prop_assume!(any_tx);
        let out = tx.finish();

        // Build a fully-persisted image: every functional word written
        // during the run, persisted at the end.
        // Pre-sized: the source is a map with the same hasher.
        let mut image: NvmImage = map_with_capacity(out.memory.len());
        image.extend(out.memory.iter().map(|(&a, &v)| (a, v)));
        let r = recover(&mut image, &layout);
        prop_assert_eq!(r.committed_txid, out.records.len() as u64);
        prop_assert_eq!(r.rolled_back, 0, "all transactions committed");
        for rec in &out.records {
            for &(addr, _, _) in &rec.writes {
                prop_assert_eq!(image[&addr], out.memory.read(addr));
            }
        }
    }

    /// The crash checker accepts the trivial "everything persisted in
    /// program order" trace for any write pattern, and flags an image
    /// where a committed transaction's write is replaced by garbage.
    fn checker_detects_corruption(
        writes in check::vec((0u64..4, 1u64..1000), 1..10)
    ) {
        let layout = Layout::standard();
        let mut tx = TxWriter::new(layout, ArchConfig::Baseline);
        let base = tx.heap_alloc(4 * 8, 64);
        for i in 0..4 {
            tx.write_init(base + i * 8, 7 + i);
        }
        tx.finish_init();
        tx.begin_tx();
        for &(slot, v) in &writes {
            tx.write(base + slot * 8, v);
        }
        tx.commit_tx();
        let out = tx.finish();
        let checker = CrashChecker::new(&out);

        // An honest, in-order persist trace.
        use ede_mem::trace::{PersistEvent, PersistTrace, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (&addr, &v) in out.memory.iter() {
            trace.record_store(StoreEvent { cycle, addr, width: 8, value: [v, 0] });
            cycle += 1;
        }
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(&a, _)| a & !63).collect();
        for line in lines {
            trace.record_persist(PersistEvent { cycle, line });
            cycle += 1;
        }
        prop_assert!(checker.check_at(&trace, cycle).is_ok());

        // Corrupt the last committed write's persisted value.
        let (addr, _, _) = *out.records[0].writes.last().expect("nonempty");
        let mut corrupted = trace.clone();
        corrupted.record_store(StoreEvent {
            cycle,
            addr,
            width: 8,
            value: [u64::MAX, 0],
        });
        corrupted.record_persist(PersistEvent { cycle: cycle + 1, line: addr & !63 });
        prop_assert!(checker.check_at(&corrupted, cycle + 1).is_err());
    }
}
