//! Property test of the functional memory against an ordered-map model.

use ede_nvm::{Layout, SimMemory};
use ede_util::check::{self, any};
use ede_util::{prop_assert_eq, property};
use std::collections::BTreeMap;

/// An aligned address in DRAM scratch, the undo log or the heap.
/// Words come in runs of 8-byte strides and in 64-byte strides (one word
/// per line), the two alignments the workloads produce.
fn addr(layout: &Layout, region: u8, word: u64) -> u64 {
    let base = match region % 3 {
        0 => layout.dram_scratch,
        1 => layout.log_base,
        _ => layout.heap_base,
    };
    let stride = if region < 3 { 8 } else { 64 };
    base + word * stride
}

property! {
    /// Reads, overwrites, `len` and `iter` (as a set) agree with a
    /// `BTreeMap` after every operation.
    fn sim_memory_matches_btreemap(
        ops in check::vec((0u8..6, 0u64..512, any::<u64>(), any::<bool>()), 0..400)
    ) {
        let layout = Layout::standard();
        let mut mem = SimMemory::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (region, word, value, write) in ops {
            let a = addr(&layout, region, word);
            if write {
                mem.write(a, value);
                model.insert(a, value);
            }
            prop_assert_eq!(mem.read(a), model.get(&a).copied().unwrap_or(0), "read {:#x}", a);
            prop_assert_eq!(mem.len(), model.len());
            prop_assert_eq!(mem.is_empty(), model.is_empty());
        }
        let mut seen: Vec<(u64, u64)> = mem.iter().map(|(&a, &v)| (a, v)).collect();
        seen.sort_unstable();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(seen, want);
    }
}
