//! Functional word-addressable memory.

use ede_util::hash::U64Map;

/// The functional contents of the simulated address space, at 8-byte
/// granularity. Unwritten words read as zero (fresh NVM/DRAM).
///
/// The workloads execute against this memory while emitting the timing
/// trace; the crash checker compares reconstructed NVM images against the
/// values recorded here.
///
/// # Example
///
/// ```
/// use ede_nvm::SimMemory;
///
/// let mut m = SimMemory::new();
/// assert_eq!(m.read(0x40), 0);
/// m.write(0x40, 7);
/// assert_eq!(m.read(0x40), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    words: U64Map<u64>,
}

impl SimMemory {
    /// Empty (all-zero) memory.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// Reads the word at `addr` (must be 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses — the trace generator only emits
    /// aligned accesses.
    pub fn read(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned read at {addr:#x}");
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn write(&mut self, addr: u64, value: u64) {
        assert_eq!(addr % 8, 0, "unaligned write at {addr:#x}");
        self.words.insert(addr, value);
    }

    /// Number of words ever written.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over `(addr, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.words.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_zero() {
        let m = SimMemory::new();
        assert_eq!(m.read(0x1_0000_0000), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SimMemory::new();
        m.write(0x100, 42);
        m.write(0x100, 43);
        assert_eq!(m.read(0x100), 43);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        SimMemory::new().read(0x41);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        SimMemory::new().write(0x42, 1);
    }
}
