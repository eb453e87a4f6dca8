//! The flat word-addressed backing store.

use dlp_common::Value;

/// Words per page. Kernels address a sparse space — inputs near zero,
/// outputs at [`BASE_OUT`-style megaword bases] — so the backing store is
/// paged: a write only materialises (and zeroes) the 16 Ki-word page it
/// lands on, never the gap below it. A dense `Vec` here cost milliseconds
/// per machine on the first high-address store (allocate + zero + realloc
/// copies of megabytes), which dominated the lane-batched engine's
/// dispatch time.
const PAGE_WORDS: usize = 1 << 14;

/// Word-addressed main memory.
///
/// All data in the simulated machine lives here; the caches are pure timing
/// models (tags without data arrays), so there is never a coherence question
/// between model layers. The store grows on demand page by page; reads of
/// never-written words return zero, like freshly mapped pages, and cloning
/// copies only the pages that have been touched.
///
/// # Example
///
/// ```
/// use trips_mem::MainMemory;
/// use dlp_common::Value;
///
/// let mut mem = MainMemory::new();
/// mem.write(100, Value::from_u64(42));
/// assert_eq!(mem.read(100).as_u64(), 42);
/// assert_eq!(mem.read(7).as_u64(), 0); // untouched words read zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct MainMemory {
    pages: Vec<Option<Box<[Value]>>>,
}

impl MainMemory {
    /// Create an empty memory.
    #[must_use]
    pub fn new() -> Self {
        MainMemory::default()
    }

    /// Read the word at `addr` (word address).
    #[must_use]
    pub fn read(&self, addr: u64) -> Value {
        let idx = addr as usize;
        match self.pages.get(idx / PAGE_WORDS) {
            Some(Some(page)) => page[idx % PAGE_WORDS],
            _ => Value::ZERO,
        }
    }

    /// Write `value` at `addr` (word address), materialising the page on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds the 1 Gi-word safety limit — in practice
    /// that means a kernel computed a wild address, and failing fast beats
    /// silently allocating gigabytes.
    pub fn write(&mut self, addr: u64, value: Value) {
        const LIMIT: u64 = 1 << 30;
        assert!(addr < LIMIT, "address {addr:#x} exceeds simulated memory limit");
        let idx = addr as usize;
        let pi = idx / PAGE_WORDS;
        if pi >= self.pages.len() {
            self.pages.resize(pi + 1, None);
        }
        let page = self.pages[pi]
            .get_or_insert_with(|| vec![Value::ZERO; PAGE_WORDS].into_boxed_slice());
        page[idx % PAGE_WORDS] = value;
    }

    /// Write a slice of words starting at `base`.
    pub fn write_words(&mut self, base: u64, values: &[Value]) {
        for (i, v) in values.iter().enumerate() {
            self.write(base + i as u64, *v);
        }
    }

    /// Read `n` words starting at `base`.
    #[must_use]
    pub fn read_words(&self, base: u64, n: usize) -> Vec<Value> {
        (0..n).map(|i| self.read(base + i as u64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bulk_roundtrip() {
        let mut mem = MainMemory::new();
        let vals: Vec<Value> = (0..16).map(Value::from_u64).collect();
        mem.write_words(1000, &vals);
        assert_eq!(mem.read_words(1000, 16), vals);
    }

    #[test]
    #[should_panic(expected = "memory limit")]
    fn wild_address_panics() {
        MainMemory::new().write(1 << 40, Value::ZERO);
    }

    proptest! {
        #[test]
        fn read_returns_last_write(addr in 0u64..10_000, a in any::<u64>(), b in any::<u64>()) {
            let mut mem = MainMemory::new();
            mem.write(addr, Value::from_u64(a));
            mem.write(addr, Value::from_u64(b));
            prop_assert_eq!(mem.read(addr).as_u64(), b);
        }

        #[test]
        fn disjoint_writes_do_not_alias(a in 0u64..5_000, b in 5_000u64..10_000) {
            let mut mem = MainMemory::new();
            mem.write(a, Value::from_u64(1));
            mem.write(b, Value::from_u64(2));
            prop_assert_eq!(mem.read(a).as_u64(), 1);
            prop_assert_eq!(mem.read(b).as_u64(), 2);
        }
    }
}
