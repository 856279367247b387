//! A minimal slab allocator: stable `usize` keys for connection state,
//! reusing freed slots through a free list so keys stay dense and the
//! backing vector stops growing once the connection count plateaus.

#[derive(Debug)]
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `value` and returns its key. Freed slots are reused
    /// before the backing vector grows.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(key) => {
                debug_assert!(self.entries[key].is_none());
                self.entries[key] = Some(value);
                key
            }
            None => {
                self.entries.push(Some(value));
                self.entries.len() - 1
            }
        }
    }

    pub(crate) fn remove(&mut self, key: usize) -> Option<T> {
        let slot = self.entries.get_mut(key)?;
        let value = slot.take();
        if value.is_some() {
            self.len -= 1;
            self.free.push(key);
        }
        value
    }

    pub(crate) fn get(&self, key: usize) -> Option<&T> {
        self.entries.get(key).and_then(|slot| slot.as_ref())
    }

    pub(crate) fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.entries.get_mut(key).and_then(|slot| slot.as_mut())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys of every live entry, in slot order.
    pub(crate) fn keys(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(key, slot)| slot.as_ref().map(|_| key))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::Slab;

    #[test]
    fn insert_reuses_freed_slots() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert!(!slab.is_empty());
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "double-remove is a no-op");
        let c = slab.insert("c");
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.get(c), Some(&"c"));
        assert_eq!(slab.keys(), vec![a, b]);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let slab: Slab<u8> = Slab::new();
        assert!(slab.get(7).is_none());
        assert!(slab.is_empty());
    }
}
