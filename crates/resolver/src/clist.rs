//! The FIFO circular list (*Clist*) of the paper's §3.1, holding FQDN
//! entries.
//!
//! A fixed-size ring with an insertion pointer: inserting at a full slot
//! evicts the previous occupant (returned to the caller so back-references
//! can be cleaned up). Each slot carries the generation it was filled at —
//! the running count of pushes — so a stale reference is detected by one
//! comparison, and a generation by itself names a slot
//! ([`CircularList::at`](crate::clist::CircularList::at)).

/// A reference to a Clist (§3.1) slot at a particular occupancy
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    pub index: usize,
    pub generation: u64,
}

/// Fixed-capacity FIFO circular list — the paper's §3.1 Clist, sized by
/// the §4.2 dimensioning.
#[derive(Debug, Clone)]
pub struct CircularList<T> {
    slots: Vec<Option<(u64, T)>>,
    next: usize,
    generation: u64,
    occupied: usize,
}

impl<T> CircularList<T> {
    /// A list with capacity `size` (must be non-zero) — the paper's §4.2 `L`.
    // allow_lint(L8): `size` is the operator-configured cache capacity (the paper's §4.2 `L`), not a wire-derived length
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "Clist size must be positive");
        let mut slots = Vec::with_capacity(size);
        slots.resize_with(size, || None);
        CircularList {
            slots,
            next: 0,
            generation: 0,
            occupied: 0,
        }
    }

    /// Capacity — the paper's §4.2 `L`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes of the ring itself — `L` slots (§4.2), occupied or not;
    /// what the values own on the heap is the caller's to add.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<(u64, T)>>()
    }

    /// Occupied slots (never exceeds the §4.2 `L`).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when nothing has been inserted yet (fresh Clist, §3.1).
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Insert at the pointer position, advancing it — the paper's §3.1
    /// FIFO-overwrite policy. Returns the new slot reference and the evicted
    /// value, if the slot was occupied.
    #[expect(
        clippy::indexing_slicing,
        reason = "index < slots.len() — it is the pre-advance pointer, always reduced modulo slots.len()"
    )]
    pub fn push(&mut self, value: T) -> (SlotRef, Option<T>) {
        let index = self.next;
        self.next = (self.next + 1) % self.slots.len();
        self.generation += 1;
        let evicted = self.slots[index].take().map(|(_, v)| v);
        if evicted.is_none() {
            self.occupied += 1;
        }
        self.slots[index] = Some((self.generation, value));
        (
            SlotRef {
                index,
                generation: self.generation,
            },
            evicted,
        )
    }

    /// Fetch the value at `slot` if it still holds the same generation
    /// (stale references from §3.1 evictions resolve to `None`).
    pub fn get(&self, slot: SlotRef) -> Option<&T> {
        match self.slots.get(slot.index)? {
            Some((gen, v)) if *gen == slot.generation => Some(v),
            _ => None,
        }
    }

    /// The value pushed at `generation`, unless its slot has been recycled
    /// since (§3.1 FIFO overwrite). [`CircularList::push`] advances the
    /// pointer and the generation in lock-step from zero, so the slot is
    /// `(generation − 1) mod L` and the generation alone is a reference.
    pub fn at(&self, generation: u64) -> Option<&T> {
        let index = generation.checked_sub(1)? % self.slots.len() as u64;
        self.get(SlotRef {
            index: index as usize,
            generation,
        })
    }

    /// Mutable variant of [`CircularList::get`] (same §3.1 staleness rule).
    pub fn get_mut(&mut self, slot: SlotRef) -> Option<&mut T> {
        match self.slots.get_mut(slot.index)? {
            Some((gen, v)) if *gen == slot.generation => Some(v),
            _ => None,
        }
    }

    /// Remove the value at `slot` if the generation matches (§3.1 eviction
    /// bookkeeping).
    pub fn remove(&mut self, slot: SlotRef) -> Option<T> {
        let entry = self.slots.get_mut(slot.index)?;
        match entry {
            Some((gen, _)) if *gen == slot.generation => {
                self.occupied -= 1;
                entry.take().map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Iterate over live values (the paper's §3.1 working set).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_wraparound_evicts_fifo() {
        let mut c = CircularList::new(3);
        let (r1, e1) = c.push("a");
        let (_r2, e2) = c.push("b");
        let (_r3, e3) = c.push("c");
        assert!(e1.is_none() && e2.is_none() && e3.is_none());
        assert_eq!(c.len(), 3);
        // Fourth push evicts the oldest ("a").
        let (r4, e4) = c.push("d");
        assert_eq!(e4, Some("a"));
        assert_eq!(c.len(), 3);
        assert_eq!(r4.index, r1.index);
        // The stale reference no longer resolves.
        assert_eq!(c.get(r1), None);
        assert_eq!(c.get(r4), Some(&"d"));
    }

    #[test]
    fn get_mut_and_remove() {
        let mut c = CircularList::new(2);
        let (r, _) = c.push(10);
        *c.get_mut(r).unwrap() += 5;
        assert_eq!(c.get(r), Some(&15));
        assert_eq!(c.remove(r), Some(15));
        assert_eq!(c.remove(r), None);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn generation_protects_against_aba() {
        let mut c = CircularList::new(1);
        let (r1, _) = c.push("x");
        let (r2, evicted) = c.push("y");
        assert_eq!(evicted, Some("x"));
        assert_eq!(r1.index, r2.index);
        assert_eq!(c.get(r1), None); // old generation
        assert_eq!(c.get(r2), Some(&"y"));
    }

    #[test]
    fn a_generation_alone_finds_its_slot() {
        let mut c = CircularList::new(3);
        assert_eq!(c.at(0), None);
        assert_eq!(c.at(1), None);
        for (i, v) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            let (slot, _) = c.push(v);
            assert_eq!(slot.generation, i as u64 + 1);
            assert_eq!(c.at(slot.generation), Some(&v));
        }
        // Two laps in: generations 3..=5 are live, 1 and 2 were recycled.
        assert_eq!(c.at(1), None);
        assert_eq!(c.at(2), None);
        assert_eq!(c.at(3), Some(&"c"));
        assert_eq!(c.at(6), None);
    }

    #[test]
    fn iter_sees_live_values_only() {
        let mut c = CircularList::new(4);
        let (ra, _) = c.push(1);
        c.push(2);
        c.remove(ra);
        let mut vals: Vec<i32> = c.iter().copied().collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = CircularList::<u8>::new(0);
    }
}
