//! Fixture: sizes from constants and owned state, never from a parameter.

const RING_SLOTS: usize = 64;

pub fn fresh_ring(label: &str) -> (Vec<u64>, Vec<u8>) {
    let slots: Vec<u64> = Vec::with_capacity(RING_SLOTS);
    let mut name: Vec<u8> = Vec::new();
    name.reserve(16);
    let _ = label;
    (slots, name)
}
