//! Fixture: batch preallocation pinned by the ring's named capacities.

const BATCH_ITEMS: usize = 128;
const BATCH_BYTES: usize = 128 * 1024;

pub fn seal_batch(seg_count: usize, bytes_len: usize) -> (Vec<u64>, Vec<u8>) {
    let items: Vec<u64> = Vec::with_capacity(seg_count.min(BATCH_ITEMS));
    let mut bytes: Vec<u8> = Vec::new();
    bytes.reserve(bytes_len.min(BATCH_BYTES));
    (items, bytes)
}
