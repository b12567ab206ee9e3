//! Fixture: a dispatch batch pre-sized straight from frame-derived counts.

pub fn seal_batch(seg_count: usize, bytes_len: usize) -> (Vec<u64>, Vec<u8>) {
    let items: Vec<u64> = Vec::with_capacity(seg_count);
    let mut bytes: Vec<u8> = Vec::new();
    bytes.reserve(bytes_len);
    (items, bytes)
}
