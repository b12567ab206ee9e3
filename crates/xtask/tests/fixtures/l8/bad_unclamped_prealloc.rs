//! Fixture: section preallocation sized straight from a wire count.

pub fn decode_sections(buf: &[u8], qdcount: u16) -> Vec<Question> {
    let n = qdcount as usize;
    let out = Vec::with_capacity(n);
    out
}
