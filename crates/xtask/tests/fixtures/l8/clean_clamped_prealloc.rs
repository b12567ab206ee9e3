//! Fixture: the same preallocation, clamped by a named cap constant.

const MAX_SECTION_PREALLOC: usize = 256;

pub fn decode_sections(buf: &[u8], qdcount: u16) -> Vec<Question> {
    let out = Vec::with_capacity((qdcount as usize).min(MAX_SECTION_PREALLOC));
    out
}
