//! Fixture: an audited `allow_lint` marker justifies the allocation.

pub fn copy_payload(hdr_len: u16) -> Vec<u8> {
    // allow_lint(L8): hdr_len is checked against MAX_FRAME by parse_header
    let out = Vec::with_capacity(hdr_len as usize);
    out
}
