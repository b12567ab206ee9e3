//! Fixture: payload copy sized by a header field, through a taint chain.

pub fn copy_payload(hdr_len: u16, body: &[u8]) -> Vec<u8> {
    let want = hdr_len as usize + 4;
    let mut out: Vec<u8> = Vec::new();
    out.resize(want, 0);
    out
}
