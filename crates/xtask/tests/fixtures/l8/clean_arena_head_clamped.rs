//! Fixture: arena head-prefix copy clamped to the DPI snapshot cap.

const DPI_SNAP: usize = 1024;

pub fn push_head(payload: &[u8]) -> Vec<u8> {
    let take = payload.len();
    let mut head: Vec<u8> = Vec::new();
    head.resize(take.min(DPI_SNAP), 0);
    head
}
