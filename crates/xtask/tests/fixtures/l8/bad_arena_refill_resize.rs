//! Fixture: a recycled arena regrown to whatever size the wire claims.

pub fn refill_arena(payload: &[u8]) -> Vec<u8> {
    let need = payload.len();
    let mut arena: Vec<u8> = Vec::new();
    arena.resize(need, 0);
    arena
}
