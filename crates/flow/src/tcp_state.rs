//! A compact TCP connection state machine, as seen by a passive monitor.
//!
//! A sniffer only observes segments, so this tracks the connection lifecycle
//! coarsely: handshake progress, establishment, half-closes and reset. That
//! is all the paper's flow accounting needs (flow start/end times, and
//! whether a flow ever carried data).

use dnhunter_net::TcpFlags;

/// Connection state from the passive observer's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TcpConnState {
    /// Nothing seen yet.
    #[default]
    New,
    /// Client SYN seen.
    SynSent,
    /// Server SYN+ACK seen.
    SynAck,
    /// Three-way handshake completed (client ACK after SYN+ACK) or data seen.
    Established,
    /// One side sent FIN.
    HalfClosed,
    /// Both sides sent FIN (and the second FIN was acked or carried data).
    Closed,
    /// RST observed from either side.
    Reset,
}

impl TcpConnState {
    /// True once no further packets are expected.
    pub fn is_terminal(self) -> bool {
        matches!(self, TcpConnState::Closed | TcpConnState::Reset)
    }

    /// True once the three-way handshake completed.
    pub fn is_established(self) -> bool {
        matches!(
            self,
            TcpConnState::Established | TcpConnState::HalfClosed | TcpConnState::Closed
        )
    }
}

/// Tracks per-flow TCP state across observed segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTracker {
    state: TcpConnState,
    client_fin: bool,
    server_fin: bool,
}

impl TcpTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state.
    pub fn state(&self) -> TcpConnState {
        self.state
    }

    /// Feed one observed segment. `from_client` is the packet direction,
    /// `payload_len` the transport payload length.
    pub fn observe(&mut self, from_client: bool, flags: TcpFlags, payload_len: usize) {
        if flags.rst() {
            self.state = TcpConnState::Reset;
            return;
        }
        if self.state.is_terminal() {
            return;
        }
        if flags.fin() {
            if from_client {
                self.client_fin = true;
            } else {
                self.server_fin = true;
            }
            self.state = if self.client_fin && self.server_fin {
                TcpConnState::Closed
            } else {
                TcpConnState::HalfClosed
            };
            return;
        }
        match self.state {
            TcpConnState::New => {
                if flags.syn() && !flags.ack() && from_client {
                    self.state = TcpConnState::SynSent;
                } else if payload_len > 0 {
                    // Mid-stream pickup (trace started after the handshake).
                    self.state = TcpConnState::Established;
                }
            }
            TcpConnState::SynSent => {
                if flags.syn() && flags.ack() && !from_client {
                    self.state = TcpConnState::SynAck;
                }
            }
            TcpConnState::SynAck => {
                if flags.ack() && from_client {
                    self.state = TcpConnState::Established;
                }
            }
            TcpConnState::Established | TcpConnState::HalfClosed => {}
            // Terminal states already returned above; if that guard ever
            // changes, a live capture must stay inert rather than panic
            // (the sniffer's packet path is panic-free, DESIGN.md §8).
            TcpConnState::Closed | TcpConnState::Reset => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(bits: TcpFlags) -> TcpFlags {
        bits
    }

    #[test]
    fn normal_lifecycle() {
        let mut t = TcpTracker::new();
        t.observe(true, flags(TcpFlags::SYN), 0);
        assert_eq!(t.state(), TcpConnState::SynSent);
        t.observe(false, flags(TcpFlags::SYN | TcpFlags::ACK), 0);
        assert_eq!(t.state(), TcpConnState::SynAck);
        t.observe(true, flags(TcpFlags::ACK), 0);
        assert_eq!(t.state(), TcpConnState::Established);
        assert!(t.state().is_established());
        t.observe(true, flags(TcpFlags::PSH | TcpFlags::ACK), 100);
        t.observe(false, flags(TcpFlags::PSH | TcpFlags::ACK), 2000);
        assert_eq!(t.state(), TcpConnState::Established);
        t.observe(true, flags(TcpFlags::FIN | TcpFlags::ACK), 0);
        assert_eq!(t.state(), TcpConnState::HalfClosed);
        t.observe(false, flags(TcpFlags::FIN | TcpFlags::ACK), 0);
        assert_eq!(t.state(), TcpConnState::Closed);
        assert!(t.state().is_terminal());
    }

    #[test]
    fn reset_from_any_state() {
        let mut t = TcpTracker::new();
        t.observe(true, flags(TcpFlags::SYN), 0);
        t.observe(false, flags(TcpFlags::RST), 0);
        assert_eq!(t.state(), TcpConnState::Reset);
        // Terminal: further segments ignored.
        t.observe(true, flags(TcpFlags::SYN), 0);
        assert_eq!(t.state(), TcpConnState::Reset);
    }

    #[test]
    fn midstream_pickup_counts_as_established() {
        let mut t = TcpTracker::new();
        t.observe(false, flags(TcpFlags::ACK), 1460);
        assert_eq!(t.state(), TcpConnState::Established);
    }

    #[test]
    fn server_syn_ack_without_client_syn_stays_new() {
        let mut t = TcpTracker::new();
        t.observe(false, flags(TcpFlags::SYN | TcpFlags::ACK), 0);
        assert_eq!(t.state(), TcpConnState::New);
    }

    #[test]
    fn closed_stays_closed() {
        let mut t = TcpTracker::new();
        t.observe(true, flags(TcpFlags::FIN), 0);
        t.observe(false, flags(TcpFlags::FIN), 0);
        assert_eq!(t.state(), TcpConnState::Closed);
        t.observe(true, flags(TcpFlags::ACK), 10);
        assert_eq!(t.state(), TcpConnState::Closed);
    }
}
