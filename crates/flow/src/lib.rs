//! # dnhunter-flow
//!
//! The *Flow Sniffer* half of DN-Hunter's real-time component (paper §3.1):
//! reconstructs layer-4 flows by aggregating packets on the 5-tuple
//! `(clientIP, serverIP, sPort, dPort, protocol)`, tracks TCP connection
//! state, accounts bytes/packets per direction, and classifies application
//! protocols with a lightweight DPI engine:
//!
//! * [`http`] — request-line + `Host:` header parsing
//! * [`tls`] — TLS record/handshake parsing with SNI extraction and an
//!   X.509-subset certificate codec (enough to pull the subject CN, which is
//!   what the paper's certificate-inspection baseline needs)
//! * [`bittorrent`] — peer-wire handshake and HTTP tracker-announce
//!   detection (the paper's "P2P" class)
//!
//! The DPI verdicts serve as the ground truth against which the DNS-based
//! labelling is compared (Tab. 2) and as the "GT" column of Tables 6–7.

#![forbid(unsafe_code)]

pub mod bittorrent;
pub mod dpi;
pub mod http;
pub mod record;
pub mod table;
pub mod tcp_state;
pub mod tls;
pub mod tuple;

pub use dpi::AppProtocol;
pub use record::{FlowDirection, FlowRecord};
pub use table::{CompactSeg, FlowEvent, FlowTable, FlowTableConfig};
pub use tcp_state::TcpConnState;
pub use tuple::{server_trace_key, CanonFlowKey, FlowKey};
