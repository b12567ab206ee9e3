//! Error type shared by every codec in this crate.

use std::fmt;

use crate::flowrec::FlowRecError;

/// Errors produced while parsing or building wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The buffer is shorter than the fixed part of the header being parsed.
    Truncated {
        /// Human-readable name of the layer being decoded.
        layer: &'static str,
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A length field inside the packet is inconsistent with the buffer.
    BadLength { layer: &'static str, detail: String },
    /// A version / type discriminator had an unsupported value.
    Unsupported { layer: &'static str, detail: String },
    /// A checksum failed validation.
    BadChecksum {
        layer: &'static str,
        expected: u16,
        found: u16,
    },
    /// The pcap container is malformed.
    BadPcap(String),
    /// Underlying I/O failure (pcap reading/writing).
    Io(String),
    /// A flow-record export stream failed to decode.
    FlowRec(FlowRecError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated {
                layer,
                needed,
                available,
            } => write!(
                f,
                "{layer}: truncated packet (need {needed} bytes, have {available})"
            ),
            NetError::BadLength { layer, detail } => {
                write!(f, "{layer}: inconsistent length field: {detail}")
            }
            NetError::Unsupported { layer, detail } => {
                write!(f, "{layer}: unsupported value: {detail}")
            }
            NetError::BadChecksum {
                layer,
                expected,
                found,
            } => write!(
                f,
                "{layer}: checksum mismatch (expected {expected:#06x}, found {found:#06x})"
            ),
            NetError::BadPcap(detail) => write!(f, "pcap: {detail}"),
            NetError::Io(detail) => write!(f, "io: {detail}"),
            NetError::FlowRec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;

/// Bounds-check helper: ensure `buf` holds at least `needed` bytes for `layer`.
#[inline]
pub(crate) fn need(layer: &'static str, buf: &[u8], needed: usize) -> Result<()> {
    if buf.len() < needed {
        Err(NetError::Truncated {
            layer,
            needed,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_truncated() {
        let e = NetError::Truncated {
            layer: "ipv4",
            needed: 20,
            available: 7,
        };
        assert_eq!(
            e.to_string(),
            "ipv4: truncated packet (need 20 bytes, have 7)"
        );
    }

    #[test]
    fn display_checksum() {
        let e = NetError::BadChecksum {
            layer: "tcp",
            expected: 0x1234,
            found: 0xabcd,
        };
        assert!(e.to_string().contains("0x1234"));
        assert!(e.to_string().contains("0xabcd"));
    }

    #[test]
    fn need_ok_and_err() {
        assert!(need("x", &[0u8; 4], 4).is_ok());
        let err = need("x", &[0u8; 3], 4).unwrap_err();
        match err {
            NetError::Truncated {
                needed, available, ..
            } => {
                assert_eq!(needed, 4);
                assert_eq!(available, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: NetError = io.into();
        assert!(matches!(e, NetError::Io(_)));
    }
}
