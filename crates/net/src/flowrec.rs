//! NetFlow/IPFIX-style flow-record export container (the `DNFR` format).
//!
//! Where full packet capture isn't available — the FlowDNS deployment
//! regime — the tagger consumes two pre-aggregated streams instead of raw
//! frames: DNS answer records (timestamp, client, raw DNS message) and
//! flow export records (5-tuple plus per-direction packet/byte counters).
//! This module defines a versioned, std-only container for both, written
//! by the simulator's flow-export emitter and read by the daemon's
//! flow-record ingest backend.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! stream  := magic "DNFR" | u16 version (=1) | record*
//! record  := u8 type | u32 payload_len | payload
//! type 1  := DNS answer: u64 ts_micros | ip client | u16 len | message
//! type 2  := flow export: u64 first_ts | u64 last_ts
//!            | ip client | u16 client_port | ip server | u16 server_port
//!            | u8 ip_proto | u64 packets_c2s | u64 packets_s2c
//!            | u64 bytes_c2s | u64 bytes_s2c
//! ip      := u8 4 | 4 bytes, or u8 6 | 16 bytes
//! ```
//!
//! The decoder's contract is the same as every other ingest parser in the
//! workspace: *errors, never panics* — truncated, oversized, or corrupt
//! records yield a typed [`FlowRecError`]. The `flowrec` fuzz target and
//! the round-trip proptests in `crates/net/tests/flowrec_properties.rs`
//! enforce that dynamically.

use std::io::{Read, Write};
use std::net::IpAddr;

/// Stream magic: four printable bytes so a misrouted pcap is caught
/// immediately rather than misparsed.
pub const FLOWREC_MAGIC: [u8; 4] = *b"DNFR";
/// Current (and only) stream version.
pub const FLOWREC_VERSION: u16 = 1;
/// Upper bound on a single record's claimed payload length. A DNS record
/// tops out near 64 KiB (u16 message length) and a flow record is fixed
/// size, so anything above this is corruption, not data.
pub const MAX_FLOWREC_PAYLOAD: u32 = 1 << 17;

const TYPE_DNS: u8 = 1;
const TYPE_FLOW: u8 = 2;

/// Decode/IO failures. Every variant is a rejected input, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowRecError {
    /// Underlying reader failed.
    Io(String),
    /// Stream doesn't start with `DNFR`.
    BadMagic([u8; 4]),
    /// Stream version this decoder doesn't speak.
    BadVersion(u16),
    /// Unknown record type byte.
    BadRecordType(u8),
    /// Record claims a payload above [`MAX_FLOWREC_PAYLOAD`].
    OversizePayload(u32),
    /// Stream ended inside a header or record body.
    Truncated,
    /// Record payload is malformed (bad IP tag, inner length overruns the
    /// payload, or trailing garbage).
    Corrupt(&'static str),
}

impl std::fmt::Display for FlowRecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowRecError::Io(e) => write!(f, "flowrec: io error: {e}"),
            FlowRecError::BadMagic(m) => write!(f, "flowrec: bad magic {m:02x?}"),
            FlowRecError::BadVersion(v) => write!(f, "flowrec: unsupported version {v}"),
            FlowRecError::BadRecordType(t) => write!(f, "flowrec: unknown record type {t}"),
            FlowRecError::OversizePayload(n) => {
                write!(f, "flowrec: record claims {n} payload bytes, above cap")
            }
            FlowRecError::Truncated => write!(f, "flowrec: stream truncated mid-record"),
            FlowRecError::Corrupt(why) => write!(f, "flowrec: corrupt record: {why}"),
        }
    }
}

impl std::error::Error for FlowRecError {}

/// A DNS answer observed on the export stream: the raw message plus the
/// client it was delivered to, exactly what the resolver Clist needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsExportRecord {
    /// Capture timestamp of the DNS response, microseconds.
    pub ts_micros: u64,
    /// Client the answer was delivered to.
    pub client: IpAddr,
    /// Raw DNS message bytes (to be fed through the DNS codec).
    pub message: Vec<u8>,
}

/// One exported flow: the 5-tuple and per-direction counters a
/// NetFlow/IPFIX probe would report at flow end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowExportRecord {
    /// First-packet timestamp, microseconds.
    pub first_ts: u64,
    /// Last-packet timestamp, microseconds.
    pub last_ts: u64,
    /// Flow initiator.
    pub client: IpAddr,
    pub client_port: u16,
    /// Responder.
    pub server: IpAddr,
    pub server_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub ip_proto: u8,
    pub packets_c2s: u64,
    pub packets_s2c: u64,
    pub bytes_c2s: u64,
    pub bytes_s2c: u64,
}

/// Any record on the export stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportRecord {
    Dns(DnsExportRecord),
    Flow(FlowExportRecord),
}

impl ExportRecord {
    /// Event time used for reorder buffering: the instant the record's
    /// effect belongs at. A DNS answer acts at its capture time; a flow
    /// acts at its *first* packet (that's when the paper's tagger queries
    /// the resolver), even though the probe exports it only at flow end.
    pub fn event_ts(&self) -> u64 {
        match self {
            ExportRecord::Dns(d) => d.ts_micros,
            ExportRecord::Flow(fl) => fl.first_ts,
        }
    }

    /// Export time: where the record sits on the wire. DNS answers export
    /// immediately; flows export at their last packet (plus probe jitter,
    /// which the emitter adds on top).
    pub fn export_ts(&self) -> u64 {
        match self {
            ExportRecord::Dns(d) => d.ts_micros,
            ExportRecord::Flow(fl) => fl.last_ts,
        }
    }
}

fn encode_ip(out: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            out.push(4);
            out.extend_from_slice(&v4.octets());
        }
        IpAddr::V6(v6) => {
            out.push(6);
            out.extend_from_slice(&v6.octets());
        }
    }
}

/// Cursor over a record payload; every accessor is bounds-checked.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FlowRecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FlowRecError::Corrupt("field overruns payload"))?;
        // allow_lint(L1): `end <= buf.len()` and `pos <= end` by the
        // checked_add/filter gate above
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FlowRecError> {
        Ok(self.take(1)?[0])
    }

    // allow_lint(L1): `take(2)` hands back exactly 2 bytes
    fn u16(&mut self) -> Result<u16, FlowRecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    // allow_lint(L1): `take(8)` hands back exactly 8 bytes
    fn u64(&mut self) -> Result<u64, FlowRecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    // allow_lint(L1): `take(4)` hands back exactly 4 bytes
    fn ip(&mut self) -> Result<IpAddr, FlowRecError> {
        match self.u8()? {
            4 => {
                let b = self.take(4)?;
                Ok(IpAddr::from([b[0], b[1], b[2], b[3]]))
            }
            6 => {
                let b = self.take(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                Ok(IpAddr::from(o))
            }
            _ => Err(FlowRecError::Corrupt("bad ip tag")),
        }
    }

    fn finish(&self) -> Result<(), FlowRecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FlowRecError::Corrupt("trailing bytes in record payload"))
        }
    }
}

/// Decode one record payload given its type byte.
pub fn decode_payload(rec_type: u8, payload: &[u8]) -> Result<ExportRecord, FlowRecError> {
    let mut cur = Cur {
        buf: payload,
        pos: 0,
    };
    match rec_type {
        TYPE_DNS => {
            let ts_micros = cur.u64()?;
            let client = cur.ip()?;
            let len = cur.u16()? as usize;
            let message = cur.take(len)?.to_vec();
            cur.finish()?;
            Ok(ExportRecord::Dns(DnsExportRecord {
                ts_micros,
                client,
                message,
            }))
        }
        TYPE_FLOW => {
            let first_ts = cur.u64()?;
            let last_ts = cur.u64()?;
            let client = cur.ip()?;
            let client_port = cur.u16()?;
            let server = cur.ip()?;
            let server_port = cur.u16()?;
            let ip_proto = cur.u8()?;
            let packets_c2s = cur.u64()?;
            let packets_s2c = cur.u64()?;
            let bytes_c2s = cur.u64()?;
            let bytes_s2c = cur.u64()?;
            cur.finish()?;
            Ok(ExportRecord::Flow(FlowExportRecord {
                first_ts,
                last_ts,
                client,
                client_port,
                server,
                server_port,
                ip_proto,
                packets_c2s,
                packets_s2c,
                bytes_c2s,
                bytes_s2c,
            }))
        }
        other => Err(FlowRecError::BadRecordType(other)),
    }
}

/// Encode one record (type byte + length + payload) onto `out`.
pub fn encode_record(out: &mut Vec<u8>, rec: &ExportRecord) {
    let mut payload = Vec::new();
    let rec_type = match rec {
        ExportRecord::Dns(d) => {
            payload.extend_from_slice(&d.ts_micros.to_le_bytes());
            encode_ip(&mut payload, d.client);
            // DNS messages are u16-length by construction (TCP transport
            // caps them); truncate defensively rather than lie.
            let len = d.message.len().min(u16::MAX as usize);
            payload.extend_from_slice(&(len as u16).to_le_bytes());
            // allow_lint(L1): `len` is min-clamped to `message.len()` above
            payload.extend_from_slice(&d.message[..len]);
            TYPE_DNS
        }
        ExportRecord::Flow(fl) => {
            payload.extend_from_slice(&fl.first_ts.to_le_bytes());
            payload.extend_from_slice(&fl.last_ts.to_le_bytes());
            encode_ip(&mut payload, fl.client);
            payload.extend_from_slice(&fl.client_port.to_le_bytes());
            encode_ip(&mut payload, fl.server);
            payload.extend_from_slice(&fl.server_port.to_le_bytes());
            payload.push(fl.ip_proto);
            payload.extend_from_slice(&fl.packets_c2s.to_le_bytes());
            payload.extend_from_slice(&fl.packets_s2c.to_le_bytes());
            payload.extend_from_slice(&fl.bytes_c2s.to_le_bytes());
            payload.extend_from_slice(&fl.bytes_s2c.to_le_bytes());
            TYPE_FLOW
        }
    };
    out.push(rec_type);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Streaming writer over any [`Write`].
pub struct FlowRecWriter<W: Write> {
    inner: W,
    scratch: Vec<u8>,
    records: u64,
}

impl<W: Write> FlowRecWriter<W> {
    /// Write the stream header and return the writer.
    pub fn new(mut inner: W) -> Result<Self, FlowRecError> {
        inner
            .write_all(&FLOWREC_MAGIC)
            .and_then(|()| inner.write_all(&FLOWREC_VERSION.to_le_bytes()))
            .map_err(|e| FlowRecError::Io(e.to_string()))?;
        Ok(FlowRecWriter {
            inner,
            scratch: Vec::new(),
            records: 0,
        })
    }

    /// Append one record.
    pub fn write_record(&mut self, rec: &ExportRecord) -> Result<(), FlowRecError> {
        self.scratch.clear();
        encode_record(&mut self.scratch, rec);
        self.inner
            .write_all(&self.scratch)
            .map_err(|e| FlowRecError::Io(e.to_string()))?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(mut self) -> Result<W, FlowRecError> {
        self.inner
            .flush()
            .map_err(|e| FlowRecError::Io(e.to_string()))?;
        Ok(self.inner)
    }
}

/// Streaming reader over any [`Read`]: validates the header on
/// construction, then yields records until clean end-of-stream.
pub struct FlowRecReader<R: Read> {
    inner: R,
}

impl<R: Read> FlowRecReader<R> {
    /// Read and validate the stream header.
    // allow_lint(L1): constant indices into the fixed [u8; 6] header array cannot be out of bounds
    pub fn new(mut inner: R) -> Result<Self, FlowRecError> {
        let mut hdr = [0u8; 6];
        inner.read_exact(&mut hdr).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FlowRecError::Truncated,
            _ => FlowRecError::Io(e.to_string()),
        })?;
        let magic = [hdr[0], hdr[1], hdr[2], hdr[3]];
        if magic != FLOWREC_MAGIC {
            return Err(FlowRecError::BadMagic(magic));
        }
        let version = u16::from_le_bytes([hdr[4], hdr[5]]);
        if version != FLOWREC_VERSION {
            return Err(FlowRecError::BadVersion(version));
        }
        Ok(FlowRecReader { inner })
    }

    /// Next record; `Ok(None)` at clean end-of-stream, an error if the
    /// stream ends inside a record.
    // allow_lint(L1): constant indices into the fixed [u8; 5] record header cannot be out of bounds
    pub fn next_record(&mut self) -> Result<Option<ExportRecord>, FlowRecError> {
        let mut hdr = [0u8; 5];
        // A clean stream ends exactly on a record boundary; distinguish
        // zero-bytes-then-EOF from EOF mid-header.
        let mut filled = 0usize;
        while filled < hdr.len() {
            match self.inner.read(&mut hdr[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(FlowRecError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FlowRecError::Io(e.to_string())),
            }
        }
        let rec_type = hdr[0];
        let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]);
        if len > MAX_FLOWREC_PAYLOAD {
            return Err(FlowRecError::OversizePayload(len));
        }
        let mut payload = vec![0u8; len as usize];
        self.inner
            .read_exact(&mut payload)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => FlowRecError::Truncated,
                _ => FlowRecError::Io(e.to_string()),
            })?;
        decode_payload(rec_type, &payload).map(Some)
    }
}

impl<R: Read> Iterator for FlowRecReader<R> {
    type Item = Result<ExportRecord, FlowRecError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Decode an entire in-memory stream. Used by the proptests and the
/// `flowrec` fuzz target: any byte string must yield records or a typed
/// error, never a panic.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<ExportRecord>, FlowRecError> {
    let mut reader = FlowRecReader::new(bytes)?;
    let mut out = Vec::new();
    while let Some(rec) = reader.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

/// Encode a full stream (header + records) into one buffer.
// allow_lint(L8): encoder; sized from records the program already holds, not from a count read off the wire
pub fn encode_stream(records: &[ExportRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + records.len() * 64);
    out.extend_from_slice(&FLOWREC_MAGIC);
    out.extend_from_slice(&FLOWREC_VERSION.to_le_bytes());
    for rec in records {
        encode_record(&mut out, rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sample_records() -> Vec<ExportRecord> {
        vec![
            ExportRecord::Dns(DnsExportRecord {
                ts_micros: 1_300_000_000_000_123,
                client: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 7)),
                message: vec![0xde, 0xad, 0xbe, 0xef],
            }),
            ExportRecord::Flow(FlowExportRecord {
                first_ts: 1_300_000_000_100_000,
                last_ts: 1_300_000_000_900_000,
                client: IpAddr::V6(Ipv6Addr::LOCALHOST),
                client_port: 50321,
                server: IpAddr::V4(Ipv4Addr::new(93, 184, 216, 34)),
                server_port: 443,
                ip_proto: 6,
                packets_c2s: 12,
                packets_s2c: 17,
                bytes_c2s: 1_234,
                bytes_s2c: 56_789,
            }),
            ExportRecord::Dns(DnsExportRecord {
                ts_micros: 0,
                client: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
                message: Vec::new(),
            }),
        ]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let recs = sample_records();
        let mut w = FlowRecWriter::new(Vec::new()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), 3);
        let bytes = w.into_inner().unwrap();
        assert_eq!(decode_stream(&bytes).unwrap(), recs);
        assert_eq!(encode_stream(&recs), bytes);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            decode_stream(b"XXXX\x01\x00"),
            Err(FlowRecError::BadMagic(_))
        ));
        assert!(matches!(
            decode_stream(b"DNFR\x02\x00"),
            Err(FlowRecError::BadVersion(2))
        ));
        assert!(matches!(decode_stream(b"DN"), Err(FlowRecError::Truncated)));
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = encode_stream(&sample_records());
        for cut in 0..bytes.len() {
            // Every strict prefix either parses fewer records cleanly (at
            // a record boundary) or errors; never panics.
            let _ = decode_stream(&bytes[..cut]);
        }
        // A cut inside the last record's payload is specifically Truncated.
        assert!(matches!(
            decode_stream(&bytes[..bytes.len() - 1]),
            Err(FlowRecError::Truncated)
        ));
    }

    #[test]
    fn oversize_and_unknown_type_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FLOWREC_MAGIC);
        bytes.extend_from_slice(&FLOWREC_VERSION.to_le_bytes());
        bytes.push(9); // unknown type
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_stream(&bytes),
            Err(FlowRecError::BadRecordType(9))
        ));

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FLOWREC_MAGIC);
        bytes.extend_from_slice(&FLOWREC_VERSION.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stream(&bytes),
            Err(FlowRecError::OversizePayload(_))
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_is_corrupt() {
        let rec = ExportRecord::Dns(DnsExportRecord {
            ts_micros: 5,
            client: IpAddr::V4(Ipv4Addr::LOCALHOST),
            message: vec![1, 2],
        });
        let mut body = Vec::new();
        encode_record(&mut body, &rec);
        // Grow the outer length by one and append a junk byte: the inner
        // u16 no longer covers the payload.
        let len = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) + 1;
        body[1..5].copy_from_slice(&len.to_le_bytes());
        body.push(0xff);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FLOWREC_MAGIC);
        bytes.extend_from_slice(&FLOWREC_VERSION.to_le_bytes());
        bytes.extend_from_slice(&body);
        assert!(matches!(
            decode_stream(&bytes),
            Err(FlowRecError::Corrupt(_))
        ));
    }

    #[test]
    fn event_and_export_times() {
        let recs = sample_records();
        assert_eq!(recs[0].event_ts(), recs[0].export_ts());
        match &recs[1] {
            ExportRecord::Flow(fl) => {
                assert_eq!(recs[1].event_ts(), fl.first_ts);
                assert_eq!(recs[1].export_ts(), fl.last_ts);
            }
            _ => unreachable!(),
        }
    }
}
