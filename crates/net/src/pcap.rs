//! Classic libpcap container (the `0xa1b2c3d4` format, microsecond
//! timestamps, LINKTYPE_ETHERNET).
//!
//! The simulator writes synthetic traces in this format so that the sniffer
//! reads them exactly like a real capture file, and so that any generated
//! trace can be inspected with standard tools.

use std::io::{Read, Write};

use crate::error::{NetError, Result};

/// Magic for microsecond-resolution pcap, written in native order here and
/// accepted in either byte order when reading.
pub const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Default snap length (we never truncate synthetic frames).
pub const SNAPLEN: u32 = 262_144;

/// One captured record: a timestamp and the raw frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// Raw frame bytes (link layer onward).
    pub frame: Vec<u8>,
}

impl PcapRecord {
    /// Timestamp in whole microseconds since the epoch.
    pub fn timestamp_micros(&self) -> u64 {
        u64::from(self.ts_sec) * 1_000_000 + u64::from(self.ts_usec)
    }

    /// Build from a microsecond timestamp.
    pub fn from_micros(ts_micros: u64, frame: Vec<u8>) -> Self {
        PcapRecord {
            ts_sec: (ts_micros / 1_000_000) as u32,
            ts_usec: (ts_micros % 1_000_000) as u32,
            frame,
        }
    }
}

/// Streaming pcap writer over any [`Write`].
pub struct PcapWriter<W: Write> {
    inner: W,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut inner: W) -> Result<Self> {
        inner.write_all(&MAGIC.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&SNAPLEN.to_le_bytes())?;
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { inner, records: 0 })
    }

    /// Append one record.
    pub fn write_record(&mut self, rec: &PcapRecord) -> Result<()> {
        let len = rec.frame.len() as u32;
        self.inner.write_all(&rec.ts_sec.to_le_bytes())?;
        self.inner.write_all(&rec.ts_usec.to_le_bytes())?;
        self.inner.write_all(&len.to_le_bytes())?; // incl_len
        self.inner.write_all(&len.to_le_bytes())?; // orig_len
        self.inner.write_all(&rec.frame)?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming pcap reader over any [`Read`]. Handles both byte orders.
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
}

impl<R: Read> PcapReader<R> {
    /// Read and validate the global header.
    // allow_lint(L1): constant indices into the fixed [u8; 24] header array cannot be out of bounds
    pub fn new(mut inner: R) -> Result<Self> {
        let mut hdr = [0u8; 24];
        inner
            .read_exact(&mut hdr)
            .map_err(|e| NetError::BadPcap(format!("global header unreadable: {e}")))?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            MAGIC => false,
            m if m == MAGIC.swap_bytes() => true,
            other => {
                return Err(NetError::BadPcap(format!(
                    "bad magic {other:#010x} (nanosecond pcap and pcapng are not supported)"
                )))
            }
        };
        let linktype_bytes = [hdr[20], hdr[21], hdr[22], hdr[23]];
        let linktype = if swapped {
            u32::from_be_bytes(linktype_bytes)
        } else {
            u32::from_le_bytes(linktype_bytes)
        };
        if linktype != LINKTYPE_ETHERNET {
            return Err(NetError::BadPcap(format!(
                "unsupported linktype {linktype} (only Ethernet)"
            )));
        }
        Ok(PcapReader { inner, swapped })
    }

    fn read_u32(&self, b: [u8; 4]) -> u32 {
        if self.swapped {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    /// Read the next record; `Ok(None)` at clean end-of-file.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>> {
        self.next_record_into(Vec::new())
    }

    /// [`next_record`](Self::next_record) carrying the frame in `frame`'s
    /// allocation (its contents are discarded) — for callers that get
    /// their records back.
    // allow_lint(L1): constant indices into the fixed [u8; 16] record header cannot be out of bounds
    pub fn next_record_into(&mut self, mut frame: Vec<u8>) -> Result<Option<PcapRecord>> {
        let mut hdr = [0u8; 16];
        match self.inner.read_exact(&mut hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(NetError::Io(e.to_string())),
        }
        let ts_sec = self.read_u32([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let ts_usec = self.read_u32([hdr[4], hdr[5], hdr[6], hdr[7]]);
        let incl_len = self.read_u32([hdr[8], hdr[9], hdr[10], hdr[11]]) as usize;
        if incl_len > SNAPLEN as usize {
            return Err(NetError::BadPcap(format!(
                "record claims {incl_len} bytes, above snaplen"
            )));
        }
        frame.clear();
        frame.resize(incl_len, 0);
        self.inner
            .read_exact(&mut frame)
            .map_err(|e| NetError::BadPcap(format!("record body truncated: {e}")))?;
        Ok(Some(PcapRecord {
            ts_sec,
            ts_usec,
            frame,
        }))
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PcapRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_records() -> Vec<PcapRecord> {
        vec![
            PcapRecord::from_micros(1_300_000_000_000_123, vec![1, 2, 3, 4]),
            PcapRecord::from_micros(1_300_000_000_500_000, vec![0xde, 0xad]),
            PcapRecord::from_micros(1_300_000_001_000_001, vec![]),
        ]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in sample_records() {
            w.write_record(&r).unwrap();
        }
        assert_eq!(w.records_written(), 3);
        let bytes = w.into_inner().unwrap();
        let r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let got: Vec<PcapRecord> = r.map(|x| x.unwrap()).collect();
        assert_eq!(got, sample_records());
    }

    #[test]
    fn timestamp_micros_roundtrip() {
        let r = PcapRecord::from_micros(987_654_321_123_456, vec![]);
        assert_eq!(r.timestamp_micros(), 987_654_321_123_456);
    }

    #[test]
    fn rejects_bad_magic() {
        let bytes = vec![0u8; 24];
        assert!(matches!(
            PcapReader::new(Cursor::new(bytes)),
            Err(NetError::BadPcap(_))
        ));
    }

    #[test]
    fn rejects_wrong_linktype() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let mut bytes = w.into_inner().unwrap();
        bytes[20] = 101; // LINKTYPE_RAW
        assert!(PcapReader::new(Cursor::new(bytes)).is_err());
        w = PcapWriter::new(Vec::new()).unwrap();
        drop(w);
    }

    #[test]
    fn truncated_record_body_is_an_error() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_record(&PcapRecord::from_micros(1, vec![9; 100]))
            .unwrap();
        let mut bytes = w.into_inner().unwrap();
        bytes.truncate(bytes.len() - 10);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.next_record().is_err());
    }

    #[test]
    fn big_endian_capture_is_readable() {
        // Hand-build a big-endian pcap with one 2-byte record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&0i32.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&SNAPLEN.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&8u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&2u32.to_be_bytes()); // incl_len
        bytes.extend_from_slice(&2u32.to_be_bytes()); // orig_len
        bytes.extend_from_slice(&[0xaa, 0xbb]);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.ts_sec, 7);
        assert_eq!(rec.ts_usec, 8);
        assert_eq!(rec.frame, vec![0xaa, 0xbb]);
        assert!(r.next_record().unwrap().is_none());
    }
}
