//! Pluggable frame ingest: the [`FrameSource`] abstraction the daemon
//! event loop polls instead of iterating a pcap file directly.
//!
//! Two packet backends live here:
//!
//! * [`PcapFileSource`] — the existing batch path: a seekable capture
//!   file, which is always either `Ready` or `Eof`.
//! * [`PcapStreamSource`] — a pcap byte stream arriving incrementally
//!   over a pipe/FIFO/socket. Reads are partial and records can straddle
//!   read boundaries, so the source buffers bytes and reports `Pending`
//!   until a whole record is available. This is what makes daemon mode
//!   testable offline: `mkfifo` + `cat trace.pcap > fifo` replays a
//!   capture with real pipe semantics, and tests drive it with a
//!   deliberately dribbling reader.
//!
//! The third backend (flow records rather than frames) lives in the
//! daemon crate-side correlator; its codec is [`crate::flowrec`].

use std::io::Read;

use crate::error::{NetError, Result};
use crate::pcap::{PcapReader, PcapRecord, LINKTYPE_ETHERNET, MAGIC, SNAPLEN};

/// One poll of a frame source.
#[derive(Debug)]
pub enum SourcePoll {
    /// A complete record is available.
    Ready(PcapRecord),
    /// No complete record yet, but the stream is still open — poll again.
    Pending,
    /// The stream ended cleanly on a record boundary.
    Eof,
}

/// A pollable supplier of captured frames. Unlike an `Iterator`, a source
/// can be `Pending`: mid-record on a live pipe with the writer still
/// attached. The daemon loop turns `Pending` into bounded waiting, which
/// is where backpressure lives.
pub trait FrameSource {
    /// Try to produce the next record without blocking longer than one
    /// underlying read.
    fn poll_next(&mut self) -> Result<SourcePoll>;

    /// Hand back a record the caller is done with, so that its frame
    /// buffer can carry a later one. Purely an economy: dropping the
    /// record instead is always correct, and so is ignoring it here.
    fn recycle(&mut self, _rec: PcapRecord) {}
}

/// The batch backend: a capture file (or any blocking reader holding a
/// complete stream). Never `Pending` — a file either has the next record
/// or has ended.
pub struct PcapFileSource<R: Read> {
    reader: PcapReader<R>,
    /// The last recycled frame buffer, for the next record.
    spare: Vec<u8>,
}

impl<R: Read> PcapFileSource<R> {
    /// Validate the global header and wrap the reader.
    pub fn new(inner: R) -> Result<Self> {
        Ok(PcapFileSource {
            reader: PcapReader::new(inner)?,
            spare: Vec::new(),
        })
    }
}

impl<R: Read> FrameSource for PcapFileSource<R> {
    fn poll_next(&mut self) -> Result<SourcePoll> {
        let spare = std::mem::take(&mut self.spare);
        match self.reader.next_record_into(spare)? {
            Some(rec) => Ok(SourcePoll::Ready(rec)),
            None => Ok(SourcePoll::Eof),
        }
    }

    fn recycle(&mut self, rec: PcapRecord) {
        self.spare = rec.frame;
    }
}

/// How much to ask the underlying reader for per poll. One pipe buffer's
/// worth: large enough to amortize syscalls, small enough to bound the
/// per-poll latency contribution.
const STREAM_READ_CHUNK: usize = 64 * 1024;
/// The stream buffer: the largest record that can be pending plus one
/// read, so that after moving the pending bytes to the front there is
/// always room to ask for a whole chunk.
const STREAM_BUF: usize = 16 + SNAPLEN as usize + STREAM_READ_CHUNK;

/// The live backend: an incrementally-arriving pcap byte stream.
///
/// Each `poll_next` does **at most one** `read()` on the inner reader, so
/// a slow writer can never wedge the event loop for more than one
/// blocking read; everything else is cursor arithmetic over one
/// fixed-size buffer. A zero-byte read is end-of-stream (the FIFO writer
/// closed); ending inside a record is an error, exactly like a truncated
/// capture file.
pub struct PcapStreamSource<R: Read> {
    inner: R,
    /// `STREAM_BUF` bytes, allocated once; `start..end` is unparsed input.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The last recycled frame buffer, for the next record.
    spare: Vec<u8>,
    /// Byte-order flag from the global header, once parsed.
    swapped: Option<bool>,
    eof: bool,
}

impl<R: Read> PcapStreamSource<R> {
    /// Wrap a reader. The global header is parsed lazily from the stream,
    /// so construction never blocks.
    pub fn new(inner: R) -> Self {
        PcapStreamSource {
            inner,
            buf: vec![0; STREAM_BUF],
            start: 0,
            end: 0,
            spare: Vec::new(),
            swapped: None,
            eof: false,
        }
    }

    fn pending_len(&self) -> usize {
        self.end - self.start
    }

    // allow_lint(L1): every caller checks `pending_len()` covers `at + 4`
    // first (the 24-byte global-header and 16-byte record-header gates)
    fn read_u32(&self, at: usize, swapped: bool) -> u32 {
        let b = [
            self.buf[self.start + at],
            self.buf[self.start + at + 1],
            self.buf[self.start + at + 2],
            self.buf[self.start + at + 3],
        ];
        if swapped {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    /// Parse the 24-byte global header if it's fully buffered.
    fn try_parse_header(&mut self) -> Result<bool> {
        if self.pending_len() < 24 {
            return Ok(false);
        }
        let magic = self.read_u32(0, false);
        let swapped = match magic {
            MAGIC => false,
            m if m == MAGIC.swap_bytes() => true,
            other => {
                return Err(NetError::BadPcap(format!(
                "bad magic {other:#010x} on stream (nanosecond pcap and pcapng are not supported)"
            )))
            }
        };
        let linktype = self.read_u32(20, swapped);
        if linktype != LINKTYPE_ETHERNET {
            return Err(NetError::BadPcap(format!(
                "unsupported linktype {linktype} on stream (only Ethernet)"
            )));
        }
        self.start += 24;
        self.swapped = Some(swapped);
        Ok(true)
    }

    /// Parse one record if it's fully buffered.
    // allow_lint(L1): offsets are guarded by the pending_len() checks
    fn try_parse_record(&mut self, swapped: bool) -> Result<Option<PcapRecord>> {
        if self.pending_len() < 16 {
            return Ok(None);
        }
        let incl_len = self.read_u32(8, swapped) as usize;
        if incl_len > SNAPLEN as usize {
            return Err(NetError::BadPcap(format!(
                "stream record claims {incl_len} bytes, above snaplen"
            )));
        }
        if self.pending_len() < 16 + incl_len {
            return Ok(None);
        }
        let ts_sec = self.read_u32(0, swapped);
        let ts_usec = self.read_u32(4, swapped);
        let body_start = self.start + 16;
        let mut frame = std::mem::take(&mut self.spare);
        frame.clear();
        frame.extend_from_slice(&self.buf[body_start..body_start + incl_len]);
        self.start += 16 + incl_len;
        Ok(Some(PcapRecord {
            ts_sec,
            ts_usec,
            frame,
        }))
    }

    /// A complete record from the buffer, if one is there.
    fn drain_buffered(&mut self) -> Result<Option<PcapRecord>> {
        if self.swapped.is_none() && !self.try_parse_header()? {
            return Ok(None);
        }
        // swapped is Some after a successful header parse.
        let Some(swapped) = self.swapped else {
            return Ok(None);
        };
        self.try_parse_record(swapped)
    }

    /// One read into the buffer; returns false at end-of-stream.
    fn fill(&mut self) -> Result<bool> {
        if self.buf.len() - self.end < STREAM_READ_CHUNK {
            // Called only with no complete record buffered, so what moves
            // is less than one record and a chunk fits behind it.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        // allow_lint(L1): at least STREAM_READ_CHUNK bytes are free past `end`, by the move above
        let free = &mut self.buf[self.end..self.end + STREAM_READ_CHUNK];
        loop {
            match self.inner.read(free) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Non-blocking fd with nothing buffered: genuinely
                // pending, not end-of-stream.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }
}

impl<R: Read> FrameSource for PcapStreamSource<R> {
    fn poll_next(&mut self) -> Result<SourcePoll> {
        if let Some(rec) = self.drain_buffered()? {
            return Ok(SourcePoll::Ready(rec));
        }
        if !self.eof {
            self.eof = !self.fill()?;
            if let Some(rec) = self.drain_buffered()? {
                return Ok(SourcePoll::Ready(rec));
            }
        }
        if self.eof {
            if self.pending_len() > 0 || self.swapped.is_none() {
                return Err(NetError::BadPcap(
                    "stream ended mid-record (writer closed early)".into(),
                ));
            }
            return Ok(SourcePoll::Eof);
        }
        Ok(SourcePoll::Pending)
    }

    fn recycle(&mut self, rec: PcapRecord) {
        self.spare = rec.frame;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use std::io::Cursor;

    fn sample_capture() -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..5u64 {
            w.write_record(&PcapRecord::from_micros(
                1_000_000 + i * 37,
                vec![i as u8; (i as usize) * 11 + 1],
            ))
            .unwrap();
        }
        w.into_inner().unwrap()
    }

    /// A reader that hands out at most `chunk` bytes per read — the
    /// hostile-pipe simulator.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.bytes.len() - self.pos);
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn drain<S: FrameSource>(mut src: S) -> Result<Vec<PcapRecord>> {
        let mut out = Vec::new();
        loop {
            match src.poll_next()? {
                SourcePoll::Ready(rec) => out.push(rec),
                SourcePoll::Pending => {}
                SourcePoll::Eof => return Ok(out),
            }
        }
    }

    #[test]
    fn file_source_reads_everything() {
        let bytes = sample_capture();
        let src = PcapFileSource::new(Cursor::new(bytes.clone())).unwrap();
        let via_source = drain(src).unwrap();
        let direct: Vec<PcapRecord> = PcapReader::new(Cursor::new(bytes))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(via_source, direct);
    }

    #[test]
    fn stream_source_matches_file_source_at_every_dribble_size() {
        let bytes = sample_capture();
        let expect: Vec<PcapRecord> = PcapReader::new(Cursor::new(bytes.clone()))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        for chunk in [1usize, 2, 3, 7, 16, 64, 1024] {
            let src = PcapStreamSource::new(Dribble {
                bytes: bytes.clone(),
                pos: 0,
                chunk,
            });
            assert_eq!(drain(src).unwrap(), expect, "chunk={chunk}");
        }
    }

    #[test]
    fn stream_source_moves_its_tail_and_reuses_recycled_frames() {
        // Several buffers' worth of records, one of them as large as a
        // record can be, so the pending tail is moved to the front many
        // times and once with almost no room to spare.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..600usize {
            let len = if i == 300 {
                SNAPLEN as usize
            } else {
                (i * 131) % 3000
            };
            w.write_record(&PcapRecord::from_micros(i as u64, vec![i as u8; len]))
                .unwrap();
        }
        let bytes = w.into_inner().unwrap();
        assert!(bytes.len() > 3 * STREAM_BUF);
        let expect: Vec<PcapRecord> = PcapReader::new(Cursor::new(bytes.clone()))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        for chunk in [999usize, STREAM_READ_CHUNK, usize::MAX] {
            let mut src = PcapStreamSource::new(Dribble {
                bytes: bytes.clone(),
                pos: 0,
                chunk,
            });
            let mut got = 0;
            loop {
                match src.poll_next().unwrap() {
                    SourcePoll::Ready(rec) => {
                        assert_eq!(rec, expect[got], "chunk={chunk} record={got}");
                        got += 1;
                        src.recycle(rec);
                    }
                    SourcePoll::Pending => {}
                    SourcePoll::Eof => break,
                }
            }
            assert_eq!(got, expect.len(), "chunk={chunk}");
            // The one frame buffer grew to the largest record and stayed.
            assert!(src.spare.capacity() >= SNAPLEN as usize);
        }
    }

    #[test]
    fn file_source_reuses_recycled_frames() {
        let bytes = sample_capture();
        let expect = drain(PcapFileSource::new(Cursor::new(bytes.clone())).unwrap()).unwrap();
        let mut src = PcapFileSource::new(Cursor::new(bytes)).unwrap();
        // Hand every record back: later, shorter or longer frames must
        // come out exact from the reused buffer.
        src.recycle(PcapRecord::from_micros(0, vec![0xff; 64]));
        for want in &expect {
            let SourcePoll::Ready(rec) = src.poll_next().unwrap() else {
                panic!("file source not ready");
            };
            assert_eq!(&rec, want);
            src.recycle(rec);
        }
        assert!(matches!(src.poll_next().unwrap(), SourcePoll::Eof));
    }

    #[test]
    fn stream_source_reports_pending_midrecord() {
        let bytes = sample_capture();
        // 30 bytes: past the 24-byte header, inside the first record.
        let mut src = PcapStreamSource::new(Cursor::new(bytes[..30].to_vec()));
        // Cursor returns EOF at the cut, which mid-record is an error; a
        // *still-open* dribble reports Pending instead. Model the open
        // pipe with a reader that yields the prefix then blocks forever
        // via WouldBlock.
        struct Stuck {
            bytes: Vec<u8>,
            pos: usize,
        }
        impl Read for Stuck {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.bytes.len() {
                    let n = out.len().min(self.bytes.len() - self.pos);
                    out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "dry"))
                }
            }
        }
        let mut open = PcapStreamSource::new(Stuck {
            bytes: bytes[..30].to_vec(),
            pos: 0,
        });
        assert!(matches!(open.poll_next().unwrap(), SourcePoll::Pending));
        assert!(matches!(open.poll_next().unwrap(), SourcePoll::Pending));
        // The closed variant errors out (writer hung up mid-record): first
        // poll buffers the partial record, the next poll sees EOF.
        assert!(matches!(src.poll_next().unwrap(), SourcePoll::Pending));
        assert!(src.poll_next().is_err());
    }

    #[test]
    fn stream_source_rejects_bad_magic_and_linktype() {
        let mut src = PcapStreamSource::new(Cursor::new(vec![0u8; 24]));
        assert!(src.poll_next().is_err());

        let mut bytes = sample_capture();
        bytes[20] = 101; // LINKTYPE_RAW
        let mut src = PcapStreamSource::new(Cursor::new(bytes));
        assert!(src.poll_next().is_err());
    }

    #[test]
    fn empty_stream_is_an_error_not_eof() {
        // Zero bytes isn't a capture: no header ever arrived.
        let mut src = PcapStreamSource::new(Cursor::new(Vec::new()));
        assert!(src.poll_next().is_err());
    }
}
