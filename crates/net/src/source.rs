//! Pluggable ingest: the [`FrameSource`] abstraction the daemon event loop
//! polls instead of iterating a capture directly.
//!
//! Three backends live here, and the one loop drives all of them:
//!
//! * [`PcapFileSource`] — the batch path: a seekable capture file, which is
//!   always either `Ready` or `Eof`.
//! * [`PcapStreamSource`] — a pcap byte stream arriving incrementally
//!   over a pipe/FIFO/socket. Reads are partial and records can straddle
//!   read boundaries, so the source buffers bytes and reports `Pending`
//!   until a whole record is available. This is what makes daemon mode
//!   testable offline: `mkfifo` + `cat trace.pcap > fifo` replays a
//!   capture with real pipe semantics, and tests drive it with a
//!   deliberately dribbling reader.
//! * [`FlowRecSource`] — the NetFlow/IPFIX-style regime: a DNFR export
//!   stream ([`crate::flowrec`]) of mirrored DNS payloads and
//!   pre-aggregated flow summaries, yielded as `Export` records. Export
//!   order is not event order (a flow exports at its *last* packet), so a
//!   bounded reorder buffer releases records in event-time order once the
//!   watermark (max event time seen minus the skew bound) passes them;
//!   overflow past the buffer's capacity force-releases the earliest
//!   record (counted on `dnh_flowrec_skew_overflow_total`), and a record
//!   landing behind the release clock is counted late but still released
//!   — never dropped, never panicking.

use std::collections::BTreeMap;
use std::io::Read;

use dnhunter_telemetry::{tm_count, Metric};

use crate::error::{NetError, Result};
use crate::flowrec::{ExportRecord, FlowRecError};
use crate::pcap::{PcapReader, PcapRecord, LINKTYPE_ETHERNET, MAGIC, SNAPLEN};

/// One poll of a source.
#[derive(Debug)]
pub enum SourcePoll {
    /// A complete captured frame is available.
    Ready(PcapRecord),
    /// A flow-export record is available, released in event-time order.
    Export(ExportRecord),
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

    #[expect(
        clippy::indexing_slicing,
        reason = "every caller checks `pending_len()` covers `at + 4`"
    )]
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
    #[expect(
        clippy::indexing_slicing,
        reason = "offsets are guarded by the pending_len() checks"
    )]
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
        #[expect(
            clippy::indexing_slicing,
            reason = "at least STREAM_READ_CHUNK bytes are free past `end`, by the move above"
        )]
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

/// Flow-record ingest tuning: how much export-time skew the reorder
/// buffer absorbs, and its hard capacity.
#[derive(Debug, Clone)]
pub struct FlowrecConfig {
    /// Watermark lag: a record is released once the maximum event time
    /// seen exceeds its own by this much (export order lags event order by
    /// at most a flow's duration; size this to the probe's active timeout).
    pub skew_micros: u64,
    /// Hard cap on buffered records; beyond it the earliest buffered
    /// record is force-released and counted as a skew overflow.
    pub capacity: usize,
}

impl Default for FlowrecConfig {
    fn default() -> Self {
        FlowrecConfig {
            skew_micros: 60 * 1_000_000,
            capacity: 65_536,
        }
    }
}

/// What the flow-record source counted, for the driver's summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowrecStats {
    /// DNS export records released.
    pub dns_records: u64,
    /// Flow export records released.
    pub flow_records: u64,
    /// Records force-released because the buffer hit capacity.
    pub skew_overflow: u64,
    /// Records released behind the release clock (reordering beyond the
    /// skew bound); processed anyway, never dropped.
    pub late_records: u64,
}

/// The bounded reorder buffer in front of the resolver for the
/// NetFlow/IPFIX regime: DNS must reach Algorithm 1 before the flows it
/// tags, but a flow exports at its *last* packet — so releases follow
/// event time under a watermark, not arrival order.
#[derive(Default)]
struct ReorderBuffer {
    cfg: FlowrecConfig,
    stats: FlowrecStats,
    /// Buffered records by `(event_ts, arrival)`: the release order is
    /// deterministic even among equal timestamps.
    pending: BTreeMap<(u64, u64), ExportRecord>,
    arrival: u64,
    max_event_ts: u64,
    released_ts: u64,
    /// End of stream: every record is in and in order, so every one is
    /// due — the tail releases in exact event order, not as skew
    /// violations.
    sealed: bool,
}

impl ReorderBuffer {
    fn push(&mut self, rec: ExportRecord) {
        let ts = rec.event_ts();
        self.max_event_ts = self.max_event_ts.max(ts);
        self.pending.insert((ts, self.arrival), rec);
        self.arrival += 1;
    }

    /// Pop the earliest buffered record if the watermark passed it or the
    /// buffer is over capacity (a forced release, counted as a skew
    /// overflow), counting what it releases.
    fn release(&mut self) -> Option<ExportRecord> {
        let (&(ts, _), _) = self.pending.first_key_value()?;
        let due = self.sealed || ts <= self.max_event_ts.saturating_sub(self.cfg.skew_micros);
        if !due && self.pending.len() <= self.cfg.capacity.max(1) {
            return None;
        }
        let (_, rec) = self.pending.pop_first()?;
        if !due {
            self.stats.skew_overflow += 1;
            tm_count!(Metric::FlowrecSkewOverflow);
        }
        if ts < self.released_ts {
            // Reordered beyond the skew bound: the resolver sees it out of
            // order (a flow may miss a binding DNS already established for
            // a later clock). Count it; never drop it.
            self.stats.late_records += 1;
            tm_count!(Metric::FlowrecLateRecords);
        }
        self.released_ts = self.released_ts.max(ts);
        match &rec {
            ExportRecord::Dns(_) => {
                self.stats.dns_records += 1;
                tm_count!(Metric::FlowrecDnsRecords);
            }
            ExportRecord::Flow(_) => {
                self.stats.flow_records += 1;
                tm_count!(Metric::FlowrecFlowRecords);
            }
        }
        Some(rec)
    }
}

/// The flow-record backend: decoded DNFR records (a
/// [`crate::FlowRecReader`], owned or borrowed) behind the reorder buffer,
/// released as [`SourcePoll::Export`] in watermarked event-time order.
/// Never `Pending`: the reader blocks.
///
/// A decode error ends the stream, but not before every record decoded
/// ahead of it: the buffer is sealed and drained first, and the error
/// comes back from the poll after the last release.
pub struct FlowRecSource<I> {
    records: I,
    buf: ReorderBuffer,
    /// Set once the reader is done: `Some(Err)` holds its decode error
    /// until the buffer has drained.
    end: Option<std::result::Result<(), FlowRecError>>,
}

impl<I> FlowRecSource<I> {
    /// Wrap a record reader (stream header already validated).
    pub fn new(records: I, cfg: FlowrecConfig) -> Self {
        FlowRecSource {
            records,
            buf: ReorderBuffer {
                cfg,
                ..ReorderBuffer::default()
            },
            end: None,
        }
    }

    /// What the source has released and counted so far.
    pub fn stats(&self) -> FlowrecStats {
        self.buf.stats
    }
}

impl<I> FrameSource for FlowRecSource<I>
where
    I: Iterator<Item = std::result::Result<ExportRecord, FlowRecError>>,
{
    fn poll_next(&mut self) -> Result<SourcePoll> {
        loop {
            if let Some(rec) = self.buf.release() {
                return Ok(SourcePoll::Export(rec));
            }
            if let Some(end) = self.end.as_mut() {
                return match std::mem::replace(end, Ok(())) {
                    Ok(()) => Ok(SourcePoll::Eof),
                    Err(e) => Err(NetError::FlowRec(e)),
                };
            }
            match self.records.next() {
                Some(Ok(rec)) => self.buf.push(rec),
                end => {
                    if matches!(end, Some(Err(_))) {
                        tm_count!(Metric::FlowrecDecodeErrors);
                    }
                    self.buf.sealed = true;
                    self.end = Some(end.map_or(Ok(()), |r| r.map(drop)));
                }
            }
        }
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
                SourcePoll::Export(rec) => panic!("a pcap source yielded {rec:?}"),
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
                    SourcePoll::Export(rec) => panic!("a pcap source yielded {rec:?}"),
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

    fn dns(ts: u64) -> ExportRecord {
        ExportRecord::Dns(crate::DnsExportRecord {
            ts_micros: ts,
            client: "10.0.0.1".parse().unwrap(),
            message: vec![0; 4],
        })
    }

    #[test]
    fn reorder_buffer_releases_in_event_order_within_skew() {
        let mut buf = ReorderBuffer {
            cfg: FlowrecConfig {
                skew_micros: 250,
                capacity: 16,
            },
            ..ReorderBuffer::default()
        };
        for ts in [500u64, 100, 300, 900, 200] {
            buf.push(dns(ts));
        }
        // Watermark = 900 - 250 = 650: releases 100, 200, 300, 500.
        let mut released = Vec::new();
        while let Some(rec) = buf.release() {
            released.push(rec.event_ts());
        }
        assert_eq!(released, vec![100, 200, 300, 500]);
        assert_eq!(buf.stats.late_records, 0);
        // Capacity pressure forces the 900-ts record out while it is still
        // inside the skew window: that is the overflow the metric counts.
        buf.cfg.capacity = 1;
        buf.push(dns(950));
        assert_eq!(buf.release().map(|r| r.event_ts()), Some(900));
        assert_eq!(buf.stats.skew_overflow, 1);
        assert!(buf.release().is_none());
        // A record behind the release clock is late but still released,
        // and the sealed EOF drain is not a skew violation.
        buf.push(dns(50));
        buf.sealed = true;
        while buf.release().is_some() {}
        assert_eq!(buf.stats.late_records, 1);
        assert_eq!(buf.stats.skew_overflow, 1);
        assert_eq!(buf.stats.dns_records, 7);
    }

    #[test]
    fn flowrec_source_drains_what_it_decoded_before_an_error() {
        // Six records, the last two after a decode error: the four decoded
        // ahead of it all come out, in event order, before the error does.
        let mut records: Vec<std::result::Result<ExportRecord, FlowRecError>> =
            [400u64, 100, 300, 200].map(|ts| Ok(dns(ts))).into();
        records.push(Err(FlowRecError::Truncated));
        records.push(Ok(dns(50)));
        let mut src = FlowRecSource::new(records.into_iter(), FlowrecConfig::default());
        let mut released = Vec::new();
        let err = loop {
            match src.poll_next() {
                Ok(SourcePoll::Export(rec)) => released.push(rec.event_ts()),
                Ok(other) => panic!("unexpected poll {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(released, [100, 200, 300, 400]);
        assert_eq!(err, NetError::FlowRec(FlowRecError::Truncated));
        assert_eq!(src.stats().dns_records, 4);
        assert!(matches!(src.poll_next(), Ok(SourcePoll::Eof)));
    }
}
