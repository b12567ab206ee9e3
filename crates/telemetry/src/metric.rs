//! The static metric catalog.
//!
//! Every observable in the pipeline is one variant of [`Metric`]; the
//! registry is a flat array indexed by the variant, so an update is a
//! single relaxed atomic RMW with no map lookup, no lock, and no
//! allocation. Adding a metric means adding a variant, a row in
//! [`Metric::ALL`], and an arm in [`Metric::info`] — the compiler then
//! sizes every registry and snapshot for it.

/// How a metric's scalar cell is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone non-negative sum; exported as `*_total`.
    Counter,
    /// Signed level tracked by additive deltas (stored two's-complement
    /// in the same `u64` cell so updates stay a single `fetch_add`).
    Gauge,
    /// Log2-bucketed distribution with `sum` and `count` cells.
    Histogram,
}

/// Determinism class (see DESIGN.md "Telemetry and live monitoring").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fully determined by the input trace: sequential and merged
    /// parallel runs agree exactly. Only these appear in the default
    /// exposition, which is what makes final snapshots byte-identical
    /// across worker counts.
    Stable,
    /// Depends on run shape (timings, batching, queue depths, parse-call
    /// counts that differ between the sequential and two-stage drivers).
    /// Exported only when runtime metrics are explicitly requested.
    Runtime,
}

/// Static description of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricInfo {
    /// Prometheus exposition name (`dnh_` prefix, `_total` for counters).
    pub name: &'static str,
    /// One-line `# HELP` text.
    pub help: &'static str,
    pub kind: Kind,
    pub class: Class,
}

macro_rules! metrics {
    ($( $variant:ident => $name:literal, $kind:ident, $class:ident, $help:literal; )+) => {
        /// Every metric the pipeline records. Discriminants are the
        /// registry array indices.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Metric {
            $( $variant, )+
        }

        impl Metric {
            /// Number of metrics (registry/snapshot array length).
            pub const COUNT: usize = [$( Metric::$variant, )+].len();

            /// All metrics in declaration (= exposition) order.
            pub const ALL: [Metric; Metric::COUNT] = [$( Metric::$variant, )+];

            /// Static name/help/kind/class for this metric.
            pub const fn info(self) -> MetricInfo {
                match self {
                    $( Metric::$variant => MetricInfo {
                        name: $name,
                        help: $help,
                        kind: Kind::$kind,
                        class: Class::$class,
                    }, )+
                }
            }
        }
    };
}

metrics! {
    // --- Stable: determined by the trace alone -------------------------
    IngestFrames => "dnh_ingest_frames_total", Counter, Stable,
        "Frames fed to the sniffer ingest loop";
    IngestDnsQueries => "dnh_ingest_dns_queries_total", Counter, Stable,
        "Client DNS queries observed (used for response-time pairing)";
    NetFramesMalformed => "dnh_net_frames_malformed_total", Counter, Stable,
        "Frames rejected by the Ethernet/IP/transport parser (other than truncation or checksum failure)";
    NetFramesTruncated => "dnh_net_frames_truncated_total", Counter, Stable,
        "Frames cut short of a header or length field (snaplen truncation at the capture point)";
    NetChecksumErrors => "dnh_net_checksum_errors_total", Counter, Stable,
        "Frames rejected by a failed header checksum (on-the-wire corruption)";
    DnsMessagesDecoded => "dnh_dns_messages_decoded_total", Counter, Stable,
        "DNS messages decoded successfully (UDP payloads and TCP stream records)";
    DnsDecodeErrors => "dnh_dns_decode_errors_total", Counter, Stable,
        "DNS payloads that failed to decode";
    DnsResponsesSniffed => "dnh_dns_responses_total", Counter, Stable,
        "DNS responses handed to the resolver (Algorithm 1 insert path)";
    ResolverLookups => "dnh_resolver_lookups_total", Counter, Stable,
        "Resolver lookups on flow start";
    ResolverHits => "dnh_resolver_hits_total", Counter, Stable,
        "Resolver lookups that returned an FQDN";
    ResolverBindings => "dnh_resolver_bindings_total", Counter, Stable,
        "(server IP, client) -> FQDN bindings created";
    ResolverEvictions => "dnh_resolver_evictions_total", Counter, Stable,
        "Clist FIFO slots recycled";
    ResolverConfusion => "dnh_resolver_label_confusion_total", Counter, Stable,
        "Bindings that replaced an existing binding with a different FQDN";
    ClistOccupancy => "dnh_resolver_clist_occupancy", Gauge, Stable,
        "Live entries across the resolver's circular lists";
    FlowsStarted => "dnh_flow_started_total", Counter, Stable,
        "TCP/UDP flows opened in the flow table";
    FlowsFinished => "dnh_flow_finished_total", Counter, Stable,
        "Flows closed (FIN/RST, idle eviction, SYN reuse, or final flush)";
    FlowSynReuse => "dnh_flow_syn_reuse_total", Counter, Stable,
        "Flows terminated early because their 4-tuple was reused by a new SYN";
    FlowMidstreamStarts => "dnh_flow_midstream_starts_total", Counter, Stable,
        "TCP flows whose first observed segment carried no SYN (capture started mid-stream)";
    TcpSeqGap => "dnh_tcp_seq_gap_total", Counter, Stable,
        "TCP segments starting beyond the expected sequence number (packet loss or reordering gap)";
    TcpSeqRewind => "dnh_tcp_seq_rewind_total", Counter, Stable,
        "TCP segments starting below the expected sequence number (duplicate, retransmission, or late reordered delivery)";
    FlowTableSize => "dnh_flow_table_size", Gauge, Stable,
        "Flows currently live in the flow table";
    TagAttempts => "dnh_tag_attempts_total", Counter, Stable,
        "Flow starts that consulted the resolver for a tag (post-warmup)";
    TagHits => "dnh_tag_hits_total", Counter, Stable,
        "Flow starts tagged with an FQDN at SYN time (post-warmup)";
    DpiHttp => "dnh_dpi_verdict_http_total", Counter, Stable,
        "Finished flows classified HTTP by the DPI baseline";
    DpiTls => "dnh_dpi_verdict_tls_total", Counter, Stable,
        "Finished flows classified TLS by the DPI baseline";
    DpiP2p => "dnh_dpi_verdict_p2p_total", Counter, Stable,
        "Finished flows classified P2P by the DPI baseline";
    DpiDns => "dnh_dpi_verdict_dns_total", Counter, Stable,
        "Finished flows classified DNS by the DPI baseline";
    DpiMail => "dnh_dpi_verdict_mail_total", Counter, Stable,
        "Finished flows classified mail by the DPI baseline";
    DpiChat => "dnh_dpi_verdict_chat_total", Counter, Stable,
        "Finished flows classified chat by the DPI baseline";
    DpiOther => "dnh_dpi_verdict_other_total", Counter, Stable,
        "Finished flows the DPI baseline could not classify";
    FlowrecDnsRecords => "dnh_flowrec_dns_records_total", Counter, Stable,
        "DNS answer records ingested from a flow-record export stream";
    FlowrecFlowRecords => "dnh_flowrec_flow_records_total", Counter, Stable,
        "Flow export records ingested from a flow-record export stream";
    FlowrecDecodeErrors => "dnh_flowrec_decode_errors_total", Counter, Stable,
        "Flow-record stream records rejected by the codec or the DNS decoder";
    FlowrecSkewOverflow => "dnh_flowrec_skew_overflow_total", Counter, Stable,
        "Flow-record reorder-buffer overflows: a record released early because the skew buffer hit capacity";
    FlowrecLateRecords => "dnh_flowrec_late_records_total", Counter, Stable,
        "Flow-record stream records that arrived later than the reorder watermark allows (processed anyway, possibly mis-ordered)";
    DaemonRotations => "dnh_daemon_rotations_total", Counter, Stable,
        "Daemon state rotations driven by the packet clock";
    WindowBucketsRetired => "dnh_window_buckets_retired_total", Counter, Stable,
        "Windowed-analytics buckets retired and emitted by state rotation";
    WindowLateEvents => "dnh_window_late_events_total", Counter, Stable,
        "Windowed-analytics events that arrived for an already-retired bucket (possible only under injected reordering)";

    // --- Runtime: depends on driver shape / wall clock -----------------
    NetParses => "dnh_net_parses_total", Counter, Runtime,
        "Successful frame parses";
    PipelineItemsRouted => "dnh_pipeline_items_routed_total", Counter, Runtime,
        "Items (DNS responses, flow starts, finished flows) routed to a worker shard by the dispatcher";
    PipelineBatchesSent => "dnh_pipeline_batches_total", Counter, Runtime,
        "Batches flushed into worker rings";
    PipelineSendStalls => "dnh_pipeline_send_stalls_total", Counter, Runtime,
        "Blocking sends that found a worker ring full (backpressure stalls)";
    DispatchBusyNanos => "dnh_pipeline_dispatch_busy_nanos_total", Counter, Runtime,
        "Dispatcher busy time outside blocking channel sends, in nanoseconds";
    SendWaitNanos => "dnh_pipeline_send_wait_nanos_total", Counter, Runtime,
        "Dispatcher time blocked in channel sends, in nanoseconds";
    WorkerBusyNanos => "dnh_pipeline_worker_busy_nanos_total", Counter, Runtime,
        "Worker busy time processing batches, in nanoseconds";
    MergeNanos => "dnh_report_merge_nanos_total", Counter, Runtime,
        "Time spent assembling/merging the final report, in nanoseconds";
    RingOccupancy => "dnh_pipeline_ring_occupancy", Histogram, Runtime,
        "Worker-ring depth (batches queued) observed at each blocking send";
    BatchItems => "dnh_pipeline_batch_items", Histogram, Runtime,
        "Items per batch flushed to a worker ring";
    TraceEventsDropped => "dnh_trace_events_dropped_total", Counter, Runtime,
        "Flight-recorder records overwritten before export (trace ring wrapped)";
    WindowRetractUnderflow => "dnh_window_retract_underflow_total", Counter, Runtime,
        "Windowed-analytics retractions that underflowed and fell back to a merge-only rebuild (an invariant breach; expected zero)";
}

/// Metrics with histogram cells, in registry histogram-slot order.
pub const HIST_METRICS: [Metric; 2] = [Metric::RingOccupancy, Metric::BatchItems];

/// Number of histogram slots in a registry.
pub const HIST_COUNT: usize = HIST_METRICS.len();

impl Metric {
    /// Registry scalar index.
    #[inline]
    pub const fn idx(self) -> usize {
        self as usize
    }

    /// Histogram slot for histogram metrics, `None` otherwise.
    #[inline]
    pub const fn hist_idx(self) -> Option<usize> {
        match self {
            Metric::RingOccupancy => Some(0),
            Metric::BatchItems => Some(1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        assert_eq!(Metric::ALL.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.idx(), i, "{m:?} discriminant mismatch");
        }
        // Names are unique and well-formed.
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.info().name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT, "duplicate metric name");
        for m in Metric::ALL {
            let info = m.info();
            assert!(info.name.starts_with("dnh_"), "{}", info.name);
            if info.kind == Kind::Counter {
                assert!(info.name.ends_with("_total"), "{}", info.name);
            }
            assert!(!info.help.is_empty());
        }
    }

    #[test]
    fn hist_slots_match_catalog() {
        for (slot, m) in HIST_METRICS.iter().enumerate() {
            assert_eq!(m.hist_idx(), Some(slot));
            assert_eq!(m.info().kind, Kind::Histogram);
        }
        let hist_count = Metric::ALL
            .iter()
            .filter(|m| m.info().kind == Kind::Histogram)
            .count();
        assert_eq!(hist_count, HIST_COUNT);
        for m in Metric::ALL {
            assert_eq!(m.hist_idx().is_some(), m.info().kind == Kind::Histogram);
        }
    }
}
