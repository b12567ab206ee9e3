//! Flow-log export in the spirit of Tstat's `log_tcp_complete` — the tool
//! DN-Hunter shipped inside at the paper's EU1 vantage points (§2.1). One
//! space-separated row per flow, with the DN-Hunter FQDN as the final
//! column, plus a CSV variant for spreadsheet-side analysis.

use std::io::{self, Write};

use crate::db::FlowDatabase;

/// Column headers of the Tstat-style log, in order.
pub const TSTAT_COLUMNS: [&str; 12] = [
    "c_ip", "c_port", "s_ip", "s_port", "c_pkts", "s_pkts", "c_bytes", "s_bytes", "first_ms",
    "last_ms", "proto", "fqdn",
];

/// Write the database as a Tstat-style space-separated log. A `#`-prefixed
/// header row names the columns; untagged flows print `-` for the FQDN.
pub fn write_tstat_log<W: Write>(db: &FlowDatabase, mut w: W) -> io::Result<()> {
    writeln!(w, "#{}", TSTAT_COLUMNS.join(" "))?;
    for f in db.flows() {
        writeln!(
            w,
            "{} {} {} {} {} {} {} {} {} {} {} {}",
            f.key.client,
            f.key.client_port,
            f.key.server,
            f.key.server_port,
            f.packets_c2s,
            f.packets_s2c,
            f.bytes_c2s,
            f.bytes_s2c,
            f.first_ts / 1_000,
            f.last_ts / 1_000,
            f.protocol.label(),
            f.fqdn
                .as_ref()
                .map(|x| x.to_string())
                .unwrap_or_else(|| "-".into()),
        )?;
    }
    Ok(())
}

/// Write the database as CSV with the same columns (quoted FQDN).
pub fn write_csv<W: Write>(db: &FlowDatabase, mut w: W) -> io::Result<()> {
    writeln!(w, "{}", TSTAT_COLUMNS.join(","))?;
    for f in db.flows() {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},\"{}\"",
            f.key.client,
            f.key.client_port,
            f.key.server,
            f.key.server_port,
            f.packets_c2s,
            f.packets_s2c,
            f.bytes_c2s,
            f.bytes_s2c,
            f.first_ts / 1_000,
            f.last_ts / 1_000,
            f.protocol.label(),
            f.fqdn.as_ref().map(|x| x.to_string()).unwrap_or_default(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TaggedFlow;
    use dnhunter_dns::suffix::SuffixSet;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    fn sample_db() -> FlowDatabase {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        db.push(
            TaggedFlow {
                key: FlowKey::from_initiator(
                    "10.0.0.1".parse().unwrap(),
                    "93.184.216.34".parse().unwrap(),
                    51000,
                    443,
                    IpProtocol::Tcp,
                ),
                fqdn: Some("www.example.com".parse().unwrap()),
                second_level: None,
                alt_labels: Vec::new(),
                tag_delay_micros: Some(1_000),
                first_ts: 5_000_000,
                last_ts: 6_500_000,
                packets_c2s: 7,
                packets_s2c: 9,
                bytes_c2s: 800,
                bytes_s2c: 40_000,
                protocol: AppProtocol::Tls,
                tls: None,
                in_warmup: false,
            },
            &s,
        );
        db.push(
            TaggedFlow {
                key: FlowKey::from_initiator(
                    "10.0.0.2".parse().unwrap(),
                    "171.4.4.4".parse().unwrap(),
                    40000,
                    6881,
                    IpProtocol::Tcp,
                ),
                fqdn: None,
                second_level: None,
                alt_labels: Vec::new(),
                tag_delay_micros: None,
                first_ts: 7_000_000,
                last_ts: 7_100_000,
                packets_c2s: 3,
                packets_s2c: 3,
                bytes_c2s: 300,
                bytes_s2c: 9_000,
                protocol: AppProtocol::P2p,
                tls: None,
                in_warmup: false,
            },
            &s,
        );
        db
    }

    #[test]
    fn tstat_log_format() {
        let mut out = Vec::new();
        write_tstat_log(&sample_db(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("#c_ip c_port"));
        assert_eq!(
            lines[1],
            "10.0.0.1 51000 93.184.216.34 443 7 9 800 40000 5000 6500 tls www.example.com"
        );
        assert!(lines[2].ends_with(" p2p -"));
        // Every data row has the declared column count.
        for l in &lines[1..] {
            assert_eq!(l.split(' ').count(), TSTAT_COLUMNS.len());
        }
    }

    #[test]
    fn csv_format() {
        let mut out = Vec::new();
        write_csv(&sample_db(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], TSTAT_COLUMNS.join(","));
        assert!(lines[1].ends_with(",tls,\"www.example.com\""));
        assert!(lines[2].ends_with(",p2p,\"\""));
    }

    #[test]
    fn empty_db_writes_header_only() {
        let mut out = Vec::new();
        write_tstat_log(&FlowDatabase::new(), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
    }
}
