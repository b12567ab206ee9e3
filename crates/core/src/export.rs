//! The labeled-flow database's three exports. A flow log in the spirit of
//! Tstat's `log_tcp_complete` — the tool DN-Hunter shipped inside at the
//! paper's EU1 vantage points (§2.1): one space-separated row per flow, with
//! the DN-Hunter FQDN as the final column; a CSV variant for
//! spreadsheet-side analysis; and JSON lines carrying every row field.

use std::io::{self, Write};

use crate::db::{FlowDatabase, TaggedFlow};
use crate::json::{push_bool, push_opt, push_str, push_u64};

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

/// Write the database as CSV with the same columns. The FQDN is quoted,
/// with any `"` inside it doubled (RFC 4180 §2.7): a wire name may hold
/// any octet, `,` and `"` included.
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
            f.fqdn
                .as_ref()
                .map(|x| x.to_string().replace('"', "\"\""))
                .unwrap_or_default(),
        )?;
    }
    Ok(())
}

/// Write the database as JSON lines, one object per row: the
/// [`TaggedFlow`] fields in declaration order, with `alt_labels` left out
/// when empty and `tls` when absent.
pub fn write_json_lines<W: Write>(db: &FlowDatabase, mut w: W) -> io::Result<()> {
    let mut line = String::new();
    for f in db.flows() {
        line.clear();
        push_json_row(&mut line, f);
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

fn push_json_row(out: &mut String, f: &TaggedFlow) {
    let name = |out: &mut String, n: &dnhunter_dns::DomainName| push_str(out, &n.to_string());
    let k = &f.key;
    out.push_str("{\"key\":{\"client\":");
    push_str(out, &k.client.to_string());
    out.push_str(",\"server\":");
    push_str(out, &k.server.to_string());
    out.push_str(",\"client_port\":");
    push_u64(out, k.client_port.into());
    out.push_str(",\"server_port\":");
    push_u64(out, k.server_port.into());
    out.push_str(",\"protocol\":");
    push_u64(out, k.protocol.into());
    out.push_str("},\"fqdn\":");
    push_opt(out, f.fqdn.as_ref(), name);
    out.push_str(",\"second_level\":");
    push_opt(out, f.second_level.as_ref(), name);
    if !f.alt_labels.is_empty() {
        out.push_str(",\"alt_labels\":[");
        for (i, n) in f.alt_labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            name(out, n);
        }
        out.push(']');
    }
    out.push_str(",\"tag_delay_micros\":");
    push_opt(out, f.tag_delay_micros, push_u64);
    for (key, v) in [
        ("first_ts", f.first_ts),
        ("last_ts", f.last_ts),
        ("packets_c2s", f.packets_c2s),
        ("packets_s2c", f.packets_s2c),
        ("bytes_c2s", f.bytes_c2s),
        ("bytes_s2c", f.bytes_s2c),
    ] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        push_u64(out, v);
    }
    // The variant name (`Tls`, `P2p`, …), not the Tstat `label()`.
    out.push_str(",\"protocol\":");
    push_str(out, &format!("{:?}", f.protocol));
    if let Some(tls) = &f.tls {
        out.push_str(",\"tls\":{\"sni\":");
        push_opt(out, tls.sni.as_deref(), push_str);
        out.push_str(",\"certificate_cn\":");
        push_opt(out, tls.certificate_cn.as_deref(), push_str);
        out.push_str(",\"server_hello\":");
        push_bool(out, tls.server_hello);
        out.push_str(",\"certificate_seen\":");
        push_bool(out, tls.certificate_seen);
        out.push('}');
    }
    out.push_str(",\"in_warmup\":");
    push_bool(out, f.in_warmup);
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_dns::suffix::SuffixSet;
    use dnhunter_flow::{tls::TlsInfo, AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    /// An unlabelled flow `client → server` over `proto`, with its
    /// timestamps and packet and byte counters.
    fn row(
        (client, client_port): (&str, u16),
        (server, server_port): (&str, u16),
        proto: IpProtocol,
        [first_ts, last_ts, packets_c2s, packets_s2c, bytes_c2s, bytes_s2c]: [u64; 6],
        protocol: AppProtocol,
    ) -> TaggedFlow {
        let (client, server) = (client.parse().unwrap(), server.parse().unwrap());
        TaggedFlow {
            key: FlowKey::from_initiator(client, server, client_port, server_port, proto),
            fqdn: None,
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: None,
            first_ts,
            last_ts,
            packets_c2s,
            packets_s2c,
            bytes_c2s,
            bytes_s2c,
            protocol,
            tls: None,
            in_warmup: false,
        }
    }

    fn name(n: &str) -> dnhunter_dns::DomainName {
        n.parse().unwrap()
    }

    fn sample_rows() -> Vec<TaggedFlow> {
        vec![
            TaggedFlow {
                fqdn: Some(name("www.example.com")),
                tag_delay_micros: Some(1_000),
                ..row(
                    ("10.0.0.1", 51000),
                    ("93.184.216.34", 443),
                    IpProtocol::Tcp,
                    [5_000_000, 6_500_000, 7, 9, 800, 40_000],
                    AppProtocol::Tls,
                )
            },
            row(
                ("10.0.0.2", 40000),
                ("171.4.4.4", 6881),
                IpProtocol::Tcp,
                [7_000_000, 7_100_000, 3, 3, 300, 9_000],
                AppProtocol::P2p,
            ),
        ]
    }

    /// What `write` prints for the database of `rows`.
    fn render(
        rows: Vec<TaggedFlow>,
        write: impl Fn(&FlowDatabase, &mut Vec<u8>) -> io::Result<()>,
    ) -> String {
        let mut out = Vec::new();
        write(
            &FlowDatabase::from_rows(rows, &SuffixSet::builtin()),
            &mut out,
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn tstat_log_format() {
        let text = render(sample_rows(), |db, w| write_tstat_log(db, w));
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
        let text = render(sample_rows(), |db, w| write_csv(db, w));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], TSTAT_COLUMNS.join(","));
        assert!(lines[1].ends_with(",tls,\"www.example.com\""));
        assert!(lines[2].ends_with(",p2p,\"\""));
    }

    /// Rows covering every shape a `--json` row takes: IPv4 and IPv6
    /// keys, absent label and delay, empty and non-empty `alt_labels`,
    /// absent `tls` and `tls` whose strings need escaping.
    fn json_rows() -> Vec<TaggedFlow> {
        let mut rows = sample_rows();
        rows[0].tls = Some(TlsInfo {
            sni: Some("a\"b\\c\u{1}".into()),
            certificate_cn: Some("cn\u{1}\"\\".into()),
            server_hello: true,
            certificate_seen: false,
        });
        rows.push(TaggedFlow {
            in_warmup: true,
            ..row(
                ("2001:db8::1", 40000),
                ("2001:db8::2", 53),
                IpProtocol::Udp,
                [8_000_000, 8_000_100, 1, 1, 60, 120],
                AppProtocol::Dns,
            )
        });
        rows.push(TaggedFlow {
            fqdn: Some(name("cdn.example.net")),
            alt_labels: vec![name("old.example.net"), name("older.example.org")],
            tag_delay_micros: Some(0),
            tls: Some(TlsInfo::default()),
            ..row(
                ("10.0.0.3", 52000),
                ("198.51.100.7", 80),
                IpProtocol::Tcp,
                [9_000_000, 9_000_500, 4, 5, 400, 5_000],
                AppProtocol::Http,
            )
        });
        rows
    }

    #[test]
    fn json_rows_are_pinned_byte_for_byte() {
        let expected = [
            r#"{"key":{"client":"10.0.0.1","server":"93.184.216.34","client_port":51000,"server_port":443,"protocol":6},"fqdn":"www.example.com","second_level":"example.com","tag_delay_micros":1000,"first_ts":5000000,"last_ts":6500000,"packets_c2s":7,"packets_s2c":9,"bytes_c2s":800,"bytes_s2c":40000,"protocol":"Tls","tls":{"sni":"a\"b\\c\u0001","certificate_cn":"cn\u0001\"\\","server_hello":true,"certificate_seen":false},"in_warmup":false}"#,
            r#"{"key":{"client":"10.0.0.2","server":"171.4.4.4","client_port":40000,"server_port":6881,"protocol":6},"fqdn":null,"second_level":null,"tag_delay_micros":null,"first_ts":7000000,"last_ts":7100000,"packets_c2s":3,"packets_s2c":3,"bytes_c2s":300,"bytes_s2c":9000,"protocol":"P2p","in_warmup":false}"#,
            r#"{"key":{"client":"2001:db8::1","server":"2001:db8::2","client_port":40000,"server_port":53,"protocol":17},"fqdn":null,"second_level":null,"tag_delay_micros":null,"first_ts":8000000,"last_ts":8000100,"packets_c2s":1,"packets_s2c":1,"bytes_c2s":60,"bytes_s2c":120,"protocol":"Dns","in_warmup":true}"#,
            r#"{"key":{"client":"10.0.0.3","server":"198.51.100.7","client_port":52000,"server_port":80,"protocol":6},"fqdn":"cdn.example.net","second_level":"example.net","alt_labels":["old.example.net","older.example.org"],"tag_delay_micros":0,"first_ts":9000000,"last_ts":9000500,"packets_c2s":4,"packets_s2c":5,"bytes_c2s":400,"bytes_s2c":5000,"protocol":"Http","tls":{"sni":null,"certificate_cn":null,"server_hello":false,"certificate_seen":false},"in_warmup":false}"#,
        ];
        assert_eq!(
            render(json_rows(), |db, w| write_json_lines(db, w)),
            expected.map(|l| format!("{l}\n")).concat()
        );
    }

    #[test]
    fn json_rows_escape_line_breaks_as_unicode_and_round_trip() {
        let sni = "line\nbreak\r\tend";
        let mut rows = sample_rows();
        rows.truncate(1);
        rows[0].tls = Some(TlsInfo {
            sni: Some(sni.into()),
            ..TlsInfo::default()
        });
        let text = render(rows, |db, w| write_json_lines(db, w));
        assert!(text.contains(r#""sni":"line\u000abreak\u000d\u0009end""#));
        let row: serde_json::Value = serde_json::from_str(text.trim_end()).unwrap();
        assert_eq!(row["tls"]["sni"], sni);
    }

    /// A response whose question and answer name is `a"b,c.example.com`:
    /// `DomainName::from_str` refuses such a label, the wire does not.
    fn quoted_name() -> dnhunter_dns::DomainName {
        let mut wire = vec![0x12, 0x34, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0];
        for label in ["a\"b,c", "example", "com"] {
            wire.push(label.len() as u8);
            wire.extend_from_slice(label.as_bytes());
        }
        wire.extend_from_slice(&[0, 0, 1, 0, 1]);
        wire.extend_from_slice(&[0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 93, 184, 216, 34]);
        let msg = dnhunter_dns::codec::decode(&wire).unwrap();
        msg.answers[0].name.clone()
    }

    #[test]
    fn csv_doubles_quotes_inside_the_fqdn() {
        let name = quoted_name();
        assert_eq!(name.to_string(), "a\"b,c.example.com");
        let mut rows = sample_rows();
        rows[0].fqdn = Some(name);
        let text = render(rows, |db, w| write_csv(db, w));
        assert_eq!(
            text.lines().nth(1).unwrap(),
            "10.0.0.1,51000,93.184.216.34,443,7,9,800,40000,5000,6500,tls,\"a\"\"b,c.example.com\""
        );
    }

    #[test]
    fn empty_db_writes_header_only() {
        let text = render(Vec::new(), |db, w| write_tstat_log(db, w));
        assert_eq!(text.lines().count(), 1);
    }
}
