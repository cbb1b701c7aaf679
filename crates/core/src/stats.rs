//! Run statistics: per-stream throughput, fairness and utilization.
//!
//! Every table in the paper reports per-stream throughput in packets per
//! second over the post-warm-up window ("Simulations are typically run
//! between 500 and 2000 seconds, with a warmup period of 50 seconds").
//! [`RunReport`] carries exactly those numbers, plus Jain's fairness index
//! (the standard quantification of the paper's informal "fair allocation"
//! criterion) and channel utilization.

use macaw_mac::wmac::MacStats;
use macaw_sim::QueueStats;

/// Per-stream measurements over the post-warm-up window.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Stream label (e.g. "P1-B").
    pub name: String,
    /// Source station name.
    pub src: String,
    /// Destination station name (or `mcast:<group>`).
    pub dst: String,
    /// Application packets generated in the window.
    pub offered: u64,
    /// Application packets delivered at the sink in the window.
    pub delivered: u64,
    /// Offered load in packets per second.
    pub offered_pps: f64,
    /// Delivered throughput in packets per second — the paper's metric.
    pub throughput_pps: f64,
    /// Delivered payload bytes in the window.
    pub delivered_bytes: u64,
}

/// The result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Length of the measurement window in seconds.
    pub measured_secs: f64,
    /// Per-stream results, in stream declaration order.
    pub streams: Vec<StreamReport>,
    /// Station names, by station index.
    pub station_names: Vec<String>,
    /// Per-station MAC counters (None for MACs without them).
    pub mac_stats: Vec<Option<MacStats>>,
    /// Per-station count of packets the MAC gave up on after exhausting
    /// its retries (the "give up and report the drop" terminal path).
    pub mac_drops: Vec<u64>,
    /// Seconds of post-warm-up air time occupied by DATA frames.
    pub data_air_secs: f64,
    /// Seconds of post-warm-up air time occupied by all frames.
    pub total_air_secs: f64,
    /// Total simulation events dispatched over the whole run (including
    /// warm-up) — the numerator of engine events-per-second throughput.
    /// Queue pops plus dispatched timers; a deferral expiry at a station
    /// with nothing to send is parked, not dispatched, and not counted (see
    /// `Network::events_processed`).
    pub events_processed: u64,
    /// Future-event-list operation counters (schedules, pops,
    /// cancellations, live-depth high-water mark). Pure functions of the
    /// event trajectory, so they are identical across FEL backends — the
    /// queue-equivalence tests compare them bitwise along with everything
    /// else. The high-water mark is the **sum of per-island high-water
    /// marks** (see `Network::queue_stats`), which makes it decompose over
    /// coupling islands and reproduce bitwise under the sharded engine too.
    pub queue_stats: QueueStats,
}

impl RunReport {
    /// Throughput of the stream named `name`, in packets per second.
    ///
    /// # Panics
    /// Panics if no stream has that name (a typo in an experiment is a bug
    /// worth failing loudly on).
    pub fn throughput(&self, name: &str) -> f64 {
        self.stream(name).throughput_pps
    }

    /// The full report for the stream named `name`.
    pub fn stream(&self, name: &str) -> &StreamReport {
        self.streams
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no stream named {name:?}"))
    }

    /// Sum of all stream throughputs, in packets per second.
    pub fn total_throughput(&self) -> f64 {
        self.streams.iter().map(|s| s.throughput_pps).sum()
    }

    /// Jain's fairness index over all streams:
    /// `(Σx)² / (n · Σx²)` — 1.0 is perfectly fair, 1/n is a single winner.
    pub fn jain_fairness(&self) -> f64 {
        jain(&self
            .streams
            .iter()
            .map(|s| s.throughput_pps)
            .collect::<Vec<_>>())
    }

    /// Jain's fairness index over a named subset of streams.
    pub fn jain_fairness_of(&self, names: &[&str]) -> f64 {
        jain(&names
            .iter()
            .map(|n| self.throughput(n))
            .collect::<Vec<_>>())
    }

    /// Fraction of the measurement window occupied by DATA frames
    /// (the paper's "channel capacity" percentages in §3.5).
    pub fn data_utilization(&self) -> f64 {
        if self.measured_secs > 0.0 {
            self.data_air_secs / self.measured_secs
        } else {
            0.0
        }
    }

    /// Render the per-stream table as aligned text (the format the benches
    /// print next to the paper's numbers).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12}\n",
            "stream", "offered/s", "delivered/s", "delivered"
        ));
        for s in &self.streams {
            out.push_str(&format!(
                "{:<12} {:>12.2} {:>12.2} {:>12}\n",
                s.name, s.offered_pps, s.throughput_pps, s.delivered
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12.2} {:>12.2}\n",
            "TOTAL",
            self.streams.iter().map(|s| s.offered_pps).sum::<f64>(),
            self.total_throughput()
        ));
        out
    }
}

/// Escape a name for the one-token-per-field cache text format.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let code: String = chars.by_ref().take(2).collect();
        match code.as_str() {
            "25" => out.push('%'),
            "20" => out.push(' '),
            "09" => out.push('\t'),
            "0A" => out.push('\n'),
            other => {
                // Unknown escape: keep it verbatim (never produced by esc).
                out.push('%');
                out.push_str(other);
            }
        }
    }
    out
}

/// The cache text format version. Bump when the format (or the set of
/// fields in [`RunReport`]) changes, so stale cache entries from an older
/// build parse-fail into a miss instead of deserializing garbage. v4: the
/// `events` line no longer counts silent deferral expiries (parked MAC
/// timers), so a v3 entry's event count would be stale.
const CACHE_FORMAT: &str = "macaw-runreport v4";

impl RunReport {
    /// Serialize for the fingerprint-keyed run cache: a line-oriented text
    /// form that round-trips *exactly* — every f64 is printed as its
    /// shortest round-trippable decimal (Rust's `{:?}`), so
    /// `from_cache_text(to_cache_text(r)) == r` down to the bit patterns.
    pub fn to_cache_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CACHE_FORMAT);
        out.push('\n');
        out.push_str(&format!("measured_secs {:?}\n", self.measured_secs));
        for s in &self.streams {
            out.push_str(&format!(
                "stream {} {} {} {} {} {:?} {:?} {}\n",
                esc(&s.name),
                esc(&s.src),
                esc(&s.dst),
                s.offered,
                s.delivered,
                s.offered_pps,
                s.throughput_pps,
                s.delivered_bytes
            ));
        }
        for n in &self.station_names {
            out.push_str(&format!("station {}\n", esc(n)));
        }
        for m in &self.mac_stats {
            match m {
                None => out.push_str("macstat -\n"),
                Some(m) => out.push_str(&format!(
                    "macstat {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                    m.enqueued,
                    m.refused,
                    m.rts_sent,
                    m.cts_sent,
                    m.ds_sent,
                    m.data_sent,
                    m.ack_sent,
                    m.rrts_sent,
                    m.nack_sent,
                    m.rts_timeouts,
                    m.ack_timeouts,
                    m.data_delivered,
                    m.packets_sent_ok,
                    m.packets_dropped
                )),
            }
        }
        out.push_str("mac_drops");
        for d in &self.mac_drops {
            out.push_str(&format!(" {d}"));
        }
        out.push('\n');
        out.push_str(&format!(
            "air {:?} {:?}\n",
            self.data_air_secs, self.total_air_secs
        ));
        out.push_str(&format!("events {}\n", self.events_processed));
        out.push_str(&format!(
            "queue {} {} {} {}\n",
            self.queue_stats.scheduled,
            self.queue_stats.popped,
            self.queue_stats.cancelled,
            self.queue_stats.high_water
        ));
        out.push_str("end\n");
        out
    }

    /// Parse the [`RunReport::to_cache_text`] form. Any structural problem
    /// — wrong version header, malformed line, truncated file (an
    /// interrupted write) — is an `Err`, which the run cache treats as a
    /// miss and recomputes.
    pub fn from_cache_text(text: &str) -> Result<RunReport, String> {
        fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
            tok.ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|_| format!("malformed {what}"))
        }
        let mut lines = text.lines();
        if lines.next() != Some(CACHE_FORMAT) {
            return Err("bad cache format header".to_string());
        }
        let mut report = RunReport {
            measured_secs: 0.0,
            streams: Vec::new(),
            station_names: Vec::new(),
            mac_stats: Vec::new(),
            mac_drops: Vec::new(),
            data_air_secs: 0.0,
            total_air_secs: 0.0,
            events_processed: 0,
            queue_stats: QueueStats::default(),
        };
        let mut complete = false;
        for line in lines {
            let mut t = line.split(' ');
            match t.next() {
                Some("measured_secs") => report.measured_secs = num(t.next(), "measured_secs")?,
                Some("stream") => report.streams.push(StreamReport {
                    name: unesc(t.next().ok_or("missing stream name")?),
                    src: unesc(t.next().ok_or("missing stream src")?),
                    dst: unesc(t.next().ok_or("missing stream dst")?),
                    offered: num(t.next(), "offered")?,
                    delivered: num(t.next(), "delivered")?,
                    offered_pps: num(t.next(), "offered_pps")?,
                    throughput_pps: num(t.next(), "throughput_pps")?,
                    delivered_bytes: num(t.next(), "delivered_bytes")?,
                }),
                Some("station") => report
                    .station_names
                    .push(unesc(t.next().ok_or("missing station name")?)),
                Some("macstat") => match t.clone().next() {
                    Some("-") => report.mac_stats.push(None),
                    _ => report.mac_stats.push(Some(MacStats {
                        enqueued: num(t.next(), "enqueued")?,
                        refused: num(t.next(), "refused")?,
                        rts_sent: num(t.next(), "rts_sent")?,
                        cts_sent: num(t.next(), "cts_sent")?,
                        ds_sent: num(t.next(), "ds_sent")?,
                        data_sent: num(t.next(), "data_sent")?,
                        ack_sent: num(t.next(), "ack_sent")?,
                        rrts_sent: num(t.next(), "rrts_sent")?,
                        nack_sent: num(t.next(), "nack_sent")?,
                        rts_timeouts: num(t.next(), "rts_timeouts")?,
                        ack_timeouts: num(t.next(), "ack_timeouts")?,
                        data_delivered: num(t.next(), "data_delivered")?,
                        packets_sent_ok: num(t.next(), "packets_sent_ok")?,
                        packets_dropped: num(t.next(), "packets_dropped")?,
                    })),
                },
                Some("mac_drops") => {
                    for tok in t {
                        report.mac_drops.push(num(Some(tok), "mac_drops entry")?);
                    }
                }
                Some("air") => {
                    report.data_air_secs = num(t.next(), "data_air_secs")?;
                    report.total_air_secs = num(t.next(), "total_air_secs")?;
                }
                Some("events") => report.events_processed = num(t.next(), "events")?,
                Some("queue") => {
                    report.queue_stats = QueueStats {
                        scheduled: num(t.next(), "queue scheduled")?,
                        popped: num(t.next(), "queue popped")?,
                        cancelled: num(t.next(), "queue cancelled")?,
                        high_water: num(t.next(), "queue high_water")?,
                    }
                }
                Some("end") => {
                    complete = true;
                    break;
                }
                other => return Err(format!("unknown cache line {other:?}")),
            }
        }
        if !complete {
            return Err("truncated cache entry".to_string());
        }
        Ok(report)
    }
}

/// Jain's fairness index of a throughput vector.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        // All-zero allocation: degenerate but conventionally "fair".
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_of_equal_allocation_is_one() {
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_of_single_winner_is_one_over_n() {
        let j = jain(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_handles_edge_cases() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[7.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain(&[1.0, 2.0, 3.0]);
        let b = jain(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    fn report_with(tputs: &[(&str, f64)]) -> RunReport {
        RunReport {
            measured_secs: 10.0,
            streams: tputs
                .iter()
                .map(|(n, t)| StreamReport {
                    name: n.to_string(),
                    src: "s".into(),
                    dst: "d".into(),
                    offered: 0,
                    delivered: (t * 10.0) as u64,
                    offered_pps: 64.0,
                    throughput_pps: *t,
                    delivered_bytes: 0,
                })
                .collect(),
            station_names: vec![],
            mac_stats: vec![],
            mac_drops: vec![],
            data_air_secs: 4.0,
            total_air_secs: 5.0,
            events_processed: 0,
            queue_stats: QueueStats::default(),
        }
    }

    #[test]
    fn report_lookup_and_totals() {
        let r = report_with(&[("a", 20.0), ("b", 30.0)]);
        assert_eq!(r.throughput("a"), 20.0);
        assert_eq!(r.total_throughput(), 50.0);
        assert!((r.jain_fairness_of(&["a", "b"]) - jain(&[20.0, 30.0])).abs() < 1e-12);
        assert!((r.data_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no stream named")]
    fn unknown_stream_name_panics() {
        let r = report_with(&[("a", 20.0)]);
        let _ = r.throughput("nope");
    }

    #[test]
    fn cache_text_roundtrips_bitwise() {
        let mut r = report_with(&[("P1-B", 23.82), ("error 0.001", 1.0 / 3.0)]);
        r.station_names = vec!["B".into(), "P 1".into()];
        r.mac_stats = vec![
            None,
            Some(MacStats {
                enqueued: 1,
                refused: 2,
                rts_sent: 3,
                cts_sent: 4,
                ds_sent: 5,
                data_sent: 6,
                ack_sent: 7,
                rrts_sent: 8,
                nack_sent: 9,
                rts_timeouts: 10,
                ack_timeouts: 11,
                data_delivered: 12,
                packets_sent_ok: 13,
                packets_dropped: 14,
            }),
        ];
        r.mac_drops = vec![0, 7];
        r.events_processed = 123_456;
        r.queue_stats = QueueStats {
            scheduled: 9,
            popped: 8,
            cancelled: 7,
            high_water: 6,
        };
        let back = RunReport::from_cache_text(&r.to_cache_text()).unwrap();
        assert_eq!(r, back);
        // Debug equality is f64 bit equality (shortest round-trip floats).
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
    }

    #[test]
    fn cache_text_rejects_garbage_and_truncation() {
        assert!(RunReport::from_cache_text("not a report").is_err());
        let full = report_with(&[("a", 1.5)]).to_cache_text();
        // Drop the "end" terminator: an interrupted write must not parse.
        let truncated = full.trim_end_matches("end\n");
        assert!(RunReport::from_cache_text(truncated).is_err());
        // A stale-format header must parse-fail into a miss.
        let wrong_version = full.replacen("v4", "v1", 1);
        assert!(RunReport::from_cache_text(&wrong_version).is_err());
    }

    #[test]
    fn table_renders_all_streams() {
        let r = report_with(&[("a", 20.0), ("b", 30.0)]);
        let t = r.table();
        assert!(t.contains("a") && t.contains("b") && t.contains("TOTAL"));
    }
}
