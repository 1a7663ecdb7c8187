//! Live scrape endpoint: a zero-dependency HTTP server exposing the
//! metrics registry as Prometheus text exposition plus a `/healthz` probe.
//!
//! Start it with `IST_METRICS_ADDR=<host:port>` ([`start_from_env`]) or
//! programmatically with [`start`] (the CLI's `--metrics-addr`; port `0`
//! picks a free port, returned so harnesses can scrape it). Starting the
//! endpoint while metrics are off forces [`crate::Mode::Collect`], so the
//! registry aggregates without changing what the process emits at exit —
//! a soak becomes scrapable just by setting the address.
//!
//! ## Exposition mapping
//!
//! `/metrics` renders one [`crate::snapshot`], the same rows the JSON lines
//! and the summary table show. Metric names swap `.` for `_`. Counters
//! gain the conventional `_total` suffix; gauges export as-is; timer rows
//! (span aggregates and the autograd per-op rows included) export as two
//! counters, `<name>_calls_total` and `<name>_seconds_total`, plus one gauge
//! `<name>_<field>` per numeric field. Histograms map their log₂ buckets
//! to cumulative `le` buckets: internal bucket `i` covers `[2^(i-1), 2^i)`,
//! so its exposition upper bound is `le="2^i - 1"` (the last internal
//! bucket folds into `le="+Inf"`), with `_sum` and `_count` alongside.
//! `_count` is the bucket total of the same one-pass read, so each scrape
//! is internally consistent even while recording races it, and all series
//! are monotone across scrapes.
//!
//! ## Health
//!
//! `/healthz` answers a small JSON document. By default it only proves the
//! process is alive; a serving engine installs a provider
//! ([`set_health_provider`]) that reports degraded state, respawns, and
//! queue depth — and flips the status code to 503 while degraded, so
//! orchestrators can act on it without parsing the body.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::{lock_tolerant, Field, HistogramRow, Snapshot};

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Wall-clock budget for one connection, from accept to the last byte
/// written. Connections are served one at a time, so this is also the
/// longest a slow or hostile client can delay every other scrape.
const CONN_BUDGET: Duration = Duration::from_secs(2);

/// True once a scrape endpoint has started in this process.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

type HealthFn = Box<dyn Fn() -> (u16, String) + Send + Sync>;

fn health_provider() -> &'static Mutex<Option<HealthFn>> {
    static HEALTH: OnceLock<Mutex<Option<HealthFn>>> = OnceLock::new();
    HEALTH.get_or_init(|| Mutex::new(None))
}

/// Installs the `/healthz` provider: returns `(status_code, json_body)`.
/// A serving engine installs one at startup; last writer wins.
pub fn set_health_provider(f: HealthFn) {
    *lock_tolerant(health_provider()) = Some(f);
}

/// Removes the `/healthz` provider (an engine shutting down).
pub fn clear_health_provider() {
    *lock_tolerant(health_provider()) = None;
}

/// Binds `addr` and serves `/metrics` + `/healthz` from a daemon thread.
/// Returns the bound address (resolving port `0`). Forces
/// [`crate::Mode::Collect`] when metrics are otherwise off, so probes
/// actually aggregate for the scraper.
pub fn start(addr: &str) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr:?}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if crate::mode() == crate::Mode::Off {
        crate::set_mode(crate::Mode::Collect);
    }
    ACTIVE.store(true, Ordering::Relaxed);
    std::thread::Builder::new()
        .name("ist-obs-export".into())
        .spawn(move || accept_loop(listener))
        .map_err(|e| format!("spawn export thread: {e}"))?;
    Ok(local)
}

/// Starts the endpoint when `IST_METRICS_ADDR` is set, returning the bound
/// address. `None` when unset, or when set but unusable: that warns once
/// and runs without an endpoint, so a bad knob cannot take a soak down.
pub fn start_from_env() -> Option<SocketAddr> {
    crate::env::parsed("IST_METRICS_ADDR", "no endpoint", start)
}

/// One HTTP/1.1 `GET path` against `addr`: `(status, body)`. Connecting,
/// writing and each read time out after 5 s.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let timeout = Some(Duration::from_secs(5));
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .and_then(|()| {
            write!(
                stream,
                "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
            )
        })
        .map_err(|e| format!("GET {path} from {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path} from {addr}: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("GET {path} from {addr}: no status line"))?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

fn accept_loop(listener: TcpListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // One request per connection; a slow or hostile client costs at
        // most `CONN_BUDGET`, never a wedge.
        let _ = handle_conn(stream);
    }
}

/// What is left of a connection's budget, as a socket timeout; `TimedOut`
/// once it has run out (a zero timeout is not a valid socket timeout).
fn time_left(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    let deadline = Instant::now() + CONN_BUDGET;
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    while len < buf.len() {
        // A socket timeout bounds one read, not the connection: each read
        // gets only what is left, so trickled bytes cannot stretch it.
        stream.set_read_timeout(Some(time_left(deadline)?))?;
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(method, path);
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        let n = stream.write(rest)?;
        rest = &rest[n..];
    }
    Ok(())
}

fn route(method: &str, path: &str) -> (u16, &'static str, String) {
    if method != "GET" {
        return (
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path.split('?').next().unwrap_or("") {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(),
        ),
        "/healthz" => {
            let (status, body) = health_body();
            (status, "application/json; charset=utf-8", body)
        }
        _ => (404, "text/plain; charset=utf-8", "not found\n".into()),
    }
}

fn health_body() -> (u16, String) {
    match &*lock_tolerant(health_provider()) {
        Some(f) => f(),
        None => (200, "{\"status\":\"ok\",\"engine\":null}\n".to_string()),
    }
}

/// The exposition name of a probe name: `a.b.c` → `a_b_c`, any other
/// non-`[A-Za-z0-9_:]` byte → `_`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn family(name: &str, kind: &str, value: impl std::fmt::Display) -> String {
    format!("# TYPE {name} {kind}\n{name} {value}\n")
}

fn push_histogram_family(out: &mut String, h: &HistogramRow) {
    let name = sanitize(&h.name);
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let last = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
        cum += c;
        // Internal bucket i covers [2^(i-1), 2^i) (bucket 0 holds exactly
        // 0); the open-ended last bucket folds into +Inf below.
        if i == h.buckets.len() - 1 {
            break;
        }
        let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {cum}\n"));
}

impl Snapshot {
    /// The snapshot in Prometheus text exposition format (see the module
    /// docs for the mapping).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            let name = if name.ends_with("_total") {
                name
            } else {
                name + "_total"
            };
            out += &family(&name, "counter", value);
        }
        for (name, value) in &self.gauges {
            out += &family(&sanitize(name), "gauge", value);
        }
        for t in &self.timers {
            let name = sanitize(&t.name);
            let seconds = format!("{:.9}", t.total_ns as f64 / 1e9);
            out += &family(&format!("{name}_calls_total"), "counter", t.count);
            out += &family(&format!("{name}_seconds_total"), "counter", seconds);
            for (key, value) in &t.fields {
                let gauge = format!("{name}_{}", sanitize(key));
                match value {
                    Field::U64(v) => out += &family(&gauge, "gauge", v),
                    Field::F64(v) if v.is_finite() => out += &family(&gauge, "gauge", v),
                    Field::F64(_) | Field::Str(_) => {}
                }
            }
        }
        for h in &self.histograms {
            push_histogram_family(&mut out, h);
        }
        out
    }
}

/// [`crate::snapshot`] in Prometheus text exposition format (the body of
/// `/metrics`).
pub fn render_prometheus() -> String {
    crate::snapshot().to_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_dots_and_dashes() {
        assert_eq!(sanitize("serve.request_us"), "serve_request_us");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn exposition_contains_expected_families() {
        let _guard = crate::test_mode_lock();
        crate::set_mode(crate::Mode::Collect);
        static C: crate::Counter = crate::Counter::new("test.export_counter");
        static G: crate::Gauge = crate::Gauge::new("test.export_gauge");
        static H: crate::Histogram = crate::Histogram::with_unit("test.export_hist", "us");
        crate::reset();
        C.add(3);
        G.set(9);
        for v in [0u64, 1, 5, 1000] {
            H.record(v);
        }
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_export_counter_total counter"));
        assert!(text.contains("test_export_counter_total 3"));
        assert!(text.contains("# TYPE test_export_gauge gauge"));
        assert!(text.contains("test_export_gauge 9"));
        assert!(text.contains("# TYPE test_export_hist histogram"));
        assert!(text.contains("test_export_hist_bucket{le=\"0\"} 1"));
        assert!(text.contains("test_export_hist_bucket{le=\"1\"} 2"));
        assert!(text.contains("test_export_hist_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("test_export_hist_sum 1006"));
        assert!(text.contains("test_export_hist_count 4"));
        // Cumulative buckets must be monotone.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("test_export_hist_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
        crate::reset();
        crate::set_mode(crate::Mode::Off);
    }
}
