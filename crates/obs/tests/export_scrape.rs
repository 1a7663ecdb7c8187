//! Integration tests for the live scrape endpoint: concurrent `/metrics`
//! scrapes racing metric recording must always see well-formed Prometheus
//! text exposition with monotone counters, and `/healthz` must answer.
//! Serialized with a local lock (process-global obs state).

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ist_obs::export::get;
use ist_obs::schema::{exposition, sample};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static SCRAPE_EVENTS: ist_obs::Counter = ist_obs::Counter::new("export_stress.events");
static SCRAPE_LAT: ist_obs::Histogram = ist_obs::Histogram::with_unit("export_stress.lat", "us");

#[test]
fn concurrent_scrapes_race_recording_without_corruption() {
    let _g = serial();
    ist_obs::set_mode(ist_obs::Mode::Collect);
    ist_obs::reset();
    let addr = ist_obs::export::start("127.0.0.1:0").expect("bind scrape endpoint");

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Recorders hammer a counter + histogram the whole time.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    SCRAPE_EVENTS.inc();
                    SCRAPE_LAT.record(17);
                }
            });
        }
        // Scrapers: every response is valid exposition and the counter
        // never goes backwards from any single scraper's view.
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut last = 0.0;
                    for _ in 0..25 {
                        let (status, body) = get(addr, "/metrics").unwrap();
                        assert_eq!(status, 200);
                        exposition(&body).unwrap();
                        if let Some(v) = sample(&body, "export_stress_events_total") {
                            assert!(v >= last, "counter went backwards: {v} < {last}");
                            last = v;
                        }
                    }
                    last
                })
            })
            .collect();
        let finals: Vec<f64> = scrapers.into_iter().map(|s| s.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        assert!(
            finals.iter().any(|&v| v > 0.0),
            "no scrape ever observed the stress counter"
        );
    });

    // Histogram family: cumulative buckets are monotone and agree with
    // _count.
    let (_, body) = get(addr, "/metrics").unwrap();
    let buckets: Vec<f64> = body
        .lines()
        .filter(|l| l.starts_with("export_stress_lat_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "histogram family missing:\n{body}");
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "non-monotone: {buckets:?}"
    );
    assert_eq!(
        Some(*buckets.last().unwrap()),
        sample(&body, "export_stress_lat_count"),
        "+Inf bucket must equal _count"
    );

    ist_obs::reset();
    ist_obs::set_mode(ist_obs::Mode::Off);
}

#[test]
fn healthz_and_unknown_routes_answer() {
    let _g = serial();
    let addr = ist_obs::export::start("127.0.0.1:0").expect("bind scrape endpoint");

    let (status, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\""), "no status field: {body}");

    let (status, _) = get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // An installed provider overrides the default and can flip the code.
    ist_obs::export::set_health_provider(Box::new(|| (503, "{\"status\":\"degraded\"}".into())));
    let (status, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("degraded"));
    ist_obs::export::clear_health_provider();

    let (status, _) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn a_trickling_client_cannot_stall_a_concurrent_scrape() {
    let _g = serial();
    let addr = ist_obs::export::start("127.0.0.1:0").expect("bind scrape endpoint");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Sends a request head one byte every 300 ms and never finishes it.
        scope.spawn(|| {
            let mut slow = TcpStream::connect(addr).expect("connect scrape endpoint");
            for byte in b"GET /metrics HTTP/1.1\r\nHost: trickle\r\n" {
                if stop.load(Ordering::Relaxed) || slow.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        // Let the endpoint pick up the trickler first.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        let (status, _) = get(addr, "/metrics").unwrap();
        let waited = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(status, 200);
        assert!(
            waited < Duration::from_millis(2500),
            "a concurrent scrape waited {waited:?} behind a trickling client"
        );
    });
}
