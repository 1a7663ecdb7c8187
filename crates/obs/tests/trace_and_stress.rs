//! Integration tests for the trace exporter and the sink's concurrency
//! story. Both manipulate process-global obs state, so every test grabs
//! `LOCK` first (tests in one binary run in parallel).

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use ist_obs::trace;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A `Write` sink tests can read back after handing ownership to obs.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

static STRESS_COUNTER: ist_obs::Counter = ist_obs::Counter::new("stress.events");

/// `set_output` racing concurrent span/counter emitters must neither
/// deadlock, nor panic, nor corrupt the line structure of the stream.
#[test]
fn concurrent_emitters_survive_sink_swaps() {
    let _g = serial();
    ist_obs::reset();
    ist_obs::set_mode(ist_obs::Mode::Json);
    let buf = SharedBuf::default();
    ist_obs::set_output(Box::new(buf.clone()));

    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..50 {
                    let mut span = ist_obs::Span::enter("stress.span");
                    span.add_field("worker", w as u64);
                    span.add_field("i", i as u64);
                    STRESS_COUNTER.add(1);
                }
            })
        })
        .collect();
    // Race the sink: swap the output several times mid-emission.
    for _ in 0..8 {
        ist_obs::set_output(Box::new(buf.clone()));
        std::thread::yield_now();
    }
    for w in workers {
        w.join().expect("emitter thread panicked");
    }
    ist_obs::flush();
    ist_obs::set_mode(ist_obs::Mode::Off);

    let text = String::from_utf8_lossy(&buf.0.lock().unwrap()).into_owned();
    // Writes are line-atomic: every line passes the telemetry schema even
    // while four threads shared the sink.
    let lines = ist_obs::schema::metrics_lines(&text).unwrap();
    assert!(
        lines.events.contains_key("stress.span"),
        "no span lines survived the sink swaps:\n{text}"
    );
    assert_eq!(STRESS_COUNTER.get(), 200);
}

/// The exported chrome-trace document passes the chrome-trace schema
/// ([`ist_obs::schema::chrome_trace`]) with every scope opened.
#[test]
fn trace_export_schema() {
    let _g = serial();
    trace::reset();
    trace::set_enabled(true);

    {
        let _outer = trace::scope("outer");
        {
            let _inner = trace::scope_cat("inner", "test");
        }
        let _sibling = trace::scope("sibling");
    }
    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..10 {
                    let _s = trace::scope("worker.scope");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let json = trace::export_json();
    trace::set_enabled(false);
    trace::reset();

    let doc = ist_obs::schema::chrome_trace(&json).unwrap();
    for name in ["outer", "inner", "sibling", "worker.scope"] {
        assert!(
            doc.names.contains(name),
            "scope {name:?} missing from export"
        );
    }
}
