//! Every `isrec validate` kind accepts its good fixtures and rejects each
//! broken one with the message naming its defect. The fixtures under
//! `tests/fixtures/<kind>/` are small copies of what the program writes;
//! each broken file differs from a good one by one defect.

use ist_obs::schema::{soak_final, soak_health, soak_step, validate, SERVE_REQUESTS};
use ist_obs::schema::{Exemplar, Field, Json, ServeReport, Show};

/// `<kind> <fixture>… => <expected error>`; no `=>` means the kind must
/// accept the files.
const CASES: &[&str] = &[
    "metrics metrics/good.jsonl",
    "metrics metrics/missing_field.jsonl => span line 2 lacks elapsed_us",
    "metrics metrics/count_mismatch.jsonl => train.epoch aggregate counts 3 but 2 events were emitted",
    "trace trace/good.json",
    "trace trace/missing_field.json => event 4: lacks dur",
    "trace trace/unbalanced.json => unbalanced B/E events (4 vs 3)",
    "trace trace/mismatched.json => mismatched B/E pair on tid 1",
    "trace trace/e_without_b.json => E without B on tid 2",
    "trace trace/ts_order.json => events out of timestamp order at ts=9",
    "trace trace/two_pids.json => inconsistent pids {1, 2}",
    "attribution attribution/good.log",
    "attribution attribution/low.log => op attribution 94.9% is below the 95% bar",
    "serve-report serve-report/good.json",
    "serve-report serve-report/missing_field.json => lacks resilience.shed",
    "serve-report serve-report/unsorted_exemplars.json => exemplars not sorted slowest-first",
    "serve-report serve-report/nonzero_resilience.json => tripped resilience counter respawns",
    "access-log access-log/good.jsonl",
    "access-log access-log/missing_field.jsonl => access-log line 3 lacks cache_hit",
    "access-log access-log/duplicate_req.jsonl => duplicate trace id 2 on line 4",
    "access-log access-log/stage_sum.jsonl => line 2: stage breakdown 682us exceeds total latency 600us",
    "serve-metrics serve-metrics/good.jsonl",
    "serve-metrics serve-metrics/missing_histogram.jsonl => no serve.request_us latency histogram",
    "chaos chaos/base.json chaos/faults.json chaos/rerun.json",
    "chaos chaos/base.json chaos/lost.json chaos/rerun.json => chaos run lost requests",
    "chaos chaos/base.json chaos/slow.json chaos/rerun.json => a request blocked 4000001us past",
    "chaos chaos/base.json chaos/faults.json chaos/rerun-crc.json => rerun CRC 7654321 != baseline 1234567",
    "crc chaos/base.json chaos/rerun.json",
    "crc chaos/base.json chaos/rerun-crc.json => scores_crc differs",
    "crc chaos/base.json => usage: isrec validate",
];

fn fixture(rel: &str) -> String {
    format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Writes `text` to a scratch file named after `name`; returns its path.
fn scratch(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("ist-obs-fixture-{}-{name}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// An access-log fixture padded to [`SERVE_REQUESTS`] lines with filler
/// requests numbered from 1 000 000, as the `access-log` kind checks the
/// soak's request count before the lines themselves.
fn padded_access_log(rel: &str) -> String {
    let mut text = std::fs::read_to_string(fixture(rel)).unwrap();
    let n = text.lines().count() as u64;
    for req in 1_000_000..1_000_000 + SERVE_REQUESTS - n {
        text += &format!(
            "{{\"req\":{req},\"outcome\":\"ok\",\"degraded\":false,\"hist\":4,\"k\":10,\
             \"cache_hit\":false,\"batch\":2,\"total_us\":500,\
             \"queue_us\":40,\"batch_us\":200,\"cache_us\":1,\"encode_us\":200,\"score_us\":4,\
             \"merge_us\":10,\"reply_us\":30}}\n"
        );
    }
    scratch(&rel.replace('/', "-"), &text)
}

/// Runs `case`, its files mapped to paths by `file(kind, fixture)`.
fn check(case: &str, file: impl Fn(&str, &str) -> String) {
    let (args, want) = case
        .split_once(" => ")
        .map_or((case, None), |(a, w)| (a, Some(w)));
    let mut args = args.split(' ');
    let kind = args.next().unwrap();
    let files: Vec<String> = args.map(|f| file(kind, f)).collect();
    match (validate(kind, &files), want) {
        (Ok(_), None) => {}
        (Err(e), Some(want)) if e.contains(want) => {}
        (got, _) => panic!("{case}: got {got:?}"),
    }
}

#[test]
fn every_kind_accepts_its_good_fixtures_and_names_each_defect() {
    for case in CASES {
        check(case, |kind, f| match kind {
            "access-log" => padded_access_log(f),
            _ => fixture(f),
        });
    }
    let short = validate("access-log", &[fixture("access-log/good.jsonl")]);
    assert_eq!(
        short,
        Err("access log has 4 lines for 2000 requests".into())
    );
}

#[test]
fn soak_steps_name_each_defect() {
    let body = |rel: &str| std::fs::read_to_string(fixture(&format!("soak/{rel}"))).unwrap();
    let done = body("scrape_done.txt");
    assert_eq!(
        soak_step(&body("scrape_partial.txt"), 0.0),
        Ok(Some(1200.0))
    );
    assert_eq!(soak_step(&done, 1200.0), Ok(Some(2000.0)));
    assert_eq!(soak_step("# TYPE x counter\n", 0.0), Ok(None));
    assert_eq!(soak_final(&done), Ok(()));
    assert_eq!(soak_health(200, &body("healthz_good.json")), Ok(()));
    for (got, want) in [
        (
            soak_step(&body("scrape_backwards.txt"), 1200.0).map(drop),
            "went backwards: 900 < 1200",
        ),
        (
            soak_step(&body("scrape_overshoot.txt"), 1200.0).map(drop),
            "overshot the 2000 requests sent: 2001",
        ),
        (
            soak_step(&body("scrape_bad_name.txt"), 0.0).map(drop),
            "line 5: bad metric name",
        ),
        (
            soak_final(&done.replace("serve_queue_depth", "x")),
            "lacks serve_queue_depth",
        ),
        (
            soak_final(&done.replace("autograd_op", "x")),
            "lacks an autograd_op family",
        ),
        (
            soak_health(200, &body("healthz_degraded.json")),
            "engine degraded",
        ),
        (
            soak_health(503, &body("healthz_degraded.json")),
            "/healthz answered 503",
        ),
    ] {
        assert!(
            got.as_ref().is_err_and(|e| e.contains(want)),
            "{want}: {got:?}"
        );
    }
}

/// The report kinds reach the same verdicts on the reports the writer
/// renders from the report fixtures (all but the one lacking a field,
/// which does not parse).
#[test]
fn rendered_reports_get_the_fixtures_verdicts() {
    let rendered = |_: &str, rel: &str| {
        let text = std::fs::read_to_string(fixture(rel)).unwrap();
        let report = ServeReport::parse(&text).unwrap();
        scratch(
            &format!("rendered-{}", rel.replace('/', "-")),
            &format!("{:#}\n", Show(&report)),
        )
    };
    let report_kinds = ["serve-report", "chaos", "crc"];
    let cases = CASES.iter().filter(|c| !c.contains("missing_field"));
    for case in cases.filter(|c| report_kinds.contains(&c.split(' ').next().unwrap())) {
        check(case, rendered);
    }
}

/// The request-record writer gives back each access-log fixture line byte
/// for byte, and the reader refuses an outcome no request can have.
#[test]
fn request_records_render_back_to_the_fixture_lines() {
    let text = std::fs::read_to_string(fixture("access-log/good.jsonl")).unwrap();
    for line in text.lines() {
        let record = Exemplar::read(&Json::parse(line).unwrap(), "").unwrap();
        assert_eq!(Show(&record).to_string(), line);
        let bogus = Json::parse(&line.replace("\"ok\"", "\"bogus\"")).unwrap();
        let err = Exemplar::read(&bogus, "").unwrap_err();
        assert_eq!(err, "unknown outcome \"bogus\"");
    }
}

#[test]
fn committed_serve_report_validates() {
    let path = format!(
        "{}/../../results/serve_report.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let summary = validate("serve-report", &[path]).unwrap();
    assert_eq!(summary, "report ok: p99=1957us avg_batch=8 hit_rate=0.8265");
}
