//! Session counters agree by construction: the session summary, the last
//! `stats` line and the `mgpart_errors_total` metric all come from the
//! writer's tally, so they must match a plain count over the response
//! stream.
//!
//! This file holds a single test on purpose: the metrics registry is
//! process-global, and the metric delta is exact only while no other
//! session runs in this test binary.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::{Json, Service, ServiceConfig};

const PARTITION: &str =
    "{\"id\":1,\"matrix\":{\"rows\":4,\"cols\":4,\"entries\":[[0,0],[1,1],[2,2],[3,3],[0,3]]}}\n";

fn count(lines: &[&str], needle: &str) -> u64 {
    lines.iter().filter(|l| l.contains(needle)).count() as u64
}

fn field(doc: &Json, name: &str) -> u64 {
    doc.get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats line lacks {name}"))
}

#[test]
fn summary_stats_line_and_metrics_agree_with_the_response_stream() {
    let service = Service::start(ServiceConfig {
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    });
    let mut script = Vec::new();
    script.extend_from_slice(PARTITION.as_bytes());
    // The same job again: served from the cache or coalesced.
    script.extend_from_slice(PARTITION.replace("\"id\":1", "\"id\":2").as_bytes());
    script.extend_from_slice(b"{\"id\":3,\"method\":\"zz\"}\n");
    script.extend_from_slice(b"{\"id\":4,\"matrix\":{\"collection\":\"missing\"}}\n");
    script.extend_from_slice(b"\xff\xfe\n");
    script.extend_from_slice(b"{\"id\":6,\"op\":\"ping\"}\n");
    script.extend_from_slice(b"{\"id\":7,\"op\":\"stats\"}\n");

    let errors_metric = || mg_obs::registry().counter("mgpart_errors_total", &[]).get();
    let errors_before = errors_metric();
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    let errors_after = errors_metric();
    service.shutdown_and_join();

    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7, "{text}");
    let errors = count(&lines, "\"status\":\"error\"");
    let cached = count(&lines, "\"cached\":true");
    let computed = count(&lines, "\"cached\":false");
    assert_eq!((errors, cached, computed), (3, 1, 1), "{text}");

    assert_eq!(summary.received, 7);
    assert_eq!(summary.responses, lines.len() as u64);
    assert_eq!(summary.errors, errors);
    assert_eq!(summary.cache_hits, cached);
    assert_eq!(summary.cache_misses, computed);

    // The stats line is last, so it covers every other response.
    let stats = Json::parse(lines[6]).unwrap();
    assert_eq!(field(&stats, "received"), summary.received);
    assert_eq!(field(&stats, "errors"), errors);
    assert_eq!(field(&stats, "cache_hits"), cached);
    assert_eq!(field(&stats, "cache_misses"), computed);

    assert_eq!(errors_after - errors_before, errors);
}
