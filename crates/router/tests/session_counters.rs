//! Routed session counters agree by construction: the session summary
//! and the last router-local `stats` line both come from the writer's
//! tally, so they must match a plain count over the response stream —
//! including error lines a shard produced and the `shard_unavailable` a
//! reader thread resolves when a request exhausts its replica set. (A
//! shard lost before the forward is covered in `failover.rs`.)

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, Router, RouterConfig, RouterSummary, Topology};
use mg_server::{Json, ServiceConfig};
use std::net::TcpListener;
use std::time::Duration;

const PARTITION: &str =
    "{\"id\":1,\"matrix\":{\"rows\":4,\"cols\":4,\"entries\":[[0,0],[1,1],[2,2],[3,3],[0,3]]}}\n";
const STATS: &str = "{\"id\":\"s\",\"op\":\"stats\"}\n";

fn count(lines: &[&str], needle: &str) -> u64 {
    lines.iter().filter(|l| l.contains(needle)).count() as u64
}

/// Runs `script` and checks the summary and the final stats line against
/// the response stream; returns the summary and the response text.
fn reconcile(router: &Router, script: &[u8]) -> (RouterSummary, String) {
    let mut out = Vec::new();
    let summary = router.run_session(script, &mut out);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let errors = count(&lines, "\"status\":\"error\"");
    let cached = count(&lines, "\"cached\":true");
    assert_eq!(summary.responses, lines.len() as u64, "{text}");
    assert_eq!(summary.received, summary.responses, "{text}");
    assert_eq!(summary.errors, errors, "{text}");
    assert_eq!(summary.cache_hits, cached, "{text}");
    let stats = Json::parse(lines.last().unwrap()).unwrap();
    let field = |name: &str| stats.get(name).and_then(Json::as_u64);
    assert_eq!(field("received"), Some(summary.received), "{text}");
    assert_eq!(field("errors"), Some(errors), "{text}");
    assert_eq!(field("cache_hits"), Some(cached), "{text}");
    (summary, text)
}

#[test]
fn summary_and_stats_count_shard_and_router_lines_alike() {
    let cluster = LocalCluster::spawn(2, |_| ServiceConfig {
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    });
    let router = cluster.router(RouterConfig::default());
    let mut script = Vec::new();
    script.extend_from_slice(PARTITION.as_bytes());
    // The same job again: the router cache or the shard answers it
    // `cached: true`, whichever gets there first.
    script.extend_from_slice(PARTITION.replace("\"id\":1", "\"id\":2").as_bytes());
    script.extend_from_slice(b"{\"id\":3,\"method\":\"zz\"}\n");
    // A shard's own error line.
    script.extend_from_slice(b"{\"id\":4,\"matrix\":{\"collection\":\"missing\"}}\n");
    script.extend_from_slice(b"\xff\xfe\n");
    script.extend_from_slice(b"{\"id\":6,\"op\":\"ping\"}\n");
    script.extend_from_slice(STATS.as_bytes());
    let (summary, text) = reconcile(&router, &script);
    cluster.shutdown();
    assert_eq!(summary.received, 7, "{text}");
    assert_eq!(summary.errors, 3, "{text}");
    assert_eq!(summary.cache_hits, 1, "{text}");
    assert!(text.contains("unknown_collection"), "{text}");
}

#[test]
fn an_exhausted_replica_set_error_is_counted() {
    // Two replicas that accept connections but never answer: the read
    // deadline fails the request over from one to the other, then the
    // reader thread resolves it with `shard_unavailable`.
    let hung: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let shards: Vec<String> = hung
        .iter()
        .enumerate()
        .map(|(i, l)| format!("h{i}={}", l.local_addr().unwrap()))
        .collect();
    let config = RouterConfig {
        replicas: 2,
        probe_interval: Duration::ZERO,
        read_deadline: Some(Duration::from_millis(200)),
        ..RouterConfig::default()
    };
    let router = Router::new(Topology::parse(&shards.join(",")).unwrap(), config).unwrap();
    let script = format!("{PARTITION}{STATS}");
    let (summary, text) = reconcile(&router, script.as_bytes());
    assert_eq!(summary.errors, 1, "{text}");
    assert_eq!(summary.forwarded, 1, "{text}");
    assert_eq!(router.failovers(), 1, "{text}");
    assert!(text.contains("shard_unavailable"), "{text}");
    drop(hung);
}
