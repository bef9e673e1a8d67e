//! Binary framing through the router: a client that negotiates binary
//! frames gets the same response *texts* a JSON-lines client gets —
//! the router decodes compact partition payloads once, forwards the
//! canonical line to its (always JSON-lines) shards, and re-frames the
//! shard's response bytes untouched.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::codec::{encode_frame, request_json_line, request_payload, split_responses};
use mg_server::{parse_request_line, ServiceConfig};
use mg_sparse::{gen, Coo};

fn inline_payload(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

fn shard_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    }
}

/// Request lines in canonical rendering (what the router forwards for a
/// binary-framed request), so the JSON-lines control run sends the
/// byte-identical lines to its shards.
fn canonical_requests() -> Vec<String> {
    let matrices = [
        gen::laplacian_2d(9, 7),
        gen::arrow(40, 3),
        gen::laplacian_2d(6, 6),
    ];
    let mut lines: Vec<String> = Vec::new();
    for (id, a) in matrices.iter().enumerate() {
        lines.push(format!(
            "{{\"id\":{id},\"matrix\":{},\"seed\":5}}",
            inline_payload(a)
        ));
    }
    // Repeat of id 0's key → a router cache hit in both codecs.
    lines.push(format!(
        "{{\"id\":9,\"matrix\":{},\"seed\":5}}",
        inline_payload(&matrices[0])
    ));
    lines.push("{\"id\":10,\"op\":\"ping\"}".to_string());
    lines.push("{\"id\":11,\"method\":\"zz\"}".to_string());
    lines
        .iter()
        .map(|line| match parse_request_line(line) {
            Ok(request) => request_json_line(&request),
            // Deliberately invalid requests can't be canonicalized; both
            // codecs answer them locally from the same text.
            Err(_) => line.clone(),
        })
        .collect()
}

#[test]
fn binary_clients_match_json_clients_through_the_router() {
    let requests = canonical_requests();

    // Control: a fresh 2-shard cluster, JSON lines end to end.
    let cluster = LocalCluster::spawn(2, |_| shard_config(2));
    let router = cluster.router(RouterConfig::default());
    let script: Vec<u8> = requests
        .iter()
        .flat_map(|r| format!("{r}\n").into_bytes())
        .collect();
    let mut json_out = Vec::new();
    let json_summary = router.run_session(script.as_slice(), &mut json_out);
    cluster.shutdown();
    let json_texts = split_responses(&json_out).unwrap();

    // Same requests as binary frames through a fresh identical cluster:
    // compact kind-0x02 payloads for partitions, JSON payloads otherwise.
    let cluster = LocalCluster::spawn(2, |_| shard_config(2));
    let router = cluster.router(RouterConfig::default());
    let mut script = b"{\"id\":\"hs\",\"op\":\"hello\",\"codec\":\"binary\"}\n".to_vec();
    for line in &requests {
        script.extend_from_slice(&encode_frame(&request_payload(line)));
    }
    let mut binary_out = Vec::new();
    let binary_summary = router.run_session(script.as_slice(), &mut binary_out);
    cluster.shutdown();
    let binary_texts = split_responses(&binary_out).unwrap();

    // Hello ack first (as a JSON line), then frame-for-line parity.
    assert_eq!(
        binary_texts[0],
        "{\"id\":\"hs\",\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"binary\"}"
    );
    assert_eq!(json_texts, binary_texts[1..].to_vec());

    // Both runs did real routed work and hit the router cache alike.
    assert_eq!(json_summary.responses, requests.len() as u64);
    assert_eq!(binary_summary.responses, requests.len() as u64 + 1);
    assert_eq!(json_summary.forwarded, binary_summary.forwarded);
    // The repeat is served from a cache — the router's LRU when id 0
    // already resolved, the shard's otherwise; both runs pipeline the
    // same way, so the counters (and the bytes) agree regardless.
    assert_eq!(json_summary.cache_hits, binary_summary.cache_hits);
    assert_eq!(json_summary.errors, binary_summary.errors);
    let repeat = json_texts
        .iter()
        .find(|t| t.contains("\"id\":9"))
        .expect("repeat response");
    assert!(repeat.contains("\"cached\":true"), "{repeat}");
}
