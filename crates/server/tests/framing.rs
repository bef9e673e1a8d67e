//! Binary framing integration tests: hello negotiation, the per-codec
//! determinism contract (response texts byte-identical to JSON-lines
//! mode at any thread count), batch pipelining, and framing errors.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::codec::{
    batch_payload, encode_frame, json_payload, partition_payload, request_payload, split_responses,
    MAX_FRAME,
};
use mg_server::{parse_request_line, Service, ServiceConfig};
use std::io::Read;
use std::sync::Arc;

fn smoke_service(threads: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

const HELLO_BINARY: &str = "{\"id\":\"hs\",\"op\":\"hello\",\"codec\":\"binary\"}";

/// A session script: the binary hello as a JSON line, then every request
/// as a binary frame — partition requests in the compact kind-0x02 form
/// when they qualify, everything else as a kind-0x01 JSON payload.
fn binary_script(requests: &[&str]) -> Vec<u8> {
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    for line in requests {
        script.extend_from_slice(&encode_frame(&request_payload(line)));
    }
    script
}

const INLINE: &str = "{\"id\":1,\"matrix\":{\"rows\":4,\"cols\":4,\
                      \"entries\":[[0,0],[1,1],[2,2],[3,3],[0,1],[1,2],[2,3]]},\"seed\":5}";

#[test]
fn hello_negotiates_binary_and_acks_in_the_old_codec() {
    let service = smoke_service(2);
    let script = binary_script(&["{\"id\":2,\"op\":\"ping\"}", INLINE]);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.received, 3);
    assert_eq!(summary.responses, 3);

    // The ack travels in the codec the hello arrived in: a JSON line.
    let nl = out.iter().position(|&b| b == b'\n').unwrap();
    let ack = std::str::from_utf8(&out[..nl]).unwrap();
    assert_eq!(
        ack,
        "{\"id\":\"hs\",\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"binary\"}"
    );
    // Everything after is frames.
    let texts = split_responses(&out).unwrap();
    assert_eq!(texts.len(), 3);
    assert!(texts[1].contains("\"id\":2") && texts[1].contains("\"op\":\"ping\""));
    assert!(texts[2].contains("\"id\":1") && texts[2].contains("\"volume\""));
}

/// The determinism contract across codecs: the *response document text*
/// for a request stream is byte-identical whether the stream travels as
/// JSON lines or binary frames, at any thread count. Only the framing
/// around the text differs.
#[test]
fn binary_responses_are_byte_identical_to_json_lines_at_any_thread_count() {
    let requests = [
        INLINE,
        "{\"id\":2,\"op\":\"ping\"}",
        INLINE, // cache hit: same key as id 1 (ids are not part of the key)
        "{\"id\":4,\"matrix\":{\"collection\":\"laplace2d_00_k10\"},\"seed\":3}",
        "{\"id\":5,\"method\":\"zz\"}", // typed error, same text both ways
        "{\"id\":6,\"matrix\":{\"rows\":3,\"cols\":3,\
          \"entries\":[[0,0],[1,1],[2,2]]},\"seed\":5,\"include_partition\":true}",
    ];
    let mut json_texts_by_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let service = smoke_service(threads);
        let json_script: Vec<u8> = requests
            .iter()
            .flat_map(|r| format!("{r}\n").into_bytes())
            .collect();
        let mut json_out = Vec::new();
        let json_summary = service.run_session(json_script.as_slice(), &mut json_out);
        let json_texts = split_responses(&json_out).unwrap();

        let service = smoke_service(threads);
        let mut binary_out = Vec::new();
        let binary_summary =
            service.run_session(binary_script(&requests).as_slice(), &mut binary_out);
        let binary_texts = split_responses(&binary_out).unwrap();

        assert_eq!(json_summary.responses + 1, binary_summary.responses);
        assert_eq!(json_summary.cache_hits, binary_summary.cache_hits);
        assert_eq!(json_summary.errors, binary_summary.errors);
        // Drop the binary session's hello ack; the rest must match the
        // JSON-lines run byte for byte.
        assert_eq!(
            json_texts,
            binary_texts[1..].to_vec(),
            "codec changed response text at {threads} threads"
        );
        json_texts_by_threads.push(json_texts);
    }
    // And thread count never changes the stream either.
    assert_eq!(json_texts_by_threads[0], json_texts_by_threads[1]);
    assert_eq!(json_texts_by_threads[0], json_texts_by_threads[2]);
}

#[test]
fn batched_frames_answer_in_submission_order() {
    let service = smoke_service(4);
    let sub1 = json_payload("{\"id\":10,\"op\":\"ping\"}");
    let sub2 = partition_payload(&parse_request_line(INLINE).unwrap()).unwrap();
    let sub3 = json_payload("{\"id\":30,\"op\":\"stats\"}");
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&encode_frame(&batch_payload(&[sub1, sub2, sub3])));

    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.received, 4, "a batch counts per sub-request");
    assert_eq!(summary.responses, 4);
    let texts = split_responses(&out).unwrap();
    assert!(texts[1].contains("\"id\":10"));
    assert!(texts[2].contains("\"id\":1") && texts[2].contains("\"volume\""));
    assert!(texts[3].contains("\"id\":30") && texts[3].contains("\"op\":\"stats\""));
}

#[test]
fn framing_violations_get_typed_errors() {
    // An oversized declared frame length ends the session with one
    // typed error — there is no way to resynchronise past it.
    let service = smoke_service(1);
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    script.extend_from_slice(&[0u8; 16]);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.responses, 2);
    let texts = split_responses(&out).unwrap();
    assert!(
        texts[1].contains("\"status\":\"error\"")
            && texts[1].contains("bad_request")
            && texts[1].contains("cap"),
        "{}",
        texts[1]
    );

    // So does a JSON line that runs past the same cap without its `\n`.
    let service = smoke_service(1);
    let ping = &b"{\"id\":1,\"op\":\"ping\"}\n"[..];
    let endless = std::io::repeat(b'x').take(MAX_FRAME as u64 + 1);
    let mut out = Vec::new();
    let summary = service.run_session(ping.chain(endless), &mut out);
    assert_eq!(summary.responses, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"id\":1"), "{}", lines[0]);
    assert!(
        lines[1].contains("bad_request") && lines[1].contains("cap"),
        "{}",
        lines[1]
    );

    // An unknown payload kind is an in-band error; the session goes on.
    let service = smoke_service(1);
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&encode_frame(&[0x07, 1, 2, 3]));
    script.extend_from_slice(&encode_frame(&json_payload("{\"id\":9,\"op\":\"ping\"}")));
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.responses, 3);
    let texts = split_responses(&out).unwrap();
    assert!(texts[1].contains("unknown frame kind 0x07"), "{}", texts[1]);
    assert!(texts[2].contains("\"id\":9"), "{}", texts[2]);

    // A truncated binary partition payload is a typed bad_request.
    let service = smoke_service(1);
    let full = partition_payload(&parse_request_line(INLINE).unwrap()).unwrap();
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&encode_frame(&full[..full.len() - 3]));
    let mut out = Vec::new();
    service.run_session(script.as_slice(), &mut out);
    let texts = split_responses(&out).unwrap();
    assert!(
        texts[1].contains("bad_request") || texts[1].contains("bad_matrix"),
        "{}",
        texts[1]
    );
}

#[test]
fn unknown_codec_is_rejected_and_the_session_stays_on_json_lines() {
    let service = smoke_service(1);
    let script = "{\"id\":1,\"op\":\"hello\",\"codec\":\"msgpack\"}\n\
                  {\"id\":2,\"op\":\"ping\"}\n";
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.responses, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"status\":\"error\"") && lines[0].contains("msgpack"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"id\":2") && lines[1].contains("\"op\":\"ping\""));
}

#[test]
fn hello_json_is_a_no_op_negotiation() {
    let service = smoke_service(1);
    let script = "{\"id\":1,\"op\":\"hello\",\"codec\":\"json\"}\n\
                  {\"id\":2,\"op\":\"ping\"}\n";
    let mut out = Vec::new();
    service.run_session(script.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "{\"id\":1,\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"json\"}"
    );
    assert!(lines[1].contains("\"op\":\"ping\""));
}
