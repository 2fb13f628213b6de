//! Chrome trace-event JSON exporter. The output loads directly in
//! Perfetto (ui.perfetto.dev) or chrome://tracing: one `tid` per
//! recorded track, `X` (complete) events for spans, `C` events for
//! counters, and `M` metadata events naming the tracks. Timestamps are
//! microseconds relative to the session start, as the format requires.

use crate::report::Report;
use std::collections::BTreeMap;

pub(crate) fn render(report: &Report) -> String {
    let mut out = String::with_capacity(256 + report.event_count() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;

    push_event(&mut out, &mut first, |e| {
        e.push_str("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",");
        e.push_str("\"args\":{\"name\":\"sperr\"}}");
    });

    for (tid, track) in report.tracks.iter().enumerate() {
        push_event(&mut out, &mut first, |e| {
            e.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(&track.name)
            ));
        });
        push_event(&mut out, &mut first, |e| {
            // Order tracks workers-first in the viewer, matching the report.
            let sort_index = track.worker.map(|w| w as i64).unwrap_or(1_000_000 + tid as i64);
            e.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{sort_index}}}}}",
            ));
        });

        for span in &track.spans {
            push_event(&mut out, &mut first, |e| {
                e.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"sperr\",\"ts\":{},\"dur\":{}",
                    escape(span.label),
                    micros(span.start_ns.saturating_sub(report.t0_ns)),
                    micros(span.dur_ns),
                ));
                if let Some(value) = span.value {
                    e.push_str(&format!(",\"args\":{{\"v\":{value}}}"));
                }
                e.push('}');
            });
        }
        for counter in &track.counters {
            push_event(&mut out, &mut first, |e| {
                e.push_str(&format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape(counter.label),
                    micros(counter.t_ns.saturating_sub(report.t0_ns)),
                    counter.value,
                ));
            });
        }
    }

    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, write: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    write(out);
}

/// Nanoseconds → microseconds with sub-µs precision preserved.
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

fn escape(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

/// A parsed JSON value: the read-only subset [`validate`] needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON value followed only by whitespace.
fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            let mut seen = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                if seen.insert(key.clone(), ()).is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                // Surrogates unsupported — the writer never
                                // emits them.
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "invalid \\u codepoint".to_string())?,
                                );
                                *pos += 4;
                            }
                            _ => return Err("bad escape".into()),
                        }
                        *pos += 1;
                    }
                    Some(&b) if b < 0x20 => return Err("raw control char in string".into()),
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is valid UTF-8:
                        // it came from &str).
                        let start = *pos;
                        *pos += 1;
                        while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                            *pos += 1;
                        }
                        s.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap());
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if start == *pos {
                return Err(format!("unexpected character at byte {start}"));
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?}"))
        }
    }
}

/// Schema check for Chrome trace-event JSON as this module renders it
/// (`Report::chrome_trace`, the CLI's `--trace`): well-formed JSON with a
/// `traceEvents` array whose entries are structurally valid `X` (complete
/// span), `M` (metadata) or `C` (counter) events, at least one span, at
/// least one named thread track, and — when `required_names` is
/// non-empty — an `X` event for every required name. Returns the first
/// problem found.
pub fn validate(text: &str, required_names: &[&str]) -> Result<(), String> {
    let root = parse(text)?;
    let events =
        root.get("traceEvents").and_then(Json::as_arr).ok_or("missing \"traceEvents\"")?;
    if events.is_empty() {
        return Err("\"traceEvents\" is empty".into());
    }
    let mut span_names: Vec<String> = Vec::new();
    let mut thread_tracks = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            other => return Err(format!("event {i}: missing/invalid \"ph\": {other:?}")),
        };
        let name = match ev.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => return Err(format!("event {i}: missing/invalid \"name\": {other:?}")),
        };
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    if ev.get(key).and_then(Json::as_num).is_none() {
                        return Err(format!("event {i} ({name}): missing numeric \"{key}\""));
                    }
                }
                span_names.push(name);
            }
            "M" => {
                if !matches!(
                    name.as_str(),
                    "process_name" | "thread_name" | "thread_sort_index"
                ) {
                    return Err(format!("event {i}: unknown metadata record {name:?}"));
                }
                if ev.get("args").is_none() {
                    return Err(format!("event {i} ({name}): metadata without \"args\""));
                }
                if name == "thread_name" {
                    thread_tracks += 1;
                }
            }
            "C" => {
                if ev.get("ts").and_then(Json::as_num).is_none() {
                    return Err(format!("event {i} ({name}): counter without numeric \"ts\""));
                }
                if ev.get("args").is_none() {
                    return Err(format!("event {i} ({name}): counter without \"args\""));
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    if span_names.is_empty() {
        return Err("trace has no complete (\"X\") span events".into());
    }
    if thread_tracks == 0 {
        return Err("trace has no thread_name metadata (no timeline tracks)".into());
    }
    for required in required_names {
        if !span_names.iter().any(|n| n == required) {
            return Err(format!("trace has no span named {required:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{parse, validate, Json};
    use crate::report::{CounterEvent, Report, Span, Track};

    fn one_track(name: &str, spans: Vec<Span>, counters: Vec<CounterEvent>) -> Report {
        let track = Track { name: name.to_string(), worker: Some(0), spans, counters };
        Report { t0_ns: 1_000, t1_ns: 100_000, tracks: vec![track], ..Default::default() }
    }

    #[test]
    fn renders_all_event_kinds() {
        let report = one_track(
            "worker 0",
            vec![Span {
                label: "stage.speck.encode",
                start_ns: 2_500,
                dur_ns: 10_000,
                depth: 0,
                value: Some(7),
            }],
            vec![CounterEvent { label: "speck.sets_split", t_ns: 3_000, value: 42 }],
        );
        let json = report.chrome_trace();
        validate(&json, &["stage.speck.encode"]).unwrap();
        let root = parse(&json).unwrap();
        let events = root.get("traceEvents").and_then(Json::as_arr).unwrap();
        let by_ph = |ph: &str| -> Vec<&Json> {
            events.iter().filter(|e| e.get("ph") == Some(&Json::Str(ph.into()))).collect()
        };
        // process_name, then thread_name + thread_sort_index for the track.
        assert_eq!(by_ph("M").len(), 3);
        let track_name = by_ph("M")[1].get("args").unwrap().get("name");
        assert_eq!(track_name, Some(&Json::Str("worker 0".into())));
        // 2500 ns after t0=1000 ns → 1.5 µs.
        let span = by_ph("X")[0];
        assert_eq!(span.get("ts").and_then(Json::as_num), Some(1.5));
        assert_eq!(span.get("dur").and_then(Json::as_num), Some(10.0));
        assert_eq!(span.get("args").unwrap().get("v").and_then(Json::as_num), Some(7.0));
        let counter = by_ph("C")[0];
        assert_eq!(counter.get("args").unwrap().get("value").and_then(Json::as_num), Some(42.0));
    }

    #[test]
    fn empty_report_is_still_valid_json() {
        let root = parse(&Report::default().chrome_trace()).unwrap();
        let events = root.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("name"), Some(&Json::Str("process_name".into())));
    }

    #[test]
    fn escapes_label_metacharacters() {
        let json = one_track("a\"b\\c\u{1}", Vec::new(), Vec::new()).chrome_trace();
        let root = parse(&json).unwrap();
        let events = root.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[1].get("args").unwrap().get("name"),
            Some(&Json::Str("a\"b\\c\u{1}".into()))
        );
    }

    #[test]
    fn parses_every_value_kind() {
        let text = r#" {"a": 1.5, "b": [true, false, null, "x\"y\n"], "c": {"n": -3e2}} "#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Num(1.5)));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).unwrap(),
            [Json::Bool(true), Json::Bool(false), Json::Null, Json::Str("x\"y\n".into())]
        );
        assert_eq!(v.get("c").unwrap().get("n").and_then(Json::as_num), Some(-300.0));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\":1}x").is_err());
        assert!(parse("{\"a\":1, \"a\":2}").is_err());
    }

    #[test]
    fn validator_checks_structure_and_names() {
        let good = r#"{
          "displayTimeUnit": "ms",
          "traceEvents": [
            {"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"sperr"}},
            {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},
            {"ph":"X","pid":0,"tid":0,"name":"stage.speck.encode","cat":"sperr","ts":1.5,"dur":10},
            {"ph":"C","pid":0,"tid":0,"name":"speck.zero_runs","ts":2,"args":{"value":7}}
          ]
        }"#;
        validate(good, &[]).unwrap();
        validate(good, &["stage.speck.encode"]).unwrap();
        assert!(validate(good, &["stage.wavelet.forward"])
            .unwrap_err()
            .contains("stage.wavelet.forward"));
        // Structural failures.
        assert!(validate("{}", &[]).is_err());
        assert!(validate(r#"{"traceEvents": []}"#, &[]).is_err());
        // Span missing "dur".
        let bad = r#"{"traceEvents": [
            {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{}},
            {"ph":"X","pid":0,"tid":0,"name":"x","ts":1}
        ]}"#;
        assert!(validate(bad, &[]).unwrap_err().contains("dur"));
        // No thread track.
        let no_track = r#"{"traceEvents": [
            {"ph":"X","pid":0,"tid":0,"name":"x","ts":1,"dur":2}
        ]}"#;
        assert!(validate(no_track, &[]).unwrap_err().contains("thread_name"));
        // Unknown phase.
        let bad_ph = r#"{"traceEvents": [{"ph":"B","name":"x","ts":1}]}"#;
        assert!(validate(bad_ph, &[]).is_err());
    }
}
