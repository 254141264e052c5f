//! Spans around the benchmark's own calls into each layer.
//!
//! A span is a name, a start and end on the host clock, the span that
//! caused it and a request id. Aggregates (count, total, self time,
//! every duration for percentiles) are kept for all requests; the first
//! [`VERBATIM_REQUESTS`] requests are also kept span by span and written
//! as Chrome trace-event JSON when the run ends. Every buffer is
//! allocated before the timed phase. Spans never touch a `Timeline`, so
//! a traced run reports the same virtual numbers as an untraced one.

use std::time::Instant;

use crate::json::Json;

pub const VERBATIM_REQUESTS: u32 = 2_000;

/// The span names, in the order of `Tracer::aggs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanName {
    /// One harness request: build the key, call, check the result.
    Request,
    DbPut,
    DbGet,
    DbScan,
    /// `Request::encode_payload`.
    Encode,
    /// Frame the window's requests into the `BufWriter` and flush it.
    SocketWrite,
    /// Wait for, then read, one response frame.
    WaitRead,
    /// `Response::decode`.
    Decode,
}

pub const SPAN_NAMES: [(SpanName, &str); 8] = [
    (SpanName::Request, "request"),
    (SpanName::DbPut, "db.put"),
    (SpanName::DbGet, "db.get"),
    (SpanName::DbScan, "db.scan"),
    (SpanName::Encode, "protocol.encode"),
    (SpanName::SocketWrite, "pm-blade-client.socket_write"),
    (SpanName::WaitRead, "pm-blade-client.wait_read"),
    (SpanName::Decode, "protocol.decode"),
];

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub parent: Option<SpanName>,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default, Debug)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it covered by child spans.
    pub self_ns: u64,
    /// Every duration, for percentiles.
    pub durations: Vec<u32>,
}

pub struct Tracer {
    origin: Instant,
    pub aggs: Vec<SpanAgg>,
    pub verbatim: Vec<Span>,
}

impl Tracer {
    /// `requests` bounds how many spans of one name the run can record.
    pub fn new(requests: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            aggs: SPAN_NAMES
                .iter()
                .map(|_| SpanAgg {
                    durations: Vec::with_capacity(requests),
                    ..SpanAgg::default()
                })
                .collect(),
            verbatim: Vec::with_capacity(VERBATIM_REQUESTS as usize * 6),
        }
    }

    /// Nanoseconds since the tracer was made.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The clock in a traced loop, nothing in an untraced one (the two
    /// are one function compiled twice).
    #[inline]
    pub fn now_if<const TRACED: bool>(&self) -> u64 {
        if TRACED {
            self.now()
        } else {
            0
        }
    }

    /// Record a finished span; `children_ns` is the time its child
    /// spans covered.
    #[inline]
    pub fn record(
        &mut self,
        name: SpanName,
        parent: Option<SpanName>,
        request: u32,
        start_ns: u64,
        end_ns: u64,
        children_ns: u64,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        let agg = &mut self.aggs[name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(children_ns);
        if agg.durations.len() < agg.durations.capacity() {
            agg.durations.push(dur.min(u32::MAX as u64) as u32);
        }
        if request < VERBATIM_REQUESTS && self.verbatim.len() < self.verbatim.capacity() {
            self.verbatim.push(Span {
                name,
                parent,
                request,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn agg(&self, name: SpanName) -> &SpanAgg {
        &self.aggs[name as usize]
    }

    /// Chrome trace-event JSON: the verbatim spans as complete (`X`)
    /// events (ts/dur in microseconds, one track per request modulo 16
    /// so pipelined requests do not overlap on a track), then one
    /// instant event per span name carrying its aggregate.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut events: Vec<Json> = self
            .verbatim
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(span_label(s.name))),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num((s.request % 16) as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur",
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args",
                        Json::obj([
                            ("request", Json::Num(s.request as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::str(span_label(p))),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        for (name, label) in SPAN_NAMES {
            let a = self.agg(name);
            if a.count == 0 {
                continue;
            }
            events.push(Json::obj([
                ("name", Json::str(format!("aggregate:{label}"))),
                ("cat", Json::str(workload)),
                ("ph", Json::str("i")),
                ("s", Json::str("g")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(0.0)),
                ("ts", Json::Num(0.0)),
                (
                    "args",
                    Json::obj([
                        ("count", Json::Num(a.count as f64)),
                        ("total_us", Json::Num(a.total_ns as f64 / 1e3)),
                        ("self_us", Json::Num(a.self_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
        .pretty()
    }
}

pub fn span_label(name: SpanName) -> &'static str {
    SPAN_NAMES[name as usize].1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(8);
        t.record(SpanName::DbGet, Some(SpanName::Request), 0, 10, 70, 0);
        t.record(SpanName::Request, None, 0, 0, 100, 60);
        let req = t.agg(SpanName::Request);
        assert_eq!((req.count, req.total_ns, req.self_ns), (1, 100, 40));
        assert_eq!(t.agg(SpanName::DbGet).durations, vec![60]);
        let text = t.chrome_json("w");
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4, "two spans and two aggregates");
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("db.get"));
    }

    #[test]
    fn names_index_their_own_aggregate() {
        for (i, (name, _)) in SPAN_NAMES.iter().enumerate() {
            assert_eq!(*name as usize, i);
        }
    }

    #[test]
    fn only_the_first_requests_are_kept_verbatim() {
        let mut t = Tracer::new(4);
        t.record(SpanName::DbPut, None, VERBATIM_REQUESTS, 0, 5, 0);
        t.record(SpanName::DbPut, None, VERBATIM_REQUESTS - 1, 0, 5, 0);
        assert_eq!(t.verbatim.len(), 1);
        assert_eq!(t.agg(SpanName::DbPut).count, 2);
    }
}
