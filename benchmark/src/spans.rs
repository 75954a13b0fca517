//! Host-clock spans recorded by the benchmark around each call into a
//! layer, kept in memory and written as Chrome trace-event JSON at exit.
//!
//! Spans of different processes share one timeline: every recorder stamps
//! microseconds since the Unix epoch.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// Layer-qualified name, e.g. `pclouds.train`.
    pub name: String,
    /// Start, µs since the Unix epoch.
    pub start_us: f64,
    /// End, µs since the Unix epoch.
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

/// Per-process span recorder.
pub struct Recorder {
    epoch_us: f64,
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Recorder {
    /// Recorder whose clock starts now.
    pub fn new() -> Self {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6);
        Recorder {
            epoch_us,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch_us + self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds. `f` gets the recorder back, to nest.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(HostSpan {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[index].end_us = end_us;
        (value, (end_us - start_us) / 1e6)
    }

    /// Every span recorded so far, in open order.
    pub fn into_spans(self) -> Vec<HostSpan> {
        self.spans
    }
}

impl HostSpan {
    /// Child-report form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("start_us", Json::Num(self.start_us)),
            ("end_us", Json::Num(self.end_us)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
        ])
    }

    /// Inverse of [`HostSpan::to_json`].
    pub fn from_json(v: &Json) -> Option<HostSpan> {
        Some(HostSpan {
            name: v.get("name")?.as_str()?.to_string(),
            start_us: v.get("start_us")?.as_f64()?,
            end_us: v.get("end_us")?.as_f64()?,
            parent: v.get("parent")?.as_f64().map(|p| p as usize),
        })
    }
}

/// The spans of one traced child, placed on the shared timeline.
pub struct Track {
    /// Workload the child ran.
    pub workload: String,
    /// Round the child belonged to.
    pub round: usize,
    /// OS process id, the Chrome-trace `pid`.
    pub pid: u32,
    /// The child's spans.
    pub spans: Vec<HostSpan>,
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one process row
/// per child, complete (`"ph":"X"`) events whose nesting is their
/// containment in time; `args` repeats the parent by name.
pub fn chrome_trace(tracks: &[Track]) -> Json {
    let origin = tracks
        .iter()
        .flat_map(|t| &t.spans)
        .map(|s| s.start_us)
        .fold(f64::INFINITY, f64::min);
    let mut events = Vec::new();
    for t in tracks {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(f64::from(t.pid))),
            (
                "args",
                Json::obj([(
                    "name",
                    Json::str(format!("{} round {}", t.workload, t.round)),
                )]),
            ),
        ]));
        for s in &t.spans {
            let parent = s
                .parent
                .and_then(|p| t.spans.get(p))
                .map_or("", |p| p.name.as_str());
            events.push(Json::obj([
                ("name", Json::str(&s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us - origin)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(f64::from(t.pid))),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("parent", Json::str(parent)),
                        ("workload", Json::str(&t.workload)),
                        ("round", Json::Num(t.round as f64)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_round_trip() {
        let mut rec = Recorder::new();
        let ((), outer) = rec.scope("bench.child", |rec| {
            rec.scope("pclouds.train", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.scope("bench.verify", |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(outer >= 0.002);
        assert!(spans[1].start_us >= spans[0].start_us && spans[2].end_us <= spans[0].end_us);
        for s in &spans {
            let line = s.to_json().to_line();
            assert_eq!(
                HostSpan::from_json(&Json::parse(&line).unwrap()).as_ref(),
                Some(s)
            );
        }
        let trace = chrome_trace(&[Track {
            workload: "w".into(),
            round: 0,
            pid: 7,
            spans,
        }]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4, "one metadata event plus three spans");
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("bench.child")
        );
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(0.0));
    }
}
