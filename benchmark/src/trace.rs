//! In-memory spans around the harness's calls into each layer, written
//! out in Chrome-trace format when the traced run ends.
//!
//! Spans are recorded from outside the program (around public calls);
//! spans inside the program are the later `tiledec-trace` change.

use std::time::Instant;

use crate::json::Json;

/// Handle of an open or closed span.
pub type SpanId = usize;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-level name, e.g. `"split"` or `"tile.decode"`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch to the start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch to the end.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which repetition of the traced pass recorded it.
    pub pass: u32,
    /// Coded-order picture index, or -1.
    pub picture: i32,
    /// Tile index, or -1.
    pub tile: i32,
    /// Bytes the call consumed or produced, when that is its work measure.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Every span begun so far, in begin order.
    pub spans: Vec<Span>,
    /// Stamped onto spans begun from now on.
    pub pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        picture: i32,
        tile: i32,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            pass: self.pass,
            picture,
            tile,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span, recording the bytes it moved.
    pub fn end(&mut self, id: SpanId, bytes: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.bytes = bytes;
    }

    /// Records a finished span from two instants taken by the caller (for
    /// intervals only known after the fact, like picture emission times).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        picture: i32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let since_epoch = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            parent,
            pass: self.pass,
            picture,
            tile: -1,
            bytes: 0,
        });
        self.spans.len() - 1
    }

    /// Total nanoseconds of the spans called `name` recorded in `pass`.
    pub fn total_ns(&self, name: &str, pass: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.pass == pass)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children of one parent never overlap here (the
    /// harness is single-threaded), so that part is their summed duration.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
    /// complete events, microsecond timestamps, one track per tile.
    pub fn to_chrome_trace(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::object([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num((s.tile + 1) as f64)),
                    (
                        "args",
                        Json::object([
                            ("id", Json::num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                            ),
                            ("pass", Json::num(s.pass as f64)),
                            ("picture", Json::num(s.picture as f64)),
                            ("tile", Json::num(s.tile as f64)),
                            ("bytes", Json::num(s.bytes as f64)),
                            ("start_ns", Json::num(s.start_ns as f64)),
                            ("end_ns", Json::num(s.end_ns as f64)),
                            ("self_ns", Json::num(self_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        let root = t.begin("root", None, -1, -1);
        let a = t.begin("child", Some(root), 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a, 10);
        let b = t.begin("child", Some(root), 0, 1);
        t.end(b, 0);
        t.end(root, 0);
        let own = t.self_ns();
        let kids = t.spans[a].dur_ns() + t.spans[b].dur_ns();
        assert_eq!(own[root], t.spans[root].dur_ns() - kids);
        assert_eq!(own[a], t.spans[a].dur_ns());
        assert_eq!(t.total_ns("child", 0), kids);
        assert_eq!(t.total_ns("child", 1), 0);
        let doc = t.to_chrome_trace();
        assert!(matches!(doc.get("traceEvents"), Some(Json::Arr(events)) if events.len() == 3));
    }
}
