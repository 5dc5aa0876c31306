//! Benchmark-side spans around the calls this harness makes into each
//! layer's public API, exported as Chrome trace-event JSON.
//!
//! Spans are off unless a traced run switches them on, and they live only
//! in this package: the program under test carries no instrumentation.
//! [`timed`] and [`timed_units`] are the only ways to open a span, so spans
//! on one thread always nest, and a span's self time is its duration minus
//! its children's. A span also counts the units of work its call did (rows,
//! ticks, cells, …), so a per-layer metric is a span's time per unit.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static THREAD_NAMES: Mutex<BTreeMap<u32, String>> = Mutex::new(BTreeMap::new());

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Per open span, the nanoseconds its finished children took.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The trace's time origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace's time origin.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `layer.call` name; the layer is the part before the first dot.
    pub name: String,
    /// Benchmark thread (one Chrome track each).
    pub tid: u32,
    /// Number of enclosing spans on the same thread.
    pub depth: usize,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus the durations of the span's direct children.
    pub self_ns: u64,
    /// Units of work the call did (1 unless the caller counted them).
    pub units: u64,
}

impl Record {
    /// The layer (module) this span is attributed to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Switches span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The calling thread's trace id.
pub fn thread_id() -> u32 {
    TID.with(|t| *t)
}

/// Names the calling thread's track in the exported trace.
pub fn name_thread(name: &str) {
    let tid = thread_id();
    THREAD_NAMES
        .lock()
        .expect("thread-name lock")
        .insert(tid, name.to_string());
}

/// Runs `f` inside a span called `name` (when recording is on).
pub fn timed<T>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
    timed_units(name, || (f(), 1))
}

/// Runs `f` inside a span called `name` (when recording is on); `f`
/// returns its result and the units of work it did.
pub fn timed_units<T>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> (T, u64)) -> T {
    if !enabled() {
        return f().0;
    }
    let name = name.into();
    STACK.with(|s| s.borrow_mut().push(0));
    let start = Instant::now();
    let (out, units) = f();
    let dur_ns = start.elapsed().as_nanos() as u64;
    let (child_ns, depth) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let child_ns = stack.pop().unwrap_or(0);
        if let Some(parent) = stack.last_mut() {
            *parent += dur_ns;
        }
        (child_ns, stack.len())
    });
    let record = Record {
        name: name.into_owned(),
        tid: thread_id(),
        depth,
        start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
        dur_ns,
        self_ns: dur_ns.saturating_sub(child_ns),
        units,
    };
    RECORDS.lock().expect("trace lock").push(record);
    out
}

/// Names of the spans recorded so far.
pub fn names() -> BTreeSet<String> {
    let records = RECORDS.lock().expect("trace lock");
    records.iter().map(|r| r.name.clone()).collect()
}

/// Removes and returns every span recorded so far, in start order.
pub fn take() -> Vec<Record> {
    let mut records = std::mem::take(&mut *RECORDS.lock().expect("trace lock"));
    records.sort_by_key(|r| (r.start_ns, r.depth));
    records
}

/// Share of the window `[from_ns, to_ns)` covered by top-level spans of
/// thread `tid`.
pub fn coverage(records: &[Record], tid: u32, from_ns: u64, to_ns: u64) -> f64 {
    let covered: u64 = records
        .iter()
        .filter(|r| r.tid == tid && r.depth == 0)
        .map(|r| {
            let end = (r.start_ns + r.dur_ns).min(to_ns);
            end.saturating_sub(r.start_ns.max(from_ns))
        })
        .sum();
    covered as f64 / to_ns.saturating_sub(from_ns).max(1) as f64
}

/// The spans of one name, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
    /// Summed units of work.
    pub units: u64,
}

/// Per span name, the spans' totals.
pub fn by_name(records: &[Record]) -> BTreeMap<String, Totals> {
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for r in records {
        let e = out.entry(r.name.clone()).or_default();
        e.count += 1;
        e.total_ns += r.dur_ns;
        e.self_ns += r.self_ns;
        e.units += r.units;
    }
    out
}

/// The median over the spans called `name` of each span's nanoseconds per
/// unit of work; `None` when no such span did any work.
pub fn per_unit_ns(records: &[Record], name: &str) -> Option<f64> {
    let per_unit: Vec<f64> = records
        .iter()
        .filter(|r| r.name == name && r.units > 0)
        .map(|r| r.dur_ns as f64 / r.units as f64)
        .collect();
    (!per_unit.is_empty()).then(|| crate::stats::median(&per_unit))
}

/// The records as a Chrome trace-event document (`"ph":"X"` complete
/// events, microsecond timestamps, one track per benchmark thread), which
/// Perfetto and `chrome://tracing` open directly.
pub fn chrome_json(records: &[Record]) -> String {
    let mut events: Vec<String> = THREAD_NAMES
        .lock()
        .expect("thread-name lock")
        .iter()
        .map(|(tid, name)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json::quote(name)
            )
        })
        .collect();
    events.extend(records.iter().map(|r| {
        format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"self_us\":{},\"units\":{}}}}}",
            json::quote(&r.name),
            json::quote(r.layer()),
            r.tid,
            json::num(r.start_ns as f64 / 1e3),
            json::num(r.dur_ns as f64 / 1e3),
            json::num(r.self_ns as f64 / 1e3),
            r.units,
        )
    }));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    /// Recording is process-global, so the whole life cycle is one test.
    #[test]
    fn spans_nest_export_and_attribute_self_time() {
        assert_eq!(timed("off.ignored", || 7), 7, "disabled spans still run");
        set_enabled(true);
        name_thread("test-main");
        let from = now_ns();
        timed("outer.op", || {
            spin(2);
            timed("inner.a", || spin(3));
            timed("inner.b", || timed_units("leaf.c", || (spin(1), 4)));
        });
        let to = now_ns();
        set_enabled(false);
        assert!(names().contains("leaf.c") && !names().contains("off.ignored"));
        let records: Vec<Record> = take()
            .into_iter()
            .filter(|r| r.tid == thread_id())
            .collect();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["outer.op", "inner.a", "inner.b", "leaf.c"]);

        let outer = &records[0];
        let (a, b, c) = (&records[1], &records[2], &records[3]);
        assert_eq!((outer.depth, a.depth, b.depth, c.depth), (0, 1, 1, 2));
        assert_eq!(outer.self_ns, outer.dur_ns - a.dur_ns - b.dur_ns);
        assert_eq!(b.self_ns, b.dur_ns - c.dur_ns);
        assert_eq!(c.self_ns, c.dur_ns, "a leaf's self time is its duration");
        assert!(outer.self_ns >= 2_000_000 && a.self_ns >= 3_000_000);
        for child in [a, b] {
            assert!(child.start_ns >= outer.start_ns);
            assert!(child.start_ns + child.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        let cov = coverage(&records, thread_id(), from, to);
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
        let totals = by_name(&records);
        assert_eq!((totals["inner.a"].count, totals["inner.a"].units), (1, 1));
        assert_eq!(totals["leaf.c"].units, 4);
        assert_eq!(
            per_unit_ns(&records, "leaf.c"),
            Some(c.dur_ns as f64 / 4.0),
            "time per unit of work"
        );
        assert_eq!(per_unit_ns(&records, "absent"), None);

        let doc = json::parse(&chrome_json(&records)).expect("well-formed JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("events");
        let complete: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 4);
        for e in complete {
            for key in ["ts", "dur", "tid", "pid"] {
                assert!(e.get(key).and_then(json::Value::as_f64).is_some(), "{key}");
            }
            assert!(e.get("name").and_then(json::Value::as_str).is_some());
            for key in ["self_us", "units"] {
                assert!(e.get("args").and_then(|a| a.get(key)).is_some(), "{key}");
            }
        }
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(json::Value::as_str)
                    == Some("test-main")
        }));
    }
}
