//! RAII span timers: time a scope, record the elapsed microseconds into a
//! histogram named by the span's nesting path.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// The stack of span names currently open on this thread; a nested
    /// span records under the `/`-joined path of the whole stack.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Open a span. Time from now until the returned guard drops is recorded
/// (in microseconds) into a histogram named by the nesting path: a span
/// `"merge"` opened inside a span `"engine.global_step"` records under
/// `"engine.global_step/merge"`.
///
/// When the registry is disabled this reads no clock and touches no
/// thread-local state — the guard is inert.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { live: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    SpanGuard { live: Some((path, Instant::now())) }
}

/// Guard returned by [`span`]; records elapsed time on drop.
///
/// Spans must drop in reverse open order on a given thread (the natural
/// result of scoping them with `let _t = obs::span(..)`).
#[must_use = "a span records when this guard drops; binding it to `_` drops immediately"]
pub struct SpanGuard {
    /// `None` when the registry was disabled at open time.
    live: Option<(String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((path, start)) = self.live.take() {
            let micros = start.elapsed().as_secs_f64() * 1e6;
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            crate::observe(&path, micros);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricSnapshot;
    use crate::sink::MemorySink;

    // The registry is process-global, so exercise every span behavior in
    // one test rather than racing enable/disable across test threads.
    #[test]
    fn spans_nest_into_paths_and_disabled_spans_are_inert() {
        let _g = crate::TEST_GUARD.lock();
        // Disabled: no clock, no recording, guard is inert.
        crate::disable();
        crate::reset();
        {
            let _a = crate::span("outer");
            let _b = crate::span("inner");
        }
        assert!(crate::snapshot().is_empty());

        // Enabled: nested spans record under joined paths, siblings under
        // the same path share one histogram.
        crate::enable(Box::new(MemorySink::shared()));
        crate::reset();
        {
            let _a = crate::span("outer");
            {
                let _b = crate::span("inner");
            }
            {
                let _b = crate::span("inner");
            }
        }
        {
            let _c = crate::span("solo");
        }
        let snaps = crate::snapshot();
        crate::disable();

        let names: Vec<&str> = snaps.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["outer", "outer/inner", "solo"]);
        let inner = &snaps[1];
        match inner {
            MetricSnapshot::Histogram { count, min, .. } => {
                assert_eq!(*count, 2);
                assert!(*min >= 0.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        // The stack unwound fully: a fresh span is top-level again.
        crate::enable(Box::new(MemorySink::shared()));
        crate::reset();
        {
            let _d = crate::span("fresh");
        }
        let snaps = crate::snapshot();
        crate::disable();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].name(), "fresh");
    }
}
