//! RAII tracing spans with a thread-local span stack.
//!
//! A span is a scoped timer: opening pushes a frame on the current thread's
//! stack, dropping pops it and records the elapsed time into the histogram
//! `span.<name>` (unit: seconds). Because the stack tracks nesting, a
//! parent additionally records its **self time** — elapsed minus time spent
//! in child spans — into `span.<name>.self`, so phase breakdowns like
//! `index.build.external` → `index.build.run` / `index.merge` sum without
//! double counting.
//!
//! Guards are `!Send` by construction (they time one thread's work) and
//! must be dropped in LIFO order, which scoped `let _span = …;` usage
//! guarantees.

use std::cell::RefCell;
use std::time::Instant;

use crate::{Histogram, Registry, Unit};

struct Frame {
    name: &'static str,
    /// Nanoseconds spent in already-closed child spans.
    child_nanos: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Where a closing span records its timings: resolved lazily by name (the
/// one-off [`span`] path) or into histograms cached at handle creation
/// (the hot-path [`SpanHandle`]).
enum Recorder {
    Lazy(Registry),
    Cached {
        total: Histogram,
        exclusive: Histogram,
    },
}

/// Scoped timer; see the module docs. Created by [`Registry::span`], the
/// free function [`span`] (global registry), or [`SpanHandle::start`].
pub struct SpanGuard {
    /// `None` when recording was disabled at open time — the drop is free.
    recorder: Option<Recorder>,
    name: &'static str,
    start: Instant,
    // Spans time one thread; keep the guard on it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    pub(crate) fn open(registry: Registry, name: &'static str) -> SpanGuard {
        let recorder = registry.is_enabled().then_some(Recorder::Lazy(registry));
        Self::with_recorder(recorder, name)
    }

    fn with_recorder(recorder: Option<Recorder>, name: &'static str) -> SpanGuard {
        if recorder.is_some() {
            STACK.with(|s| {
                s.borrow_mut().push(Frame {
                    name,
                    child_nanos: 0,
                })
            });
        }
        SpanGuard {
            recorder,
            name,
            start: Instant::now(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder.take() else {
            return;
        };
        let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let child_nanos = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop();
            debug_assert!(
                frame.as_ref().is_some_and(|f| f.name == self.name),
                "span stack corrupted: expected {}, found {:?}",
                self.name,
                frame.as_ref().map(|f| f.name)
            );
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos += elapsed;
            }
            frame.map_or(0, |f| f.child_nanos)
        });
        match recorder {
            Recorder::Lazy(registry) => {
                let total = registry.histogram(
                    &format!("span.{}", self.name),
                    "span wall time",
                    Unit::Seconds,
                );
                total.record_nanos(elapsed);
                if child_nanos > 0 {
                    let exclusive = registry.histogram(
                        &format!("span.{}.self", self.name),
                        "span wall time excluding child spans",
                        Unit::Seconds,
                    );
                    exclusive.record_nanos(elapsed.saturating_sub(child_nanos));
                }
            }
            Recorder::Cached { total, exclusive } => {
                total.record_nanos(elapsed);
                if child_nanos > 0 {
                    exclusive.record_nanos(elapsed.saturating_sub(child_nanos));
                }
            }
        }
    }
}

/// A span whose histograms were resolved once up front: `start` and the
/// guard's drop touch no registry lock and format no name, just the
/// thread-local stack and a few atomic adds. Use for spans opened per
/// query or per IO, where [`span`]'s lookup cost shows up in profiles.
///
/// Cloning shares the underlying histograms.
#[derive(Clone)]
pub struct SpanHandle {
    registry: Registry,
    name: &'static str,
    total: Histogram,
    exclusive: Histogram,
}

impl SpanHandle {
    pub(crate) fn register(registry: Registry, name: &'static str) -> SpanHandle {
        let total = registry.histogram(&format!("span.{name}"), "span wall time", Unit::Seconds);
        let exclusive = registry.histogram(
            &format!("span.{name}.self"),
            "span wall time excluding child spans",
            Unit::Seconds,
        );
        SpanHandle {
            registry,
            name,
            total,
            exclusive,
        }
    }

    /// Opens a span recording into the pre-registered histograms.
    pub fn start(&self) -> SpanGuard {
        let recorder = self.registry.is_enabled().then(|| Recorder::Cached {
            total: self.total.clone(),
            exclusive: self.exclusive.clone(),
        });
        SpanGuard::with_recorder(recorder, self.name)
    }
}

/// Opens a span on the global registry.
pub fn span(name: &'static str) -> SpanGuard {
    Registry::global().span(name)
}

/// Pre-registers a span's histograms on the global registry; see
/// [`SpanHandle`].
pub fn span_handle(name: &'static str) -> SpanHandle {
    Registry::global().span_handle(name)
}

/// Depth of the current thread's span stack (0 outside any span).
pub fn span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;

    fn hist_of(reg: &Registry, name: &str) -> crate::HistogramSnapshot {
        for m in reg.snapshot() {
            if m.name == name {
                if let MetricValue::Histogram(h) = m.value {
                    return h;
                }
            }
        }
        panic!("metric {name} not found");
    }

    #[test]
    fn span_records_and_stack_balances() {
        let reg = Registry::new();
        assert_eq!(span_depth(), 0);
        {
            let _outer = reg.span("outer");
            assert_eq!(span_depth(), 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = reg.span("inner");
                assert_eq!(span_depth(), 2);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        let outer = hist_of(&reg, "span.outer");
        let inner = hist_of(&reg, "span.inner");
        let outer_self = hist_of(&reg, "span.outer.self");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(outer_self.count, 1);
        // total(outer) ≥ total(inner), and self excludes the child.
        assert!(outer.sum >= inner.sum);
        assert!(outer_self.sum <= outer.sum - inner.sum);
    }

    #[test]
    fn disabled_spans_cost_nothing_and_keep_stack_empty() {
        let reg = Registry::new();
        reg.set_enabled(false);
        {
            let _s = reg.span("quiet");
            assert_eq!(span_depth(), 0);
        }
        reg.set_enabled(true);
        assert!(reg.snapshot().iter().all(|m| m.name != "span.quiet"));
    }

    #[test]
    fn sibling_spans_accumulate_into_one_histogram() {
        let reg = Registry::new();
        for _ in 0..5 {
            let _s = reg.span("repeat");
        }
        assert_eq!(hist_of(&reg, "span.repeat").count, 5);
    }

    #[test]
    fn handle_spans_record_like_lazy_spans_and_respect_disable() {
        let reg = Registry::new();
        let handle = reg.span_handle("hot");
        {
            let _outer = handle.start();
            assert_eq!(span_depth(), 1);
            let _inner = reg.span("hot.child");
        }
        assert_eq!(span_depth(), 0);
        assert_eq!(hist_of(&reg, "span.hot").count, 1);
        assert_eq!(hist_of(&reg, "span.hot.child").count, 1);
        assert_eq!(hist_of(&reg, "span.hot.self").count, 1);
        // Disabling the registry disables handles registered earlier.
        reg.set_enabled(false);
        {
            let _quiet = handle.start();
            assert_eq!(span_depth(), 0);
        }
        reg.set_enabled(true);
        assert_eq!(hist_of(&reg, "span.hot").count, 1);
    }

    #[test]
    fn spans_on_different_threads_do_not_interfere() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    let _a = reg.span("threaded");
                    assert_eq!(span_depth(), 1);
                    let _b = reg.span("threaded.child");
                    assert_eq!(span_depth(), 2);
                });
            }
        });
        assert_eq!(hist_of(&reg, "span.threaded").count, 4);
        assert_eq!(hist_of(&reg, "span.threaded.child").count, 4);
    }
}
