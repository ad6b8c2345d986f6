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

use crate::{Registry, Unit};

struct Frame {
    name: &'static str,
    /// Nanoseconds spent in already-closed child spans.
    child_nanos: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Scoped timer; see the module docs. Created by [`Registry::span`] or the
/// free function [`span`] (global registry).
pub struct SpanGuard {
    /// The registry the span records into on drop; `None` when recording
    /// was disabled at open time — the drop is free.
    registry: Option<Registry>,
    name: &'static str,
    start: Instant,
    // Spans time one thread; keep the guard on it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    pub(crate) fn open(registry: Registry, name: &'static str) -> SpanGuard {
        let registry = registry.is_enabled().then_some(registry);
        if registry.is_some() {
            STACK.with(|s| {
                s.borrow_mut().push(Frame {
                    name,
                    child_nanos: 0,
                })
            });
        }
        SpanGuard {
            registry,
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
        let Some(registry) = self.registry.take() else {
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
        registry
            .histogram(
                &format!("span.{}", self.name),
                "span wall time",
                Unit::Seconds,
            )
            .record_nanos(elapsed);
        if child_nanos > 0 {
            registry
                .histogram(
                    &format!("span.{}.self", self.name),
                    "span wall time excluding child spans",
                    Unit::Seconds,
                )
                .record_nanos(elapsed.saturating_sub(child_nanos));
        }
    }
}

/// Opens a span on the global registry.
pub fn span(name: &'static str) -> SpanGuard {
    Registry::global().span(name)
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
