//! The engine layer's probe: a [`Backend`] decorator around the warehouse
//! that forwards every call unchanged and, while enabled, counts and times
//! it. The gateway wraps whatever backend it is given in its own policy
//! layers, so the probe sits directly on top of `EngineDb` and sees exactly
//! the calls that reach the engine.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hyperq_core::backend::{Backend, BackendError, ExecResult, RequestContext};
use hyperq_xtra::catalog::TableDef;

/// Cumulative probe counters; subtract two snapshots for one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// `execute`/`execute_ctx` calls.
    pub requests: u64,
    /// Nanoseconds spent inside those calls.
    pub exec_ns: u64,
    /// Rows returned (queries) or affected (DML) by successful calls.
    pub rows: u64,
    /// `table_meta` calls: catalog lookups.
    pub catalog_lookups: u64,
    pub catalog_ns: u64,
    pub resets: u64,
    pub reset_ns: u64,
}

impl EngineCounts {
    /// Every nanosecond spent in the engine, whatever the call.
    pub fn busy_ns(&self) -> u64 {
        self.exec_ns + self.catalog_ns + self.reset_ns
    }

    pub fn add(&mut self, other: &EngineCounts) {
        self.requests += other.requests;
        self.exec_ns += other.exec_ns;
        self.rows += other.rows;
        self.catalog_lookups += other.catalog_lookups;
        self.catalog_ns += other.catalog_ns;
        self.resets += other.resets;
        self.reset_ns += other.reset_ns;
    }

    pub fn since(&self, earlier: &EngineCounts) -> EngineCounts {
        EngineCounts {
            requests: self.requests - earlier.requests,
            exec_ns: self.exec_ns - earlier.exec_ns,
            rows: self.rows - earlier.rows,
            catalog_lookups: self.catalog_lookups - earlier.catalog_lookups,
            catalog_ns: self.catalog_ns - earlier.catalog_ns,
            resets: self.resets - earlier.resets,
            reset_ns: self.reset_ns - earlier.reset_ns,
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    exec_ns: AtomicU64,
    rows: AtomicU64,
    catalog_lookups: AtomicU64,
    catalog_ns: AtomicU64,
    resets: AtomicU64,
    reset_ns: AtomicU64,
}

/// Counting, timing decorator around a backend. Disabled, it is a plain
/// forwarder: the untraced window of a traced run pays only one relaxed
/// load per call.
pub struct EngineProbe {
    inner: Arc<dyn Backend>,
    enabled: AtomicBool,
    c: Counters,
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl EngineProbe {
    pub fn wrap(inner: Arc<dyn Backend>) -> Arc<EngineProbe> {
        Arc::new(EngineProbe {
            inner,
            enabled: AtomicBool::new(false),
            c: Counters::default(),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> EngineCounts {
        let c = &self.c;
        EngineCounts {
            requests: c.requests.load(Ordering::Relaxed),
            exec_ns: c.exec_ns.load(Ordering::Relaxed),
            rows: c.rows.load(Ordering::Relaxed),
            catalog_lookups: c.catalog_lookups.load(Ordering::Relaxed),
            catalog_ns: c.catalog_ns.load(Ordering::Relaxed),
            resets: c.resets.load(Ordering::Relaxed),
            reset_ns: c.reset_ns.load(Ordering::Relaxed),
        }
    }

    fn timed_exec(
        &self,
        run: impl FnOnce() -> Result<ExecResult, BackendError>,
    ) -> Result<ExecResult, BackendError> {
        if !self.enabled.load(Ordering::Relaxed) {
            return run();
        }
        let t0 = Instant::now();
        let result = run();
        self.c.exec_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.c.requests.fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = &result {
            self.c.rows.fetch_add(r.row_count, Ordering::Relaxed);
        }
        result
    }
}

impl Backend for EngineProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
        self.timed_exec(|| self.inner.execute(sql))
    }

    fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
        self.timed_exec(|| self.inner.execute_ctx(sql, ctx))
    }

    fn table_meta(&self, name: &str) -> Option<TableDef> {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.table_meta(name);
        }
        let t0 = Instant::now();
        let def = self.inner.table_meta(name);
        self.c
            .catalog_ns
            .fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.c.catalog_lookups.fetch_add(1, Ordering::Relaxed);
        def
    }

    fn reset_session(&self) -> Result<(), BackendError> {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.reset_session();
        }
        let t0 = Instant::now();
        let r = self.inner.reset_session();
        self.c.reset_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.c.resets.fetch_add(1, Ordering::Relaxed);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::catalog::ColumnDef;
    use hyperq_xtra::types::SqlType;
    use std::sync::Mutex;

    /// Records what reaches it, so forwarding can be checked exactly.
    #[derive(Default)]
    struct Recorder {
        seen: Mutex<Vec<(String, Option<RequestContext>)>>,
        lookups: Mutex<Vec<String>>,
        resets: AtomicU64,
    }

    impl Backend for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn execute(&self, sql: &str) -> Result<ExecResult, BackendError> {
            self.seen.lock().unwrap().push((sql.to_string(), None));
            Ok(ExecResult {
                row_count: 7,
                ..ExecResult::ack()
            })
        }
        fn execute_ctx(&self, sql: &str, ctx: RequestContext) -> Result<ExecResult, BackendError> {
            self.seen.lock().unwrap().push((sql.to_string(), Some(ctx)));
            Ok(ExecResult {
                row_count: 3,
                ..ExecResult::ack()
            })
        }
        fn table_meta(&self, name: &str) -> Option<TableDef> {
            self.lookups.lock().unwrap().push(name.to_string());
            (name == "T")
                .then(|| TableDef::new("T", vec![ColumnDef::new("A", SqlType::Integer, true)]))
        }
        fn reset_session(&self) -> Result<(), BackendError> {
            self.resets.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn forwards_request_context_and_table_meta_unchanged() {
        let inner = Arc::new(Recorder::default());
        let probe = EngineProbe::wrap(Arc::clone(&inner) as Arc<dyn Backend>);
        for enabled in [false, true] {
            probe.set_enabled(enabled);
            let ctx = RequestContext {
                idempotent: false,
                in_transaction: true,
            };
            let r = probe.execute_ctx("UPDATE T SET A = 1", ctx).unwrap();
            assert_eq!(r.row_count, 3);
            assert_eq!(
                inner.seen.lock().unwrap().last().cloned(),
                Some(("UPDATE T SET A = 1".to_string(), Some(ctx))),
                "the context must reach the inner backend as given"
            );
            probe.execute("SELECT 1").unwrap();
            assert_eq!(inner.seen.lock().unwrap().last().unwrap().1, None);
            let def = probe.table_meta("T").expect("inner catalog answer");
            assert_eq!(def, inner.table_meta("T").unwrap());
            assert!(probe.table_meta("MISSING").is_none());
            probe.reset_session().unwrap();
            assert_eq!(probe.name(), "recorder");
        }
        assert_eq!(inner.resets.load(Ordering::Relaxed), 2);
        assert_eq!(
            *inner.lookups.lock().unwrap(),
            ["T", "T", "MISSING", "T", "T", "MISSING"],
            "every lookup reaches the inner catalog with its name unchanged"
        );
    }

    #[test]
    fn counts_only_while_enabled() {
        let inner = Arc::new(Recorder::default());
        let probe = EngineProbe::wrap(inner as Arc<dyn Backend>);
        probe
            .execute_ctx("SELECT 1", RequestContext::read_only())
            .unwrap();
        probe.table_meta("T");
        assert_eq!(probe.snapshot(), EngineCounts::default());

        probe.set_enabled(true);
        let before = probe.snapshot();
        probe
            .execute_ctx("SELECT 1", RequestContext::read_only())
            .unwrap();
        probe.execute("SELECT 2").unwrap();
        probe.table_meta("T");
        probe.table_meta("U");
        probe.reset_session().unwrap();
        let d = probe.snapshot().since(&before);
        assert_eq!(
            (d.requests, d.rows, d.catalog_lookups, d.resets),
            (2, 10, 2, 1)
        );
        assert_eq!(d.busy_ns(), d.exec_ns + d.catalog_ns + d.reset_ns);
    }
}
