//! Driving client sessions: the untimed warm-up pass that also collects
//! the answers to check, the timed closed-loop window, and the serialized
//! window of a traced run.

use std::time::{Duration, Instant};

use hyperq_core::ObsContext;
use hyperq_wire::{Client, ClientResultSet, WireError, WireStats};

use crate::check::Digest;
use crate::probe::EngineCounts;
use crate::stats::{Mark, Sample};
use crate::workload::{Kind, Rig, SessionSpec, Spec};

/// The wire code of a failed request: the gateway's `[NNNN] message`
/// errors, or 0 for a failure without one (a broken connection).
pub fn error_code(e: &WireError) -> u16 {
    match e {
        WireError::Protocol(m) => m
            .strip_prefix('[')
            .and_then(|rest| rest.split(']').next())
            .and_then(|code| code.parse().ok())
            .unwrap_or(0),
        _ => 0,
    }
}

fn send(
    client: &mut Client,
    sql: &str,
    limit: Duration,
) -> (Duration, Result<Vec<ClientResultSet>, WireError>) {
    let t0 = Instant::now();
    let r = client.run_timed(sql, limit);
    (t0.elapsed(), r)
}

fn sample(
    stmt: u32,
    session: usize,
    elapsed: Duration,
    done: Duration,
    r: &Result<Vec<ClientResultSet>, WireError>,
) -> Sample {
    let (error, rows) = match r {
        Ok(sets) => (None, sets.iter().map(|s| s.rows.len() as u64).sum()),
        Err(e) => (Some(error_code(e)), 0),
    };
    Sample {
        stmt,
        session: session as u8,
        elapsed,
        done,
        error,
        rows,
    }
}

/// Process CPU time: user plus system, every thread, exited ones included
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, nanosecond resolution).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on this target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// The published translation-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheCounts {
    pub fn now() -> CacheCounts {
        let m = &ObsContext::global().metrics;
        CacheCounts {
            hits: m.counter_value("hyperq_cache_hits_total", &[]),
            misses: m.counter_value("hyperq_cache_misses_total", &[]),
            evictions: m.counter_value("hyperq_cache_evictions_total", &[]),
        }
    }

    pub fn since(&self, earlier: &CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// The first pass: each session sends each of its distinct statements
/// once, in order. It fills the translation cache before timing starts and
/// yields the client-visible answers the check compares.
pub struct WarmUp {
    /// Per session, per distinct statement: the answer's digest, or `None`
    /// when the statement failed.
    pub digests: Vec<Vec<Option<Digest>>>,
    pub errors: Vec<Vec<Option<u16>>>,
    pub cache: CacheCounts,
}

pub fn warm_up(spec: &Spec, rig: &mut Rig) -> WarmUp {
    let limit = spec.kind.limit();
    let before = CacheCounts::now();
    let mut w = WarmUp {
        digests: Vec::new(),
        errors: Vec::new(),
        cache: CacheCounts::default(),
    };
    for (s, client) in spec.sessions.iter().zip(rig.clients.iter_mut()) {
        let (mut digests, mut errors) = (Vec::new(), Vec::new());
        for sql in &s.distinct {
            match send(client, sql, limit).1 {
                Ok(sets) => {
                    digests.push(Some(Digest::of_client(sql, &sets)));
                    errors.push(None);
                }
                Err(e) => {
                    digests.push(None);
                    errors.push(Some(error_code(&e)));
                }
            }
        }
        w.digests.push(digests);
        w.errors.push(errors);
    }
    w.cache = CacheCounts::now().since(&before);
    w
}

/// Passes a fixed workload runs at the least: in a single pass, a failure
/// share above 10% can still put p90 between the slowest success and a
/// failure.
const MIN_PASSES: usize = 2;

/// Cursor over one session's replay order. Fixed workloads (`tpch-power`,
/// `extract`) stop only at the end of a whole pass, so every statement
/// weighs the same in every run.
struct Cursor<'a> {
    spec: &'a SessionSpec,
    pos: usize,
    passes: usize,
    whole_passes: bool,
}

impl<'a> Cursor<'a> {
    fn new(spec: &'a SessionSpec, kind: Kind) -> Cursor<'a> {
        Cursor {
            spec,
            pos: spec.start,
            passes: 0,
            whole_passes: kind != Kind::CustomerReplay,
        }
    }

    fn next(&mut self) -> u32 {
        let stmt = self.spec.order[self.pos];
        self.pos = (self.pos + 1) % self.spec.order.len();
        if self.pos == self.spec.start {
            self.passes += 1;
        }
        stmt
    }

    fn at_pass_end(&self) -> bool {
        self.pos == self.spec.start
    }

    fn may_stop(&self, deadline: Instant) -> bool {
        Instant::now() >= deadline
            && (!self.whole_passes || (self.at_pass_end() && self.passes >= MIN_PASSES))
    }
}

/// Statements of the first session between two marks of `customer-replay`
/// (about 1.2 s); the fixed workloads mark at the end of each pass.
const MARK_EVERY: usize = 100;

/// The timed window: every session on its own thread, closed loop, until
/// `length` has passed. The first session marks the time and the process
/// CPU time at the start, at the end of each pass of a fixed workload or
/// every `MARK_EVERY` of its statements of `customer-replay`, and when it
/// stops.
pub fn window(spec: &Spec, clients: &mut [Client], length: Duration) -> (Vec<Sample>, Vec<Mark>) {
    let limit = spec.kind.limit();
    let t0 = Instant::now();
    let deadline = t0 + length;
    let mut marks = vec![Mark {
        at: Duration::ZERO,
        cpu: process_cpu(),
    }];
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = spec
            .sessions
            .iter()
            .zip(clients.iter_mut())
            .enumerate()
            .map(|(i, (s, client))| {
                scope.spawn(move || {
                    let mut cursor = Cursor::new(s, spec.kind);
                    let (mut out, mut marks) = (Vec::new(), Vec::new());
                    loop {
                        let stmt = cursor.next();
                        let (elapsed, r) = send(client, &s.distinct[stmt as usize], limit);
                        let done = t0.elapsed();
                        out.push(sample(stmt, i, elapsed, done, &r));
                        let stop = cursor.may_stop(deadline);
                        let mark_due = stop
                            || if cursor.whole_passes {
                                cursor.at_pass_end()
                            } else {
                                out.len() % MARK_EVERY == 0
                            };
                        if i == 0 && mark_due {
                            marks.push(Mark {
                                at: done,
                                cpu: process_cpu(),
                            });
                        }
                        if stop {
                            return (out, marks);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            let (out, m) = t.join().expect("session thread panicked");
            samples.extend(out);
            marks.extend(m);
        }
    });
    (samples, marks)
}

/// The gateway's stage timers for one statement.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayDelta {
    /// Translation plus execution, as the gateway times them.
    pub pipeline: Duration,
    pub conversion: Duration,
}

fn gateway_delta(after: &WireStats, before: &WireStats) -> GatewayDelta {
    GatewayDelta {
        pipeline: (after.translation + after.execution)
            .saturating_sub(before.translation + before.execution),
        conversion: after.conversion.saturating_sub(before.conversion),
    }
}

/// One statement of a serialized window, with what each layer saw of it.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    pub sample: Sample,
    pub engine: EngineCounts,
    pub gateway: GatewayDelta,
}

/// Rounds per traced or untraced block of `customer-replay`; the fixed
/// workloads switch at the end of each pass.
const BLOCK_ROUNDS: usize = 25;

/// A serialized window: the sessions take turns, one statement at a time,
/// so every engine call and gateway timer belongs to exactly one client
/// statement.
pub struct SerialWindow {
    /// Statements sent with the probe disabled: the untraced baseline.
    pub base: Vec<Traced>,
    /// Statements sent with the probe enabled, with their layer deltas.
    pub traced: Vec<Traced>,
}

/// Alternate untraced and traced blocks until `length` has passed, ending
/// on a traced block, so slow drift over the window weighs on both sides
/// of the tracing overhead alike.
pub fn serial_window(spec: &Spec, rig: &mut Rig, length: Duration) -> SerialWindow {
    let limit = spec.kind.limit();
    let probe = rig
        .probe
        .clone()
        .expect("a traced run wraps the engine in the probe");
    let start = Instant::now();
    let deadline = start + length;
    let mut cursors: Vec<Cursor> = spec
        .sessions
        .iter()
        .map(|s| Cursor::new(s, spec.kind))
        .collect();
    let mut w = SerialWindow {
        base: Vec::new(),
        traced: Vec::new(),
    };
    let (mut tracing, mut rounds) = (false, 0usize);
    loop {
        probe.set_enabled(tracing);
        for (i, (cursor, client)) in cursors.iter_mut().zip(rig.clients.iter_mut()).enumerate() {
            let stmt = cursor.next();
            let sql = &cursor.spec.distinct[stmt as usize];
            let before = tracing.then(|| (probe.snapshot(), rig.handle.stats()));
            let (elapsed, r) = send(client, sql, limit);
            let (engine, gateway) = match before {
                Some((e0, g0)) => (
                    probe.snapshot().since(&e0),
                    gateway_delta(&rig.handle.stats(), &g0),
                ),
                None => (EngineCounts::default(), GatewayDelta::default()),
            };
            let t = Traced {
                sample: sample(stmt, i, elapsed, start.elapsed(), &r),
                engine,
                gateway,
            };
            if tracing { &mut w.traced } else { &mut w.base }.push(t);
        }
        rounds += 1;
        let block_done = match spec.kind {
            Kind::CustomerReplay => rounds % BLOCK_ROUNDS == 0,
            _ => cursors[0].at_pass_end(),
        };
        if block_done {
            if tracing && Instant::now() >= deadline {
                break;
            }
            tracing = !tracing;
        }
    }
    probe.set_enabled(false);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_are_read_from_gateway_errors() {
        let e = |m: &str| WireError::Protocol(m.to_string());
        assert_eq!(
            error_code(&e("[2646] per-query memory budget exceeded")),
            2646
        );
        assert_eq!(error_code(&e("[3156] deadline exceeded")), 3156);
        assert_eq!(error_code(&e("unexpected message")), 0);
        let io = WireError::Io(std::io::Error::other("reset"));
        assert_eq!(error_code(&io), 0);
    }
}
