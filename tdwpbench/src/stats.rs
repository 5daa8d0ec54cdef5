//! The benchmark's own arithmetic: latency percentiles with failures
//! ranked behind every success, and the per-statement split of client
//! latency into measured layers plus an unattributed remainder.

use std::time::Duration;

/// One statement as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index of the statement in its session's distinct list.
    pub stmt: u32,
    /// Index of the session that sent it.
    pub session: u8,
    pub elapsed: Duration,
    /// When the statement completed, from the start of its window.
    pub done: Duration,
    /// The wire code of a failed statement (0 when the failure carried
    /// none, such as a broken connection).
    pub error: Option<u16>,
    /// Rows the client decoded.
    pub rows: u64,
}

impl Sample {
    /// The latency a statement is ranked at, in milliseconds. A failure
    /// ranks at the workload's limit `limit` plus the time it took to fail,
    /// so it sits behind every success (a success never takes longer than
    /// the limit: the gateway cancels it first) and turning a failure into
    /// a slow success never reads as a regression.
    pub fn ranked_ms(&self, limit: Duration) -> f64 {
        let ms = self.elapsed.as_secs_f64() * 1e3;
        match self.error {
            None => ms,
            Some(_) => limit.as_secs_f64() * 1e3 + ms,
        }
    }
}

/// The `p`-quantile (0..=1) of an ascending slice by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ranked latencies of `samples`, ascending.
pub fn ranked(samples: &[Sample], limit: Duration) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| s.ranked_ms(limit)).collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A point the timed window's first session marks between two of its
/// statements: when (from the start of the window) and the process CPU time
/// then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub at: Duration,
    pub cpu: Duration,
}

/// What the window did between two consecutive marks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slice {
    pub secs: f64,
    pub cpu_secs: f64,
    /// Statements that completed in the slice, from every session.
    pub statements: u64,
    pub ok: u64,
    pub rows: u64,
}

/// Split a window at its marks: a statement belongs to the slice it
/// completed in. Statements after the last mark belong to none; slices
/// without statements are left out.
pub fn slices(samples: &[Sample], marks: &[Mark]) -> Vec<Slice> {
    let mut out: Vec<Slice> = marks
        .windows(2)
        .map(|m| Slice {
            secs: (m[1].at - m[0].at).as_secs_f64(),
            cpu_secs: (m[1].cpu - m[0].cpu).as_secs_f64(),
            ..Slice::default()
        })
        .collect();
    for s in samples {
        // The first mark ending at or after the statement closes its slice.
        let i = marks.partition_point(|m| m.at < s.done);
        if let Some(slice) = i.checked_sub(1).and_then(|i| out.get_mut(i)) {
            slice.statements += 1;
            slice.ok += u64::from(s.error.is_none());
            slice.rows += s.rows;
        }
    }
    out.retain(|s| s.statements > 0);
    out
}

/// One statement's client latency split into disjoint layers. The gateway
/// times translation and execution together with the engine calls they
/// make, so the pipeline's own share is that total minus the engine probe.
/// A statement whose path records no stage timings (emulated statements
/// such as macro `EXEC`, and statements that fail) has no pipeline share:
/// its pipeline time stays in the remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    pub client_ms: f64,
    /// Engine calls seen by the probe around the warehouse.
    pub engine_ms: f64,
    /// Gateway translation + execution timers, minus the engine.
    pub core_ms: f64,
    /// Gateway conversion timer: TDF packaging, client-format conversion
    /// and writing the records to the session's buffer.
    pub convert_ms: f64,
    /// Everything else: socket round trips, per-statement gateway
    /// bookkeeping, client decode.
    pub unattributed_ms: f64,
}

impl Attribution {
    /// Split one statement's client time. Fails when the layers overlap:
    /// the stage timers hold less than the engine time they should enclose,
    /// or the layers together exceed the client time.
    pub fn split(
        client: Duration,
        engine: Duration,
        gateway_pipeline: Duration,
        gateway_convert: Duration,
    ) -> Result<Attribution, String> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        if !gateway_pipeline.is_zero() && gateway_pipeline < engine {
            return Err(format!(
                "stage timers {:.4} ms < engine {:.4} ms",
                ms(gateway_pipeline),
                ms(engine)
            ));
        }
        let core = gateway_pipeline.saturating_sub(engine);
        let measured = engine + core + gateway_convert;
        if measured > client {
            return Err(format!(
                "layers {:.4} ms > client {:.4} ms",
                ms(measured),
                ms(client)
            ));
        }
        Ok(Attribution {
            client_ms: ms(client),
            engine_ms: ms(engine),
            core_ms: ms(core),
            convert_ms: ms(gateway_convert),
            unattributed_ms: ms(client - measured),
        })
    }

    pub fn add(&mut self, other: &Attribution) {
        self.client_ms += other.client_ms;
        self.engine_ms += other.engine_ms;
        self.core_ms += other.core_ms;
        self.convert_ms += other.convert_ms;
        self.unattributed_ms += other.unattributed_ms;
    }

    pub fn scaled(&self, k: f64) -> Attribution {
        Attribution {
            client_ms: self.client_ms * k,
            engine_ms: self.engine_ms * k,
            core_ms: self.core_ms * k,
            convert_ms: self.convert_ms * k,
            unattributed_ms: self.unattributed_ms * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: u64, error: Option<u16>) -> Sample {
        Sample {
            stmt: 0,
            session: 0,
            elapsed: Duration::from_millis(ms),
            done: Duration::ZERO,
            error,
            rows: 0,
        }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn failures_rank_behind_every_success() {
        let limit = Duration::from_secs(1);
        // Nine fast successes and one failure that gave up after 2 ms.
        let mut samples: Vec<Sample> = (1..=9).map(|ms| sample(ms, None)).collect();
        samples.push(sample(2, Some(2646)));
        let r = ranked(&samples, limit);
        assert_eq!(r.last().copied(), Some(1002.0));
        assert_eq!(quantile(&r, 0.5), 5.5);
        // p90 falls between the slowest success and the failure.
        assert!((quantile(&r, 0.9) - (9.0 + 0.1 * 993.0)).abs() < 1e-9);

        // Turning the failure into a success just under the limit lowers
        // every percentile: it never reads as a regression.
        let mut fixed = samples.clone();
        fixed[9] = sample(999, None);
        let rf = ranked(&fixed, limit);
        for p in [0.5, 0.9, 0.99, 1.0] {
            assert!(quantile(&rf, p) <= quantile(&r, p), "p{p}");
        }
    }

    #[test]
    fn a_failure_share_above_the_tail_pins_it_to_the_failures() {
        // 3 of the 22 TPC-H queries fail today: from two passes on, p90
        // lies among the failures.
        let limit = Duration::from_secs(60);
        let mut samples = Vec::new();
        for _pass in 0..2 {
            samples.extend((0..19).map(|i| sample(100 + i, None)));
            samples.extend((0..3).map(|i| sample(500 + i, Some(2646))));
        }
        let p90 = quantile(&ranked(&samples, limit), 0.9);
        assert!((60_500.0..60_503.0).contains(&p90), "{p90}");
    }

    #[test]
    fn slices_count_each_statement_where_it_completed() {
        let ms = Duration::from_millis;
        let mark = |at, cpu| Mark {
            at: ms(at),
            cpu: ms(cpu),
        };
        let marks = [mark(0, 0), mark(100, 30), mark(200, 80), mark(300, 90)];
        let done = |at, error, rows| Sample {
            done: ms(at),
            rows,
            ..sample(10, error)
        };
        let samples = [
            done(40, None, 5),
            done(100, Some(2646), 0), // on a mark: the slice it closes
            done(150, None, 1),
            done(160, None, 1),
            done(170, None, 1),
            done(320, None, 9), // after the last mark
        ];
        let s = slices(&samples, &marks);
        // The third slice has no statement and is left out.
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].statements, s[0].ok, s[0].rows), (2, 1, 5));
        assert_eq!((s[1].statements, s[1].ok, s[1].rows), (3, 3, 3));
        assert!((s[0].secs - 0.1).abs() < 1e-12);
        assert!((s[1].cpu_secs - 0.05).abs() < 1e-12);
    }

    #[test]
    fn layers_and_remainder_add_up_to_the_client_time() {
        let us = Duration::from_micros;
        let sum = |a: &Attribution| a.engine_ms + a.core_ms + a.convert_ms + a.unattributed_ms;
        // Translated statement: the pipeline timers enclose the engine call.
        let a = Attribution::split(us(12_000), us(150), us(180), us(20)).unwrap();
        assert!((a.engine_ms - 0.15).abs() < 1e-12);
        assert!((a.core_ms - 0.03).abs() < 1e-12);
        assert!((a.convert_ms - 0.02).abs() < 1e-12);
        assert!((a.unattributed_ms - 11.8).abs() < 1e-9);
        assert!((sum(&a) - a.client_ms).abs() < 1e-9);

        // Emulated or failed statement: no stage timings, engine time still
        // seen, the pipeline left in the remainder.
        let b = Attribution::split(us(12_000), us(300), Duration::ZERO, Duration::ZERO).unwrap();
        assert_eq!(b.core_ms, 0.0);
        assert!((b.unattributed_ms - 11.7).abs() < 1e-9);

        let mut total = a;
        total.add(&b);
        let mean = total.scaled(0.5);
        assert!((mean.client_ms - 12.0).abs() < 1e-9);
        assert!((sum(&mean) - mean.client_ms).abs() < 1e-9);
    }

    #[test]
    fn overlapping_layers_fail_the_split() {
        let us = Duration::from_micros;
        // Engine time outside the stage timers that should enclose it.
        let e = Attribution::split(us(12_000), us(200), us(150), us(20)).unwrap_err();
        assert!(e.contains("engine"), "{e}");
        // Layers counted twice: more than the client waited.
        let e = Attribution::split(us(1_000), us(600), us(900), us(200)).unwrap_err();
        assert!(e.contains("client"), "{e}");
        let e = Attribution::split(us(1_000), us(1_001), Duration::ZERO, Duration::ZERO);
        assert!(e.is_err());
    }
}
