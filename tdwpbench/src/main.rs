//! tdwpbench — the end-to-end benchmark of the Hyper-Q gateway as a
//! Teradata client sees it: each workload runs through the real TDWP
//! `Client` against an in-process `Gateway::spawn(.., GatewayConfig::default())`.
//!
//! ```text
//! tdwpbench --workload <tpch-power|customer-replay|extract> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed run: client-side timings only, end-to-end
//! metrics. `--trace 1` is the traced run: per-layer metrics from a probe
//! around the engine, the gateway's stage timers, the cache counters and
//! direct calls into each layer. The last line of standard output is the
//! result object; the line before it records the workload's input
//! properties. See README.md for every metric.

mod check;
mod layers;
mod probe;
mod run;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hyperq_core::CacheConfig;

use crate::run::{CacheCounts, Traced};
use crate::stats::{median, quantile, ranked, Attribution, Sample, Slice};
use crate::workload::{Kind, Rig, Spec, HEALTH_SCALE, SCALE, TELCO_SCALE};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds
                .filter(|&s| s > 0)
                .ok_or("--seconds (at least 1) is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Counts a run reports at the top level and in the error metrics.
struct Tally {
    attempted: u64,
    failed: u64,
    budget_cancels: u64,
    deadline_cancels: u64,
    admission_sheds: u64,
}

fn tally<'a>(samples: impl Iterator<Item = &'a Sample>) -> Tally {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        budget_cancels: 0,
        deadline_cancels: 0,
        admission_sheds: 0,
    };
    for s in samples {
        t.attempted += 1;
        if let Some(code) = s.error {
            t.failed += 1;
            match code {
                2646 => t.budget_cancels += 1,
                3156 => t.deadline_cancels += 1,
                3135 | 3136 => t.admission_sheds += 1,
                _ => {}
            }
        }
    }
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The timed run: client-side timings of the closed-loop window. The
/// rates are medians over the window's slices (passes of a fixed workload,
/// about 1.2 s of `customer-replay`), so a burst of outside load moves a
/// few slices rather than the result.
fn timed_run(
    spec: &Spec,
    rig: &mut Rig,
    length: Duration,
    m: &mut Metrics,
) -> Result<(Tally, Vec<Sample>), String> {
    let (samples, marks) = run::window(spec, &mut rig.clients, length);
    let slices = stats::slices(&samples, &marks);
    if slices.is_empty() {
        return Err("the window has no complete slice".into());
    }
    let t = tally(samples.iter());
    let r = ranked(&samples, spec.kind.limit());
    let per_slice = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    m.put("latency_p50_ms", quantile(&r, 0.5), "ms");
    m.put("latency_p90_ms", quantile(&r, 0.9), "ms");
    m.put("throughput_sps", per_slice(|s| s.ok as f64 / s.secs), "1/s");
    m.put("rows_per_s", per_slice(|s| s.rows as f64 / s.secs), "1/s");
    m.put(
        "cpu_ms_per_stmt",
        per_slice(|s| s.cpu_secs * 1e3 / s.statements as f64),
        "ms",
    );
    m.put(
        "success_rate",
        (t.attempted - t.failed) as f64 / t.attempted as f64,
        "ratio",
    );
    Ok((t, samples))
}

/// The traced run: one serialized window of alternating untraced and traced
/// blocks. Layer metrics come from the traced blocks.
fn traced_run(
    spec: &Spec,
    rig: &mut Rig,
    length: Duration,
    m: &mut Metrics,
) -> Result<(Tally, Vec<Sample>), String> {
    let cache0 = CacheCounts::now();
    let run::SerialWindow { base, traced } = run::serial_window(spec, rig, length);
    let cache = CacheCounts::now().since(&cache0);

    let n = traced.len() as f64;
    let mean_client = |w: &[Traced]| {
        w.iter()
            .map(|t| t.sample.elapsed.as_secs_f64())
            .sum::<f64>()
            * 1e3
            / w.len() as f64
    };
    let mut layers = Attribution::default();
    let mut overlaps = Vec::new();
    let mut engine = probe::EngineCounts::default();
    let mut per_query = [(0u64, 0u64); 22];
    for t in &traced {
        let e = &t.engine;
        match Attribution::split(
            t.sample.elapsed,
            Duration::from_nanos(e.busy_ns()),
            t.gateway.pipeline,
            t.gateway.conversion,
        ) {
            Ok(a) => layers.add(&a),
            Err(why) => overlaps.push(why),
        }
        engine.add(e);
        if spec.kind == Kind::TpchPower {
            let q = &mut per_query[t.sample.stmt as usize];
            q.0 += e.busy_ns();
            q.1 += 1;
        }
    }
    if let Some(first) = overlaps.first() {
        return Err(format!(
            "the layers overlap on {} of {} traced statements, first: {first}",
            overlaps.len(),
            traced.len()
        ));
    }
    let mean = layers.scaled(1.0 / n);
    for (i, (ns, runs)) in per_query.iter().enumerate() {
        m.put(
            format!("engine.exec_ms.q{:02}", i + 1),
            ratio(*ns as f64 / 1e6, *runs as f64),
            "ms",
        );
    }
    m.put("engine.ms_per_stmt", mean.engine_ms, "ms");
    m.put(
        "engine.busy_share",
        ratio(layers.engine_ms, layers.client_ms),
        "ratio",
    );
    m.put(
        "engine.exec_ns_per_row",
        ratio(engine.exec_ns as f64, engine.rows as f64),
        "ns",
    );
    m.put(
        "engine.requests_per_stmt",
        engine.requests as f64 / n,
        "count",
    );
    m.put(
        "engine.catalog_lookups_per_stmt",
        engine.catalog_lookups as f64 / n,
        "count",
    );
    m.put("engine.rows_per_stmt", engine.rows as f64 / n, "count");
    m.put("core.ms_per_stmt", mean.core_ms, "ms");
    m.put("wire.convert_ms_per_stmt", mean.convert_ms, "ms");
    m.put("wire.unattributed_ms", mean.unattributed_ms, "ms");
    m.put(
        "wire.unattributed_share",
        ratio(layers.unattributed_ms, layers.client_ms),
        "ratio",
    );
    m.put("trace.client_ms", mean.client_ms, "ms");
    m.put(
        "trace.overhead_pct",
        (mean_client(&traced) / mean_client(&base) - 1.0) * 100.0,
        "%",
    );
    let consulted = cache.hits + cache.misses;
    m.put(
        "core.cache_hit_ratio",
        ratio(cache.hits as f64, consulted as f64),
        "ratio",
    );
    let all = (base.len() + traced.len()) as f64;
    m.put(
        "core.cache_consulted_share",
        consulted as f64 / all,
        "ratio",
    );

    let samples: Vec<Sample> = base.iter().chain(&traced).map(|t| t.sample).collect();
    let t = tally(samples.iter());
    m.put("governor.budget_cancels", t.budget_cancels as f64, "count");
    m.put(
        "governor.deadline_cancels",
        t.deadline_cancels as f64,
        "count",
    );
    m.put("wire.admission_sheds", t.admission_sheds as f64, "count");
    m.put("error_rate", t.failed as f64 / t.attempted as f64, "ratio");
    Ok((t, samples))
}

/// Input properties recorded beside the metrics, as one JSON object.
fn inputs_json(
    spec: &Spec,
    seconds: u64,
    warm: &run::WarmUp,
    window: &CacheCounts,
    samples: &[Sample],
) -> String {
    let mut o = String::new();
    let sessions: Vec<String> = spec
        .sessions
        .iter()
        .map(|s| format!("\"{}\"", s.label))
        .collect();
    let _ = write!(
        o,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \"sessions\": [{}], \
         \"limit_s\": {}, ",
        spec.kind.name(),
        spec.seed,
        sessions.join(", "),
        spec.kind.limit().as_secs(),
    );
    match spec.kind {
        Kind::CustomerReplay => {
            let starts: Vec<String> = spec.sessions.iter().map(|s| s.start.to_string()).collect();
            let _ = write!(
                o,
                "\"health_scale\": {HEALTH_SCALE}, \"telco_scale\": {TELCO_SCALE}, \
                 \"replay_offsets\": [{}], ",
                starts.join(", ")
            );
        }
        _ => {
            let _ = write!(
                o,
                "\"scale_factor\": {SCALE}, \"datagen_seed\": {}, ",
                spec.datagen_seed
            );
        }
    }
    let mut seen = std::collections::HashSet::new();
    for s in samples {
        seen.insert((s.session, s.stmt));
    }
    let max_entries = CacheConfig::default().max_entries;
    let _ = write!(
        o,
        "\"distinct_statements\": {}, \"first_pass_cache_misses\": {}, \
         \"cache_max_entries\": {max_entries}, \"cache_evictions\": {}, \
         \"window_statements\": {}, \"window_distinct\": {}, \"repeat_share\": {}, \
         \"cache_consulted_share\": {}",
        spec.distinct_total(),
        warm.cache.misses,
        warm.cache.evictions + window.evictions,
        samples.len(),
        seen.len(),
        1.0 - ratio(seen.len() as f64, samples.len() as f64),
        ratio((window.hits + window.misses) as f64, samples.len() as f64),
    );
    if spec.kind != Kind::CustomerReplay {
        // Rows of each statement in pass order (TPC-H Q1..Q22, or the
        // extracts), or the wire code it failed with.
        let rows: Vec<String> = warm.digests[0]
            .iter()
            .zip(&warm.errors[0])
            .map(|(d, e)| match d {
                Some(d) => d.rows.to_string(),
                None => format!("\"error {}\"", e.unwrap_or(0)),
            })
            .collect();
        let _ = write!(o, ", \"statement_rows\": [{}]", rows.join(", "));
    }
    o.push('}');
    o
}

struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Metrics,
    inputs: String,
}

fn bench(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::new(args.kind, args.seed);
    let mut m = Metrics::default();

    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(r) = rig.take() {
            Rig::down(r);
        }
        let t0 = Instant::now();
        rig = Some(Rig::up(&spec, args.trace)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let warm = run::warm_up(&spec, &mut rig);
    let length = Duration::from_secs(args.seconds);
    let cache0 = CacheCounts::now();
    let measured = if args.trace {
        traced_run(&spec, &mut rig, length, &mut m)
    } else {
        timed_run(&spec, &mut rig, length, &mut m)
    };
    let cache = CacheCounts::now().since(&cache0);
    let rss = peak_rss_mb();
    rig.down();
    let (tally, samples) = measured?;
    if !args.trace {
        m.put("peak_rss_mb", rss?, "MB");
        m.put("setup_s", median(&setups), "s");
    }

    let (db, mut refs) = check::reference(&spec, &warm.digests)?;
    let mismatches = check::mismatches(&spec, &warm.digests, &refs);
    for mm in &mismatches {
        eprintln!("answer check: {mm}");
    }
    let answered = warm
        .digests
        .iter()
        .flatten()
        .filter(|d| d.is_some())
        .count();
    if answered == 0 {
        return Err("no statement was answered in the check pass".into());
    }

    if args.trace {
        let tr = layers::translation(&spec, &db, &mut refs);
        m.put("parser.parse_us", tr.parse_us, "us");
        m.put("core.bind_us", tr.bind_us, "us");
        m.put("core.transform_us", tr.transform_us, "us");
        m.put("core.serialize_us", tr.serialize_us, "us");
        m.put("core.translate_cold_us", tr.translate_cold_us, "us");
        let results: Vec<_> = refs
            .iter()
            .flat_map(|r| r.results.iter().flatten().flatten())
            .map(|sr| &sr.result)
            .collect();
        let w = layers::row_work(&results)?;
        m.put("wire.row_encode_ns_per_row", w.row_encode_ns, "ns");
        m.put("wire.row_decode_ns_per_row", w.row_decode_ns, "ns");
        m.put("wire.client_bytes_per_row", w.client_bytes_per_row, "B");
        m.put("wire.tdf_encode_ns_per_row", w.tdf_encode_ns, "ns");
        m.put("wire.tdf_decode_ns_per_row", w.tdf_decode_ns, "ns");
        m.put("wire.convert_ns_per_row", w.convert_ns, "ns");
        m.put(
            "wire.convert_spilled_chunks",
            w.convert_spilled_chunks as f64,
            "count",
        );
    }

    if let Some((name, v, _)) = m.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number: {v}"));
    }
    let inputs = inputs_json(&spec, args.seconds, &warm, &cache, &samples);
    Ok(Outcome {
        correct: mismatches.is_empty(),
        tally,
        metrics: m,
        inputs,
    })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdwpbench: {e}");
            std::process::exit(2);
        }
    };
    // Spill files of the result converter stay inside the checkout.
    let tmp = concat!(env!("CARGO_MANIFEST_DIR"), "/tmp");
    if let Err(e) = std::fs::create_dir_all(tmp) {
        eprintln!("tdwpbench: cannot create {tmp}: {e}");
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", tmp);
    let outcome = bench(&args);
    // Only removes the directory when no spill file was left behind.
    let _ = std::fs::remove_dir(tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tdwpbench: {e}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("inputs {}", outcome.inputs);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
}
