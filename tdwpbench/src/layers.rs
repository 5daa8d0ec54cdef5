//! Per-layer timings taken outside the client path, by calling each
//! layer's public functions from here: the translation stages over each
//! workload's distinct statements, and the row-level wire work over their
//! results. Each figure is the median of a few repetitions per statement.

use std::hint::black_box;
use std::time::Instant;

use hyperq_core::backend::ExecResult;
use hyperq_core::binder::Binder;
use hyperq_core::serialize::Serializer;
use hyperq_core::session::ShadowCatalog;
use hyperq_core::targets;
use hyperq_core::transform::Transformer;
use hyperq_engine::EngineDb;
use hyperq_parser::{parse_one, Dialect};
use hyperq_wire::message::{decode_client_row, encode_client_row, header_columns};
use hyperq_wire::{convert, tdf, ConverterConfig};
use hyperq_xtra::feature::FeatureSet;

use crate::check::RefSession;
use crate::stats::median;
use crate::workload::Spec;

const REPS: usize = 5;

/// Median seconds of `REPS` runs of `f`.
fn timed<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(f());
        v.push(t0.elapsed().as_secs_f64());
    }
    median(&v)
}

/// Mean microseconds per statement of each translation stage, over the
/// statements that stage accepts. Emulated statements (macro `EXEC`,
/// `MERGE`, `HELP`, ...) do not bind on their own and count only in
/// `parse_us`.
#[derive(Debug, Default)]
pub struct Translation {
    pub parse_us: f64,
    pub bind_us: f64,
    pub transform_us: f64,
    pub serialize_us: f64,
    pub translate_cold_us: f64,
}

pub fn translation(spec: &Spec, db: &EngineDb, refs: &mut [RefSession]) -> Translation {
    let profile = targets::simwh();
    let transformer = Transformer::standard();
    let (mut parse, mut bind, mut transform, mut serialize, mut cold) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (s, r) in spec.sessions.iter().zip(refs.iter_mut()) {
        for sql in &s.distinct {
            let Ok(parsed) = parse_one(sql, Dialect::Teradata) else {
                continue;
            };
            parse.push(timed(|| parse_one(sql, Dialect::Teradata)));
            let catalog = ShadowCatalog::new(db, &r.hq.session);
            let bound = Binder::new(&catalog).bind_statement(&parsed.stmt);
            if let Ok(plan) = bound {
                bind.push(timed(|| {
                    let catalog = ShadowCatalog::new(db, &r.hq.session);
                    Binder::new(&catalog).bind_statement(&parsed.stmt)
                }));
                let mut fired = FeatureSet::new();
                if let Ok(out) = transformer.run_all(plan.clone(), &profile.caps, &mut fired) {
                    transform.push(timed(|| {
                        let mut fired = FeatureSet::new();
                        transformer.run_all(plan.clone(), &profile.caps, &mut fired)
                    }));
                    let ser = Serializer::for_profile(&profile);
                    if ser.serialize_plan(&out).is_ok() {
                        serialize.push(timed(|| ser.serialize_plan(&out)));
                    }
                }
            }
            if r.hq.translate(sql).is_ok() {
                cold.push(timed(|| r.hq.translate(sql)));
            }
        }
    }
    let mean_us = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() * 1e6 / v.len() as f64
        }
    };
    Translation {
        parse_us: mean_us(&parse),
        bind_us: mean_us(&bind),
        transform_us: mean_us(&transform),
        serialize_us: mean_us(&serialize),
        translate_cold_us: mean_us(&cold),
    }
}

/// Nanoseconds per row of the wire work on a result, summed over every
/// distinct result set and divided by their rows.
#[derive(Debug, Default)]
pub struct RowWork {
    pub rows: u64,
    pub row_encode_ns: f64,
    pub row_decode_ns: f64,
    pub client_bytes_per_row: f64,
    pub tdf_encode_ns: f64,
    pub tdf_decode_ns: f64,
    pub convert_ns: f64,
    pub convert_spilled_chunks: u64,
}

pub fn row_work(results: &[&ExecResult]) -> Result<RowWork, String> {
    let config = ConverterConfig::default();
    let mut w = RowWork::default();
    let (mut enc, mut dec, mut tenc, mut tdec, mut conv, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0u64);
    for r in results.iter().filter(|r| !r.rows.is_empty()) {
        let (schema, rows) = (&r.schema, &r.rows);
        let columns = header_columns(schema);
        let encoded: Vec<Vec<u8>> = rows
            .iter()
            .map(|row| encode_client_row(row, schema))
            .collect();
        bytes += encoded.iter().map(|b| b.len() as u64).sum::<u64>();
        enc += timed(|| {
            for row in rows.iter() {
                black_box(encode_client_row(row, schema));
            }
        });
        dec += timed(|| {
            for b in &encoded {
                let _ = black_box(decode_client_row(b, &columns));
            }
        });
        let batch = tdf::encode(schema, rows).map_err(|e| format!("TDF encode: {e:?}"))?;
        tenc += timed(|| tdf::encode(schema, rows));
        tdf::decode(&batch).map_err(|e| format!("TDF decode: {e:?}"))?;
        tdec += timed(|| tdf::decode(&batch));
        w.convert_spilled_chunks += convert(schema, rows, &config)?.spilled_chunks as u64;
        conv += timed(|| convert(schema, rows, &config).map(|c| c.total_rows));
        w.rows += rows.len() as u64;
    }
    if w.rows > 0 {
        let per_row = |secs: f64| secs * 1e9 / w.rows as f64;
        w.row_encode_ns = per_row(enc);
        w.row_decode_ns = per_row(dec);
        w.tdf_encode_ns = per_row(tenc);
        w.tdf_decode_ns = per_row(tdec);
        w.convert_ns = per_row(conv);
        w.client_bytes_per_row = bytes as f64 / w.rows as f64;
    }
    Ok(w)
}
