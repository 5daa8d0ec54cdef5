//! Query-governor benchmark: (1) the end-to-end overhead of deadline +
//! resource-ledger tracking on the TPC-H corpus — a governed run (the
//! gateway's default per-query memory budget, which every query must fit)
//! against the ungoverned pipeline — and
//! (2) cancel-to-kill latency: how long after `CancelToken::cancel` the
//! executing statement actually dies at a checkpoint. Writes
//! `BENCH_governor.json` at the repo root (override dir with `BENCH_OUT`).
//!
//! The acceptance bar from the governance PR: median overhead < 2%.

use std::sync::Arc;
use std::time::Duration;

use hyperq_bench::harness::{load_tpch, scale_from_env};
use hyperq_core::{Backend, HyperQBuilder, HyperQError, Request};
use hyperq_engine::EngineDb;
use hyperq_governor::{CancelReason, GovernorConfig, QueryGovernor};
use hyperq_workload::tpch;

const REPEATS: usize = 7;
const CANCEL_ITERATIONS: usize = 60;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let scale = scale_from_env();
    let db = load_tpch(scale, None);

    // ---- overhead: governed (default budget) vs ungoverned ----
    // `run_one` installs no governor at all, so every checkpoint/charge
    // free-function call is a thread-local miss; the governed request pays
    // the full machinery: token loads, deadline arithmetic, ledger CAS.
    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    for (n, sql) in tpch::queries() {
        let mut hq =
            HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, hyperq_core::targets::simwh())
                .build();
        hq.run_one(sql).expect("warmup");

        let mut base = f64::MAX;
        for _ in 0..REPEATS {
            let t = std::time::Instant::now();
            hq.run_one(sql).expect("base run");
            base = base.min(micros(t.elapsed()));
        }
        let mut governed = f64::MAX;
        for _ in 0..REPEATS {
            let t = std::time::Instant::now();
            hq.run(Request::script(sql)
                .timeout(Duration::from_secs(3600))
                .memory_budget(GovernorConfig::default().per_query_memory))
                .expect("governed run");
            governed = governed.min(micros(t.elapsed()));
        }
        let overhead_pct = (governed - base) / base * 100.0;
        overheads.push(overhead_pct);
        rows.push(format!(
            "    {{\"query\": \"Q{n}\", \"base_us\": {base:.1}, \
             \"governed_us\": {governed:.1}, \"overhead_pct\": {overhead_pct:.2}}}"
        ));
    }
    overheads.sort_by(f64::total_cmp);
    let median_overhead = overheads[overheads.len() / 2];
    let max_overhead = overheads[overheads.len() - 1];

    // ---- cancel-to-kill latency ----
    // A cross join materializing ~160k rows; the engine checkpoints every
    // 1024 charged rows, so the kill should land within a batch of the
    // cancel request. Cancelled from a second thread mid-execution;
    // `cancel_latency` measures cancel-request → checkpoint-kill.
    let kill_db = Arc::new(EngineDb::new());
    kill_db.execute_sql("CREATE TABLE K (N INTEGER)").expect("ddl");
    let vals: Vec<String> = (0..400).map(|i| format!("({i})")).collect();
    kill_db.execute_sql(&format!("INSERT INTO K VALUES {}", vals.join(", "))).expect("load");
    let mut hq = HyperQBuilder::for_target(
        Arc::clone(&kill_db) as Arc<dyn Backend>,
        hyperq_core::targets::simwh(),
    )
    .no_cache()
    .build();

    let mut latencies_us = Vec::new();
    for _ in 0..CANCEL_ITERATIONS {
        let gov = QueryGovernor::standalone(None, u64::MAX / 2);
        let killer = {
            let gov = Arc::clone(&gov);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                gov.cancel(CancelReason::ClientAbort, "bench kill");
            })
        };
        let scope = hyperq_governor::install(Arc::clone(&gov));
        let result = hq.run_one("SEL A.N AS V FROM K A, K B WHERE A.N >= 0 ORDER BY V");
        // Snapshot before joining the killer: `cancel_latency` keeps growing.
        let latency = gov.cancel_latency();
        drop(scope);
        killer.join().unwrap();
        match result {
            Err(HyperQError::Cancelled(_)) => {
                latencies_us.push(micros(latency.expect("cancelled run records latency")));
            }
            Err(e) => panic!("kill query failed for another reason: {e}"),
            Ok(_) => { /* statement beat the 2ms fuse — skip the sample */ }
        }
    }
    latencies_us.sort_by(f64::total_cmp);
    let (p50, p99, samples) = if latencies_us.is_empty() {
        (0.0, 0.0, 0)
    } else {
        (
            latencies_us[latencies_us.len() / 2],
            latencies_us[(latencies_us.len() * 99 / 100).min(latencies_us.len() - 1)],
            latencies_us.len(),
        )
    };

    let json = format!(
        "{{\n  \"scale_factor\": {scale},\n  \"repeats\": {REPEATS},\n  \
         \"overhead\": {{\n    \"median_pct\": {median_overhead:.2},\n    \
         \"max_pct\": {max_overhead:.2},\n    \"budget_pct\": 2.0\n  }},\n  \
         \"cancel_to_kill_us\": {{\n    \"samples\": {samples},\n    \
         \"p50\": {p50:.1},\n    \"p99\": {p99:.1}\n  }},\n  \"queries\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );

    let out_dir = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../..", env!("CARGO_MANIFEST_DIR")));
    let path = format!("{out_dir}/BENCH_governor.json");
    std::fs::write(&path, &json).expect("write BENCH_governor.json");
    eprintln!("wrote {path}");
    print!("{json}");
}
