//! The three workloads: what each session sends, the warehouse behind the
//! gateway, and the set-up that brings a default gateway and its client
//! sessions up.

use std::sync::Arc;
use std::time::Duration;

use hyperq_core::backend::Backend;
use hyperq_engine::EngineDb;
use hyperq_wire::{Client, Gateway, GatewayConfig, GatewayHandle};
use hyperq_workload::{customer, tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probe::EngineProbe;

/// TPC-H scale factor of `tpch-power` and `extract`.
pub const SCALE: f64 = 0.01;
/// The TPC-H datagen seed of `tpch-power`: the repository's standard
/// TPC-H data, as the figure binaries load it. Under some seeds (7, 8 and
/// 9 of 0-19) no part matches Q17's brand and container at SF 0.01, so
/// Q17 turns trivial instead of being cancelled and a pass runs ~15%
/// faster; seeding the data from `--seed` would make the run-to-run spread
/// measure that mode instead of the system.
pub const TPCH_POWER_DATAGEN_SEED: u64 = 7_777;
/// Scale of the Health and Telco corpora. Telco needs at least 0.012 for
/// its global-temporary-table `INSERT` to be generated.
pub const HEALTH_SCALE: f64 = 0.01;
pub const TELCO_SCALE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TpchPower,
    CustomerReplay,
    Extract,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TpchPower, Kind::CustomerReplay, Kind::Extract];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TpchPower => "tpch-power",
            Kind::CustomerReplay => "customer-replay",
            Kind::Extract => "extract",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The latency limit L, sent with every statement.
    pub fn limit(self) -> Duration {
        match self {
            Kind::TpchPower => Duration::from_secs(60),
            Kind::CustomerReplay => Duration::from_secs(1),
            Kind::Extract => Duration::from_secs(30),
        }
    }
}

/// What one client session sends.
pub struct SessionSpec {
    pub label: &'static str,
    /// Statements sent once after logon, as part of set-up.
    pub setup: Vec<String>,
    pub distinct: Vec<String>,
    /// Replay order: indices into `distinct`, replayed cyclically.
    pub order: Vec<u32>,
    /// Where in `order` the replay starts.
    pub start: usize,
}

pub struct Spec {
    pub kind: Kind,
    pub seed: u64,
    /// TPC-H datagen seed (`tpch-power`, `extract`).
    pub datagen_seed: u64,
    pub sessions: Vec<SessionSpec>,
    /// DDL run directly on the warehouse (customer corpora).
    target_ddl: Vec<String>,
}

/// The `extract` statements: four full-table exports and one filtered
/// projection. An odd count puts the median inside one statement's
/// latencies (`ORDERS`) instead of on the boundary between two.
pub const EXTRACTS: [&str; 5] = [
    "SEL * FROM LINEITEM",
    "SEL * FROM ORDERS",
    "SEL L_ORDERKEY, L_PARTKEY, L_SUPPKEY, L_QUANTITY, L_EXTENDEDPRICE, L_DISCOUNT, \
     L_SHIPDATE FROM LINEITEM WHERE L_SHIPDATE >= DATE '1995-06-17'",
    "SEL * FROM CUSTOMER",
    "SEL * FROM PART",
];

fn replay_session(
    label: &'static str,
    w: customer::CustomerWorkload,
    rng: &mut StdRng,
) -> SessionSpec {
    let start = rng.gen_range(0..w.sequence.len());
    SessionSpec {
        label,
        setup: w.hyperq_setup,
        distinct: w.distinct,
        order: w.sequence,
        start,
    }
}

fn fixed_session(label: &'static str, distinct: Vec<String>) -> SessionSpec {
    let order = (0..distinct.len() as u32).collect();
    SessionSpec {
        label,
        setup: Vec::new(),
        distinct,
        order,
        start: 0,
    }
}

impl Spec {
    pub fn new(kind: Kind, seed: u64) -> Spec {
        let (sessions, target_ddl) = match kind {
            Kind::TpchPower => {
                let queries = tpch::queries()
                    .into_iter()
                    .map(|(_, q)| q.to_string())
                    .collect();
                (vec![fixed_session("tpch", queries)], Vec::new())
            }
            Kind::Extract => (
                vec![fixed_session(
                    "extract",
                    EXTRACTS.map(String::from).to_vec(),
                )],
                Vec::new(),
            ),
            Kind::CustomerReplay => {
                let health = customer::health(HEALTH_SCALE);
                let telco = customer::telco(TELCO_SCALE);
                let ddl = health
                    .target_ddl
                    .iter()
                    .chain(&telco.target_ddl)
                    .cloned()
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let sessions = vec![
                    replay_session("health", health, &mut rng),
                    replay_session("telco", telco, &mut rng),
                ];
                (sessions, ddl)
            }
        };
        let datagen_seed = match kind {
            Kind::TpchPower => TPCH_POWER_DATAGEN_SEED,
            _ => seed,
        };
        Spec {
            kind,
            seed,
            datagen_seed,
            sessions,
            target_ddl,
        }
    }

    pub fn distinct_total(&self) -> usize {
        self.sessions.iter().map(|s| s.distinct.len()).sum()
    }

    /// Create and load a warehouse for this workload. TPC-H data comes
    /// from `datagen_seed`; the customer tables stay empty, as their
    /// generators define them.
    pub fn load_warehouse(&self) -> Result<Arc<EngineDb>, String> {
        let db = EngineDb::new();
        match self.kind {
            Kind::TpchPower | Kind::Extract => {
                for ddl in tpch::ddl() {
                    db.execute_sql(&ddl)
                        .map_err(|e| format!("TPC-H DDL: {e}"))?;
                }
                for (table, rows) in tpch::generate(SCALE, self.datagen_seed).tables() {
                    db.load_rows(table, rows)
                        .map_err(|e| format!("load {table}: {e}"))?;
                }
            }
            Kind::CustomerReplay => {
                for ddl in &self.target_ddl {
                    db.execute_sql(ddl)
                        .map_err(|e| format!("customer DDL: {e}"))?;
                }
            }
        }
        Ok(Arc::new(db))
    }
}

/// A default gateway over a fresh warehouse, with one logged-on client per
/// session whose set-up statements have run.
pub struct Rig {
    pub handle: GatewayHandle,
    pub clients: Vec<Client>,
    /// The engine probe, when the rig was built for a traced run.
    pub probe: Option<Arc<EngineProbe>>,
}

impl Rig {
    pub fn up(spec: &Spec, with_probe: bool) -> Result<Rig, String> {
        let db: Arc<dyn Backend> = spec.load_warehouse()?;
        let (backend, probe) = if with_probe {
            let p = EngineProbe::wrap(db);
            (Arc::clone(&p) as Arc<dyn Backend>, Some(p))
        } else {
            (db, None)
        };
        let handle = Gateway::spawn(backend, GatewayConfig::default())
            .map_err(|e| format!("gateway spawn: {e}"))?;
        let mut rig = Rig {
            handle,
            clients: Vec::new(),
            probe,
        };
        for s in &spec.sessions {
            let mut client = match Client::connect(rig.handle.addr, "APP", "secret") {
                Ok(c) => c,
                Err(e) => {
                    rig.down();
                    return Err(format!("logon ({}): {e}", s.label));
                }
            };
            for stmt in &s.setup {
                if let Err(e) = client.run(stmt) {
                    rig.clients.push(client);
                    rig.down();
                    return Err(format!("session set-up ({}): {stmt}: {e}", s.label));
                }
            }
            rig.clients.push(client);
        }
        Ok(rig)
    }

    /// Log every session off and stop the gateway.
    pub fn down(self) {
        for c in self.clients {
            let _ = c.logoff();
        }
        // Give the session threads their logoff before the acceptor stops.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.handle.active_sessions() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.handle.shutdown();
    }
}
