//! Calls into each layer's public functions, one span per call, and the
//! per-operator numbers read back from `QueryResult::stats()`.

use std::collections::BTreeMap;
use std::time::Instant;

use conquer_core::{DirtyDatabase, DirtySpec, RewriteClean};
use conquer_datagen::dirty::{
    compute_probabilities, generate_unpropagated, propagate_identifiers, ProbMode, UisConfig,
    DIRTIED_TABLES,
};
use conquer_datagen::perturb::PerturbOptions;
use conquer_datagen::tpch::TpchConfig;
use conquer_engine::binder::bind_select;
use conquer_engine::exec::execute_plan;
use conquer_engine::planner::plan_select;
use conquer_engine::{validate_bound, Database, ExecLimits, ExecStats, OpStats, QueryResult};
use conquer_sql::{parse_select, SelectStatement};

use crate::report::{median_metric, Metric};
use crate::trace::{self, Tracer};

/// Inconsistency factor of every workload (mean cluster size).
pub const IF_FACTOR: u32 = 3;

/// Seed of the generated database. Every run of a workload queries the
/// same instance, as a TPC-H run fixes its generated data; `--seed` drives
/// what the workload sends to it. At these scale factors the instance
/// itself moves query times by up to a fifth from one data seed to the
/// next (how many parts match Q9's colour, for one), far more than any
/// bound a change is judged by.
pub const DATA_SEED: u64 = 42;

/// Generate the dirty TPC-H catalog in the three offline steps the paper
/// times: generate, propagate identifiers, assign probabilities.
pub fn generate(tr: &mut Option<Tracer>, sf: f64, mode: ProbMode) -> DirtyDatabase {
    let seed = DATA_SEED;
    let config = UisConfig {
        tpch: TpchConfig { sf, seed },
        if_factor: IF_FACTOR,
        prob_mode: mode,
        perturb: PerturbOptions::default(),
    };
    let mut dirty = trace::span(tr, "datagen.generate", || {
        generate_unpropagated(config).expect("the generator accepts its own configuration")
    });
    let dangling = trace::span(tr, "datagen.propagate", || {
        propagate_identifiers(&mut dirty.catalog).expect("generated foreign keys resolve")
    });
    assert_eq!(dangling, 0, "generated data has no dangling references");
    for table in DIRTIED_TABLES {
        trace::span(tr, "prob.assign", || {
            compute_probabilities(&mut dirty.catalog, table, mode, seed)
                .expect("dirtied tables carry probability columns")
        });
    }
    trace::span(tr, "core.validate", || {
        DirtyDatabase::new(Database::from_catalog(dirty.catalog), dirty.spec)
            .expect("generated probabilities sum to one per cluster")
    })
}

/// Parse `sql` and, for the clean-answer form, rewrite it.
pub fn compile_front(
    tr: &mut Option<Tracer>,
    db: &Database,
    sql: &str,
    clean: Option<&DirtySpec>,
) -> Result<SelectStatement, String> {
    let stmt = trace::span(tr, "sql.parse", || parse_select(sql)).map_err(|e| e.to_string())?;
    match clean {
        None => Ok(stmt),
        Some(spec) => trace::span(tr, "core.rewrite", || {
            RewriteClean.rewrite(db.catalog(), spec, &stmt)
        })
        .map_err(|e| e.to_string()),
    }
}

/// Bind, validate, plan and execute `stmt` against `db`, each in its own
/// span, under `limits`, folding the executor's statistics into `probe`.
/// Equivalent to `db.prepare_select(stmt)?.query(db)` under those limits.
pub fn compile_and_execute(
    tr: &mut Option<Tracer>,
    db: &Database,
    stmt: &SelectStatement,
    limits: ExecLimits,
    probe: &mut ExecProbe,
) -> Result<QueryResult, String> {
    let bound = trace::span(tr, "engine.bind", || bind_select(db.catalog(), stmt))
        .map_err(|e| e.to_string())?;
    trace::span(tr, "engine.validate", || validate_bound(&bound)).map_err(|e| e.to_string())?;
    let plan = trace::span(tr, "engine.plan", || plan_select(db.catalog(), bound))
        .map_err(|e| e.to_string())?;
    let ctx = db.exec_context(limits);
    let t0 = Instant::now();
    let result = trace::span(tr, "exec.execute", || {
        execute_plan(db.catalog(), &plan, &ctx)
    })
    .map_err(|e| e.to_string())?;
    probe.record(t0.elapsed().as_secs_f64() * 1e3, &result);
    Ok(result)
}

/// Operator kinds, as `exec.self_ms.<kind>` reports them. The other
/// operators (Filter, IndexJoin, NestedLoopJoin, Limit, Distinct) do not
/// occur in these workloads' plans: filters are pushed into scans.
pub const OP_KINDS: [&str; 6] = [
    "scan",
    "hash_join",
    "hash_aggregate",
    "sort",
    "gather",
    "project",
];

fn op_kind(name: &str) -> Option<&'static str> {
    match name.split([' ', '(']).next().unwrap_or("") {
        "Scan" => Some("scan"),
        "HashJoin" => Some("hash_join"),
        "HashAggregate" => Some("hash_aggregate"),
        "Sort" => Some("sort"),
        "Gather" => Some("gather"),
        "Project" => Some("project"),
        _ => None,
    }
}

/// What the executor reported over many queries.
#[derive(Debug, Default)]
pub struct ExecProbe {
    /// Wall time of each `execute_plan` call, ms.
    pub execute_ms: Vec<f64>,
    /// `execute_plan` time not inside the root operator, µs.
    pub dispatch_us: Vec<f64>,
    /// Self time summed per operator kind, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    pub rows_in: u64,
    pub rows_out: u64,
    pub peak_mem: u64,
    pub spill_bytes: u64,
}

impl ExecProbe {
    pub fn record(&mut self, execute_ms: f64, result: &QueryResult) {
        self.execute_ms.push(execute_ms);
        self.rows_out += result.len() as u64;
        let Some(stats) = result.stats() else { return };
        self.fold(execute_ms, stats);
    }

    fn fold(&mut self, execute_ms: f64, stats: &ExecStats) {
        let root_ms = stats.root.time.as_secs_f64() * 1e3;
        self.dispatch_us.push((execute_ms - root_ms).max(0.0) * 1e3);
        stats.root.visit(&mut |_, op: &OpStats| {
            if let Some(kind) = op_kind(&op.name) {
                *self.self_ms.entry(kind).or_default() += op.self_time().as_secs_f64() * 1e3;
            }
            self.rows_in += op.rows_in;
        });
        self.peak_mem = self
            .peak_mem
            .max(stats.mem_charged.max(stats.root.total_mem()));
        self.spill_bytes += stats.disk_charged;
    }

    /// The `exec.*` per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.execute_ms.len();
        let mut out = vec![
            median_metric("exec.execute_ms", "ms", &self.execute_ms),
            median_metric("exec.dispatch_us", "us", &self.dispatch_us),
        ];
        for kind in OP_KINDS {
            let total = self.self_ms.get(kind).copied().unwrap_or(0.0);
            out.push(
                Metric::new(
                    format!("exec.self_ms.{kind}"),
                    "ms",
                    total / n.max(1) as f64,
                    n,
                )
                .note("mean per executed query"),
            );
        }
        out.push(Metric::new(
            "exec.rows_examined_per_row",
            "ratio",
            self.rows_in as f64 / self.rows_out.max(1) as f64,
            n,
        ));
        out.push(
            Metric::new(
                "exec.peak_mem_mb",
                "MiB",
                self.peak_mem as f64 / (1 << 20) as f64,
                n,
            )
            .note("largest single query"),
        );
        out.push(Metric::new(
            "exec.spill_bytes",
            "bytes",
            self.spill_bytes as f64,
            n,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_names_map_to_kinds() {
        assert_eq!(op_kind("Scan customer [c]"), Some("scan"));
        assert_eq!(op_kind("HashAggregate"), Some("hash_aggregate"));
        assert_eq!(op_kind("Gather (4 workers)"), Some("gather"));
        assert_eq!(op_kind("NestedLoopJoin"), None);
    }
}
