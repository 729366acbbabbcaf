//! `analytic`: the paper's Fig. 8 pair in process. One closed-loop caller
//! alternates a pass over the 13 original templates with a pass over their
//! clean answers, at the engine's default thread count.

use std::time::Instant;

use conquer_core::DirtyDatabase;
use conquer_datagen::dirty::ProbMode;
use conquer_datagen::queries::{query_sql, QUERY_IDS};
use conquer_storage::Row;

use crate::check::clean_key;
use crate::layers::{self, ExecProbe};
use crate::load::Rng;
use crate::report::{median_metric, tail_metric, Metric};
use crate::trace::{self, Tracer};
use crate::{Phase, RunCfg};

pub const SF: f64 = 0.2;

type CleanKey = (Vec<String>, Vec<(Row, u64)>);

/// Answers computed once, right after set-up.
struct Reference {
    original: Vec<(Vec<String>, Vec<Row>)>,
    clean: Vec<CleanKey>,
}

fn reference(dirty: &DirtyDatabase, templates: &[String]) -> Reference {
    let db = dirty.db();
    let original = templates
        .iter()
        .map(|sql| {
            let r = db
                .prepare(sql)
                .and_then(|s| s.query(db))
                .unwrap_or_else(|e| panic!("template must run: {e}\n{sql}"));
            (r.columns, r.rows)
        })
        .collect();
    let clean = templates
        .iter()
        .map(|sql| {
            let a = dirty
                .clean_answers(sql)
                .unwrap_or_else(|e| panic!("template must be rewritable: {e}\n{sql}"));
            clean_key(&a)
        })
        .collect();
    Reference { original, clean }
}

/// Time one untraced set-up, then drop it.
pub fn setup_once(_cfg: &RunCfg, _rep: usize) -> f64 {
    let t0 = Instant::now();
    let dirty = layers::generate(&mut None, SF, ProbMode::InfoLoss);
    let s = t0.elapsed().as_secs_f64();
    drop(dirty);
    s
}

pub fn phase(cfg: &RunCfg, traced: bool, setup_reps: usize) -> Phase {
    let origin = Instant::now();
    let mut tr = traced.then(|| Tracer::new("caller", origin));
    let mut phase = Phase::new("analytic");

    phase.setup_s = (1..setup_reps).map(|rep| setup_once(cfg, rep)).collect();
    let t0 = Instant::now();
    let dirty = layers::generate(&mut tr, SF, ProbMode::InfoLoss);
    phase.setup_s.push(t0.elapsed().as_secs_f64());
    let templates: Vec<String> = QUERY_IDS.iter().map(|&id| query_sql(id, true)).collect();
    let mut order_rng = Rng::stream(cfg.seed, "template-order");
    let reference = trace::span(&mut tr, "bench.reference", || reference(&dirty, &templates));

    let db = dirty.db();
    let spec = dirty.spec();
    let out = &mut phase.outcome;
    let mut probe = ExecProbe::default();
    let mut clean_pass = Vec::new();
    let mut dirty_pass = Vec::new();
    let mut overhead = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        // Each pair of passes visits the templates in a seeded order.
        let mut order: Vec<usize> = (0..templates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, order_rng.below(i + 1));
        }
        // The original templates: the paper's baseline.
        let t0 = Instant::now();
        let pass = trace::enter(&mut tr, "bench.dirty_pass");
        let mut original_exec = vec![0.0; templates.len()];
        for &i in &order {
            let sql = &templates[i];
            out.attempted += 1;
            trace::next_request(&mut tr);
            let got = if tr.is_some() {
                let before = probe.execute_ms.len();
                let r = layers::compile_front(&mut tr, db, sql, None).and_then(|stmt| {
                    layers::compile_and_execute(&mut tr, db, &stmt, *db.limits(), &mut probe)
                });
                original_exec[i] = probe.execute_ms[before..].iter().sum::<f64>();
                r
            } else {
                db.prepare(sql)
                    .and_then(|s| s.query(db))
                    .map_err(|e| e.to_string())
            };
            match got {
                Ok(r)
                    if (&r.columns, &r.rows)
                        == (&reference.original[i].0, &reference.original[i].1) => {}
                Ok(_) => out.fail(format!(
                    "Q{} original: answer differs from set-up",
                    QUERY_IDS[i]
                )),
                Err(e) => out.fail(format!("Q{} original: {e}", QUERY_IDS[i])),
            }
        }
        trace::exit(&mut tr, pass);
        dirty_pass.push(t0.elapsed().as_secs_f64() * 1e3);

        // The same templates through the clean-answer path.
        let t0 = Instant::now();
        let pass = trace::enter(&mut tr, "bench.clean_pass");
        for &i in &order {
            let sql = &templates[i];
            out.attempted += 1;
            trace::next_request(&mut tr);
            let got = if tr.is_some() {
                let before = probe.execute_ms.len();
                let r = layers::compile_front(&mut tr, db, sql, Some(spec))
                    .and_then(|stmt| {
                        layers::compile_and_execute(&mut tr, db, &stmt, *db.limits(), &mut probe)
                    })
                    .map(conquer_core::dirty::result_to_answers);
                let clean_ms: f64 = probe.execute_ms[before..].iter().sum();
                overhead.push(clean_ms / original_exec[i].max(1e-9));
                r
            } else {
                dirty.clean_answers(sql).map_err(|e| e.to_string())
            };
            match got {
                Ok(a) if clean_key(&a) == reference.clean[i] => {}
                Ok(_) => out.fail(format!(
                    "Q{} clean: answer differs from set-up",
                    QUERY_IDS[i]
                )),
                Err(e) => out.fail(format!("Q{} clean: {e}", QUERY_IDS[i])),
            }
        }
        trace::exit(&mut tr, pass);
        clean_pass.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wall = start.elapsed().as_secs_f64();
    let hi = tr.as_ref().map_or(0, |t| t.offset(Instant::now()));

    out.e2e
        .push(median_metric("clean_pass_ms", "ms", &clean_pass));
    out.e2e
        .push(tail_metric("clean_pass_tail_ms", "ms", &clean_pass));
    out.e2e
        .push(median_metric("dirty_pass_ms", "ms", &dirty_pass));
    out.e2e.push(Metric::new(
        "queries_per_s",
        "1/s",
        (clean_pass.len() + dirty_pass.len()) as f64 * templates.len() as f64 / wall,
        clean_pass.len() + dirty_pass.len(),
    ));
    if tr.is_some() {
        out.layers.extend(probe.metrics());
        out.layers.push(
            median_metric("core.overhead_ratio", "ratio", &overhead)
                .note("clean over original execute time, per template and pass"),
        );
    }
    out.fact("sf", SF);
    out.fact("data seed", layers::DATA_SEED);
    out.fact("if", layers::IF_FACTOR);
    out.fact("prob_mode", "InfoLoss");
    out.fact("templates", templates.len());
    if let Some(t) = tr {
        phase.traces.push((t, 0, hi));
    }
    phase
}
