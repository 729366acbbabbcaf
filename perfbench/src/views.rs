//! `views`: a durable `SharedDatabase` holding all 13 rewritten templates
//! as materialized views. One closed-loop session commits one-cluster DML,
//! cycling over the six dirtied tables, and after each commit reads one
//! maintained view, rotating through them.

use std::time::Instant;

use conquer_datagen::dirty::ProbMode;
use conquer_datagen::queries::{query_sql, QUERY_IDS};
use conquer_engine::{Database, QuerySource, SharedDatabase};

use crate::check::sorted;
use crate::durable::{self, ScratchWal};
use crate::layers::{self, ExecProbe};
use crate::load::ViewOps;
use crate::report::{median_metric, tail_metric, Metric};
use crate::trace::{self, Tracer};
use crate::{Phase, RunCfg};

pub const SF: f64 = 0.05;

struct Setup {
    dir: std::path::PathBuf,
    shared: SharedDatabase,
    /// The base tables without any view, for the view-free apply timing.
    twin: Database,
    views: Vec<String>,
}

fn setup(tr: &mut Option<Tracer>, cfg: &RunCfg, rep: usize) -> Setup {
    let dirty = layers::generate(tr, SF, ProbMode::Uniform);
    let dir = cfg.scratch.join("db").join(format!("views-{rep}"));
    let shared = durable::open_loaded(tr, &dir, dirty.db().catalog());
    let session = shared.session();
    let mut views = Vec::new();
    for &id in &QUERY_IDS {
        let rewritten =
            layers::compile_front(tr, dirty.db(), &query_sql(id, false), Some(dirty.spec()))
                .expect("every template is rewritable");
        let name = format!("q{id}");
        trace::span(tr, "view.create", || {
            session.execute(&format!("CREATE MATERIALIZED VIEW {name} AS {rewritten}"))
        })
        .expect("every rewritten template materializes");
        views.push(name);
    }
    let twin = dirty.db().clone();
    Setup {
        dir,
        shared,
        twin,
        views,
    }
}

/// Time one untraced set-up, then close it and remove its directory.
pub fn setup_once(cfg: &RunCfg, rep: usize) -> f64 {
    let t0 = Instant::now();
    let s = setup(&mut None, cfg, rep);
    let elapsed = t0.elapsed().as_secs_f64();
    drop(s.shared);
    let _ = std::fs::remove_dir_all(&s.dir);
    elapsed
}

pub fn phase(cfg: &RunCfg, traced: bool, setup_reps: usize) -> Phase {
    let origin = Instant::now();
    let mut tr = traced.then(|| Tracer::new("session", origin));
    let mut phase = Phase::new("views");

    phase.setup_s = (1..setup_reps).map(|rep| setup_once(cfg, rep)).collect();
    let t0 = Instant::now();
    let Setup {
        dir,
        shared,
        mut twin,
        views,
    } = setup(&mut tr, cfg, 0);
    phase.setup_s.push(t0.elapsed().as_secs_f64());
    let fsync_floor = if traced {
        trace::span(&mut tr, "wal.fsync_probe", || {
            durable::fsync_floor_us(&cfg.scratch.join("fsync-probe"), 64)
        })
    } else {
        Vec::new()
    };
    let mut scratch = traced.then(|| ScratchWal::open(cfg.scratch.join("scratch-wal-views")));

    let out = &mut phase.outcome;
    let session = shared.session();
    let mut ops = ViewOps::new(twin.catalog(), cfg.seed);
    let mut commit_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut result_cache = 0usize;
    let mut probe = ExecProbe::default();
    let (mut clone_ms, mut apply_ms, mut delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wal_commit_ms, mut wal_bytes) = (Vec::new(), Vec::new());
    let stats0 = shared.stats();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let sql = ops.next(shared.snapshot().db().catalog());
        let view = &views[i % views.len()];
        i += 1;
        trace::next_request(&mut tr);
        let pre = traced.then(|| (shared.snapshot(), durable::wal_len(&dir)));

        out.attempted += 1;
        let t0 = Instant::now();
        let committed = trace::span(&mut tr, "shared.commit", || session.execute(&sql));
        let committed_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = committed {
            out.fail(format!("{sql}: {e}"));
            continue;
        }
        commit_ms.push(committed_ms);

        out.attempted += 1;
        let read_sql = format!("SELECT * FROM {view}");
        let t0 = Instant::now();
        let read = trace::span(&mut tr, "shared.query", || session.query(&read_sql));
        let read_elapsed = t0.elapsed().as_secs_f64() * 1e3;
        match read {
            Ok(r) => {
                read_ms.push(read_elapsed);
                if r.source == QuerySource::ResultCache {
                    result_cache += 1;
                }
            }
            Err(e) => out.fail(format!("{read_sql}: {e}")),
        }

        // Traced run: split the commit and the read into their layers.
        if let (Some((pre, wal_before)), Some(scratch)) = (pre, scratch.as_mut()) {
            let open = trace::enter(&mut tr, "bench.shadow");
            let wal_after = durable::wal_len(&dir);
            if wal_after > wal_before {
                wal_bytes.push((wal_after - wal_before) as f64);
            }
            let t0 = Instant::now();
            let mut with_views = trace::span(&mut tr, "shared.clone", || pre.db().clone());
            clone_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let base = trace::span(&mut tr, "shared.apply", || {
                twin.prepare(&sql).and_then(|s| s.run(&mut twin))
            });
            let base_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let maintained = trace::span(&mut tr, "view.maintain", || {
                with_views
                    .prepare(&sql)
                    .and_then(|s| s.run(&mut with_views))
            });
            let maintained_ms = t0.elapsed().as_secs_f64() * 1e3;
            if base.is_ok() && maintained.is_ok() {
                apply_ms.push(base_ms);
                delta_ms.push(maintained_ms - base_ms);
                let ops = durable::changed_tables(pre.db(), &with_views);
                let ms = trace::span(&mut tr, "wal.commit", || scratch.commit_ms(&ops));
                wal_commit_ms.push(ms);
            }
            let snap = shared.snapshot();
            let db = snap.db();
            let _ = layers::compile_front(&mut tr, db, &read_sql, None).and_then(|stmt| {
                layers::compile_and_execute(&mut tr, db, &stmt, *db.limits(), &mut probe)
            });
            // Dropping the copies is part of the shadow's cost.
            drop((with_views, pre, snap));
            trace::exit(&mut tr, open);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats1 = shared.stats();
    let checkpoint = if traced {
        durable::checkpoint_ms(&mut tr, &shared, 3)
    } else {
        Vec::new()
    };
    let hi = origin.elapsed().as_nanos() as u64;

    // Every maintained view must equal a from-scratch REFRESH.
    let final_snapshot = shared.snapshot();
    let final_catalog = final_snapshot.db().catalog().clone();
    let mut refreshed = final_snapshot.db().clone();
    drop(final_snapshot);
    for v in &views {
        out.attempted += 1;
        let r = refreshed
            .prepare(&format!("REFRESH MATERIALIZED VIEW {v}"))
            .and_then(|s| s.run(&mut refreshed));
        if let Err(e) = r {
            out.fail(format!("refreshing {v}: {e}"));
            continue;
        }
        let maintained = final_catalog.table(v).map(|t| sorted(t.rows()));
        let fresh = refreshed.catalog().table(v).map(|t| sorted(t.rows()));
        match (maintained, fresh) {
            (Ok(m), Ok(f)) if m == f => {}
            (Ok(m), Ok(f)) => out.fail(format!(
                "view {v}: maintained contents ({} rows) differ from a refresh ({} rows)",
                m.len(),
                f.len()
            )),
            _ => out.fail(format!("view {v}: contents table missing")),
        }
    }
    drop(refreshed);
    drop(session);
    drop(shared);
    durable::reopen_check(&dir, &final_catalog, out);
    let _ = std::fs::remove_dir_all(&dir);

    out.e2e
        .push(median_metric("commit_p50_ms", "ms", &commit_ms));
    out.e2e
        .push(tail_metric("commit_tail_ms", "ms", &commit_ms));
    out.e2e.push(Metric::new(
        "commits_per_s",
        "1/s",
        commit_ms.len() as f64 / wall,
        commit_ms.len(),
    ));
    out.e2e
        .push(median_metric("view_read_p50_ms", "ms", &read_ms));
    out.e2e
        .push(tail_metric("view_read_tail_ms", "ms", &read_ms));
    out.fact("sf", SF);
    out.fact("data seed", layers::DATA_SEED);
    out.fact("if", layers::IF_FACTOR);
    out.fact("prob_mode", "Uniform");
    out.fact("views", views.len());
    out.fact("commits", commit_ms.len());
    out.fact(
        "automatic checkpoints",
        stats1.checkpoints - stats0.checkpoints,
    );
    out.fact("shared.repeat_share", "0 (every read follows a commit)");

    if traced {
        out.layers.extend(probe.metrics());
        let reads = read_ms.len().max(1) as f64;
        out.layers.extend(crate::serve::shared_metrics(
            &stats0,
            &stats1,
            result_cache as f64 / reads,
            0.0,
        ));
        let l = &mut out.layers;
        l.push(median_metric("shared.clone_ms", "ms", &clone_ms));
        l.push(
            median_metric("shared.apply_ms", "ms", &apply_ms).note("median, on the view-free copy"),
        );
        l.push(
            median_metric("view.delta_ms", "ms", &delta_ms)
                .note("median, with views minus without"),
        );
        l.push(median_metric("wal.bytes_per_commit", "bytes", &wal_bytes));
        l.push(median_metric("wal.commit_ms", "ms", &wal_commit_ms));
        l.push(median_metric("wal.fsync_floor_us", "us", &fsync_floor));
        l.push(
            median_metric("persist.checkpoint_ms", "ms", &checkpoint)
                .note("median of explicit checkpoints after the run"),
        );
    }
    if let Some(t) = tr {
        phase.traces.push((t, 0, hi));
    }
    phase
}
