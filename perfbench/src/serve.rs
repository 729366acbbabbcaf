//! `serve`: a durable `SharedDatabase` behind the TCP `Server`, with two
//! connections. A closed-loop reader sends clean-answer lookups (rewritten
//! on the client, then `Client::query`); an open-loop writer commits
//! one-cluster DML at a fixed rate well below its capacity.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use conquer_core::{DirtyDatabase, RewriteClean};
use conquer_datagen::dirty::ProbMode;
use conquer_engine::{CacheStats, Database, ExecLimits, SharedDatabase};
use conquer_server::client::wire_form;
use conquer_server::proto::encode_row;
use conquer_server::{Client, Response, Server, ServerConfig, ServerHandle};
use conquer_sql::parse_select;

use crate::check::{result_hash, wire_hash};
use crate::durable::{self, ScratchWal};
use crate::layers::{self, ExecProbe};
use crate::load::{cluster_keys, open_loop, Clock, LookupStream, WriteStream};
use crate::report::{median_metric, tail_metric, Metric, Outcome};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Phase, RunCfg};

pub const SF: f64 = 0.2;
/// One lookup in this many asks for a customer's order lines.
const MINORITY_EVERY: usize = 10;
/// The writer's schedule: one commit every 200 ms (5 per second).
const WRITE_PERIOD: Duration = Duration::from_millis(200);
/// Engine threads of the reader's session (`LIMIT threads`). A lookup at
/// more threads hands each query to morsel workers, and on a host of a
/// few cores those hand-offs, the reader, the server's connection threads
/// and the writer's commits contend for the same cores: the scheduler, not
/// the engine, then sets the latency. Morsel dispatch is measured by
/// `analytic`.
pub const READER_THREADS: usize = 1;
/// `read_qps` is the median read rate of runs of consecutive lookups, one
/// run per this many seconds of the measured interval.
const RATE_WINDOW_S: f64 = 1.0;

/// One served database with its two connections.
struct Served {
    dirty: DirtyDatabase,
    dir: PathBuf,
    shared: SharedDatabase,
    server: ServerHandle,
    /// Epoch right after the bulk load.
    epoch0: u64,
}

fn setup(tr: &mut Option<Tracer>, cfg: &RunCfg, rep: usize) -> (Served, Client, Client) {
    let dirty = layers::generate(tr, SF, ProbMode::Uniform);
    let dir = cfg.scratch.join("db").join(format!("serve-{rep}"));
    let shared = durable::open_loaded(tr, &dir, dirty.db().catalog());
    let epoch0 = shared.epoch();
    let (server, reader, writer) = trace::span(tr, "server.spawn", || {
        let mut config = ServerConfig::default();
        config.addr = "127.0.0.1:0".to_string();
        let server = Server::bind(shared.clone(), &config)
            .and_then(Server::spawn)
            .expect("the server binds a loopback port");
        let mut reader = Client::connect(server.addr()).expect("reader connects");
        let limit = reader.request(&format!("LIMIT threads {READER_THREADS}"));
        assert!(
            matches!(limit, Ok(Response::Ok(_))),
            "the server sets the reader's thread limit: {limit:?}"
        );
        let writer = Client::connect(server.addr()).expect("writer connects");
        (server, reader, writer)
    });
    let served = Served {
        dirty,
        dir,
        shared,
        server,
        epoch0,
    };
    (served, reader, writer)
}

/// Close both connections and stop the server.
fn stop(server: ServerHandle, mut clients: [Client; 2]) {
    for c in &mut clients {
        let _ = c.quit();
    }
    drop(clients);
    server.shutdown();
}

/// Time one untraced set-up, then stop its server and remove its
/// directory.
pub fn setup_once(cfg: &RunCfg, rep: usize) -> f64 {
    let t0 = Instant::now();
    let (served, reader, writer) = setup(&mut None, cfg, rep);
    let elapsed = t0.elapsed().as_secs_f64();
    stop(served.server, [reader, writer]);
    drop(served.shared);
    let _ = std::fs::remove_dir_all(&served.dir);
    elapsed
}

/// Real time since the writer's start; time spent waiting for the next
/// due time is recorded as a `loadgen.idle` span.
struct Wall<'a> {
    start: Instant,
    tr: &'a mut Option<Tracer>,
}

impl Clock for Wall<'_> {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }
    fn sleep_until(&mut self, t: Duration) {
        let now = self.start.elapsed();
        if t > now {
            trace::span(self.tr, "loadgen.idle", || std::thread::sleep(t - now));
        }
    }
}

/// What the reader saw: the interned SQL, the epoch the server answered
/// at, and the answer's fingerprint.
struct Read {
    sql: u32,
    epoch: u64,
    hash: u64,
}

#[derive(Default)]
struct ReaderLog {
    latency_ms: Vec<f64>,
    /// Completion time of each answered lookup, in seconds since the start.
    done_s: Vec<f64>,
    sql: Vec<String>,
    reads: Vec<Read>,
    result_cache: usize,
    repeats: usize,
    errors: Vec<String>,
    // Traced run only.
    probe: ExecProbe,
    ping_us: Vec<f64>,
    encode_us: Vec<f64>,
    residual_us: Vec<f64>,
}

#[derive(Default)]
struct WriterLog {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    acked: Vec<String>,
    errors: Vec<String>,
    // Traced run only.
    clone_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    wal_commit_ms: Vec<f64>,
    wal_bytes: Vec<f64>,
}

fn reader_loop(
    tr: &mut Option<Tracer>,
    client: &mut Client,
    s: &Served,
    seed: u64,
    start: Instant,
    until: Instant,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut interned: HashMap<String, u32> = HashMap::new();
    let mut seen: std::collections::HashSet<(u32, u64)> = std::collections::HashSet::new();
    let keys = cluster_keys(s.dirty.db().catalog().table("customer").expect("customer"));
    let catalog = s.dirty.db().catalog();
    let spec = s.dirty.spec();
    for (i, lookup) in LookupStream::new(keys, seed, MINORITY_EVERY).enumerate() {
        if Instant::now() >= until {
            break;
        }
        trace::next_request(tr);
        let t0 = Instant::now();
        let open = trace::enter(tr, "bench.lookup");
        let sql = lookup.sql();
        let rewritten = trace::span(tr, "sql.parse", || parse_select(&sql))
            .map_err(|e| e.to_string())
            .and_then(|stmt| {
                trace::span(tr, "core.rewrite", || {
                    RewriteClean.rewrite(catalog, spec, &stmt)
                })
                .map_err(|e| e.to_string())
            })
            .map(|r| r.to_string());
        let t_rt = Instant::now();
        let answer = rewritten.and_then(|text| {
            trace::span(tr, "server.roundtrip", || client.query(&text))
                .map(|rows| (text, rows))
                .map_err(|e| e.to_string())
        });
        let roundtrip_us = t_rt.elapsed().as_secs_f64() * 1e6;
        trace::exit(tr, open);
        let latency = t0.elapsed().as_secs_f64() * 1e3;
        let (text, rows) = match answer {
            Ok(a) => a,
            Err(e) => {
                log.errors.push(e);
                continue;
            }
        };
        log.latency_ms.push(latency);
        log.done_s.push(start.elapsed().as_secs_f64());
        let record = trace::enter(tr, "bench.record");
        let n = interned.len() as u32;
        let id = *interned.entry(text.clone()).or_insert_with(|| {
            log.sql.push(text.clone());
            n
        });
        if !seen.insert((id, rows.epoch)) {
            log.repeats += 1;
        }
        if rows.source == "result-cache" {
            log.result_cache += 1;
        }
        log.reads.push(Read {
            sql: id,
            epoch: rows.epoch,
            hash: wire_hash(&rows.columns, &wire_form(&rows)),
        });
        trace::exit(tr, record);
        if tr.is_some() {
            shadow_read(
                tr,
                s,
                &text,
                &rows.source,
                rows.epoch,
                roundtrip_us,
                &mut log,
            );
            if i % 20 == 0 {
                let t0 = Instant::now();
                if trace::span(tr, "server.ping", || client.ping()).is_ok() {
                    log.ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
    }
    log
}

/// Re-run in process the layers the server ran for one answer (parse,
/// bind, validate, plan and execute unless the result cache answered; the
/// row encoding always), so the round trip can be split into those layers
/// and a residual. A plan-cache answer skipped parse, bind and plan on the
/// server, so only its execution counts against the round trip.
fn shadow_read(
    tr: &mut Option<Tracer>,
    s: &Served,
    text: &str,
    source: &str,
    epoch: u64,
    roundtrip_us: f64,
    log: &mut ReaderLog,
) {
    let snap = s.shared.snapshot();
    if snap.epoch() != epoch {
        return; // a write landed since; the version the server used is gone
    }
    let db = snap.db();
    let open = trace::enter(tr, "bench.shadow");
    let t0 = Instant::now();
    let mut layers_us = 0.0;
    let result = if source == "result-cache" {
        db.prepare(text).and_then(|st| st.query(db)).ok()
    } else {
        let exec_before = log.probe.execute_ms.len();
        let r = layers::compile_front(tr, db, text, None).and_then(|stmt| {
            let limits = ExecLimits::default().with_threads(READER_THREADS);
            layers::compile_and_execute(tr, db, &stmt, limits, &mut log.probe)
        });
        layers_us = if source == "fresh" {
            t0.elapsed().as_secs_f64() * 1e6
        } else {
            log.probe.execute_ms[exec_before..].iter().sum::<f64>() * 1e3
        };
        r.ok()
    };
    if let Some(result) = result {
        let t1 = Instant::now();
        let encoded: Vec<String> = trace::span(tr, "server.encode", || {
            result.rows.iter().map(|r| encode_row(r)).collect()
        });
        std::hint::black_box(encoded);
        let enc = t1.elapsed().as_secs_f64() * 1e6;
        log.encode_us.push(enc);
        log.residual_us.push(roundtrip_us - layers_us - enc);
    }
    trace::exit(tr, open);
}

fn writer_loop(
    tr: &mut Option<Tracer>,
    writer: &mut Client,
    shared: &SharedDatabase,
    dir: &std::path::Path,
    initial: &conquer_storage::Catalog,
    cfg: &RunCfg,
    seconds: f64,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut stream = WriteStream::new(initial, cfg.seed);
    let mut scratch = tr
        .is_some()
        .then(|| ScratchWal::open(cfg.scratch.join("scratch-wal-serve")));
    let mut clock = Wall {
        start: Instant::now(),
        tr,
    };
    let sent = open_loop(
        &mut clock,
        WRITE_PERIOD,
        Duration::from_secs_f64(seconds),
        |_, clock| {
            let sql = stream.next().expect("the write stream is endless");
            let tr = &mut *clock.tr;
            trace::next_request(tr);
            let before = tr
                .is_some()
                .then(|| (shared.snapshot(), durable::wal_len(dir)));
            let r = trace::span(tr, "server.exec", || writer.exec(&sql));
            let acked_at = clock.start.elapsed();
            match r {
                Ok(Response::Ok(_)) => log.acked.push(sql.clone()),
                Ok(other) => log
                    .errors
                    .push(format!("{sql}: unexpected answer {other:?}")),
                Err(e) => log.errors.push(format!("{sql}: {e}")),
            }
            if let (Some((pre, wal_before)), Some(scratch)) = (before, scratch.as_mut()) {
                let wal_after = durable::wal_len(dir);
                if wal_after > wal_before {
                    log.wal_bytes.push((wal_after - wal_before) as f64);
                }
                let open = trace::enter(tr, "bench.shadow");
                let t0 = Instant::now();
                let mut next = trace::span(tr, "shared.clone", || pre.db().clone());
                log.clone_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let t0 = Instant::now();
                let applied = trace::span(tr, "shared.apply", || {
                    next.prepare(&sql).and_then(|st| st.run(&mut next))
                });
                log.apply_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if applied.is_ok() {
                    let ops = durable::changed_tables(pre.db(), &next);
                    let ms = trace::span(tr, "wal.commit", || scratch.commit_ms(&ops));
                    log.wal_commit_ms.push(ms);
                }
                // Dropping the copies is part of the shadow's cost.
                drop((next, pre));
                trace::exit(tr, open);
            }
            acked_at
        },
    );
    for s in sent {
        log.latency_ms.push(s.latency.as_secs_f64() * 1e3);
        log.lateness_ms.push(s.lateness.as_secs_f64() * 1e3);
    }
    log
}

/// Replay the acknowledged writes in process, one epoch at a time, and
/// check every read against the state at the epoch the server reported.
fn replay_check(
    initial: &Database,
    epoch0: u64,
    acked: &[String],
    reader: &ReaderLog,
    final_catalog: &conquer_storage::Catalog,
    out: &mut Outcome,
) {
    let mut db = initial.clone();
    let mut by_epoch: Vec<&Read> = reader.reads.iter().collect();
    by_epoch.sort_by_key(|r| r.epoch);
    let mut next = 0;
    for k in 0..=acked.len() {
        let epoch = epoch0 + k as u64;
        let mut expected: HashMap<u32, u64> = HashMap::new();
        while next < by_epoch.len() && by_epoch[next].epoch == epoch {
            let r = by_epoch[next];
            let want = *expected.entry(r.sql).or_insert_with(|| {
                let sql = &reader.sql[r.sql as usize];
                db.prepare(sql)
                    .and_then(|s| s.query(&db))
                    .map_or(0, |res| result_hash(&res))
            });
            if want != r.hash {
                out.fail(format!(
                    "read at epoch {epoch} differs from the replay: {}",
                    reader.sql[r.sql as usize]
                ));
            }
            next += 1;
        }
        if let Some(sql) = acked.get(k) {
            if let Err(e) = db.prepare(sql).and_then(|s| s.run(&mut db)) {
                out.fail(format!("replaying {sql}: {e}"));
            }
        }
    }
    for r in &by_epoch[next..] {
        out.fail(format!(
            "read at epoch {} is past the last acknowledged write",
            r.epoch
        ));
    }
    out.attempted += 1;
    for d in crate::check::catalog_diff(final_catalog, db.catalog()) {
        out.fail(format!("replayed state: {d}"));
    }
}

pub fn phase(cfg: &RunCfg, traced: bool, setup_reps: usize) -> Phase {
    let origin = Instant::now();
    let mut tr = traced.then(|| Tracer::new("reader", origin));
    let mut phase = Phase::new("serve");

    phase.setup_s = (1..setup_reps).map(|rep| setup_once(cfg, rep)).collect();
    let t0 = Instant::now();
    let (s, mut reader_client, mut writer_client) = setup(&mut tr, cfg, 0);
    phase.setup_s.push(t0.elapsed().as_secs_f64());
    let fsync_floor = if traced {
        trace::span(&mut tr, "wal.fsync_probe", || {
            durable::fsync_floor_us(&cfg.scratch.join("fsync-probe"), 64)
        })
    } else {
        Vec::new()
    };

    let stats0 = s.shared.stats();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(cfg.seconds);
    let mut wtr = traced.then(|| Tracer::new("writer", origin));
    let (reader, writer) = std::thread::scope(|scope| {
        let wtr = &mut wtr;
        let writer_client = &mut writer_client;
        let s = &s;
        let w = scope.spawn(move || {
            let initial = s.dirty.db().catalog();
            let log = writer_loop(
                wtr,
                writer_client,
                &s.shared,
                &s.dir,
                initial,
                cfg,
                cfg.seconds,
            );
            (log, origin.elapsed().as_nanos() as u64)
        });
        let r = reader_loop(&mut tr, &mut reader_client, s, cfg.seed, start, until);
        let w = trace::span(&mut tr, "bench.join", || w.join());
        (r, w.expect("the writer thread does not panic"))
    });
    let (writer, writer_end) = writer;
    let wall = start.elapsed().as_secs_f64();
    let stats1 = s.shared.stats();
    let checkpoint = if traced {
        durable::checkpoint_ms(&mut tr, &s.shared, 3)
    } else {
        Vec::new()
    };
    let hi = origin.elapsed().as_nanos() as u64;

    let out = &mut phase.outcome;
    out.attempted += (reader.reads.len() + reader.errors.len()) as u64;
    out.attempted += (writer.acked.len() + writer.errors.len()) as u64;
    for e in reader.errors.iter().chain(&writer.errors) {
        out.fail(e.clone());
    }

    // Stop serving, then check durability and every answer.
    let Served {
        dirty,
        dir,
        shared,
        server,
        epoch0,
    } = s;
    stop(server, [reader_client, writer_client]);
    let final_snapshot = shared.snapshot();
    out.attempted += 1;
    if final_snapshot.epoch() != epoch0 + writer.acked.len() as u64 {
        out.fail(format!(
            "final epoch {} is not {} plus {} acknowledged writes",
            final_snapshot.epoch(),
            epoch0,
            writer.acked.len()
        ));
    }
    let final_catalog = final_snapshot.db().catalog().clone();
    drop(final_snapshot);
    drop(shared);
    durable::reopen_check(&dir, &final_catalog, out);
    replay_check(
        dirty.db(),
        epoch0,
        &writer.acked,
        &reader,
        &final_catalog,
        out,
    );
    let _ = std::fs::remove_dir_all(&dir);

    out.e2e
        .push(median_metric("read_p50_ms", "ms", &reader.latency_ms));
    out.e2e
        .push(tail_metric("read_tail_ms", "ms", &reader.latency_ms));
    let rates = stats::chunk_rates(&reader.done_s, (wall / RATE_WINDOW_S) as usize);
    out.e2e.push(
        Metric::new(
            "read_qps",
            "1/s",
            stats::median(&rates).unwrap_or(f64::NAN),
            reader.latency_ms.len(),
        )
        .note(format!("median over {} runs of lookups", rates.len())),
    );
    out.e2e.push(
        median_metric("commit_p50_ms", "ms", &writer.latency_ms).note("median, from the due time"),
    );
    out.e2e
        .push(tail_metric("commit_tail_ms", "ms", &writer.latency_ms));
    let reads = reader.reads.len().max(1) as f64;
    let repeat_share = reader.repeats as f64 / reads;
    out.fact("sf", SF);
    out.fact("data seed", layers::DATA_SEED);
    out.fact("if", layers::IF_FACTOR);
    out.fact("prob_mode", "Uniform");
    out.fact("reader engine threads", READER_THREADS);
    out.fact(
        "customer clusters",
        cluster_keys(dirty.db().catalog().table("customer").expect("customer")).len(),
    );
    out.fact("distinct lookups", reader.sql.len());
    out.fact(
        "result cache entries",
        conquer_engine::SharedConfig::default().result_cache,
    );
    out.fact(
        "writer rate",
        format!("{:.1}/s", 1.0 / WRITE_PERIOD.as_secs_f64()),
    );
    out.fact("acknowledged writes", writer.acked.len());
    out.fact("shared.repeat_share", format!("{repeat_share:.4}"));
    out.fact(
        "writer lateness p50",
        format!(
            "{:.3} ms",
            stats::median(&writer.lateness_ms).unwrap_or(f64::NAN)
        ),
    );

    if traced {
        out.layers.extend(reader.probe.metrics());
        out.layers.extend(shared_metrics(
            &stats0,
            &stats1,
            reader.result_cache as f64 / reads,
            repeat_share,
        ));
        let l = &mut out.layers;
        l.push(median_metric("shared.clone_ms", "ms", &writer.clone_ms));
        l.push(median_metric("shared.apply_ms", "ms", &writer.apply_ms));
        l.push(median_metric(
            "wal.bytes_per_commit",
            "bytes",
            &writer.wal_bytes,
        ));
        l.push(median_metric("wal.commit_ms", "ms", &writer.wal_commit_ms));
        l.push(median_metric("wal.fsync_floor_us", "us", &fsync_floor));
        l.push(
            median_metric("persist.checkpoint_ms", "ms", &checkpoint)
                .note("median of explicit checkpoints after the run"),
        );
        l.push(median_metric("server.ping_rtt_us", "us", &reader.ping_us));
        l.push(median_metric("server.encode_us", "us", &reader.encode_us));
        l.push(median_metric(
            "server.residual_us",
            "us",
            &reader.residual_us,
        ));
        l.push(median_metric(
            "loadgen.write_lateness_ms",
            "ms",
            &writer.lateness_ms,
        ));
    }
    if let Some(t) = tr {
        phase.traces.push((t, 0, hi));
    }
    if let Some(t) = wtr {
        let lo = t.offset(start);
        phase.traces.push((t, lo, writer_end));
    }
    phase
}

/// Cache, admission and checkpoint counters over the measured interval.
pub fn shared_metrics(
    s0: &CacheStats,
    s1: &CacheStats,
    result_hit: f64,
    repeat_share: f64,
) -> Vec<Metric> {
    let plan_hits = (s1.plan_hits - s0.plan_hits) as f64;
    let plan_misses = (s1.plan_misses - s0.plan_misses) as f64;
    let lookups = (plan_hits + plan_misses) as usize;
    vec![
        Metric::new("shared.result_hit_ratio", "ratio", result_hit, lookups),
        Metric::new(
            "shared.plan_hit_ratio",
            "ratio",
            plan_hits / (plan_hits + plan_misses).max(1.0),
            lookups,
        ),
        Metric::new("shared.repeat_share", "ratio", repeat_share, lookups),
        Metric::new(
            "shared.evictions",
            "count",
            (s1.evictions - s0.evictions) as f64,
            1,
        ),
        Metric::new("shared.shed", "count", (s1.shed - s0.shed) as f64, 1),
        Metric::new(
            "persist.checkpoints",
            "count",
            (s1.checkpoints - s0.checkpoints) as f64,
            1,
        )
        .note("automatic, during the measured interval"),
        Metric::new("view.rows", "count", s1.view_rows as f64, 1),
        Metric::new(
            "view.deltas_applied",
            "count",
            (s1.view_deltas_applied - s0.view_deltas_applied) as f64,
            1,
        ),
    ]
}
