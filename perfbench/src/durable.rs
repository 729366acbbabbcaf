//! Durable-directory helpers shared by `serve` and `views`: open and bulk
//! load, the reopen check, and the storage probes of the traced run.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use conquer_engine::{Database, SharedConfig, SharedDatabase};
use conquer_storage::{Catalog, Wal, WalOp};

use crate::check::catalog_diff;
use crate::report::Outcome;
use crate::trace::{self, Tracer};

/// Open an empty durable database in a fresh `dir` and load `catalog`
/// into it with one full checkpoint.
pub fn open_loaded(tr: &mut Option<Tracer>, dir: &Path, catalog: &Catalog) -> SharedDatabase {
    let _ = std::fs::remove_dir_all(dir);
    let (shared, _) = trace::span(tr, "storage.open_durable", || {
        SharedDatabase::open_durable(dir, SharedConfig::default())
    })
    .expect("a fresh directory opens");
    trace::span(tr, "shared.bulk_load", || {
        shared.mutate(|db| {
            for t in catalog.tables() {
                db.catalog_mut().add_table(t.clone())?;
            }
            Ok(())
        })
    })
    .expect("bulk load into an empty database");
    shared
}

/// Size of the write-ahead log in `dir` (0 before the first commit).
pub fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(conquer_storage::wal::WAL_FILE)).map_or(0, |m| m.len())
}

/// Reopen `dir` from disk and record a failure for every table that does
/// not match the final in-memory state `expected`.
pub fn reopen_check(dir: &Path, expected: &Catalog, out: &mut Outcome) {
    out.attempted += 1;
    match SharedDatabase::open_durable(dir, SharedConfig::default()) {
        Ok((reopened, _)) => {
            let diff = catalog_diff(expected, reopened.snapshot().db().catalog());
            for d in diff {
                out.fail(format!("reopened {}: {d}", dir.display()));
            }
        }
        Err(e) => out.fail(format!("reopening {}: {e}", dir.display())),
    }
}

/// Tables whose contents differ between `before` and `after`, as they are
/// in `after` (the images a WAL commit of that change would carry).
pub fn changed_tables<'a>(before: &Database, after: &'a Database) -> Vec<WalOp<'a>> {
    after
        .catalog()
        .tables()
        .filter(|t| {
            before
                .catalog()
                .table(t.name())
                .map_or(true, |b| b.rows() != t.rows() || b.schema() != t.schema())
        })
        .map(WalOp::Put)
        .collect()
}

/// A write-ahead log in a scratch directory, for timing `Wal::commit`
/// of the same images a real commit writes.
pub struct ScratchWal {
    dir: PathBuf,
    wal: Wal,
}

impl ScratchWal {
    pub fn open(dir: PathBuf) -> ScratchWal {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let wal = Wal::open(&dir).expect("scratch log opens");
        ScratchWal { dir, wal }
    }

    /// Commit `ops`, returning the milliseconds it took. Past 4 MiB the
    /// log is deleted and started afresh, so it stays small.
    pub fn commit_ms(&mut self, ops: &[WalOp<'_>]) -> f64 {
        let t0 = Instant::now();
        self.wal.commit(ops).expect("scratch log commit");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if self.wal.size_bytes() > 4 << 20 {
            let _ = std::fs::remove_file(self.dir.join(conquer_storage::wal::WAL_FILE));
            self.wal = Wal::open(&self.dir).expect("scratch log reopens");
        }
        ms
    }
}

/// The fsync floor: microseconds per raw append + `fdatasync` of a small
/// frame, `n` times, in `dir` (what `wal_bench` measures as its floor).
pub fn fsync_floor_us(dir: &Path, n: usize) -> Vec<f64> {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let path = dir.join("fsync-floor.log");
    let mut f = std::fs::File::create(&path).expect("scratch file");
    let frame = [0u8; 96];
    let out = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f.write_all(&frame).expect("append");
            f.sync_data().expect("fdatasync");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(f);
    let _ = std::fs::remove_file(&path);
    out
}

/// Milliseconds of `n` explicit checkpoints of `shared`.
pub fn checkpoint_ms(tr: &mut Option<Tracer>, shared: &SharedDatabase, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            trace::span(tr, "persist.checkpoint", || shared.checkpoint())
                .expect("checkpoint of a healthy durable database");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
