//! Seeded input streams and the open-loop schedule.
//!
//! Everything a workload sends is derived from `--seed` and the generated
//! database: the same seed gives the same keys, the same statements and
//! the same schedule.

use std::time::Duration;

use conquer_datagen::dirty::DIRTIED_TABLES;
use conquer_datagen::tpch::identifier_column;
use conquer_storage::{Catalog, Table, Value};

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`, independent of the
    /// others.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf-distributed draws over a fixed set of keys. Rank `r` (1-based) has
/// weight `1 / r^s`; ranks are assigned to keys by a seeded shuffle, so
/// the hot keys are not simply the smallest ones.
#[derive(Debug, Clone)]
pub struct Zipf {
    keys: Vec<i64>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(mut keys: Vec<i64>, s: f64, rng: &mut Rng) -> Zipf {
        assert!(!keys.is_empty(), "a Zipf stream needs at least one key");
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        let mut cdf = Vec::with_capacity(keys.len());
        let mut acc = 0.0;
        for r in 1..=keys.len() {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { keys, cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> i64 {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        self.keys[i]
    }
}

/// One read of the `serve` workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// One customer cluster (one table).
    Customer(i64),
    /// A customer's order lines (`orders ⋈ lineitem`).
    OrderLines(i64),
}

impl Lookup {
    /// The query in its original (dirty) form.
    pub fn sql(&self) -> String {
        match self {
            Lookup::Customer(k) => {
                format!("SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {k}")
            }
            Lookup::OrderLines(k) => format!(
                "SELECT l_id, o_orderkey, l_quantity FROM lineitem, orders \
                 WHERE l_orderkey = o_orderkey AND o_custkey = {k}"
            ),
        }
    }
}

/// Skew of the reader's keys. With 300 customer keys, two query kinds
/// and a write every 200 ms, about three reads in ten repeat a query
/// already answered in the same epoch; the median read is then a fresh
/// one, clear of the faster cache hits.
pub const ZIPF_S: f64 = 0.5;

/// The reader's stream: Zipf-drawn customer keys, with a seeded minority
/// (one in `minority_every`) asking for the customer's order lines.
#[derive(Debug, Clone)]
pub struct LookupStream {
    zipf: Zipf,
    rng: Rng,
    minority_every: usize,
}

impl LookupStream {
    pub fn new(keys: Vec<i64>, seed: u64, minority_every: usize) -> LookupStream {
        let mut rng = Rng::stream(seed, "lookup-keys");
        let zipf = Zipf::new(keys, ZIPF_S, &mut rng);
        LookupStream {
            zipf,
            rng: Rng::stream(seed, "lookups"),
            minority_every,
        }
    }
}

impl Iterator for LookupStream {
    type Item = Lookup;

    fn next(&mut self) -> Option<Lookup> {
        let key = self.zipf.draw(&mut self.rng);
        Some(if self.rng.below(self.minority_every) == 0 {
            Lookup::OrderLines(key)
        } else {
            Lookup::Customer(key)
        })
    }
}

/// SQL literal for an identifier or a copied row value.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{d}'"),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Null => "NULL".to_string(),
    }
}

/// Sorted distinct identifier values of `table`.
pub fn cluster_keys(table: &Table) -> Vec<i64> {
    let col = table
        .column_index(identifier_column(table.name()))
        .expect("every generated table has an identifier column");
    let mut keys: Vec<i64> = table
        .rows()
        .iter()
        .filter_map(|r| r[col].as_i64())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The writer's one-cluster DML on `customer` and `orders`, derived from
/// the seed and the database as generated (never from its later state).
#[derive(Debug, Clone)]
pub struct WriteStream {
    rng: Rng,
    tables: Vec<(Table, Vec<i64>)>,
    i: usize,
}

impl WriteStream {
    pub fn new(initial: &Catalog, seed: u64) -> WriteStream {
        let tables = ["customer", "orders"]
            .iter()
            .map(|&name| {
                let t = initial.table(name).expect("generated table").clone();
                let keys = cluster_keys(&t);
                (t, keys)
            })
            .collect();
        WriteStream {
            rng: Rng::stream(seed, "writes"),
            tables,
            i: 0,
        }
    }
}

impl Iterator for WriteStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let i = self.i;
        self.i += 1;
        let (table, keys) = &self.tables[(i / 4) % self.tables.len()];
        let name = table.name();
        let id = identifier_column(name);
        let key = keys[self.rng.below(keys.len())];
        Some(match i % 4 {
            0 => format!("REANNOTATE {name} ({id}, prob) SET prob * 0.9 WHERE {id} = {key}"),
            1 => {
                let col = if name == "customer" {
                    "c_acctbal"
                } else {
                    "o_totalprice"
                };
                format!("UPDATE {name} SET {col} = {col} + 1.5 WHERE {id} = {key}")
            }
            2 => {
                let row = &table.rows()[self.rng.below(table.len())];
                let vals: Vec<String> = row.iter().map(literal).collect();
                format!("INSERT INTO {name} VALUES ({})", vals.join(", "))
            }
            _ => format!("DELETE FROM {name} WHERE {id} = {key}"),
        })
    }
}

/// Clusters per dirtied table that the `views` statements touch.
const VIEW_CLUSTERS: usize = 4;

/// The `views` workload's statements. Statement `i` works on dirtied
/// table `i mod 6`; the six tables step together through three one-cluster
/// changes: rescale a cluster's probabilities, retract a cluster, and
/// insert the retracted cluster back, so tables keep their size however
/// long the run. Each table's changes touch a fixed set of
/// [`VIEW_CLUSTERS`] clusters, chosen once from the generated data, each
/// once per round in an order the seed shuffles. Every run thus makes the
/// same mix of changes, whose maintenance cost varies many-fold with the
/// cluster's fan-out into the views.
#[derive(Debug, Clone)]
pub struct ViewOps {
    rng: Rng,
    clusters: Vec<Vec<i64>>,
    /// Per table, the clusters still to touch this round.
    round: Vec<Vec<i64>>,
    retracted: Vec<Vec<conquer_storage::Row>>,
    i: usize,
}

impl ViewOps {
    pub fn new(initial: &Catalog, seed: u64) -> ViewOps {
        let mut fixed = Rng::stream(0, "view-clusters");
        let clusters = DIRTIED_TABLES
            .iter()
            .map(|&name| {
                let keys = cluster_keys(initial.table(name).expect("dirtied table"));
                (0..VIEW_CLUSTERS)
                    .map(|_| keys[fixed.below(keys.len())])
                    .collect()
            })
            .collect();
        ViewOps {
            rng: Rng::stream(seed, "view-ops"),
            clusters,
            round: vec![Vec::new(); DIRTIED_TABLES.len()],
            retracted: vec![Vec::new(); DIRTIED_TABLES.len()],
            i: 0,
        }
    }

    /// The next statement, against the current contents `catalog`.
    pub fn next(&mut self, catalog: &Catalog) -> String {
        let slot = self.i % DIRTIED_TABLES.len();
        let step = (self.i / DIRTIED_TABLES.len()) % 3;
        self.i += 1;
        let name = DIRTIED_TABLES[slot];
        let id = identifier_column(name);
        if self.round[slot].is_empty() {
            let mut bag = self.clusters[slot].clone();
            for j in (1..bag.len()).rev() {
                bag.swap(j, self.rng.below(j + 1));
            }
            self.round[slot] = bag;
        }
        let key = self.round[slot]
            .pop()
            .expect("a refilled round is not empty");
        match step {
            0 => format!("REANNOTATE {name} ({id}, prob) SET prob * 0.9 WHERE {id} = {key}"),
            1 => {
                let t = catalog.table(name).expect("dirtied table");
                let col = t.column_index(id).expect("identifier column");
                self.retracted[slot] = t
                    .rows()
                    .iter()
                    .filter(|r| r[col].as_i64() == Some(key))
                    .cloned()
                    .collect();
                format!("DELETE FROM {name} WHERE {id} = {key}")
            }
            _ => {
                let rows: Vec<String> = self.retracted[slot]
                    .iter()
                    .map(|r| format!("({})", r.iter().map(literal).collect::<Vec<_>>().join(", ")))
                    .collect();
                format!("INSERT INTO {name} VALUES {}", rows.join(", "))
            }
        }
    }
}

/// A clock the open loop runs against (real time, or a test double).
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

/// Timing of one open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When the schedule said to send it.
    pub due: Duration,
    /// How late it was actually sent.
    pub lateness: Duration,
    /// From the due time to its acknowledgement.
    pub latency: Duration,
}

/// Send request `i` at `i * period` (or as soon after as the previous
/// request allows) until `until`, timing each from when it was due to the
/// acknowledgement time `send` returns, so a stalled request is charged
/// to the requests queued behind it.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    period: Duration,
    until: Duration,
    mut send: impl FnMut(usize, &mut C) -> Duration,
) -> Vec<Sent> {
    let start = clock.now();
    let mut out = Vec::new();
    for i in 0.. {
        let due = start + period * i as u32;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent_at = clock.now();
        let done = send(i, clock);
        out.push(Sent {
            due,
            lateness: sent_at - due,
            latency: done - due,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use conquer_storage::{DataType, Schema};

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(7, "y").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(8, "x").next_u64()
        );
    }

    #[test]
    fn zipf_key_stream_is_deterministic_for_a_seed() {
        let keys: Vec<i64> = (0..300).collect();
        let a: Vec<Lookup> = LookupStream::new(keys.clone(), 11, 10).take(500).collect();
        let b: Vec<Lookup> = LookupStream::new(keys.clone(), 11, 10).take(500).collect();
        let c: Vec<Lookup> = LookupStream::new(keys, 12, 10).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let minority = a
            .iter()
            .filter(|l| matches!(l, Lookup::OrderLines(_)))
            .count();
        assert!(
            (20..=80).contains(&minority),
            "about one in ten: {minority}"
        );
    }

    #[test]
    fn zipf_favours_few_keys() {
        let mut rng = Rng::stream(3, "test");
        let zipf = Zipf::new((0..300).collect(), ZIPF_S, &mut rng);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(zipf.draw(&mut rng)).or_insert(0usize) += 1;
        }
        let mut c: Vec<usize> = counts.into_values().collect();
        c.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = c.iter().take(10).sum();
        // Uniform draws would give the top ten keys about 1/30 of the draws.
        assert!(top10 > 20_000 / 12, "top ten keys draw {top10} of 20000");
    }

    fn tiny_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut customer = Table::new(
            "customer",
            Schema::from_pairs([
                ("c_custkey", DataType::Int),
                ("c_acctbal", DataType::Float),
                ("prob", DataType::Float),
            ])
            .expect("schema"),
        );
        let mut orders = Table::new(
            "orders",
            Schema::from_pairs([
                ("o_orderkey", DataType::Int),
                ("o_totalprice", DataType::Float),
                ("prob", DataType::Float),
            ])
            .expect("schema"),
        );
        for k in 0..20 {
            for _ in 0..2 {
                customer
                    .insert(vec![
                        Value::Int(k),
                        Value::Float(k as f64),
                        Value::Float(0.5),
                    ])
                    .expect("insert");
                orders
                    .insert(vec![Value::Int(k), Value::Float(1.0), Value::Float(0.5)])
                    .expect("insert");
            }
        }
        cat.add_table(customer).expect("add");
        cat.add_table(orders).expect("add");
        cat
    }

    #[test]
    fn dml_stream_is_deterministic_for_a_seed() {
        let cat = tiny_catalog();
        let a: Vec<String> = WriteStream::new(&cat, 5).take(64).collect();
        let b: Vec<String> = WriteStream::new(&cat, 5).take(64).collect();
        let c: Vec<String> = WriteStream::new(&cat, 6).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for kind in [
            "REANNOTATE customer",
            "UPDATE orders",
            "INSERT INTO customer",
            "DELETE FROM orders",
        ] {
            assert!(a.iter().any(|s| s.starts_with(kind)), "{kind} missing");
        }
    }

    #[test]
    fn view_ops_are_deterministic_and_keep_table_sizes() {
        use conquer_engine::Database;
        let gen = || {
            conquer_datagen::dirty::dirty_database(conquer_datagen::dirty::UisConfig {
                tpch: conquer_datagen::tpch::TpchConfig { sf: 0.01, seed: 3 },
                ..Default::default()
            })
            .expect("generator")
            .db()
            .clone()
        };
        let run = |seed: u64| {
            let mut db: Database = gen();
            let sizes =
                |db: &Database| DIRTIED_TABLES.map(|t| db.catalog().table(t).expect("table").len());
            let before = sizes(&db);
            let mut ops = ViewOps::new(gen().catalog(), seed);
            let mut out = Vec::new();
            for _ in 0..DIRTIED_TABLES.len() * 3 * 4 {
                let sql = ops.next(db.catalog());
                db.prepare(&sql)
                    .and_then(|s| s.run(&mut db))
                    .expect("statement runs");
                out.push(sql);
            }
            assert_eq!(sizes(&db), before, "every retracted cluster came back");
            out
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
    }

    /// A clock that only moves when told to.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }
        fn sleep_until(&mut self, t: Duration) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let mut clock = FakeClock(Duration::ZERO);
        // Period 10 ms; request 1 stalls for 35 ms, the others take 1 ms.
        let sent = open_loop(&mut clock, ms(10), ms(60), |i, c| {
            c.0 += if i == 1 { ms(35) } else { ms(1) };
            c.now()
        });
        assert_eq!(sent.len(), 6);
        let lat: Vec<Duration> = sent.iter().map(|s| s.latency).collect();
        // Request 1 was due at 10 and acknowledged at 45. Request 2 was
        // due at 20 but could only start at 45: its latency counts from 20.
        assert_eq!(lat, vec![ms(1), ms(35), ms(26), ms(17), ms(8), ms(1)]);
        let late: Vec<Duration> = sent.iter().map(|s| s.lateness).collect();
        assert_eq!(late, vec![ms(0), ms(0), ms(25), ms(16), ms(7), ms(0)]);
    }
}
