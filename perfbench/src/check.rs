//! Bit-exact comparisons behind the answer and durability checks.

use conquer_core::CleanAnswers;
use conquer_engine::QueryResult;
use conquer_server::proto::encode_row;
use conquer_storage::{Catalog, Row};

/// A clean answer set with every probability as its exact bit pattern.
pub fn clean_key(a: &CleanAnswers) -> (Vec<String>, Vec<(Row, u64)>) {
    let rows = a
        .rows
        .iter()
        .map(|(r, p)| (r.clone(), p.to_bits()))
        .collect();
    (a.columns.clone(), rows)
}

/// FNV-1a over a stream of strings (each terminated, so boundaries count).
pub fn fnv<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in parts {
        for b in p.bytes().chain(std::iter::once(0xff)) {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Fingerprint of an answer in the server's wire form: the column names,
/// then every row as the server encodes it.
pub fn wire_hash(columns: &[String], rows: &[String]) -> u64 {
    fnv(columns.iter().chain(rows).map(String::as_str))
}

/// [`wire_hash`] of an in-process result.
pub fn result_hash(result: &QueryResult) -> u64 {
    let rows: Vec<String> = result.rows.iter().map(|r| encode_row(r)).collect();
    wire_hash(&result.columns, &rows)
}

/// Rows sorted, so two tables holding the same multiset compare equal.
pub fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut v = rows.to_vec();
    v.sort();
    v
}

/// Every difference between two catalogs: missing tables, schemas, rows
/// (compared in order and bit for bit). Empty when they are equal.
pub fn catalog_diff(expected: &Catalog, actual: &Catalog) -> Vec<String> {
    let mut out = Vec::new();
    let names =
        |c: &Catalog| -> Vec<String> { c.table_names().iter().map(|s| s.to_string()).collect() };
    if names(expected) != names(actual) {
        out.push(format!(
            "tables differ: expected {:?}, found {:?}",
            names(expected),
            names(actual)
        ));
        return out;
    }
    for t in expected.tables() {
        let Ok(a) = actual.table(t.name()) else {
            continue;
        };
        if t.schema() != a.schema() {
            out.push(format!("{}: schema differs", t.name()));
        } else if t.rows() != a.rows() {
            out.push(format!(
                "{}: rows differ ({} expected, {} found)",
                t.name(),
                t.len(),
                a.len()
            ));
        }
    }
    out
}
