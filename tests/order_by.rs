//! `ORDER BY` is a total order over every value a column can hold: NULLs
//! sort last ascending and first descending (as in PostgreSQL), NaN sorts
//! above every number, and integers and floats interleave by value.

use mtbase::{EngineConfig, MtBase, Value};

/// A GLOBAL `Readings(r_group, r_value)` table whose value column mixes
/// NULL, NaN, floats and integers, queried through a client connection.
fn query(sql: &str) -> Vec<Vec<String>> {
    let server = MtBase::new(EngineConfig::default());
    let mut conn = server.connect(1);
    conn.execute("CREATE TABLE Readings GLOBAL (r_group INTEGER NOT NULL, r_value DOUBLE)")
        .expect("create table");
    let rows = [
        (1, Value::Float(2.5)),
        (1, Value::Null),
        (1, Value::Float(f64::NAN)),
        (1, Value::Float(-1.0)),
        (2, Value::Null),
        (2, Value::Int(10)),
        (2, Value::Int(0)),
        (2, Value::Float(f64::NAN)),
    ];
    server
        .load_rows(
            "Readings",
            rows.into_iter()
                .map(|(group, value)| vec![Value::Int(group), value])
                .collect(),
        )
        .expect("load rows");
    let rs = conn.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rs.rows
        .iter()
        .map(|row| row.iter().map(Value::to_string).collect())
        .collect()
}

fn column(rows: &[Vec<String>], i: usize) -> Vec<&str> {
    rows.iter().map(|row| row[i].as_str()).collect()
}

#[test]
fn ascending_puts_nan_above_numbers_and_nulls_last() {
    let rows = query("SELECT r_value FROM Readings ORDER BY r_value");
    assert_eq!(
        column(&rows, 0),
        ["-1.0000", "0", "2.5000", "10", "NaN", "NaN", "NULL", "NULL"]
    );
}

#[test]
fn descending_puts_nulls_first() {
    let rows = query("SELECT r_value FROM Readings ORDER BY r_value DESC");
    assert_eq!(
        column(&rows, 0),
        ["NULL", "NULL", "NaN", "NaN", "10", "2.5000", "0", "-1.0000"]
    );
}

#[test]
fn a_second_key_orders_within_the_first() {
    let rows = query("SELECT r_group, r_value FROM Readings ORDER BY r_group DESC, r_value");
    assert_eq!(column(&rows, 0), ["2", "2", "2", "2", "1", "1", "1", "1"]);
    assert_eq!(
        column(&rows, 1),
        ["0", "10", "NaN", "NULL", "-1.0000", "2.5000", "NaN", "NULL"]
    );
}
