//! Ready-made MTBase instances for tests, examples and documentation: the
//! running example of the paper (Figure 2) with two tenants, currency
//! conversion and the `Tenant` meta table used for function inlining.

use std::sync::Arc;

use mtcatalog::ConversionProfile;
use mtengine::{EngineConfig, Value};
use mtrewrite::{InlineRegistry, InlineSpec};
use mtsql::ast::Statement;

use crate::server::{currency_udfs_from_rates, MtBase};
use crate::TenantId;

/// Exchange rates of the running example: tenant 0 uses USD (the universal
/// format), tenant 1 uses EUR. `(to_universal, from_universal)` factors.
pub fn example_rates(tenant: TenantId) -> (f64, f64) {
    match tenant {
        1 => (1.25, 0.80),
        _ => (1.0, 1.0),
    }
}

/// Build the paper's running example (Figure 2) as a fully-wired MTBase
/// instance: schema, data, conversion functions, meta tables and tenants.
pub fn running_example_server(config: EngineConfig) -> Arc<MtBase> {
    let server = MtBase::new(config);

    // Schema (MTSQL DDL, §2.2.1).
    let ddl = [
        "CREATE TABLE Employees SPECIFIC (
            E_emp_id INTEGER NOT NULL SPECIFIC,
            E_name VARCHAR(25) NOT NULL COMPARABLE,
            E_role_id INTEGER NOT NULL SPECIFIC,
            E_reg_id INTEGER NOT NULL COMPARABLE,
            E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
            E_age INTEGER NOT NULL COMPARABLE
        )",
        "CREATE TABLE Roles SPECIFIC (
            R_role_id INTEGER NOT NULL SPECIFIC,
            R_name VARCHAR(25) NOT NULL COMPARABLE
        )",
        "CREATE TABLE Regions GLOBAL (
            Re_reg_id INTEGER NOT NULL,
            Re_name VARCHAR(25) NOT NULL
        )",
    ];
    for sql in ddl {
        let stmt = mtsql::parse_statement(sql).expect("running example DDL parses");
        match stmt {
            Statement::CreateTable(ct) => server.create_table(&ct).expect("create table"),
            _ => unreachable!(),
        }
    }

    // Tenants and conversion functions.
    for t in 0..2 {
        server.register_tenant(t).expect("register tenant");
    }
    let (to_impl, from_impl) = currency_udfs_from_rates(Arc::new(|t: TenantId| example_rates(t)));
    server.register_conversion(
        ConversionProfile::currency().pair,
        to_impl,
        from_impl,
        Some((
            InlineSpec::Factor {
                meta_table: "Tenant".into(),
                key_column: "T_tenant_key".into(),
                factor_column: "T_currency_to".into(),
            },
            InlineSpec::Factor {
                meta_table: "Tenant".into(),
                key_column: "T_tenant_key".into(),
                factor_column: "T_currency_from".into(),
            },
        )),
    );

    // Meta table used by the inlining optimization (o4 / inl-only).
    {
        let mut engine = server.engine.write();
        engine.create_table(
            "Tenant",
            &[
                "T_tenant_key",
                "T_currency_to",
                "T_currency_from",
                "T_phone_prefix",
            ],
        );
        engine
            .insert_values(
                "Tenant",
                (0..2)
                    .map(|t| {
                        let (to, from) = example_rates(t);
                        vec![
                            Value::Int(t),
                            Value::Float(to),
                            Value::Float(from),
                            Value::str(if t == 0 { "+" } else { "00" }),
                        ]
                    })
                    .collect(),
            )
            .expect("load Tenant meta table");
    }

    // Data of Figure 2. Salaries are stored in the owner's currency.
    let employees = vec![
        (0, 0, "Patrick", 1, 3, 50_000.0, 30),
        (0, 1, "John", 0, 3, 70_000.0, 28),
        (0, 2, "Alice", 2, 3, 150_000.0, 46),
        (1, 0, "Allan", 1, 2, 80_000.0, 25),
        (1, 1, "Nancy", 2, 4, 200_000.0, 72),
        (1, 2, "Ed", 0, 4, 1_000_000.0, 46),
    ];
    server
        .load_rows(
            "Employees",
            employees
                .into_iter()
                .map(|(t, id, name, role, reg, salary, age)| {
                    vec![
                        Value::Int(t),
                        Value::Int(id),
                        Value::str(name),
                        Value::Int(role),
                        Value::Int(reg),
                        Value::Float(salary),
                        Value::Int(age),
                    ]
                })
                .collect(),
        )
        .expect("load Employees");
    let roles = vec![
        (0, 0, "phD stud."),
        (0, 1, "postdoc"),
        (0, 2, "professor"),
        (1, 0, "intern"),
        (1, 1, "researcher"),
        (1, 2, "executive"),
    ];
    server
        .load_rows(
            "Roles",
            roles
                .into_iter()
                .map(|(t, id, name)| vec![Value::Int(t), Value::Int(id), Value::str(name)])
                .collect(),
        )
        .expect("load Roles");
    let regions = vec![
        (0, "AFRICA"),
        (1, "ASIA"),
        (2, "AUSTRALIA"),
        (3, "EUROPE"),
        (4, "N-AMERICA"),
        (5, "S-AMERICA"),
    ];
    server
        .load_rows(
            "Regions",
            regions
                .into_iter()
                .map(|(id, name)| vec![Value::Int(id), Value::str(name)])
                .collect(),
        )
        .expect("load Regions");

    let _ = InlineRegistry::mt_h(); // keep the dependency explicit for readers
    server
}

/// Naive aggregation reference for differential tests: collect every
/// group's rows in input order, then fold each aggregate over them. `rows`
/// is the aggregate's input in the engine's row order, each row holding the
/// `n_keys` group-key values followed by one value per argument; an
/// aggregate is `(function, argument index behind the keys, DISTINCT)`, with
/// no index for `COUNT(*)`. Returns one row per group, in first-seen order:
/// the key values, then the aggregate values.
pub fn naive_aggregate(
    rows: &[Vec<Value>],
    n_keys: usize,
    aggs: &[(&str, Option<usize>, bool)],
) -> Vec<Vec<Value>> {
    let mut groups: Vec<(&[Value], Vec<&Vec<Value>>)> = Vec::new();
    for row in rows {
        match groups.iter_mut().find(|(key, _)| *key == &row[..n_keys]) {
            Some((_, members)) => members.push(row),
            None => groups.push((&row[..n_keys], vec![row])),
        }
    }
    if groups.is_empty() && n_keys == 0 {
        groups.push((&[], Vec::new()));
    }
    let fold = |members: &[&Vec<Value>], (func, arg, distinct): (&str, Option<usize>, bool)| {
        let Some(arg) = arg else {
            return Value::Int(members.len() as i64);
        };
        let mut vals: Vec<&Value> = Vec::new();
        for v in members.iter().map(|row| &row[n_keys + arg]) {
            if !(v.is_null() || distinct && vals.contains(&v)) {
                vals.push(v);
            }
        }
        let extreme = |keep| {
            let mut best: Option<&Value> = None;
            for &v in &vals {
                best = Some(best.map_or(v, |b| if v.compare(b) == Some(keep) { v } else { b }));
            }
            best.cloned().unwrap_or(Value::Null)
        };
        let sum = || vals.iter().try_fold(Value::Int(0), |acc, v| acc.add(v));
        let total = vals.iter().fold(0.0, |a, v| a + v.as_f64().unwrap_or(0.0));
        match func {
            "COUNT" => Value::Int(vals.len() as i64),
            "SUM" | "AVG" if vals.is_empty() => Value::Null,
            "SUM" => sum().expect("SUM folds"),
            "AVG" => Value::Float(total / vals.len() as f64),
            "MIN" => extreme(std::cmp::Ordering::Less),
            "MAX" => extreme(std::cmp::Ordering::Greater),
            other => panic!("no reference for aggregate `{other}`"),
        }
    };
    let out = |(key, members): &(&[Value], Vec<&Vec<Value>>)| {
        let values = aggs.iter().map(|&agg| fold(members, agg));
        key.iter().cloned().chain(values).collect()
    };
    groups.iter().map(out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrewrite::OptLevel;

    fn server() -> Arc<MtBase> {
        running_example_server(EngineConfig::default())
    }

    #[test]
    fn default_scope_sees_only_own_data() {
        let server = server();
        let mut conn = server.connect(0);
        let rs = conn
            .query("SELECT E_name FROM Employees ORDER BY E_name")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::str("Alice"));
    }

    #[test]
    fn cross_tenant_query_converts_salaries_to_client_format() {
        let server = server();
        server.grant_read_all(0).expect("grant read");
        let mut conn = server.connect(0);
        conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
        // Ed earns 1,000,000 EUR = 1,250,000 USD for client 0.
        let rs = conn
            .query("SELECT E_name, E_salary FROM Employees WHERE E_age = 46 ORDER BY E_name")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        let ed = rs.rows.iter().find(|r| r[0] == Value::str("Ed")).unwrap();
        assert_eq!(ed[1], Value::Float(1_250_000.0));
        let alice = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::str("Alice"))
            .unwrap();
        assert_eq!(alice[1], Value::Float(150_000.0));
    }

    #[test]
    fn same_query_for_tenant_one_returns_eur() {
        let server = server();
        server.grant_read_all(1).expect("grant read");
        let mut conn = server.connect(1);
        conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
        // Alice earns 150,000 USD = 120,000 EUR for client 1.
        let rs = conn
            .query("SELECT E_name, E_salary FROM Employees WHERE E_name = 'Alice'")
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Float(120_000.0));
    }

    #[test]
    fn every_optimization_level_returns_the_same_result() {
        let server = server();
        server.grant_read_all(0).expect("grant read");
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for level in OptLevel::ALL {
            let mut conn = server.connect(0);
            conn.set_opt_level(level);
            conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
            let rs = conn
                .query(
                    "SELECT E_name, E_salary FROM Employees WHERE E_salary > 100000 ORDER BY E_name",
                )
                .unwrap();
            let rounded: Vec<Vec<Value>> = rs
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|v| match v {
                            Value::Float(f) => Value::Float((f * 100.0).round() / 100.0),
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect();
            match &reference {
                None => reference = Some(rounded),
                Some(expected) => assert_eq!(&rounded, expected, "level {level:?} diverges"),
            }
        }
        // Alice (150k USD), Ed (1.25M USD), Nancy (250k USD) all earn > 100k.
        assert_eq!(reference.unwrap().len(), 3);
    }

    #[test]
    fn join_across_tenants_respects_ttid() {
        let server = server();
        server.grant_read_all(0).expect("grant read");
        let mut conn = server.connect(0);
        conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
        let rs = conn
            .query(
                "SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id \
                 ORDER BY E_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 6);
        let ed = rs.rows.iter().find(|r| r[0] == Value::str("Ed")).unwrap();
        // Ed (tenant 1, role 0) is an intern — never a "phD stud." of tenant 0.
        assert_eq!(ed[1], Value::str("intern"));
    }

    #[test]
    fn complex_scope_selects_tenants_by_predicate() {
        let server = server();
        server.grant_read_all(0).expect("grant read");
        let mut conn = server.connect(0);
        // Tenants owning at least one employee earning > 180k USD (client
        // format): tenant 1 (Nancy 250k, Ed 1.25M); tenant 0's max is 150k.
        conn.execute("SET SCOPE = \"FROM Employees WHERE E_salary > 180000\"")
            .unwrap();
        let rs = conn.query("SELECT COUNT(*) FROM Employees").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn grants_extend_and_revokes_shrink_the_visible_data() {
        let server = server();
        // Tenant 1 grants tenant 0 read access to her employees.
        let mut owner = server.connect(1);
        owner.execute("GRANT READ ON Employees TO 0").unwrap();

        let mut conn = server.connect(0);
        conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
        let rs = conn.query("SELECT COUNT(*) FROM Employees").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(6));

        // Without the grant the dataset is pruned to the client's own data.
        let mut owner = server.connect(1);
        owner.execute("REVOKE READ ON Employees FROM 0").unwrap();
        let rs = conn.query("SELECT COUNT(*) FROM Employees").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn insert_on_behalf_of_other_tenant_converts_values() {
        let server = server();
        // Tenant 1 allows tenant 0 to insert.
        let mut owner = server.connect(1);
        owner
            .execute("GRANT INSERT, READ ON Employees TO 0")
            .unwrap();

        let mut conn = server.connect(0);
        conn.execute("SET SCOPE = \"IN (1)\"").unwrap();
        // 125,000 USD (client format) must be stored as 100,000 EUR.
        conn.execute(
            "INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) \
             VALUES (3, 'Grace', 0, 3, 125000, 40)",
        )
        .unwrap();
        let raw = server
            .raw_query("SELECT E_salary FROM Employees WHERE E_name = 'Grace'")
            .unwrap();
        assert_eq!(raw.rows[0][0], Value::Float(100_000.0));
    }

    #[test]
    fn update_and_delete_respect_scope_and_privileges() {
        let server = server();
        let mut conn = server.connect(0);
        // Default scope {0}: only own rows are touched.
        let rs = conn
            .execute("UPDATE Employees SET E_age = E_age WHERE E_age > 20")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let rs = conn
            .execute("DELETE FROM Employees WHERE E_name = 'Ed'")
            .unwrap();
        // Ed belongs to tenant 1 — nothing deleted without a grant.
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    #[test]
    fn rewrite_only_exposes_generated_sql() {
        let server = server();
        let mut conn = server.connect(0);
        conn.set_opt_level(OptLevel::Canonical);
        conn.execute("SET SCOPE = \"IN (0, 1)\"").unwrap();
        let q = conn
            .rewrite_only("SELECT AVG(E_salary) AS a FROM Employees")
            .unwrap();
        assert!(q.to_string().contains("currencyToUniversal"));
    }
}
