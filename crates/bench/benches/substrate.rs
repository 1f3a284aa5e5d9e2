//! Criterion benchmarks for the substrates: the minidb SQL engine and
//! the cluster middleware.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cluster::{Backend, Controller, VirtualDb, CLUSTER_V2};
use driverkit::{legacy_driver, ConnectProps, DbUrl, Driver as _};
use minidb::wire::DbServer;
use minidb::{MiniDb, Params, Value};
use netsim::{Addr, Network};

fn bench_minidb(c: &mut Criterion) {
    let mut g = c.benchmark_group("minidb");
    g.sample_size(30);

    g.bench_function("parse-sample-code-1", |b| {
        let sql = "SELECT binary_format, binary_code FROM information_schema.drivers \
                   WHERE api_name LIKE $client_api_name \
                   AND (platform IS NULL OR platform LIKE $client_platform) \
                   AND ($client_api_version IS NULL OR api_version IS NULL \
                        OR $client_api_version LIKE api_version)";
        b.iter(|| minidb::sql::parse(sql).unwrap());
    });

    let db = MiniDb::new("bench");
    let mut s = db.admin_session();
    db.exec(
        &mut s,
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR, qty INTEGER)",
    )
    .unwrap();
    for i in 0..1000 {
        db.exec(
            &mut s,
            &format!("INSERT INTO t VALUES ({i}, 'item-{i}', {})", i % 50),
        )
        .unwrap();
    }
    g.bench_function("select-like-over-1k-rows", |b| {
        b.iter(|| {
            let rs = db
                .exec(&mut s, "SELECT count(*) FROM t WHERE name LIKE 'item-1%'")
                .unwrap()
                .rows()
                .unwrap();
            assert!(rs.rows[0][0].as_i64().unwrap() > 0);
        });
    });
    g.bench_function("point-select", |b| {
        b.iter(|| {
            let rs = db
                .exec(&mut s, "SELECT name, qty FROM t WHERE id = 500")
                .unwrap()
                .rows()
                .unwrap();
            assert_eq!(rs.rows.len(), 1);
        });
    });
    g.bench_function("delete+reinsert", |b| {
        b.iter(|| {
            db.exec(&mut s, "DELETE FROM t WHERE id = 250").unwrap();
            db.exec(&mut s, "INSERT INTO t VALUES (250, 'item-250', 0)")
                .unwrap();
        });
    });
    g.bench_function("point-update", |b| {
        b.iter(|| {
            db.exec(&mut s, "UPDATE t SET qty = qty + 1 WHERE id = 500")
                .unwrap();
        });
    });
    let mut i = 10_000;
    g.bench_function("insert", |b| {
        b.iter(|| {
            i += 1;
            db.exec(&mut s, &format!("INSERT INTO t VALUES ({i}, 'x', 1)"))
                .unwrap();
        });
    });

    // Wire roundtrip through the protocol server.
    let net = Network::new();
    let wdb = Arc::new(MiniDb::with_clock("wire", net.clock().clone()));
    {
        let mut s = wdb.admin_session();
        wdb.exec(&mut s, "CREATE TABLE t (a INTEGER)").unwrap();
        wdb.exec(&mut s, "INSERT INTO t VALUES (1)").unwrap();
    }
    net.bind_arc(Addr::new("db", 5432), Arc::new(DbServer::new(wdb)))
        .unwrap();
    let client = minidb::wire::RawClient::connect(
        &net,
        &Addr::new("app", 1),
        &Addr::new("db", 5432),
        2,
        "wire",
        "admin",
        &minidb::wire::Credentials::Password("admin".into()),
    )
    .unwrap();
    g.bench_function("wire-query-roundtrip", |b| {
        b.iter(|| {
            let r = client.query("SELECT a FROM t").unwrap().rows().unwrap();
            assert_eq!(r.rows[0][0], Value::Integer(1));
        });
    });
    let mut p = Params::new();
    p.insert("x".into(), Value::from(1));
    g.bench_function("wire-params-roundtrip", |b| {
        b.iter(|| {
            client
                .query_params("SELECT a FROM t WHERE a = $x", &p)
                .unwrap();
        });
    });
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(20);
    for &replicas in &[1usize, 2, 4] {
        let net = Network::new();
        let mut backends = Vec::new();
        for r in 0..replicas {
            let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
            {
                let mut s = db.admin_session();
                db.exec(&mut s, "CREATE TABLE t (id INTEGER, v VARCHAR)")
                    .unwrap();
                // Fixed-size read table so read latency is comparable
                // across replica counts regardless of write volume.
                db.exec(&mut s, "CREATE TABLE r (id INTEGER)").unwrap();
                for i in 0..100 {
                    db.exec(&mut s, &format!("INSERT INTO r VALUES ({i})"))
                        .unwrap();
                }
            }
            let host = format!("replica{r}");
            net.bind_arc(Addr::new(host.clone(), 5432), Arc::new(DbServer::new(db)))
                .unwrap();
            let driver = legacy_driver(&net, &Addr::new("ctrl", 1), 2).unwrap();
            backends.push(Backend::with_driver(
                host.clone(),
                driver,
                DbUrl::direct(Addr::new(host, 5432), "vdb"),
                ConnectProps::user("admin", "admin"),
            ));
        }
        let _ctrl = Controller::launch(
            &net,
            1,
            Addr::new("ctrl", 25322),
            VirtualDb::new("vdb", backends),
            CLUSTER_V2,
        )
        .unwrap();
        let d = cluster::ClusterDriver::new(
            cluster::cluster_image("bench", drivolution_core::DriverVersion::new(2, 0, 0), 2),
            net.clone(),
            Addr::new("app", 1),
        )
        .unwrap();
        let url = DbUrl::cluster(vec![Addr::new("ctrl", 25322)], "vdb");
        let mut conn = d.connect(&url, &ConnectProps::user("app", "pw")).unwrap();
        let mut i = 0;
        g.bench_function(BenchmarkId::new("write-broadcast", replicas), |b| {
            b.iter(|| {
                i += 1;
                conn.execute(&format!("INSERT INTO t VALUES ({i}, 'x')"))
                    .unwrap();
            });
        });
        g.bench_function(BenchmarkId::new("read-balanced", replicas), |b| {
            b.iter(|| {
                conn.execute("SELECT count(*) FROM r").unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_minidb, bench_cluster);
criterion_main!(benches);
