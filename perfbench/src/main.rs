//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <rollout_10k|cdn_chaos|hotswap_oltp> --seed <n>
//!           --seconds <s> --trace <0|1> [--selfcheck]
//! ```
//!
//! One process, one thread. The seed fixes every input; the workload
//! runs whole iterations (set-up, then the measured phase, then output
//! checks) until `--seconds` have passed; the first iteration warms the
//! process up and is not timed, and at least three more are. Every
//! iteration uses the same seed, so every exact count must repeat: a
//! divergence fails the run. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced iterations and
//! reports the per-layer metrics. The last line of standard output is
//! one JSON object; a human-readable report goes to standard error. A
//! failed check exits with code 1.
//!
//! `--selfcheck` runs the workload once with the seed, again with the
//! seed, and once with the next seed, and checks that the same seed
//! repeats every exact figure while the other seed changes the inputs
//! but not the workload shape.

mod chaos;
mod common;
mod inputs;
mod oltp;
mod rollout;
mod speed;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use common::Outcome;
use inputs::DriverChain;
use trace::Trace;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Rollout10k,
    CdnChaos,
    HotswapOltp,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "rollout_10k" => Some(Workload::Rollout10k),
            "cdn_chaos" => Some(Workload::CdnChaos),
            "hotswap_oltp" => Some(Workload::HotswapOltp),
            _ => None,
        }
    }

    fn inputs(self, seed: u64) -> DriverChain {
        match self {
            Workload::Rollout10k => rollout::inputs(seed),
            Workload::CdnChaos => chaos::inputs(seed),
            Workload::HotswapOltp => oltp::inputs(seed),
        }
    }

    fn run(self, chain: &DriverChain, seed: u64, traced: bool) -> Result<Outcome, String> {
        match self {
            Workload::Rollout10k => rollout::run(chain, seed, traced),
            Workload::CdnChaos => chaos::run(chain, seed, traced),
            Workload::HotswapOltp => oltp::run(chain, seed, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut selfcheck = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
        selfcheck,
    })
}

/// Everything an iteration produced that the seed alone determines.
/// Same-seed iterations must agree on all of it.
fn fingerprint(o: &Outcome) -> String {
    format!(
        "{:?} {:?} txns={} failed={} db={} fired={} demotions={} off={} table={} shape={:?}",
        o.counters,
        o.convergence_ms,
        o.txn_us.len(),
        o.txn_failed,
        o.txn_db_requests,
        o.fired,
        o.healthy_demotions,
        o.upgrades_failed,
        o.table_fingerprint,
        o.shape
    )
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (sorted in place).
fn percentile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Process high-water mark in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        s.push('}');
        s
    }
}

/// Transactions per latency window: p99 keeps 10 samples beyond it.
const WINDOW: usize = 1000;

fn end_to_end(runs: &[Outcome], peak_mb: f64) -> Metrics {
    let first = &runs[0];
    let setups: Vec<f64> = runs.iter().map(|o| o.setup.scaled).collect();
    let runs_s: Vec<f64> = runs.iter().map(|o| o.run.scaled).collect();
    // A latency percentile per window of WINDOW transactions, then the
    // median over the windows of every timed iteration: a burst on the
    // host spoils a few windows, not the figure.
    let windowed = |p: f64| {
        let per_window: Vec<f64> = runs
            .iter()
            .flat_map(|o| o.txn_us.chunks_exact(WINDOW))
            .map(|w| percentile(&mut w.to_vec(), p))
            .collect();
        median(&per_window)
    };
    let conv = &first.convergence_ms;
    let mut m = Metrics(Vec::new());
    m.push("setup_s", median(&setups), "s");
    m.push("run_s", median(&runs_s), "s");
    m.push(
        "upgrade_virtual_s",
        conv.iter().sum::<u64>() as f64 / conv.len().max(1) as f64 / 1000.0,
        "virtual_s",
    );
    m.push(
        "upgrade_bytes_per_client",
        first.counters.upgrade_bytes as f64 / first.clients as f64,
        "B",
    );
    m.push("txn_p50_us", windowed(50.0), "us");
    m.push("txn_p99_us", windowed(99.0), "us");
    m.push("peak_rss_mb", peak_mb, "MB");
    m
}

fn per_layer(traced: &[(Outcome, Trace)], untraced: &[Outcome]) -> Metrics {
    let (o, _) = &traced[0];
    let c = &o.counters;
    let mut m = Metrics(Vec::new());
    for name in trace::SPANS {
        let selfs: Vec<f64> = traced
            .iter()
            .map(|(_, t)| t.spans.get(name).map_or(0.0, |s| s.0))
            .collect();
        let calls = traced[0].1.spans.get(name).map_or(0, |s| s.1);
        m.push(format!("{name}.s"), median(&selfs), "s");
        m.push(format!("{name}.n"), calls as f64, "count");
    }
    m.push("codec.bytes", traced[0].1.codec_bytes as f64, "B");
    m.push("net.requests", c.net_requests as f64, "count");
    m.push("net.bytes", c.net_bytes as f64, "B");
    m.push("net.fail.dropped", c.dropped as f64, "count");
    m.push("net.fail.unreachable", c.unreachable as f64, "count");
    m.push("net.fail.partitioned", c.partitioned as f64, "count");
    m.push("net.fail.refused", c.refused as f64, "count");
    m.push("net.fail.corrupted", c.corrupted as f64, "count");
    m.push(
        "db.requests_per_txn",
        ratio(o.txn_db_requests, o.txn_us.len() as u64),
        "ratio",
    );
    m.push("sched.fired", o.fired as f64, "count");
    m.push(
        "plan.hit_ratio",
        ratio(c.plan_hits, c.plan_hits + c.plan_misses),
        "ratio",
    );
    m.push("plan.misses", c.plan_misses as f64, "count");
    m.push(
        "image.reuse_ratio",
        ratio(c.image_reuses, c.upgrades),
        "ratio",
    );
    // Frames that reached the server per lease request it handled: 1
    // when every renewal is its own frame, far below when batched.
    m.push(
        "server.frames_per_renewal",
        ratio(
            c.lease_requests - c.batched_renewals + c.batch_frames,
            c.lease_requests,
        ),
        "ratio",
    );
    m.push(
        "mirror.same_zone_ratio",
        ratio(c.same_zone_bytes, c.same_zone_bytes + c.cross_zone_bytes),
        "ratio",
    );
    m.push(
        "mirror.primary_fallbacks",
        c.primary_fallbacks as f64,
        "count",
    );
    m.push("mirror.complaints", c.complaints as f64, "count");
    m.push("dir.healthy_demotions", o.healthy_demotions as f64, "count");
    m.push("swap.migrated", c.migrated as f64, "count");
    m.push("swap.forced", c.forced as f64, "count");
    m.push(
        "swap.windows_unfinished",
        (c.windows_opened - c.windows_completed) as f64,
        "count",
    );
    let unattributed: Vec<f64> = traced.iter().map(|(_, t)| t.unattributed()).collect();
    m.push("unattributed.s", median(&unattributed), "s");
    let traced_run: Vec<f64> = traced.iter().map(|(o, _)| o.run.raw).collect();
    let plain_run: Vec<f64> = untraced.iter().map(|o| o.run.raw).collect();
    m.push(
        "trace.overhead_s",
        median(&traced_run) - median(&plain_run),
        "s",
    );
    m
}

fn describe(i: usize, traced: bool, o: &Outcome) {
    let mut txn = o.txn_us.clone();
    let mut raw = o.txn_raw_us.clone();
    eprintln!(
        "  iter {i}{}: setup {:.3} s (raw {:.3}), run {:.3} s (raw {:.3}), \
         convergence {:?} virtual ms, {} B/client, {} txns p50 {:.1} us (raw {:.1}) \
         p99 {:.1} us (raw {:.1}), {} txns and {} upgrades failed",
        if traced { " (traced)" } else { "" },
        o.setup.scaled,
        o.setup.raw,
        o.run.scaled,
        o.run.raw,
        o.convergence_ms,
        o.counters.upgrade_bytes / o.clients as u64,
        txn.len(),
        percentile(&mut txn, 50.0),
        percentile(&mut raw, 50.0),
        percentile(&mut txn, 99.0),
        percentile(&mut raw, 99.0),
        o.txn_failed,
        o.upgrades_failed,
    );
}

fn selfcheck(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let chain = w.inputs(args.seed);
    let a = w.run(&chain, args.seed, false)?;
    let b = w.run(&chain, args.seed, false)?;
    let other_seed = args.seed.wrapping_add(1);
    let other_chain = w.inputs(other_seed);
    let c = w.run(&other_chain, other_seed, false)?;
    for (label, o) in [("first", &a), ("repeat", &b), ("next seed", &c)] {
        if !o.errors.is_empty() {
            return Err(format!("{label} run failed its checks: {:?}", o.errors));
        }
    }
    if fingerprint(&a) != fingerprint(&b) {
        return Err(format!(
            "same seed diverged:\n  {}\n  {}",
            fingerprint(&a),
            fingerprint(&b)
        ));
    }
    eprintln!("same seed repeats: {}", fingerprint(&a));
    if a.shape != c.shape {
        return Err(format!(
            "the seed changed the shape: {:?} vs {:?}",
            a.shape, c.shape
        ));
    }
    eprintln!("next seed keeps the shape: {:?}", c.shape);
    let changed = |x: &DriverChain, y: &DriverChain| {
        x.upgrades
            .iter()
            .zip(&y.upgrades)
            .all(|(p, q)| p.record.binary != q.record.binary && p.image_digest != q.image_digest)
    };
    if !changed(&chain, &other_chain) {
        return Err("the next seed left a driver image unchanged".into());
    }
    if a.table_fingerprint == c.table_fingerprint {
        return Err("the next seed left the transaction keys unchanged".into());
    }
    eprintln!(
        "next seed changes images and keys: table fingerprint {} -> {}",
        a.table_fingerprint, c.table_fingerprint
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selfcheck {
        match selfcheck(&args) {
            Ok(()) => eprintln!("selfcheck passed"),
            Err(e) => {
                eprintln!("selfcheck FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let w = args.workload;
    let chain = w.inputs(args.seed);
    eprintln!(
        "perfbench {:?} seed {} for {} s{}",
        w,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    // Iteration 0 warms the process up (heap growth, first-touch page
    // faults): it is checked like the others but not timed.
    let min_iters = if args.trace { 5 } else { 4 };
    let start = Instant::now();
    let mut warmup: Vec<Outcome> = Vec::new();
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<(Outcome, Trace)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut reference: Option<String> = None;
    let mut i = 0;
    while i < min_iters || start.elapsed().as_secs_f64() < args.seconds {
        let tracing = args.trace && i > 0 && i % 2 == 0;
        speed::enable(!tracing);
        if tracing {
            Trace::start();
        }
        let result = w.run(&chain, args.seed, tracing);
        let tr = if tracing { Some(Trace::finish()) } else { None };
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                errors.push(format!("iteration {i}: {e}"));
                break;
            }
        };
        describe(i, tracing, &o);
        errors.extend(o.errors.iter().map(|e| format!("iteration {i}: {e}")));
        let fp = fingerprint(&o);
        match &reference {
            None => reference = Some(fp),
            Some(r) if *r != fp => errors.push(format!(
                "iteration {i} diverged from iteration 0:\n  {r}\n  {fp}"
            )),
            Some(_) => {}
        }
        match tr {
            Some(Ok(t)) => {
                if let Some((_, t0)) = traced.first() {
                    let calls =
                        |t: &Trace| t.spans.iter().map(|(k, v)| (*k, v.1)).collect::<Vec<_>>();
                    if calls(t0) != calls(&t) {
                        errors.push(format!("iteration {i}: span call counts diverged"));
                    }
                }
                for (phase, (wall, unattributed)) in &t.phases {
                    eprintln!("    {phase}: {wall:.3} s wall, {unattributed:.4} s unattributed");
                }
                traced.push((o, t));
            }
            Some(Err(e)) => {
                errors.push(format!("iteration {i}: attribution check: {e}"));
                plain.push(o);
            }
            None if i == 0 => warmup.push(o),
            None => plain.push(o),
        }
        i += 1;
        if !errors.is_empty() {
            break;
        }
    }

    let all: Vec<&Outcome> = warmup
        .iter()
        .chain(&plain)
        .chain(traced.iter().map(|(o, _)| o))
        .collect();
    let attempted: u64 = all
        .iter()
        .map(|o| o.upgrades_attempted + o.txn_us.len() as u64)
        .sum();
    let failed: u64 = all.iter().map(|o| o.upgrades_failed + o.txn_failed).sum();
    if failed > 0 {
        errors.push(format!("{failed} failed upgrades or transactions"));
    }
    let metrics = if plain.is_empty() || (args.trace && traced.is_empty()) {
        Metrics(Vec::new())
    } else if args.trace {
        per_layer(&traced, &plain)
    } else {
        let m = end_to_end(&plain, peak_rss_mb());
        eprintln!(
            "  txn latency over {} transactions; fail ratios: upgrades {:.4}, txns {:.4}",
            plain.iter().map(|o| o.txn_us.len()).sum::<usize>(),
            ratio(
                plain.iter().map(|o| o.upgrades_failed).sum(),
                plain.iter().map(|o| o.upgrades_attempted).sum()
            ),
            ratio(
                plain.iter().map(|o| o.txn_failed).sum(),
                plain.iter().map(|o| o.txn_us.len() as u64).sum()
            ),
        );
        m
    };
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
