//! The three workloads. Each drives the real `emst-cli` binary, checks
//! every answer, and reports the end-to-end metrics; in a traced run it
//! then hands the same operations to [`crate::layers`].
//!
//! Constants (sizes, rates, pool sizes) are fixed here once. They are
//! never re-derived per run, so two runs of one seed do the same work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emst::core::{edge::weight_multiset, verify_spanning_tree, Edge};
use emst::exec::Threads;
use emst::geometry::Point;
use emst::serve::{net::respond, NetSession, ServeConfig, ServeEngine};

use crate::layers;
use crate::loadgen::{closed_loop, open_loop, open_loop_due, Outcome};
use crate::report::{self, Metric, Report};
use crate::server::{run_batch_job, Conn, ServeSpec, Server};
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::{Args, Rng, RunResult};

/// Everything a workload needs from the command line and host.
pub struct Ctx<'a> {
    pub args: &'a Args,
    /// Per-run scratch directory inside the checkout (removed afterwards).
    pub dir: PathBuf,
    pub nproc: usize,
    pub started: Instant,
}

impl Ctx<'_> {
    /// Notes a finished phase on stderr (stdout carries the result).
    pub fn progress(&self, phase: &str) {
        eprintln!("[{:7.2} s] {phase}", self.started.elapsed().as_secs_f64());
    }
}

/// A reply missing this long after its due time counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Server launches per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// batch-hacc: points in the HACC-like cloud.
const BATCH_N: usize = 1_000_000;
/// batch-hacc: timed jobs after the cold one, at least.
const BATCH_MIN_JOBS: usize = 3;

/// serve-read: uniform cloud size, shards, residency budget.
const READ_N: usize = 100_000;
const READ_SHARDS: usize = 4;
const READ_MAX_RESIDENT: usize = 4;
/// serve-read: offered open-loop rate, requests per second: 216 reads in
/// an 18 s run, so the tail is p95. On a 2-CPU Xeon host the closed-loop
/// capacity of the mix is about 69 req/s; at 12 req/s the connection that
/// carries `emst` and `subset` is busy about a quarter of the time, so
/// queueing behind them does not set the tail.
const READ_RATE: f64 = 12.0;
/// Distinct `subset` and `knn` lines in the read pool (plus one `emst`).
const SUBSET_POOL: usize = 8;
const KNN_POOL: usize = 48;

/// serve-mutate: cloud size, shards and a budget that makes every admitted
/// child evict (and spill) an older cloud.
const MUTATE_N: usize = 100_000;
const MUTATE_SHARDS: usize = 16;
const MUTATE_MAX_RESIDENT: usize = 2;
/// serve-mutate: points per inserted batch (1% of n) and its spread.
const MUTATE_BATCH: usize = 1_000;
const CLUSTER_SIGMA: f64 = 0.004;
/// serve-mutate: offered rate of the concurrent `knn` reads on the base
/// cloud.
const MUTATE_READ_RATE: f64 = 10.0;

/// Seeded stream tags.
const TAG_CLOUD: u64 = 1;
const TAG_POOL: u64 = 2;
const TAG_MIX: u64 = 3;
const TAG_BATCHES: u64 = 4;
pub const TAG_TRACE: u64 = 5;
const TAG_CAPACITY: u64 = 100;

fn ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}

fn detail(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name: name.to_string(), value, unit, samples }
}

/// Median and tail of latency samples (ms) as detail rows `<prefix>_p50_ms`
/// and `<prefix>_p<q>_ms`.
fn latency_details(prefix: &str, lat_ms: &[f64], out: &mut Vec<Metric>) {
    let n = lat_ms.len();
    if let (Some(p50), Some((q, t))) = (median(lat_ms), tail(lat_ms)) {
        out.push(detail(&format!("{prefix}_p50_ms"), p50, "ms", n));
        out.push(detail(&format!("{prefix}_p{q}_ms"), t, "ms", n));
    }
}

fn end_to_end() -> Vec<(String, &'static str)> {
    report::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// Adds the end-to-end metrics shared by every workload.
#[allow(clippy::too_many_arguments)]
fn add_end_to_end(
    r: &mut Report,
    setups: &[f64],
    primary_ms: &[f64],
    capacity: (f64, usize),
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    let p50 = median(primary_ms).ok_or("no timed operations")?;
    let (_, t) = tail(primary_ms).ok_or("no timed operations")?;
    r.add("setup_s", median(setups).ok_or("no set-up")?, setups.len());
    r.add("p50_ms", p50, primary_ms.len());
    r.add("tail_ms", t, primary_ms.len());
    r.add("capacity_per_s", capacity.0, capacity.1);
    r.add("peak_rss_mib", peak_rss_mib, 1);
    r.add("success_rate", 1.0 - failed as f64 / attempted.max(1) as f64, attempted as usize);
    Ok(())
}

/// Weight multiset of an edge list whose weights are recomputed from the
/// points, after checking it spans `points`.
fn checked_multiset(points: &[Point<3>], pairs: &[(u32, u32)]) -> Result<Vec<u32>, String> {
    let mut edges = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs {
        let (pu, pv) = (points.get(u as usize), points.get(v as usize));
        let (Some(pu), Some(pv)) = (pu, pv) else {
            return Err(format!("edge ({u}, {v}) names a point outside the cloud"));
        };
        edges.push(Edge::new(u, v, pu.squared_distance(pv)));
    }
    verify_spanning_tree(points.len(), &edges)?;
    Ok(weight_multiset(&edges))
}

/// Reads the `u,v,weight` rows `emst-cli emst --output` writes.
fn read_edge_csv(path: &Path) -> Result<Vec<(u32, u32)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.split(',');
            let mut id = || cols.next().and_then(|c| c.trim().parse::<u32>().ok());
            id().zip(id()).ok_or(format!("{}: malformed edge row {l:?}", path.display()))
        })
        .collect()
}

/// batch-hacc: cold `emst-cli emst` jobs on a 10⁶-point HACC-like cloud.
pub fn batch_hacc(ctx: &Ctx<'_>, rec: &mut Recorder) -> Result<RunResult, String> {
    let seed = ctx.args.seed;
    let points: Vec<Point<3>> = emst::datasets::hacc_like(BATCH_N, seed ^ TAG_CLOUD);
    let csv = ctx.dir.join("hacc.csv");
    emst::datasets::save_csv(&csv, &points).map_err(|e| e.to_string())?;
    // The CSV round-trips f32 exactly; the reference uses the parsed cloud.
    let points: Vec<Point<3>> = emst::datasets::load_csv(&csv).map_err(|e| e.to_string())?;
    let reference = {
        let dual = emst::kdtree::dual_tree_emst(&points);
        let pairs: Vec<(u32, u32)> = dual.edges.iter().map(|e| (e.u, e.v)).collect();
        checked_multiset(&points, &pairs)?
    };
    ctx.progress("cloud written, dual-tree reference solved");
    let out = ctx.dir.join("mst.csv");
    let mut jobs = Vec::new();
    let mut gaps = Vec::new();
    let mut measured = 0.0;
    let mut last_exit: Option<Instant> = None;
    while jobs.len() < BATCH_MIN_JOBS + 1 || measured < ctx.args.seconds {
        if let Some(t) = last_exit {
            gaps.push(t.elapsed().as_secs_f64());
        }
        let _ = std::fs::remove_file(&out);
        let job = run_batch_job(&ctx.args.cli, &csv, &out).map_err(|e| e.to_string())?;
        if job.success {
            let got = checked_multiset(&points, &read_edge_csv(&out)?)
                .map_err(|e| format!("job {} output: {e}", jobs.len()))?;
            if got != reference {
                return Err(format!(
                    "job {} output differs from the dual-tree reference weights",
                    jobs.len()
                ));
            }
        }
        if !jobs.is_empty() {
            measured += job.secs;
        }
        jobs.push(job);
        // Verification between jobs is outside every job's timing; keep it
        // out of the schedule gap as well.
        last_exit = Some(Instant::now());
    }
    ctx.progress("jobs done");
    let attempted = jobs.len() as u64;
    let failed = jobs.iter().filter(|j| !j.success).count() as u64;
    let cold = &jobs[0];
    let warm: Vec<f64> =
        jobs[1..].iter().map(|j| if j.success { j.secs } else { f64::INFINITY }).collect();
    let warm_ms = ms(&warm);
    let finished: f64 = jobs[1..].iter().filter(|j| j.success).count() as f64;
    let capacity = finished / jobs[1..].iter().map(|j| j.secs).sum::<f64>();
    let peak = jobs.iter().map(|j| j.peak_rss_mib).fold(0.0, f64::max);
    let batch_s = median(&warm).expect("at least one timed job");

    let mut details = vec![detail("batch_s", batch_s, "s", warm.len())];
    details.push(detail("batch_cold_s", cold.secs, "s", 1));
    details.push(detail(
        "mfeatures_per_s",
        (BATCH_N * 3) as f64 / batch_s / 1e6,
        "MFeatures/s",
        warm.len(),
    ));
    latency_details("job", &warm_ms, &mut details);
    details.push(detail(
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted as usize,
    ));
    details.push(detail("peak_rss_mib", peak, "MiB", jobs.len()));

    let mut r = Report::default();
    let metrics = if ctx.args.trace {
        let lag_ms = ms(&gaps);
        r.add("loadgen.lag_p50_ms", median(&lag_ms).unwrap_or(0.0), lag_ms.len());
        r.add("loadgen.lag_max_ms", lag_ms.iter().copied().fold(0.0, f64::max), lag_ms.len());
        r.add("traced.p50_ms", median(&warm_ms).unwrap_or(f64::INFINITY), warm_ms.len());
        layers::batch_layers(&points, &csv, batch_s, rec, &mut r)?;
        r.finish(&report::per_layer())
    } else {
        add_end_to_end(
            &mut r,
            &[cold.secs],
            &warm_ms,
            (capacity, warm.len()),
            peak,
            attempted,
            failed,
        )?;
        r.finish(&end_to_end())
    };
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        details,
        constants: vec![
            ("n", BATCH_N.to_string()),
            ("generator", "hacc".to_string()),
            ("min_timed_jobs", BATCH_MIN_JOBS.to_string()),
        ],
    })
}

/// One read request of the pool, with the structured form the per-layer
/// replays need.
#[derive(Clone, Debug)]
pub struct ReadReq {
    pub verb: &'static str,
    pub line: String,
    pub subset: Option<(u32, u32)>,
    pub knn: Option<Point<3>>,
}

fn f32_token(v: f64) -> String {
    format!("{:?}", v as f32)
}

/// A uniform point in the generators' cube `[-0.5, 0.5)³`, as the f32
/// the wire will parse back.
fn cube_point(rng: &mut Rng) -> Point<3> {
    Point::new([0; 3].map(|_| f32_token(rng.unit() - 0.5).parse::<f32>().expect("f32")))
}

/// The fixed pool: one `emst`, `SUBSET_POOL` windows of 1k–20k points,
/// `KNN_POOL` `knn 8` queries.
fn read_pool(n: usize, seed: u64) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed, TAG_POOL);
    let mut pool = vec![ReadReq { verb: "emst", line: "emst".into(), subset: None, knn: None }];
    for i in 0..SUBSET_POOL {
        // Window sizes are fixed (evenly spaced over 1k–20k) and only their
        // positions are seeded, so seeds do not change how much work the
        // subset share of the mix asks for.
        let len = 1_000 + i * 19_000 / (SUBSET_POOL - 1);
        let lo = rng.below(n - len) as u32;
        let hi = lo + len as u32;
        let line = format!("subset {lo}..{hi}");
        pool.push(ReadReq { verb: "subset", line, subset: Some((lo, hi)), knn: None });
    }
    for _ in 0..KNN_POOL {
        let q = cube_point(&mut rng);
        let line = format!("knn 8 {:?} {:?} {:?}", q[0], q[1], q[2]);
        pool.push(ReadReq { verb: "knn", line, subset: None, knn: Some(q) });
    }
    pool
}

/// The verb of each slot in a block of 20 requests: 5 `emst` (E), 2
/// `subset` (S) and 13 `knn` (k), with the expensive verbs spread evenly.
const MIX_PATTERN: &[u8; 20] = b"EkkkEkSkEkkkEkSkEkkk";

/// Draws pool indices in the 25% `emst` / 10% `subset` / 65% `knn` mix.
/// The verb sequence repeats [`MIX_PATTERN`]; the seed picks the lines.
/// How much an open loop queues depends on where the expensive requests
/// fall in the schedule, so a fixed pattern keeps seeds from changing it.
pub struct Mix {
    rng: Rng,
    slot: usize,
    knn_only: bool,
}

impl Mix {
    /// A mix whose pattern starts at slot `offset`.
    pub fn new(seed: u64, tag: u64, offset: usize) -> Self {
        Self { rng: Rng::new(seed, tag), slot: offset, knn_only: false }
    }

    /// serve-mutate's concurrent reads are all `knn`: they probe what
    /// writes cost readers without loading the CPU the mutation chain is
    /// measured on.
    fn knn_only(seed: u64, tag: u64) -> Self {
        Self { knn_only: true, ..Self::new(seed, tag, 0) }
    }

    pub fn next(&mut self) -> usize {
        let verb = if self.knn_only { b'k' } else { MIX_PATTERN[self.slot % MIX_PATTERN.len()] };
        self.slot += 1;
        match verb {
            b'E' => 0,
            b'S' => 1 + self.rng.below(SUBSET_POOL),
            _ => 1 + SUBSET_POOL + self.rng.below(KNN_POOL),
        }
    }
}

/// Replies of a separately warmed in-process engine to every pool line.
/// Lines of the pool whose verb the workload sends (others reply empty).
fn reference_replies(
    points: &Arc<Vec<Point<3>>>,
    shards: usize,
    pool: &[ReadReq],
    verbs: &[&str],
    spill: PathBuf,
) -> Vec<String> {
    let mut config = ServeConfig::new(shards, 4);
    config.spill_dir = Some(spill);
    let engine = ServeEngine::<Threads, 3>::new(Threads, config);
    let mut session = NetSession::new(Arc::clone(points));
    respond(&engine, &mut session, "emst");
    pool.iter()
        .map(|r| match verbs.contains(&r.verb) {
            true => respond(&engine, &mut session, &r.line).text.trim_end().to_string(),
            false => String::new(),
        })
        .collect()
}

/// The reply with its `cache=` outcome blanked: on serve-mutate the base
/// cloud may have been evicted and reloaded between reads, which changes
/// only that field.
fn without_cache(reply: &str) -> String {
    reply
        .split(' ')
        .map(|t| if t.starts_with("cache=") { "cache=*" } else { t })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks every `ok` reply against the reference; `err` replies are
/// failures, counted by the caller, not mismatches.
fn check_reads(
    outcomes: &[Outcome],
    picks: &[usize],
    reference: &[String],
    ignore_cache: bool,
) -> Result<(), String> {
    for o in outcomes {
        let Some(reply) = o.reply.as_deref().filter(|r| r.starts_with("ok ")) else { continue };
        let want = &reference[picks[o.index]];
        let same =
            if ignore_cache { without_cache(reply) == without_cache(want) } else { reply == want };
        if !same {
            return Err(format!("read {} replied {reply:?}, reference {want:?}", o.index));
        }
    }
    Ok(())
}

fn uniform_cloud(ctx: &Ctx<'_>, n: usize) -> Result<(Arc<Vec<Point<3>>>, PathBuf), String> {
    let points: Vec<Point<3>> = emst::datasets::uniform(n, ctx.args.seed ^ TAG_CLOUD);
    let csv = ctx.dir.join("cloud.csv");
    emst::datasets::save_csv(&csv, &points).map_err(|e| e.to_string())?;
    let points: Vec<Point<3>> = emst::datasets::load_csv(&csv).map_err(|e| e.to_string())?;
    Ok((Arc::new(points), csv))
}

/// Launches the server `SETUP_REPEATS` times; keeps the last one running.
fn start_server(
    ctx: &Ctx<'_>,
    csv: &Path,
    shards: usize,
    max_resident: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    for i in 0..SETUP_REPEATS {
        let spec = ServeSpec {
            cli: &ctx.args.cli,
            input: csv,
            shards,
            max_resident,
            net_workers: ctx.nproc,
            spill_dir: ctx.dir.join(format!("spill-{i}")),
        };
        let server = Server::start(&spec, REQUEST_TIMEOUT)?;
        setups.push(server.setup_s);
        if i + 1 == SETUP_REPEATS {
            return Ok((server, setups));
        }
    }
    unreachable!("SETUP_REPEATS is at least one")
}

/// Sends every pool line once, untimed, so the timed window starts from a
/// server whose request paths have all run (the reference engine is
/// warmed the same way).
fn warm_up(addr: std::net::SocketAddr, pool: &[ReadReq], verbs: &[&str]) -> Result<(), String> {
    let mut conn = Conn::open(addr, REQUEST_TIMEOUT)?;
    for req in pool.iter().filter(|r| verbs.contains(&r.verb)) {
        let reply = conn.request(&req.line)?;
        if !reply.starts_with("ok ") {
            return Err(format!("warm-up {:?} replied {reply:?}", req.line));
        }
    }
    Ok(())
}

/// Runs an open-loop schedule with request `i` on connection `conn_of[i]`,
/// the connections concurrently, one generator thread each.
fn run_open_loop(
    addr: std::net::SocketAddr,
    due: &[Duration],
    lines: &[&str],
    conn_of: &[usize],
) -> Vec<Outcome> {
    let conns = conn_of.iter().max().map_or(0, |&c| c + 1);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let plan: Vec<(Duration, usize, &str)> = (0..due.len())
                    .filter(|&i| conn_of[i] == c)
                    .map(|i| (due[i], i, lines[i]))
                    .collect();
                s.spawn(move || open_loop(addr, start, &plan, REQUEST_TIMEOUT))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("load generator thread")).collect()
    })
}

/// Open-loop read schedule: due offsets and pool picks, both from the seed.
fn read_schedule(rate: f64, seconds: f64, mut mix: Mix) -> (Vec<Duration>, Vec<usize>) {
    let due = open_loop_due(rate, seconds);
    let picks = due.iter().map(|_| mix.next()).collect();
    (due, picks)
}

fn latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.latency * 1e3).collect()
}

fn lag_metrics(r: &mut Report, outcomes: &[Outcome]) {
    let lag: Vec<f64> = outcomes.iter().map(|o| o.lag * 1e3).collect();
    r.add("loadgen.lag_p50_ms", median(&lag).unwrap_or(0.0), lag.len());
    r.add("loadgen.lag_max_ms", lag.iter().copied().fold(0.0, f64::max), lag.len());
}

/// serve-read: open-loop reads at a fixed rate, then closed-loop capacity.
pub fn serve_read(ctx: &Ctx<'_>, rec: &mut Recorder) -> Result<RunResult, String> {
    let seed = ctx.args.seed;
    let (points, csv) = uniform_cloud(ctx, READ_N)?;
    let pool = read_pool(READ_N, seed);
    let verbs = ["emst", "subset", "knn"];
    let reference =
        reference_replies(&points, READ_SHARDS, &pool, &verbs, ctx.dir.join("ref-spill"));
    ctx.progress("reference replies computed");
    let (server, setups) = start_server(ctx, &csv, READ_SHARDS, READ_MAX_RESIDENT)?;
    warm_up(server.addr, &pool, &verbs)?;
    ctx.progress("server set up and warmed");

    let (due, picks) = read_schedule(READ_RATE, ctx.args.seconds, Mix::new(seed, TAG_MIX, 0));
    let lines: Vec<&str> = picks.iter().map(|&p| pool[p].line.as_str()).collect();
    // The server answers one connection's lines in order, so `emst` and
    // `subset` get their own connections and `knn` reads are not queued
    // behind them on a shared pipeline; the split still uses one
    // connection per core.
    let heavy_conns = (ctx.nproc / 2).max(1);
    let light_conns = (ctx.nproc - heavy_conns).max(1);
    let conn_of: Vec<usize> = picks
        .iter()
        .enumerate()
        .map(|(i, &p)| match pool[p].verb {
            "knn" if ctx.nproc > 1 => heavy_conns + i % light_conns,
            "knn" => 0,
            _ => i % heavy_conns,
        })
        .collect();
    let reads = run_open_loop(server.addr, &due, &lines, &conn_of);
    check_reads(&reads, &picks, &reference, false)?;

    // Closed loop, one connection per core, for half the open-loop time.
    let cap_start = Instant::now();
    let stop = cap_start + Duration::from_secs_f64(ctx.args.seconds / 2.0);
    let capacity_runs: Vec<(Vec<Outcome>, Vec<usize>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|c| {
                let pool = &pool;
                s.spawn(move || {
                    let offset = c * MIX_PATTERN.len() / ctx.nproc;
                    let mut mix = Mix::new(seed, TAG_CAPACITY + c as u64, offset);
                    let mut picks = Vec::new();
                    let out = closed_loop(server.addr, stop, REQUEST_TIMEOUT, false, |_| {
                        picks.push(mix.next());
                        pool[*picks.last().expect("just pushed")].line.clone()
                    });
                    (out, picks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("capacity thread")).collect()
    });
    let cap_elapsed = cap_start.elapsed().as_secs_f64();
    for (out, picks) in &capacity_runs {
        check_reads(out, picks, &reference, false)?;
    }
    let cap_outcomes: Vec<&Outcome> = capacity_runs.iter().flat_map(|(o, _)| o).collect();
    let cap_ok = cap_outcomes.iter().filter(|o| o.ok()).count();
    let capacity = cap_ok as f64 / cap_elapsed;
    let peak = server.peak_rss_mib();
    drop(server);
    ctx.progress("reads and capacity done");

    let attempted = (reads.len() + cap_outcomes.len()) as u64;
    let failed = (reads.iter().filter(|o| !o.ok()).count()
        + cap_outcomes.iter().filter(|o| !o.ok()).count()) as u64;
    let read_ms = latencies_ms(&reads);
    let mut details = Vec::new();
    latency_details("read", &read_ms, &mut details);
    details.push(detail("read_capacity_rps", capacity, "req/s", cap_outcomes.len()));
    details.push(detail("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len()));
    details.push(detail(
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted as usize,
    ));
    details.push(detail("peak_rss_mib", peak, "MiB", 1));

    let mut r = Report::default();
    let metrics = if ctx.args.trace {
        lag_metrics(&mut r, &reads);
        r.add("traced.p50_ms", median(&read_ms).unwrap_or(f64::INFINITY), read_ms.len());
        let sweep = layers::ServeSweep {
            ctx,
            points: &points,
            csv: &csv,
            shards: READ_SHARDS,
            max_resident: READ_MAX_RESIDENT,
            pool: &pool,
            solver_on_dirty_shard: false,
        };
        layers::serve_layers(&sweep, rec, &mut r)?;
        r.finish(&report::per_layer())
    } else {
        add_end_to_end(
            &mut r,
            &setups,
            &read_ms,
            (capacity, cap_outcomes.len()),
            peak,
            attempted,
            failed,
        )?;
        r.finish(&end_to_end())
    };
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        details,
        constants: vec![
            ("n", READ_N.to_string()),
            ("shards", READ_SHARDS.to_string()),
            ("max_resident", READ_MAX_RESIDENT.to_string()),
            ("offered_rate_rps", READ_RATE.to_string()),
            ("connections", ctx.nproc.to_string()),
            ("net_workers", ctx.nproc.to_string()),
            ("pool_lines", pool.len().to_string()),
            ("mix", "emst 25%, subset 10%, knn 65%".to_string()),
        ],
    })
}

/// Seeded clusters of `MUTATE_BATCH` points, as f32 values the wire
/// parses back exactly. Centres cycle through the eight lattice points
/// (±0.2, ±0.2, ±0.2) in seeded order with a seeded ±0.02 jitter: which
/// shards a batch dirties depends on where it lands, so stratifying the
/// centres keeps seeds from changing how much work the chain asks for.
pub struct Clusters {
    rng: Rng,
    block: Vec<usize>,
}

impl Clusters {
    pub fn new(seed: u64, tag: u64) -> Self {
        Self { rng: Rng::new(seed, tag), block: Vec::new() }
    }

    pub fn next_batch(&mut self) -> Vec<Point<3>> {
        if self.block.is_empty() {
            self.block = (0..8).collect();
            for i in (1..8).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let corner = self.block.pop().expect("refilled above");
        let centre = [0, 1, 2].map(|d| {
            let sign = if corner >> d & 1 == 1 { 1.0 } else { -1.0 };
            sign * 0.2 + (self.rng.unit() - 0.5) * 0.04
        });
        (0..MUTATE_BATCH)
            .map(|_| {
                Point::new(centre.map(|c| {
                    f32_token(c + CLUSTER_SIGMA * self.rng.gauss()).parse::<f32>().expect("f32")
                }))
            })
            .collect()
    }
}

pub fn insert_line(points: &[Point<3>]) -> String {
    let mut line = String::from("insert");
    for p in points {
        for d in 0..3 {
            line.push(' ');
            line.push_str(&format!("{:?}", p[d]));
        }
    }
    line
}

pub fn delete_line(ids: &[u32]) -> String {
    let mut line = String::from("delete");
    for id in ids {
        line.push_str(&format!(" {id}"));
    }
    line
}

/// The `k`-th step of the sliding-window chain: two inserts, then
/// alternately delete the oldest live batch (always ids `n..n+batch`,
/// since deletes compact and inserts append) and insert the next one.
fn mutation_line(k: usize, n: usize, clusters: &mut Clusters) -> String {
    if k >= 2 && k.is_multiple_of(2) {
        delete_line(&(n as u32..(n + MUTATE_BATCH) as u32).collect::<Vec<_>>())
    } else {
        insert_line(&clusters.next_batch())
    }
}

/// The state-independent fields of a mutation reply.
pub fn mutation_fields(reply: &str) -> Vec<&str> {
    reply
        .split(' ')
        .filter(|t| ["key=", "n=", "edges=", "weight=", "check="].iter().any(|p| t.starts_with(p)))
        .collect()
}

/// serve-mutate: a closed-loop sliding-window mutation chain with
/// concurrent open-loop reads of the base cloud.
pub fn serve_mutate(ctx: &Ctx<'_>, rec: &mut Recorder) -> Result<RunResult, String> {
    let seed = ctx.args.seed;
    let (points, csv) = uniform_cloud(ctx, MUTATE_N)?;
    let pool = read_pool(MUTATE_N, seed);
    let verbs = ["knn"];
    let reference =
        reference_replies(&points, MUTATE_SHARDS, &pool, &verbs, ctx.dir.join("ref-spill"));
    ctx.progress("reference replies computed");
    let (server, setups) = start_server(ctx, &csv, MUTATE_SHARDS, MUTATE_MAX_RESIDENT)?;
    warm_up(server.addr, &pool, &verbs)?;
    ctx.progress("server set up and warmed");

    let (due, picks) =
        read_schedule(MUTATE_READ_RATE, ctx.args.seconds, Mix::knn_only(seed, TAG_MIX));
    let lines: Vec<&str> = picks.iter().map(|&p| pool[p].line.as_str()).collect();
    let addr = server.addr;
    let window = Instant::now();
    let stop = window + Duration::from_secs_f64(ctx.args.seconds);
    let (writes, sent, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut clusters = Clusters::new(seed, TAG_BATCHES);
            let mut sent = Vec::new();
            let out = closed_loop(addr, stop, REQUEST_TIMEOUT, true, |k| {
                sent.push(mutation_line(k, MUTATE_N, &mut clusters));
                sent.last().expect("just pushed").clone()
            });
            (out, sent)
        });
        let reads = run_open_loop(addr, &due, &lines, &vec![0; due.len()]);
        let (writes, sent) = writer.join().expect("mutation thread");
        (writes, sent, reads)
    });
    let window_s = window.elapsed().as_secs_f64();
    let peak = server.peak_rss_mib();
    drop(server);
    ctx.progress("mutation window done");
    check_reads(&reads, &picks, &reference, true)?;

    // Replay the chain through the protocol function on a fresh engine.
    let mut config = ServeConfig::new(MUTATE_SHARDS, MUTATE_MAX_RESIDENT);
    config.spill_dir = Some(ctx.dir.join("replay-spill"));
    let engine = ServeEngine::<Threads, 3>::new(Threads, config);
    let mut session = NetSession::new(Arc::clone(&points));
    for (o, line) in writes.iter().zip(&sent).filter(|(o, _)| o.ok()) {
        let want = respond(&engine, &mut session, line).text;
        let got = o.reply.as_deref().expect("ok outcomes carry a reply");
        if mutation_fields(got) != mutation_fields(want.trim_end()) {
            return Err(format!(
                "mutation {} replied {got:?}, replay {:?}",
                o.index,
                want.trim_end()
            ));
        }
    }
    drop(engine);
    ctx.progress("mutation replay checked");

    let attempted = (writes.len() + reads.len()) as u64;
    let failed = (writes.iter().chain(&reads).filter(|o| !o.ok()).count()) as u64;
    let write_ms = latencies_ms(&writes);
    let read_ms = latencies_ms(&reads);
    let done = writes.iter().filter(|o| o.ok()).count();
    let mut details = Vec::new();
    latency_details("write", &write_ms, &mut details);
    latency_details("read", &read_ms, &mut details);
    details.push(detail("mutations_per_s", done as f64 / window_s, "1/s", writes.len()));
    details.push(detail("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len()));
    details.push(detail(
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted as usize,
    ));
    details.push(detail("peak_rss_mib", peak, "MiB", 1));

    let mut r = Report::default();
    let metrics = if ctx.args.trace {
        lag_metrics(&mut r, &reads);
        r.add("traced.p50_ms", median(&write_ms).unwrap_or(f64::INFINITY), write_ms.len());
        let sweep = layers::ServeSweep {
            ctx,
            points: &points,
            csv: &csv,
            shards: MUTATE_SHARDS,
            max_resident: MUTATE_MAX_RESIDENT,
            pool: &pool,
            solver_on_dirty_shard: true,
        };
        layers::serve_layers(&sweep, rec, &mut r)?;
        r.finish(&report::per_layer())
    } else {
        add_end_to_end(
            &mut r,
            &setups,
            &write_ms,
            (done as f64 / window_s, writes.len()),
            peak,
            attempted,
            failed,
        )?;
        r.finish(&end_to_end())
    };
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        details,
        constants: vec![
            ("n", MUTATE_N.to_string()),
            ("shards", MUTATE_SHARDS.to_string()),
            ("max_resident", MUTATE_MAX_RESIDENT.to_string()),
            ("mutation_points", MUTATE_BATCH.to_string()),
            ("cluster_sigma", CLUSTER_SIGMA.to_string()),
            ("read_offered_rate_rps", MUTATE_READ_RATE.to_string()),
            ("connections", "2 (one closed-loop writer, one open-loop reader)".to_string()),
            ("net_workers", ctx.nproc.to_string()),
            ("pool_lines", pool.len().to_string()),
        ],
    })
}
