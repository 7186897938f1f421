//! `emst-cli` — command-line access to the library.
//!
//! ```text
//! emst-cli generate --kind hacc --n 10000 --dim 3 --seed 1 --output pts.csv
//! emst-cli emst     --input pts.csv --dim 3 --output mst.csv [--algorithm single-tree]
//! emst-cli emst     --input pts.csv --shards 8 [--max-resident 1000000]
//! emst-cli hdbscan  --input pts.csv --dim 3 --k 5 --min-cluster-size 20 --output labels.csv
//! emst-cli serve    --input pts.csv --shards 8 --max-resident 4   # then commands on stdin
//! ```
//!
//! Arguments are `--key value` pairs; unknown keys abort with usage help and
//! malformed values (e.g. a non-numeric `--n`) abort with an error message
//! and a non-zero exit code. The MST output is CSV rows `u,v,weight`;
//! HDBSCAN output is one label per line (`-1` = noise).
//!
//! `serve` starts the long-lived engine (`emst::serve`): the cloud's shard
//! artifacts stay resident between queries, so repeated `emst` commands are
//! answered by the cross-shard merge alone. Commands, one per line on
//! stdin: `emst [out.csv]`, `subset <lo>..<hi>`, `knn <k> <x> <y> [<z>]`,
//! `hdbscan <k_pts> <min_cluster_size>`, `insert <x> <y> [<z>] …`,
//! `delete <id> …`, `load <points.csv>`, `stats`, `metrics [json]`,
//! `trace [n]`, `quit`. Responses go to stdout
//! (`cache=hit|miss|reloaded` tells whether the local phase ran);
//! malformed commands print an error and continue. `insert`/`delete`
//! mutate the session's cloud through the engine's incremental
//! delta-solve (only dirty shards re-solve) and swap the session onto
//! the new cloud, exactly like `load`.
//!
//! Serve diagnostics go through the `emst::obs` structured logger —
//! `--log-format json` turns them into machine-parseable JSON lines — and
//! `--metrics-file <path>` keeps a Prometheus-style exposition of the
//! engine's metrics current on disk (rewritten after each sequential
//! command and at exit; write failures are logged and counted, never
//! fatal).
//!
//! Fault tolerance: `--spill-dir`/`--fallback-spill-dir` choose where
//! evicted clouds are persisted (both are probed for writability at
//! startup, so a dead disk fails the launch, not the first eviction),
//! `--spill-retries` bounds the write retry-with-backoff, `--deadline-ms`
//! gives every query a wall-clock budget (late queries return an error at
//! a merge-round boundary instead of a late answer), `--max-in-flight`
//! sheds excess concurrent queries instead of queueing them, and
//! `--fault-plan "seed=42;write=eio@0.5;read=bitflip@0.25"` injects
//! deterministic storage faults for chaos drills.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use emst::core::{EmstConfig, SingleTreeBoruvka, Traversal};
use emst::datasets::{self, Kind};
use emst::exec::{ExecSpace, GpuSim, Serial, Threads};
use emst::geometry::Point;
use emst::hdbscan::Hdbscan;
use emst::serve::fault::{faulted_read, faulted_write};
use emst::serve::{
    CacheOutcome, FaultPlan, FaultSite, MutateResponse, NetConfig, NetSession, ServeConfig,
    ServeEngine, ServeRequest, ServeResponse, ServeServer,
};
use emst::shard::{emst_sharded_csv, emst_sharded_with, ShardConfig, ShardStats, StreamConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  emst-cli generate --kind <uniform|normal|visualvar|hacc|geolife|ngsim|porto|road>
                    --n <count> [--dim 2|3] [--seed <u64>] --output <points.csv>
  emst-cli emst     --input <points.csv> [--dim 2|3] [--output <mst.csv>]
                    [--algorithm single-tree|kd-single-tree|dual-tree|wspd]
                    [--backend serial|threads|gpusim]
                    [--traversal stackless|stack]
                    [--shards <K>] [--max-resident <points>]
  emst-cli hdbscan  --input <points.csv> [--dim 2|3] [--k <k_pts>]
                    [--min-cluster-size <m>] [--output <labels.csv>]
  emst-cli serve    --input <points.csv> [--dim 2|3] [--shards <K>]
                    [--max-resident <clouds>] [--backend serial|threads|gpusim]
                    [--traversal stackless|stack] [--workers <N>]
                    [--log-format text|json] [--metrics-file <metrics.prom>]
                    [--spill-dir <dir>] [--fallback-spill-dir <dir>]
                    [--spill-retries <N>] [--deadline-ms <ms>]
                    [--max-in-flight <N>] [--fault-plan <spec>]
                    [--listen <addr>] [--net-workers <N>] [--max-pending <M>]
                    stdin commands: emst [out.csv] | subset <lo>..<hi> |
                    knn <k> <x> <y> [<z>] | hdbscan <k_pts> <min_cluster_size> |
                    insert <x> <y> [<z>] … | delete <id> … |
                    load <points.csv> | stats | metrics [json] | trace [n] | quit
                    --listen serves the same verbs over TCP (one line per
                    request/reply; see docs/serving-protocol.md); stdin still
                    works and `quit`/EOF shuts the listener down gracefully"
    );
    ExitCode::FAILURE
}

fn parse_args(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        let value = it.next()?;
        map.insert(key.to_string(), value.clone());
    }
    Some(map)
}

/// Parses an optional `--key value` argument strictly: a present but
/// malformed value is an error, never a silent default.
fn parse_opt<T: FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{key} value {v:?}")),
    }
}

/// Parses a required `--key value` argument strictly.
fn parse_req<T: FromStr>(opts: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = opts.get(key).ok_or(format!("--{key} is required"))?;
    v.parse().map_err(|_| format!("invalid --{key} value {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let Some(opts) = parse_args(rest) else {
        return usage();
    };
    let result = run(command, &opts);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, opts: &HashMap<String, String>) -> Result<(), String> {
    let dim: usize = parse_opt(opts, "dim", 2)?;
    if dim != 2 && dim != 3 {
        return Err("--dim must be 2 or 3".into());
    }
    match (command, dim) {
        ("generate", 2) => generate::<2>(opts),
        ("generate", 3) => generate::<3>(opts),
        ("emst", 2) => run_emst::<2>(opts),
        ("emst", 3) => run_emst::<3>(opts),
        ("hdbscan", 2) => run_hdbscan::<2>(opts),
        ("hdbscan", 3) => run_hdbscan::<3>(opts),
        ("serve", 2) => run_serve::<2>(opts),
        ("serve", 3) => run_serve::<3>(opts),
        _ => Err(format!(
            "unknown command {command:?} (expected generate, emst, hdbscan or serve; run with \
             no arguments for usage)"
        )),
    }
}

fn generate<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = match opts.get("kind").map(String::as_str) {
        Some("uniform") => Kind::Uniform,
        Some("normal") => Kind::Normal,
        Some("visualvar") => Kind::VisualVar,
        Some("hacc") => Kind::HaccLike,
        Some("geolife") => Kind::GeoLifeLike,
        Some("ngsim") => Kind::NgsimLike,
        Some("porto") => Kind::PortoTaxiLike,
        Some("road") => Kind::RoadNetworkLike,
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let n: usize = parse_req(opts, "n")?;
    let seed: u64 = parse_opt(opts, "seed", 0)?;
    let output = opts.get("output").ok_or("--output is required")?;
    let points: Vec<Point<D>> = kind.generate(n, seed);
    datasets::save_csv(Path::new(output), &points).map_err(|e| e.to_string())?;
    eprintln!("wrote {n} points to {output}");
    Ok(())
}

fn load_points<const D: usize>(opts: &HashMap<String, String>) -> Result<Vec<Point<D>>, String> {
    let input = opts.get("input").ok_or("--input is required")?;
    load_points_from::<D>(input, None)
}

/// Loads a point file, routing the read itself through the fault plan's
/// ingest site (serve mode passes its `--fault-plan`, so chaos drills
/// cover dataset ingest with the same injector as spill storage).
fn load_points_from<const D: usize>(
    input: &str,
    plan: Option<&FaultPlan>,
) -> Result<Vec<Point<D>>, String> {
    let bytes = faulted_read(plan, FaultSite::IngestRead, Path::new(input))
        .map_err(|e| format!("{input}: {e}"))?;
    let points = if input.ends_with(".xyz") {
        datasets::parse_xyz::<D>(&bytes, input)
    } else {
        datasets::parse_csv::<D>(&bytes, input)
    }
    .map_err(|e| format!("{input}: {e}"))?;
    if points.is_empty() {
        return Err(format!("{input}: no points"));
    }
    Ok(points)
}

fn print_shard_stats(stats: &ShardStats) {
    let nonempty = stats.shard_sizes.iter().filter(|&&s| s > 0).count();
    let largest = stats.shard_sizes.iter().max().copied().unwrap_or(0);
    eprintln!(
        "shards: {} ({nonempty} non-empty, largest {largest}), merge rounds {}, boundary \
         candidates {}, peak resident {}",
        stats.shard_sizes.len(),
        stats.merge_rounds,
        stats.boundary_candidates,
        stats.peak_resident,
    );
    // Top-level phases only: the in-memory path records plan/local/merge,
    // the streamed path scan/histogram/route/local/pairs/assemble; the
    // merge engine's `merge.*` sub-phases stay out of the summary line.
    let phases: Vec<String> = stats
        .timings
        .iter()
        .filter(|(name, _)| !name.contains('.'))
        .map(|(name, secs)| format!("{name} {secs:.3} s"))
        .collect();
    if !phases.is_empty() {
        eprintln!("phases: {}", phases.join(", "));
    }
}

fn run_emst<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let algorithm = opts.get("algorithm").map(String::as_str).unwrap_or("single-tree");
    let backend = opts.get("backend").map(String::as_str).unwrap_or("threads");
    let shards: usize = parse_opt(opts, "shards", 0)?;
    let max_resident: usize = parse_opt(opts, "max-resident", 0)?;
    let traversal = match opts.get("traversal") {
        None => Traversal::default(),
        Some(v) => Traversal::parse(v)
            .ok_or(format!("invalid --traversal value {v:?} (expected stackless or stack)"))?,
    };
    let emst_cfg = EmstConfig { traversal, ..EmstConfig::default() };
    if (shards > 0 || max_resident > 0) && algorithm != "single-tree" {
        return Err(format!("--shards requires --algorithm single-tree, got {algorithm}"));
    }
    if opts.contains_key("traversal") && algorithm != "single-tree" {
        return Err(format!("--traversal requires --algorithm single-tree, got {algorithm}"));
    }

    // The out-of-core path streams the CSV directly instead of loading it.
    if max_resident > 0 {
        let input = opts.get("input").ok_or("--input is required")?;
        if input.ends_with(".xyz") {
            return Err("--max-resident streams CSV input only".into());
        }
        let cfg = StreamConfig { emst: emst_cfg, ..StreamConfig::new(shards, max_resident) };
        let start = std::time::Instant::now();
        let result = match backend {
            "serial" => emst_sharded_csv::<_, D>(&Serial, Path::new(input), &cfg),
            "threads" => emst_sharded_csv::<_, D>(&Threads, Path::new(input), &cfg),
            "gpusim" => emst_sharded_csv::<_, D>(&GpuSim::new(), Path::new(input), &cfg),
            other => return Err(format!("unknown --backend {other}")),
        }
        .map_err(|e| format!("{input}: {e}"))?;
        let n = result.stats.shard_sizes.iter().sum::<usize>();
        if n == 0 {
            return Err(format!("{input}: no points"));
        }
        print_shard_stats(&result.stats);
        return report_and_write(opts, n, D, result.edges, start.elapsed().as_secs_f64());
    }

    let points = load_points::<D>(opts)?;
    let n = points.len();
    let start = std::time::Instant::now();
    let edges = match algorithm {
        "single-tree" if shards > 0 => {
            let run_sharded =
                |space: &dyn ObjectSafeRun<D>| space.sharded(&points, shards, emst_cfg);
            let result = match backend {
                "serial" => run_sharded(&Serial),
                "threads" => run_sharded(&Threads),
                "gpusim" => run_sharded(&GpuSim::new()),
                other => return Err(format!("unknown --backend {other}")),
            };
            print_shard_stats(&result.stats);
            result.edges
        }
        "single-tree" => match backend {
            "serial" => SingleTreeBoruvka::new(&points).run(&Serial, &emst_cfg).edges,
            "threads" => SingleTreeBoruvka::new(&points).run(&Threads, &emst_cfg).edges,
            "gpusim" => SingleTreeBoruvka::new(&points).run(&GpuSim::new(), &emst_cfg).edges,
            other => return Err(format!("unknown --backend {other}")),
        },
        "kd-single-tree" => emst::kdtree::kd_single_tree_emst(&points).edges,
        "dual-tree" => emst::kdtree::dual_tree_emst(&points).edges,
        "wspd" => emst::wspd::wspd_emst(&points, backend != "serial").edges,
        other => return Err(format!("unknown --algorithm {other}")),
    };
    let secs = start.elapsed().as_secs_f64();
    emst::core::verify_spanning_tree(n, &edges).map_err(|e| e.to_string())?;
    report_and_write(opts, n, D, edges, secs)
}

/// Object-safe shim so the sharded run can dispatch over backends chosen at
/// runtime without monomorphizing the match arms three times.
trait ObjectSafeRun<const D: usize> {
    fn sharded(
        &self,
        points: &[Point<D>],
        shards: usize,
        emst: EmstConfig,
    ) -> emst::shard::ShardedResult;
}

impl<S: ExecSpace, const D: usize> ObjectSafeRun<D> for S {
    fn sharded(
        &self,
        points: &[Point<D>],
        shards: usize,
        emst: EmstConfig,
    ) -> emst::shard::ShardedResult {
        emst_sharded_with(self, points, &ShardConfig { emst, ..ShardConfig::new(shards) })
    }
}

fn report_and_write(
    opts: &HashMap<String, String>,
    n: usize,
    dim: usize,
    edges: Vec<emst::core::Edge>,
    secs: f64,
) -> Result<(), String> {
    let weight = emst::core::edge::total_weight(&edges);
    eprintln!(
        "{n} points -> {} edges, weight {weight:.6}, {secs:.3} s ({:.2} MFeatures/s)",
        edges.len(),
        (n * dim) as f64 / secs / 1e6
    );
    if let Some(output) = opts.get("output") {
        write_edges(Path::new(output), &edges)?;
        eprintln!("wrote MST to {output}");
    }
    Ok(())
}

/// The `serve` subcommand: start a [`ServeEngine`], ingest `--input`, then
/// answer stdin commands until EOF/`quit`. Flag errors abort; command
/// errors print and continue (a server should not die on one bad query).
fn run_serve<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let shards: usize = parse_opt(opts, "shards", 4)?;
    let max_resident: usize = parse_opt(opts, "max-resident", 4)?;
    let workers: usize = parse_opt(opts, "workers", 1)?;
    let backend = opts.get("backend").map(String::as_str).unwrap_or("threads");
    let traversal = match opts.get("traversal") {
        None => Traversal::default(),
        Some(v) => Traversal::parse(v)
            .ok_or(format!("invalid --traversal value {v:?} (expected stackless or stack)"))?,
    };
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if max_resident == 0 {
        return Err("--max-resident must be at least 1".into());
    }
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let log_format = opts.get("log-format").map(String::as_str).unwrap_or("text");
    let log_format = emst::obs::log::Format::parse(log_format)
        .ok_or(format!("invalid --log-format value {log_format:?} (expected text or json)"))?;
    emst::obs::log::set_format(log_format);
    let metrics_file = opts.get("metrics-file").map(PathBuf::from);
    let spill_dir = opts.get("spill-dir").map(PathBuf::from);
    let fallback_spill_dir = opts.get("fallback-spill-dir").map(PathBuf::from);
    let spill_retries: u32 = parse_opt(opts, "spill-retries", 3)?;
    let deadline_ms: u64 = parse_opt(opts, "deadline-ms", 0)?;
    let max_in_flight: usize = parse_opt(opts, "max-in-flight", 0)?;
    let fault_plan = match opts.get("fault-plan") {
        None => None,
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("invalid --fault-plan: {e}"))?,
        )),
    };
    let listen = opts.get("listen").cloned();
    let net_workers: usize = parse_opt(opts, "net-workers", 4)?;
    let max_pending: usize = parse_opt(opts, "max-pending", 64)?;
    if net_workers == 0 {
        return Err("--net-workers must be at least 1".into());
    }
    if max_pending == 0 {
        return Err("--max-pending must be at least 1".into());
    }
    // Probe every spill destination now: an unwritable disk must fail the
    // launch with a clear message, not the first eviction mid-serve.
    if let Some(dir) = &spill_dir {
        validate_spill_dir("spill-dir", dir)?;
    }
    if let Some(dir) = &fallback_spill_dir {
        validate_spill_dir("fallback-spill-dir", dir)?;
    }
    let input = opts.get("input").ok_or("--input is required")?;
    let points = load_points_from::<D>(input, fault_plan.as_deref())?;
    let mut config = ServeConfig::new(shards, max_resident);
    config.emst = EmstConfig { traversal, ..EmstConfig::default() };
    config.spill_dir = spill_dir;
    config.fallback_spill_dir = fallback_spill_dir;
    config.spill_retries = spill_retries;
    config.deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    config.max_in_flight = max_in_flight;
    config.fault_plan = fault_plan.clone();
    let session = ServeSession {
        workers,
        metrics: metrics_file.as_deref(),
        plan: fault_plan.as_deref(),
        listen: listen.as_deref(),
        net: NetConfig { workers: net_workers, max_pending },
    };
    match backend {
        "serial" => serve_entry(Serial, config, points, &session),
        "threads" => serve_entry(Threads, config, points, &session),
        "gpusim" => serve_entry(GpuSim::new(), config, points, &session),
        other => Err(format!("unknown --backend {other}")),
    }
}

/// Everything `serve` needs besides the engine itself: REPL sizing, the
/// metrics sink, the fault plan (for metrics writes and ingest reads) and
/// the optional network front-end.
struct ServeSession<'a> {
    workers: usize,
    metrics: Option<&'a Path>,
    plan: Option<&'a FaultPlan>,
    listen: Option<&'a str>,
    net: NetConfig,
}

/// Starts the engine and serves: stdin REPL always, plus the TCP
/// front-end when `--listen` is set. In listen mode the engine lives in
/// an `Arc` shared with the server's worker threads; stdin `quit`/EOF
/// triggers the server's graceful shutdown (in-flight requests drain).
fn serve_entry<S: ExecSpace + Send + Sync + 'static, const D: usize>(
    space: S,
    config: ServeConfig,
    points: Vec<Point<D>>,
    session: &ServeSession<'_>,
) -> Result<(), String> {
    let Some(addr) = session.listen else {
        return serve_repl(
            &ServeEngine::<_, D>::new(space, config),
            points,
            session.workers,
            session.metrics,
            session.plan,
        );
    };
    let engine = Arc::new(ServeEngine::<S, D>::new(space, config));
    let cloud = Arc::new(points);
    let key = engine.ingest(&cloud);
    let server = ServeServer::bind(Arc::clone(&engine), Arc::clone(&cloud), addr, session.net)
        .map_err(|e| format!("--listen {addr}: {e}"))?;
    // The bound address goes to stdout so scripts driving `--listen
    // 127.0.0.1:0` can discover the ephemeral port.
    println!("listening {}", server.local_addr());
    emst::obs::log::info(
        "emst-cli",
        "serving over TCP (stdin commands still work; `quit` to exit)",
        &[
            ("addr", &server.local_addr().to_string()),
            ("points", &cloud.len().to_string()),
            ("key", &key.to_string()),
            ("net_workers", &session.net.workers.to_string()),
            ("max_pending", &session.net.max_pending.to_string()),
        ],
    );
    let repl = NetSession::with_key(Arc::clone(&cloud), key);
    let result = serve_sequential(&engine, repl, session.metrics, session.plan);
    server.shutdown();
    if let Some(path) = session.metrics {
        write_metrics_file(&engine, path, session.plan);
    }
    result
}

/// Checks that `dir` exists (creating it if needed) and takes writes, so
/// spill durability is established before the engine starts serving.
fn validate_spill_dir(flag: &str, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("--{flag} {}: cannot create directory: {e}", dir.display()))?;
    let probe = dir.join(format!(".emst-writable-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--{flag} {} is not writable: {e}", dir.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Rewrites the `--metrics-file` exposition; failures are logged and
/// counted, never fatal (a full disk must not take the serving loop
/// down). The write goes through the fault plan's metrics site, so chaos
/// drills cover this path too.
fn write_metrics_file<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    path: &Path,
    plan: Option<&FaultPlan>,
) {
    let payload = engine.metrics_prometheus();
    if let Err(e) = faulted_write(plan, FaultSite::MetricsWrite, path, payload.as_bytes()) {
        if let Some(registry) = engine.obs_registry() {
            registry.counter("emst_cli_metrics_file_write_failures_total").inc();
        }
        emst::obs::log::warn(
            "emst-cli",
            "metrics file write failed",
            &[("path", &path.display().to_string()), ("error", &e.to_string())],
        );
    }
}

fn serve_repl<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    points: Vec<Point<D>>,
    workers: usize,
    metrics_file: Option<&Path>,
    plan: Option<&FaultPlan>,
) -> Result<(), String> {
    let key = engine.ingest(&points);
    emst::obs::log::info(
        "emst-cli",
        "serving (commands on stdin; `quit` to exit)",
        &[
            ("points", &points.len().to_string()),
            ("key", &key.to_string()),
            ("workers", &workers.to_string()),
        ],
    );
    let session = NetSession::with_key(Arc::new(points), key);
    let result = if workers == 1 {
        serve_sequential(engine, session, metrics_file, plan)
    } else {
        serve_pool(engine, session, workers, plan)
    };
    if let Some(path) = metrics_file {
        write_metrics_file(engine, path, plan);
    }
    result
}

/// Loads a new cloud for the REPL's `load` command; returns the response
/// line and the session (cloud and key) to serve from now on.
fn load_cloud<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    rest: &[&str],
    plan: Option<&FaultPlan>,
) -> Result<(String, NetSession<D>), String> {
    let path = rest.first().ok_or("load needs a path")?;
    let points = load_points_from::<D>(path, plan)?;
    let key = match engine.execute(ServeRequest::Load { points: &points }) {
        Ok(ServeResponse::Loaded { key }) => key,
        Ok(other) => unreachable!("load request answered with {other:?}"),
        Err(e) => return Err(e.to_string()),
    };
    Ok((
        format!("loaded n={} key={key}", points.len()),
        NetSession::with_key(Arc::new(points), key),
    ))
}

/// Executes the REPL's `insert`/`delete` commands: parses the arguments,
/// runs the engine's incremental delta-solve through
/// [`ServeEngine::execute`], and returns the response line plus the
/// session (mutated cloud and its key) to serve from now on. Like `load`,
/// the dispatching loops swap the session on success.
fn mutate_cloud<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    session: &NetSession<D>,
    cmd: &str,
    rest: &[&str],
) -> Result<(String, NetSession<D>), String> {
    let m: MutateResponse<D> = if cmd == "insert" {
        if rest.is_empty() || !rest.len().is_multiple_of(D) {
            return Err(format!("insert needs coordinates in groups of {D}"));
        }
        let mut added = Vec::with_capacity(rest.len() / D);
        for chunk in rest.chunks(D) {
            let mut coords = [0.0f32; D];
            for (c, v) in coords.iter_mut().zip(chunk) {
                *c = v.parse().map_err(|_| format!("invalid coordinate {v:?}"))?;
            }
            added.push(Point::new(coords));
        }
        let req = ServeRequest::Insert { cloud: session.cloud(), points: &added };
        match engine.execute(req).map_err(|e| e.to_string())? {
            ServeResponse::Mutated(m) => m,
            other => unreachable!("insert request answered with {other:?}"),
        }
    } else {
        if rest.is_empty() {
            return Err("delete needs at least one <id>".to_string());
        }
        let mut ids = Vec::with_capacity(rest.len());
        for v in rest {
            ids.push(v.parse::<u32>().map_err(|_| format!("invalid id {v:?}"))?);
        }
        let req = ServeRequest::Delete { cloud: session.cloud(), ids: &ids };
        match engine.execute(req).map_err(|e| e.to_string())? {
            ServeResponse::Mutated(m) => m,
            other => unreachable!("delete request answered with {other:?}"),
        }
    };
    let line = format!(
        "{cmd} key={} n={} dirty={} reused={} edges={} weight={:.6} merge={:.3}s",
        m.key,
        m.n,
        m.dirty_shards.len(),
        m.reused_shards,
        m.update.edges.len(),
        m.update.total_weight,
        m.update.timings.get("merge"),
    );
    Ok((line, NetSession::with_key(Arc::new(m.points), m.key)))
}

/// The historical single-threaded REPL: one command, one response, in
/// order, with no request-id prefix (`--workers 1`, the default).
fn serve_sequential<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    mut session: NetSession<D>,
    metrics_file: Option<&Path>,
    plan: Option<&FaultPlan>,
) -> Result<(), String> {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut tok = line.split_whitespace();
        let cmd = match tok.next() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some(c) => c,
        };
        let rest: Vec<&str> = tok.collect();
        let swapped = match cmd {
            "load" => Some(load_cloud(engine, &rest, plan)),
            "insert" | "delete" => Some(mutate_cloud(engine, &session, cmd, &rest)),
            _ => None,
        };
        let response = match swapped {
            Some(result) => result.map(|(response, next)| {
                session = next;
                response
            }),
            None => serve_command(engine, &mut session, cmd, &rest),
        };
        match response {
            Ok(r) => println!("{r}"),
            Err(e) => println!("error: {e}"),
        }
        if let Some(path) = metrics_file {
            write_metrics_file(engine, path, plan);
        }
    }
    Ok(())
}

/// The `--workers N` REPL: commands are numbered as read and dispatched to
/// a pool of worker threads sharing one engine, so independent queries run
/// concurrently. Responses carry their request id (`[3] emst cache=…`) and
/// may interleave out of order; `quit`/EOF drains every outstanding
/// request before exiting. `load`, `insert` and `delete` are barriers:
/// the queue drains first, so earlier requests answer against the cloud
/// they were issued under, then the session swaps onto the new cloud.
fn serve_pool<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    session: NetSession<D>,
    workers: usize,
    plan: Option<&FaultPlan>,
) -> Result<(), String> {
    use std::collections::VecDeque;
    use std::io::BufRead;
    use std::sync::{Condvar, Mutex, RwLock};

    struct PoolState {
        queue: VecDeque<(u64, String, Vec<String>)>,
        closed: bool,
        in_flight: usize,
    }
    struct Pool {
        state: Mutex<PoolState>,
        /// Wakes workers when a job lands (or the pool closes).
        work_cv: Condvar,
        /// Wakes the dispatcher when a job completes (drain barrier).
        idle_cv: Condvar,
    }
    impl Pool {
        fn drain(&self) {
            let mut st = self.state.lock().unwrap();
            while !st.queue.is_empty() || st.in_flight > 0 {
                st = self.idle_cv.wait(st).unwrap();
            }
        }
    }

    let cloud = RwLock::new(session);
    let pool = Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), closed: false, in_flight: 0 }),
        work_cv: Condvar::new(),
        idle_cv: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (pool, cloud) = (&pool, &cloud);
            scope.spawn(move || loop {
                let job = {
                    let mut st = pool.state.lock().unwrap();
                    loop {
                        if let Some(job) = st.queue.pop_front() {
                            st.in_flight += 1;
                            break Some(job);
                        }
                        if st.closed {
                            break None;
                        }
                        st = pool.work_cv.wait(st).unwrap();
                    }
                };
                let Some((id, cmd, rest)) = job else { return };
                // Snapshot the session the request was queued under; a later
                // `load` swaps it without touching this query. Nothing is
                // written back: the shared session already holds its key,
                // from the start-up ingest or the reply that swapped it.
                let mut snap = cloud.read().unwrap().clone();
                let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
                match serve_command(engine, &mut snap, &cmd, &rest) {
                    Ok(r) => println!("[{id}] {r}"),
                    Err(e) => println!("[{id}] error: {e}"),
                }
                let mut st = pool.state.lock().unwrap();
                st.in_flight -= 1;
                drop(st);
                pool.idle_cv.notify_all();
            });
        }

        let mut io_error = None;
        let mut next_id = 0u64;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    io_error = Some(e.to_string());
                    break;
                }
            };
            let mut tok = line.split_whitespace();
            let cmd = match tok.next() {
                None => continue,
                Some("quit") | Some("exit") => break,
                Some(c) => c,
            };
            let id = next_id;
            next_id += 1;
            if cmd == "load" || cmd == "insert" || cmd == "delete" {
                pool.drain();
                let rest: Vec<&str> = tok.collect();
                let result = if cmd == "load" {
                    load_cloud(engine, &rest, plan)
                } else {
                    let current = cloud.read().unwrap().clone();
                    mutate_cloud(engine, &current, cmd, &rest)
                };
                match result {
                    Ok((r, next)) => {
                        *cloud.write().unwrap() = next;
                        println!("[{id}] {r}");
                    }
                    Err(e) => println!("[{id}] error: {e}"),
                }
            } else {
                let rest: Vec<String> = tok.map(str::to_string).collect();
                pool.state.lock().unwrap().queue.push_back((id, cmd.to_string(), rest));
                pool.work_cv.notify_one();
            }
        }
        // Close the queue; workers finish what is pending, then exit (the
        // scope joins them), so `quit` never drops an accepted request.
        pool.state.lock().unwrap().closed = true;
        pool.work_cv.notify_all();
        match io_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

fn outcome_name(o: CacheOutcome) -> &'static str {
    match o {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Reloaded => "reloaded",
    }
}

/// Executes one REPL command (everything except `load`/`insert`/`delete`,
/// which swap the session cloud and are handled by the dispatching loop),
/// returning the response line. Takes the engine by shared reference: any
/// number of workers may execute commands concurrently. Every verb
/// dispatches through the one typed [`ServeEngine::execute`] entry point,
/// so `--deadline-ms`, `--max-in-flight` and panic isolation all apply: a
/// late, shed or panicking query prints an error line and the server
/// keeps going.
fn serve_command<S: ExecSpace, const D: usize>(
    engine: &ServeEngine<S, D>,
    session: &mut NetSession<D>,
    cmd: &str,
    rest: &[&str],
) -> Result<String, String> {
    let n = session.points().len();
    let parse = |what: &str, v: Option<&&str>| -> Result<usize, String> {
        let v = v.ok_or(format!("{what} is required"))?;
        v.parse().map_err(|_| format!("invalid {what} {v:?}"))
    };
    match cmd {
        "emst" => {
            let req = ServeRequest::Emst { cloud: session.cloud() };
            let r = match engine.execute(req).map_err(|e| e.to_string())? {
                ServeResponse::Emst(r) => r,
                other => unreachable!("emst request answered with {other:?}"),
            };
            session.learn(r.key);
            if let Some(path) = rest.first() {
                write_edges(Path::new(path), &r.edges)?;
            }
            Ok(format!(
                "emst cache={} n={n} edges={} weight={:.6} build={:.3}s merge={:.3}s queries={}",
                outcome_name(r.outcome),
                r.edges.len(),
                r.total_weight,
                r.timings.get("plan") + r.timings.get("local"),
                r.timings.get("merge"),
                r.query_work.queries,
            ))
        }
        "subset" => {
            let range = rest.first().ok_or("subset needs <lo>..<hi>")?;
            let (lo, hi) = range
                .split_once("..")
                .and_then(|(a, b)| Some((a.parse::<u32>().ok()?, b.parse::<u32>().ok()?)))
                .ok_or(format!("invalid subset range {range:?} (expected <lo>..<hi>)"))?;
            if lo >= hi || hi as usize > n {
                return Err(format!("subset {lo}..{hi} out of range for {n} points"));
            }
            let subset: Vec<u32> = (lo..hi).collect();
            let req = ServeRequest::Subset { cloud: session.cloud(), subset: &subset };
            let r = match engine.execute(req).map_err(|e| e.to_string())? {
                ServeResponse::Subset(r) => r,
                other => unreachable!("subset request answered with {other:?}"),
            };
            session.learn(r.key);
            Ok(format!(
                "subset cache={} m={} edges={} weight={:.6} local={:.3}s merge={:.3}s",
                outcome_name(r.outcome),
                subset.len(),
                r.edges.len(),
                r.total_weight,
                r.timings.get("local"),
                r.timings.get("merge"),
            ))
        }
        "knn" => {
            let k = parse("<k>", rest.first())?;
            if rest.len() != 1 + D {
                return Err(format!("knn needs <k> and {D} coordinates"));
            }
            let mut coords = [0.0f32; D];
            for (c, v) in coords.iter_mut().zip(&rest[1..]) {
                *c = v.parse().map_err(|_| format!("invalid coordinate {v:?}"))?;
            }
            let req =
                ServeRequest::KNearest { cloud: session.cloud(), query: Point::new(coords), k };
            let r = match engine.execute(req).map_err(|e| e.to_string())? {
                ServeResponse::KNearest(r) => r,
                other => unreachable!("knn request answered with {other:?}"),
            };
            session.learn(r.key);
            let hits: Vec<String> =
                r.neighbors.iter().map(|(i, d)| format!("{i}:{:.6}", d.sqrt())).collect();
            Ok(format!("knn cache={} {}", outcome_name(r.outcome), hits.join(" ")))
        }
        "hdbscan" => {
            let k_pts = parse("<k_pts>", rest.first())?;
            let min_cluster_size = parse("<min_cluster_size>", rest.get(1))?;
            if k_pts < 1 || min_cluster_size < 2 {
                return Err("hdbscan needs k_pts >= 1 and min_cluster_size >= 2".into());
            }
            let req = ServeRequest::Hdbscan {
                cloud: session.cloud(),
                params: Hdbscan { k_pts, min_cluster_size },
            };
            let r = match engine.execute(req).map_err(|e| e.to_string())? {
                ServeResponse::Hdbscan(r) => r,
                other => unreachable!("hdbscan request answered with {other:?}"),
            };
            session.learn(r.key);
            let noise = r.result.labels.iter().filter(|&&l| l == emst::hdbscan::NOISE).count();
            Ok(format!(
                "hdbscan cache={} clusters={} noise={}",
                outcome_name(r.outcome),
                r.result.num_clusters,
                noise,
            ))
        }
        "stats" => {
            // Iterate `named_fields` instead of naming fields by hand:
            // `ServeStats::named_fields` destructures exhaustively, so adding
            // a field to `ServeStats` without surfacing it here is a compile
            // error in the library and a test failure in tests/cli.rs.
            let s = match engine.execute(ServeRequest::Stats).map_err(|e| e.to_string())? {
                ServeResponse::Stats(s) => s,
                other => unreachable!("stats request answered with {other:?}"),
            };
            let mut line = format!("stats resident={} bytes={}", s.resident, s.resident_bytes);
            for (name, value) in s.stats.named_fields() {
                line.push_str(&format!(" {name}={value}"));
            }
            Ok(line)
        }
        "metrics" => match rest.first() {
            None => Ok(engine.metrics_prometheus().trim_end().to_string()),
            Some(&"json") => Ok(engine.metrics_json().trim_end().to_string()),
            Some(other) => Err(format!("invalid metrics format {other:?} (expected json)")),
        },
        "trace" => {
            let n = match rest.first() {
                None => 5,
                Some(v) => v.parse().map_err(|_| format!("invalid trace count {v:?}"))?,
            };
            let traces = engine.recent_traces(n);
            if traces.is_empty() {
                return Ok("no traces recorded".into());
            }
            let rendered: Vec<String> = traces.iter().map(|t| t.render_text()).collect();
            Ok(rendered.join("\n").trim_end().to_string())
        }
        other => Err(format!(
            "unknown command {other:?} (emst [out.csv] | subset <lo>..<hi> | knn <k> <x> <y> \
             [<z>] | hdbscan <k_pts> <min_cluster_size> | insert <x> <y> [<z>] … | \
             delete <id> … | load <points.csv> | stats | metrics [json] | trace [n] | quit)"
        )),
    }
}

fn write_edges(path: &Path, edges: &[emst::core::Edge]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
    for e in edges {
        writeln!(out, "{},{},{:?}", e.u, e.v, e.weight()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn run_hdbscan<const D: usize>(opts: &HashMap<String, String>) -> Result<(), String> {
    let k_pts: usize = parse_opt(opts, "k", 5)?;
    let min_cluster_size: usize = parse_opt(opts, "min-cluster-size", 5)?;
    let points = load_points::<D>(opts)?;
    let result = Hdbscan { k_pts, min_cluster_size }.fit(&Threads, &points);
    let noise = result.labels.iter().filter(|&&l| l == emst::hdbscan::NOISE).count();
    eprintln!("{} points -> {} clusters, {noise} noise", points.len(), result.num_clusters);
    if let Some(output) = opts.get("output") {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(output).map_err(|e| e.to_string())?);
        for &l in &result.labels {
            writeln!(out, "{l}").map_err(|e| e.to_string())?;
        }
        eprintln!("wrote labels to {output}");
    }
    Ok(())
}
