//! Per-layer replays for traced runs.
//!
//! Each operation of the workload is replayed at every layer boundary in
//! turn — the wire, `net::respond`, `ServeEngine::execute`, then the
//! `emst_shard` / `emst_core` / `emst_bvh` / `emst_datasets` call — with
//! one span per boundary under one request id. Reads are replayed against
//! warm state at every boundary; each mutation runs once per boundary on
//! state that has never seen it (a fresh server, fresh engines, the
//! parent's artifacts), so no boundary gets a cache hit the end-to-end
//! path would not. Layers a workload does not exercise report zero.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use emst::bvh::{Bvh, TraversalStats};
use emst::core::boruvka::run_boruvka_scratch;
use emst::core::{edge::weight_multiset, BoruvkaScratch, EmstConfig};
use emst::exec::{Counters, ExecSpace, PhaseTimings, Serial, Threads};
use emst::geometry::{Euclidean, Point};
use emst::serve::{
    net::respond, CloudRef, NetSession, ServeConfig, ServeEngine, ServeRequest, ServeResponse,
};
use emst::shard::{MergeScratch, ShardArtifacts, ShardConfig, ShardedResult};

use crate::report::{per_layer, Report, VERBS};
use crate::server::{Conn, ServeSpec, Server};
use crate::stats::median;
use crate::trace::{self_times, Recorder};
use crate::workloads::{
    delete_line, insert_line, mutation_fields, Clusters, Ctx, ReadReq, REQUEST_TIMEOUT, TAG_TRACE,
};

/// Times `f` once and returns its value with the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&secs).expect("reps > 0")
}

/// Sum of a library call's own top-level phase records (names without a
/// `.`; the dotted sub-phases are already inside them).
fn reported(t: &PhaseTimings) -> f64 {
    t.iter().filter(|(name, _)| !name.contains('.')).map(|(_, s)| s).sum()
}

/// `datasets.load_csv_s`: median of three reads of the workload's CSV.
fn load_csv_layer(csv: &Path, points: &[Point<3>], r: &mut Report) -> Result<f64, String> {
    let mut secs = Vec::new();
    for _ in 0..3 {
        let (loaded, s) = timed(|| emst::datasets::load_csv::<3>(csv));
        let loaded = loaded.map_err(|e| e.to_string())?;
        if loaded.len() != points.len() {
            return Err(format!("load_csv read {} of {} points", loaded.len(), points.len()));
        }
        secs.push(s);
    }
    let load = median(&secs).expect("three reads");
    r.add("datasets.load_csv_s", load, secs.len());
    Ok(load)
}

/// One Borůvka solve over a prebuilt tree.
struct Solve {
    secs: f64,
    multiset: Vec<u32>,
    work: emst::exec::counters::CounterSnapshot,
    timings: PhaseTimings,
}

fn boruvka<S: ExecSpace>(space: &S, bvh: &Bvh<3>, cfg: &EmstConfig) -> Solve {
    let counters = Counters::new();
    let mut timings = PhaseTimings::new();
    let mut scratch = BoruvkaScratch::new();
    let ((edges, _), secs) = timed(|| {
        run_boruvka_scratch(space, bvh, &Euclidean, cfg, &counters, &mut timings, &mut scratch)
    });
    Solve { secs, multiset: weight_multiset(&edges), work: counters.snapshot(), timings }
}

/// `bvh.*`, `core.*` and `exec.*` on `points`: tree build (Threads, median
/// of three), one Threads solve on the prebuilt tree for times and phase
/// split, one Serial solve for the exact counts and the speed-up base.
/// Returns the seconds the three layers take in a Threads solve.
fn solver_layers(points: &[Point<3>], r: &mut Report) -> Result<f64, String> {
    let cfg = EmstConfig::default();
    let mut bvh = None;
    let build_s = median_secs(3, || {
        bvh = Some(Bvh::build_with_resolution(&Threads, points, cfg.morton_resolution));
    });
    let bvh = bvh.expect("built");
    let threads = boruvka(&Threads, &bvh, &cfg);
    let serial = boruvka(&Serial, &bvh, &cfg);
    if threads.multiset != serial.multiset || threads.multiset.len() + 1 != points.len() {
        return Err("Threads and Serial Borůvka disagree on the tree weights".into());
    }
    let w = &serial.work;
    r.add("bvh.build_s", build_s, 3);
    r.add("core.boruvka_s", threads.secs, 1);
    r.add("core.ns_per_visit", serial.secs * 1e9 / w.node_visits.max(1) as f64, 1);
    r.add("core.mfeatures_per_s", (points.len() * 3) as f64 / (build_s + threads.secs) / 1e6, 1);
    r.add("core.iterations", w.iterations as f64, 1);
    r.add("core.node_visits", w.node_visits as f64, 1);
    r.add("core.distance_computations", w.distance_computations as f64, 1);
    r.add("core.subtrees_skipped", w.subtrees_skipped as f64, 1);
    for phase in ["reduce_labels", "upper_bounds", "find_edges", "select", "merge"] {
        let secs = threads.timings.get(&format!("mst.{phase}"));
        r.add(&format!("core.phase.{phase}_s"), secs, 1);
    }
    r.add("exec.serial_boruvka_s", serial.secs, 1);
    r.add("exec.threads_speedup", serial.secs / threads.secs, 1);
    Ok(build_s + threads.secs)
}

/// Reports zero for every declared per-layer metric of the layers named by
/// `prefixes` (layers the workload does not exercise).
fn zero_layers(r: &mut Report, prefixes: &[&str]) {
    for (name, _) in per_layer() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            r.add(&name, 0.0, 0);
        }
    }
}

/// batch-hacc: the solver layers on the whole cloud; the serving layers
/// are not exercised. `job_s` is the median end-to-end job, the span the
/// solver layers are attributed against.
pub fn batch_layers(
    points: &[Point<3>],
    csv: &Path,
    job_s: f64,
    rec: &mut Recorder,
    r: &mut Report,
) -> Result<(), String> {
    let load = load_csv_layer(csv, points, r)?;
    let solve = solver_layers(points, r)?;
    let req = rec.request();
    let job = rec.record(req, "emst", "emst-cli.job", None, job_s);
    rec.record(req, "emst", "datasets.load_csv", Some(job), load);
    rec.record(req, "emst", "bvh.build+core.boruvka", Some(job), solve);
    let attributed = load + solve;
    for verb in VERBS {
        let (coverage, missing) = if verb == "emst" {
            (attributed / job_s, (job_s - attributed).max(0.0) * 1e3)
        } else {
            (0.0, 0.0)
        };
        r.add(&format!("trace.coverage.{verb}"), coverage, usize::from(verb == "emst"));
        r.add(&format!("trace.unattributed_ms.{verb}"), missing, usize::from(verb == "emst"));
    }
    zero_layers(r, &["shard.", "serve.", "net."]);
    Ok(())
}

/// What a serving workload's traced run replays.
pub struct ServeSweep<'a> {
    pub ctx: &'a Ctx<'a>,
    pub points: &'a Arc<Vec<Point<3>>>,
    pub csv: &'a Path,
    pub shards: usize,
    pub max_resident: usize,
    pub pool: &'a [ReadReq],
    /// Measure the solver layers on the shard the traced insert dirties
    /// (the local re-solve a mutation pays); otherwise report them zero.
    pub solver_on_dirty_shard: bool,
}

/// Span medians of one verb at the four boundaries, seconds.
#[derive(Default)]
struct Chain {
    wire: Vec<f64>,
    respond: Vec<f64>,
    execute: Vec<f64>,
    library: Vec<f64>,
    /// The library call's own reported phase seconds.
    reported: Vec<f64>,
}

impl Chain {
    fn medians(&self) -> [f64; 5] {
        [&self.wire, &self.respond, &self.execute, &self.library, &self.reported]
            .map(|v| median(v).expect("every boundary was replayed"))
    }
}

/// An in-process engine configured like the workload's server, so the
/// traced mutations evict (and spill) exactly where the server's do.
fn engine(shards: usize, max_resident: usize, spill: std::path::PathBuf) -> ServeEngine<Serial, 3> {
    let mut config = ServeConfig::new(shards, max_resident);
    config.spill_dir = Some(spill);
    ServeEngine::new(Serial, config)
}

fn shard_config(shards: usize) -> ShardConfig {
    let serve = ServeConfig::new(shards, 1);
    ShardConfig { shards, emst: serve.emst, parallel_shards: serve.parallel_shards }
}

fn check_ok(reply: &str, verb: &str) -> Result<(), String> {
    if reply.starts_with(&format!("ok {verb}")) {
        Ok(())
    } else {
        Err(format!("traced {verb} replied {reply:?}"))
    }
}

/// The traced mutations: a seeded cluster to insert, and the ids of the
/// base points nearest a seeded centre to delete. Neither appears in the
/// end-to-end phase.
fn traced_mutations(points: &[Point<3>], seed: u64) -> (Vec<Point<3>>, Vec<u32>) {
    let mut clusters = Clusters::new(seed, TAG_TRACE);
    let inserted = clusters.next_batch();
    let centre = clusters.next_batch()[0];
    let mut by_distance: Vec<(f32, u32)> =
        points.iter().enumerate().map(|(i, p)| (p.squared_distance(&centre), i as u32)).collect();
    by_distance.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ids: Vec<u32> = by_distance[..inserted.len()].iter().map(|&(_, i)| i).collect();
    ids.sort_unstable();
    (inserted, ids)
}

/// The shard layer's answer to a mutation: derive the child's artifacts
/// from the parent's, then merge the child cold.
struct Derived {
    update_s: f64,
    merge_cold_s: f64,
    reported: f64,
    dirty: Vec<usize>,
    child: ShardArtifacts<3>,
    child_points: Vec<Point<3>>,
    merged: ShardedResult,
}

fn derive(
    parent: &ShardArtifacts<3>,
    accel: &emst::shard::MergeAccel,
    old: &[Point<3>],
    new: Vec<Point<3>>,
    parent_of: &[u32],
    shards: usize,
) -> Derived {
    let mut scratch = BoruvkaScratch::new();
    let (out, update_s) = timed(|| {
        parent.apply_update(
            &Serial,
            old,
            &new,
            parent_of,
            &shard_config(shards),
            &mut scratch,
            Some(accel),
            None,
        )
    });
    let (child, report) = out.expect("no deadline was set");
    let mut child_accel = child.new_accel();
    let (merged, merge_cold_s) = timed(|| {
        child.merge_accel(
            &Serial,
            EmstConfig::default().traversal,
            &mut MergeScratch::new(),
            &mut child_accel,
        )
    });
    let reported = reported(child.build_timings()) + reported(&merged.stats.timings);
    Derived {
        update_s,
        merge_cold_s,
        reported,
        dirty: report.dirty_shards,
        child,
        child_points: new,
        merged,
    }
}

fn mutated(resp: ServeResponse<3>) -> Result<emst::serve::MutateResponse<3>, String> {
    match resp {
        ServeResponse::Mutated(m) => Ok(m),
        other => Err(format!("mutation answered with {other:?}")),
    }
}

/// serve-read / serve-mutate: every serving layer on the workload's pool
/// plus one traced insert and one traced delete.
pub fn serve_layers(s: &ServeSweep<'_>, rec: &mut Recorder, r: &mut Report) -> Result<(), String> {
    let points = s.points.as_slice();
    let traversal = EmstConfig::default().traversal;
    load_csv_layer(s.csv, points, r)?;

    // Shard layer state: the base artifacts, merged once so the accelerator
    // is as warm as the server's after its first `emst`.
    let (artifacts, build_s) =
        timed(|| ShardArtifacts::build(&Serial, points, &shard_config(s.shards)));
    r.add("shard.build_s", build_s, 1);
    let mut accel = artifacts.new_accel();
    let mut merge_scratch = MergeScratch::new();
    artifacts.merge_accel(&Serial, traversal, &mut merge_scratch, &mut accel);
    let mut boruvka_scratch = BoruvkaScratch::new();

    let exec_engine = engine(s.shards, s.max_resident, s.ctx.dir.join("sweep-execute-spill"));
    let resp_engine = engine(s.shards, s.max_resident, s.ctx.dir.join("sweep-respond-spill"));
    exec_engine
        .execute(ServeRequest::Emst { cloud: CloudRef::Points(points) })
        .map_err(|e| e.to_string())?;
    let mut session = NetSession::new(Arc::clone(s.points));
    respond(&resp_engine, &mut session, "emst");
    let server = Server::start(
        &ServeSpec {
            cli: &s.ctx.args.cli,
            input: s.csv,
            shards: s.shards,
            max_resident: s.max_resident,
            net_workers: s.ctx.nproc,
            spill_dir: s.ctx.dir.join("sweep-spill"),
        },
        REQUEST_TIMEOUT,
    )?;
    let mut conn = Conn::open(server.addr, REQUEST_TIMEOUT)?;

    let mut chains: Vec<(&str, Chain)> = Vec::new();
    let mut last_merge: Option<ShardedResult> = None;
    for (verb, reps) in [("emst", 3), ("subset", 3), ("knn", 15)] {
        let req_of = s.pool.iter().find(|q| q.verb == verb).expect("pool has every read verb");
        let line = req_of.line.as_str();
        let subset: Vec<u32> =
            req_of.subset.map_or(vec![], |(lo, hi)| (lo..hi).collect::<Vec<u32>>());
        let mut chain = Chain::default();
        for _ in 0..reps {
            let id = rec.request();
            let (w, wire) = rec.time(id, verb, "net.wire", None, || conn.request(line));
            let wire = wire?;
            check_ok(&wire, verb)?;
            let (rs, reply) = rec.time(id, verb, "net.respond", Some(w), || {
                respond(&resp_engine, &mut session, line)
            });
            if reply.text.trim_end() != wire {
                return Err(format!("wire {wire:?} differs from respond {:?}", reply.text));
            }
            let request = match verb {
                "emst" => ServeRequest::Emst { cloud: CloudRef::Points(points) },
                "subset" => {
                    ServeRequest::Subset { cloud: CloudRef::Points(points), subset: &subset }
                }
                _ => ServeRequest::KNearest {
                    cloud: CloudRef::Points(points),
                    query: req_of.knn.expect("knn request"),
                    k: 8,
                },
            };
            let (e, answer) =
                rec.time(id, verb, "serve.execute", Some(rs), || exec_engine.execute(request));
            answer.map_err(|e| e.to_string())?;
            let (l, reported) = match verb {
                "emst" => {
                    let (l, m) = rec.time(id, verb, "shard.merge_accel", Some(e), || {
                        artifacts.merge_accel(&Serial, traversal, &mut merge_scratch, &mut accel)
                    });
                    let rep = reported(&m.stats.timings);
                    last_merge = Some(m);
                    (l, rep)
                }
                "subset" => {
                    let (l, m) = rec.time(id, verb, "shard.merge_subset", Some(e), || {
                        artifacts.merge_subset(
                            &Serial,
                            points,
                            &subset,
                            &EmstConfig::default(),
                            &mut boruvka_scratch,
                        )
                    });
                    (l, reported(&m.stats.timings))
                }
                _ => {
                    let q = req_of.knn.expect("knn request");
                    let (l, _) = rec.time(id, verb, "shard.k_nearest", Some(e), || {
                        artifacts.k_nearest(&q, 8, &mut TraversalStats::default())
                    });
                    (l, rec.secs(l))
                }
            };
            chain.wire.push(rec.secs(w));
            chain.respond.push(rec.secs(rs));
            chain.execute.push(rec.secs(e));
            chain.library.push(rec.secs(l));
            chain.reported.push(reported);
        }
        match verb {
            "emst" => r.add("shard.merge_warm_s", median(&chain.library).expect("reps"), reps),
            "subset" => r.add("shard.subset_s", median(&chain.library).expect("reps"), reps),
            _ => r.add("shard.knn_s", median(&chain.library).expect("reps"), reps),
        }
        chains.push((verb, chain));
    }
    let merge = last_merge.expect("emst was replayed");
    r.add("shard.merge_rounds", f64::from(merge.stats.merge_rounds), 1);
    let queries: u64 = merge.stats.round_details.iter().map(|d| d.queries).sum();
    r.add("shard.merge_queries", queries as f64, 1);
    let last_round = merge.stats.round_details.last().map_or(0.0, |d| d.secs);
    r.add("shard.merge_last_round_s", last_round, 1);

    // Mutations, once each, on state that has never seen them.
    let (inserted, deleted) = traced_mutations(points, s.ctx.args.seed);
    let delete_set: std::collections::HashSet<u32> = deleted.iter().copied().collect();
    let mut derived: Vec<Derived> = Vec::new();
    for verb in ["insert", "delete"] {
        let line = if verb == "insert" { insert_line(&inserted) } else { delete_line(&deleted) };
        let id = rec.request();
        let mut fresh = Conn::open(server.addr, REQUEST_TIMEOUT)?;
        let (w, wire) = rec.time(id, verb, "net.wire", None, || fresh.request(&line));
        let wire = wire?;
        check_ok(&wire, verb)?;
        let mut base_session = NetSession::new(Arc::clone(s.points));
        let (rs, reply) = rec.time(id, verb, "net.respond", Some(w), || {
            respond(&resp_engine, &mut base_session, &line)
        });
        if mutation_fields(reply.text.trim_end()) != mutation_fields(&wire) {
            return Err(format!("wire {wire:?} differs from respond {:?}", reply.text));
        }
        let request = if verb == "insert" {
            ServeRequest::Insert { cloud: CloudRef::Points(points), points: &inserted }
        } else {
            ServeRequest::Delete { cloud: CloudRef::Points(points), ids: &deleted }
        };
        let (e, answer) =
            rec.time(id, verb, "serve.execute", Some(rs), || exec_engine.execute(request));
        let answer = mutated(answer.map_err(|e| e.to_string())?)?;
        let (new, parent_of): (Vec<Point<3>>, Vec<u32>) = if verb == "insert" {
            let mut new = points.to_vec();
            new.extend_from_slice(&inserted);
            let mut parent_of: Vec<u32> = (0..points.len() as u32).collect();
            parent_of.resize(new.len(), u32::MAX);
            (new, parent_of)
        } else {
            (0..points.len() as u32)
                .filter(|i| !delete_set.contains(i))
                .map(|i| (points[i as usize], i))
                .unzip()
        };
        let (l, d) = rec.time(id, verb, "shard.apply_update+merge", Some(e), || {
            derive(&artifacts, &accel, points, new, &parent_of, s.shards)
        });
        if weight_multiset(&d.merged.edges) != weight_multiset(&answer.update.edges)
            || d.child_points != answer.points
        {
            return Err(format!("traced {verb}: shard-layer child differs from the engine's"));
        }
        let chain = Chain {
            wire: vec![rec.secs(w)],
            respond: vec![rec.secs(rs)],
            execute: vec![rec.secs(e)],
            library: vec![rec.secs(l)],
            reported: vec![d.reported],
        };
        chains.push((verb, chain));
        derived.push(d);
    }
    r.add("shard.update_s", derived.iter().map(|d| d.update_s).sum(), derived.len());
    r.add("shard.merge_cold_s", derived.iter().map(|d| d.merge_cold_s).sum(), derived.len());
    r.add(
        "shard.update_dirty_shards",
        derived.iter().map(|d| d.dirty.len() as f64).sum(),
        derived.len(),
    );

    let stats = conn.request("stats")?;
    drop(conn);
    drop(server);
    for field in ["hits", "misses", "evictions", "spill_failures", "query_coalesced"] {
        let value = stats
            .split(' ')
            .find_map(|t| t.strip_prefix(&format!("{field}=")))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or(format!("stats reply lacks {field}: {stats:?}"))?;
        r.add(&format!("serve.stats.{field}"), value, 1);
    }

    for (verb, chain) in &chains {
        let [wire, resp, exec, lib, lib_reported] = chain.medians();
        let selfs = self_times(&[wire, resp, exec, lib]);
        let n = chain.wire.len();
        r.add(&format!("net.wire_ms.{verb}"), selfs[0] * 1e3, n);
        r.add(&format!("net.protocol_ms.{verb}"), selfs[1] * 1e3, n);
        r.add(&format!("net.respond_ms.{verb}"), resp * 1e3, n);
        r.add(&format!("serve.execute_ms.{verb}"), exec * 1e3, n);
        r.add(&format!("serve.self_ms.{verb}"), selfs[2] * 1e3, n);
        let attributed = selfs[0] + selfs[1] + selfs[2] + lib_reported;
        r.add(&format!("trace.coverage.{verb}"), attributed / wire, n);
        r.add(&format!("trace.unattributed_ms.{verb}"), (wire - attributed).max(0.0) * 1e3, n);
    }

    if s.solver_on_dirty_shard {
        let insert = &derived[0];
        let shard = *insert.dirty.first().ok_or("traced insert dirtied no shard")?;
        let members: Vec<Point<3>> = insert
            .child
            .plan()
            .shard_indices(shard)
            .iter()
            .map(|&i| insert.child_points[i as usize])
            .collect();
        solver_layers(&members, r)?;
    } else {
        zero_layers(r, &["bvh.", "core.", "exec."]);
    }
    Ok(())
}
