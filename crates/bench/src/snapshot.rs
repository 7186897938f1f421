//! Machine-readable performance snapshots (`BENCH_*.json`).
//!
//! Wall-clock numbers printed to a terminal rot; committed JSON gives every
//! future PR a trajectory to regress against. This module measures two
//! things and serializes them with a tiny hand-rolled writer (the workspace
//! has no serde):
//!
//! - a **fig1-style summary**: MFeatures/s of the competing EMST
//!   implementations at one fixed size, plus per-phase medians of the
//!   single-tree solve;
//! - the **traversal ablation grid**: stack vs stackless medians of the
//!   `mst.find_edges` phase (and the whole `mst` phase) per
//!   `(generator, n)` cell on the `Threads` backend, with the speedup.
//!
//! - the **serving ablation**: cold (fresh engine: digest + plan + local
//!   solves + merge) vs warm (resident artifacts: digest + merge only)
//!   medians of a full-EMST query against `emst_serve::ServeEngine`, per
//!   `(generator, n, shards)` cell.
//!
//! - the **concurrent serving ablation**: warm full-EMST throughput of
//!   one shared engine under 1/2/4 worker threads (queries run on the
//!   `Serial` backend so the workers themselves are the parallelism),
//!   with every concurrent answer asserted bit-identical to the
//!   single-threaded one. Cells carry `host_cpus` because throughput
//!   scaling is physically bounded by the cores of the measuring host —
//!   on a 1-CPU container `speedup_vs_1 ≈ 1.0` is the *correct* reading,
//!   not a harness failure.
//!
//! - the **observability overhead**: median warm full-EMST query time on
//!   two otherwise-identical resident engines, one with the `emst_obs`
//!   instrumentation enabled (the default) and one with
//!   `ServeConfig::observability = false` (every probe compiled to a
//!   skipped `Option` check). The budget is ≤5% overhead on warm queries;
//!   both engines' answers are asserted bit-identical.
//!
//! - the **fault-tolerance reload ablation**: median reload time of an
//!   evicted cloud on two otherwise-identical engines, one spilling
//!   durable artifacts next to the points (`spill_artifacts = true`, the
//!   default — reload is a checksum-verified read plus a restore that
//!   rebuilds only the per-shard BVHs) and
//!   one spilling points only (`spill_artifacts = false` — reload re-runs
//!   the deterministic plan + local solves). Both answers are asserted
//!   bit-identical to the resident reference, the restoring engine's
//!   reload must report zero build work, and the rebuilding engine's must
//!   not — the harness refuses to report a speedup for a mislabeled path.
//!   No faults are injected (`fault_plan` stays `None`), so this grid
//!   also pins the happy-path cost of the robustness layer.
//!
//! - the **network serving overhead**: median warm full-EMST request
//!   latency through `emst_serve::ServeServer`'s TCP front-end vs the
//!   same request executed by the in-process protocol function
//!   (`emst_serve::net::respond`) on the same engine — the wire reply is
//!   asserted byte-identical to the in-process bytes before any latency
//!   is reported. Each cell also fires a same-key storm of `clients`
//!   identical cold queries and records how many coalesced onto one
//!   in-flight execution (`coalesced`; `0` is an honest reading on a
//!   host too fast or too serial for the storm to overlap).
//!
//! - the **incremental-update ablation**: median 1%-mutation `insert`
//!   against a resident engine (changed points routed to their Morton
//!   shards, dirty shards re-solved, clean shards' harvested facts
//!   reused, exact cross-shard re-merge) vs a cold from-scratch build of
//!   the same mutated cloud on a fresh engine. The incremental answer's
//!   edge-weight multiset is asserted bit-identical to the from-scratch
//!   one before any number is reported, the update must not have fallen
//!   back to a full rebuild, and at least one clean shard must have been
//!   reused — the harness refuses to report a speedup for a mislabeled
//!   path or wrong bits.
//!
//! # JSON schema (`emst-bench-snapshot/1`)
//!
//! ```json
//! {
//!   "schema": "emst-bench-snapshot/1",
//!   "repeats": 3,
//!   "backend": "Threads",
//!   "summary": [
//!     { "configuration": "single-tree (Threads)", "n": 100000, "dim": 3,
//!       "mfeatures_per_s": 1.8,
//!       "phases": { "tree": 0.01, "mst": 0.2, "mst.find_edges": 0.15 } }
//!   ],
//!   "traversal": [
//!     { "generator": "uniform", "n": 100000,
//!       "stack":     { "find_edges_s": 0.21, "mst_s": 0.26, "total_s": 0.30 },
//!       "stackless": { "find_edges_s": 0.16, "mst_s": 0.21, "total_s": 0.25 },
//!       "speedup_find_edges": 1.36 }
//!   ],
//!   "serving": [
//!     { "generator": "uniform", "n": 100000, "shards": 2,
//!       "cold_s": 0.33, "warm_s": 0.06, "speedup_warm": 5.3 }
//!   ],
//!   "serving_concurrent": [
//!     { "generator": "uniform", "n": 100000, "shards": 4, "workers": 2,
//!       "queries": 32, "queries_per_s": 31.0, "speedup_vs_1": 1.9,
//!       "host_cpus": 8 }
//!   ],
//!   "observability": [
//!     { "generator": "uniform", "n": 100000, "shards": 4,
//!       "warm_observed_s": 0.061, "warm_raw_s": 0.060, "overhead_pct": 1.7 }
//!   ],
//!   "fault_tolerance": [
//!     { "generator": "uniform", "n": 100000, "shards": 4,
//!       "restore_reload_s": 0.02, "rebuild_reload_s": 0.31,
//!       "restore_speedup": 15.5 }
//!   ],
//!   "serving_network": [
//!     { "generator": "uniform", "n": 100000, "shards": 4, "clients": 8,
//!       "requests": 32, "warm_net_s": 0.061, "warm_inproc_s": 0.060,
//!       "wire_overhead": 1.02, "coalesced": 7 }
//!   ],
//!   "incremental": [
//!     { "generator": "uniform", "n": 100000, "shards": 16, "mutated": 1000,
//!       "dirty_shards": 1, "update_s": 0.14, "rebuild_s": 0.46,
//!       "speedup_update": 3.3 }
//!   ]
//! }
//! ```
//!
//! Field by field (see also `docs/bench-snapshot.md`):
//!
//! - `schema` — the literal `"emst-bench-snapshot/1"`. Consumers **must
//!   ignore unknown fields** (new sections are additive — `serving` was
//!   added by PR 4 without a version bump); producers bump the suffix only
//!   on breaking changes to *existing* fields.
//! - `repeats` — interleaved repetitions behind every median in the file
//!   (interleaved so machine drift hits every configuration equally).
//! - `backend` — execution space of every measured row (`"Threads"`).
//! - `summary[]` — fig1-style rows: `configuration` (human-readable solver
//!   name), `n` (point count), `dim` (dimensionality), `mfeatures_per_s`
//!   (the paper's rate metric, `n·dim / seconds / 10⁶`), and `phases`
//!   (median seconds per recorded phase name; empty object for solvers
//!   that only report totals).
//! - `traversal[]` — stack-vs-stackless ablation cells: `generator`
//!   (`uniform` | `clustered` | `dense`, see [`TRAVERSAL_GENERATORS`]),
//!   `n`, then per walker (`stack`, `stackless`) the median seconds of the
//!   `mst.find_edges` phase (`find_edges_s`), the whole `mst` phase
//!   (`mst_s`) and construction + solve (`total_s`).
//!   `speedup_find_edges` = `stack.find_edges_s / stackless.find_edges_s`.
//! - `serving[]` — cold-vs-warm serving cells: `generator`, `n`, `shards`
//!   (the cache key's `K`), `cold_s` (median full query on a *fresh*
//!   engine — digest, plan, local solves, shard BVHs, merge), `warm_s`
//!   (median repeat query on the *resident* engine — digest + cross-shard
//!   merge only; the local phase is skipped entirely).
//!   `speedup_warm` = `cold_s / warm_s`.
//! - `serving_concurrent[]` — warm-throughput scaling cells (added by
//!   PR 6, additive): `generator`, `n`, `shards`, `workers` (threads
//!   querying one shared engine), `queries` (total answered),
//!   `queries_per_s` (aggregate throughput), `speedup_vs_1` (throughput
//!   over the same grid's `workers = 1` cell), `host_cpus` (cores of the
//!   measuring host — the upper bound on honest scaling).
//! - `observability[]` — instrumentation overhead cells (added by PR 7,
//!   additive): `generator`, `n`, `shards`, `warm_observed_s` (median
//!   warm query with metrics + traces enabled), `warm_raw_s` (same engine
//!   configuration with `observability = false`), `overhead_pct` =
//!   `(warm_observed_s / warm_raw_s − 1) × 100` — the acceptance budget
//!   is ≤5 on warm queries.
//! - `fault_tolerance[]` — artifact-restore-vs-rebuild reload cells
//!   (added by PR 8, additive): `generator`, `n`, `shards`,
//!   `restore_reload_s` (median reload of an evicted cloud from a spill
//!   carrying durable artifacts — verified read + restore),
//!   `rebuild_reload_s` (same reload with points-only spills —
//!   deterministic plan + local solves re-run), `restore_speedup` =
//!   `rebuild_reload_s / restore_reload_s`.
//! - `serving_network[]` — TCP front-end cells (added by PR 9, additive):
//!   `generator`, `n`, `shards`, `clients` (concurrent connections in the
//!   coalescing storm, also the server's worker count), `requests`
//!   (sequential warm round-trips behind each latency median),
//!   `warm_net_s` (median warm full-EMST request over a real socket),
//!   `warm_inproc_s` (the same request through `respond` directly),
//!   `wire_overhead` = `warm_net_s / warm_inproc_s`, `coalesced`
//!   (same-key storm queries that shared one execution; may honestly be
//!   `0` on a host where the storm never overlapped).
//! - `incremental[]` — incremental-update cells (added by PR 10,
//!   additive): `generator`, `n`, `shards`, `mutated` (points inserted by
//!   the 1% clustered mutation), `dirty_shards` (shards the update
//!   re-solved; the clustered insert keeps this small by design),
//!   `update_s` (median `ServeEngine::insert` — digest + route + dirty
//!   re-solves + exact re-merge), `rebuild_s` (median cold from-scratch
//!   build of the identical mutated cloud on a fresh engine),
//!   `speedup_update` = `rebuild_s / update_s`.
//!
//! All durations are seconds. `null` replaces non-finite numbers.

use std::io::Write as _;
use std::path::Path;

use emst_core::{EmstConfig, SingleTreeBoruvka, Traversal};
use emst_datasets::Kind;
use emst_exec::Threads;
use emst_geometry::Point;

/// The generators of the traversal ablation: uniform, clustered
/// (variable-density), and GeoLife-style dense hot spots.
pub const TRAVERSAL_GENERATORS: [(&str, Kind); 3] =
    [("uniform", Kind::Uniform), ("clustered", Kind::VisualVar), ("dense", Kind::GeoLifeLike)];

/// Median timings of one `(generator, n, traversal)` cell.
#[derive(Clone, Copy, Debug)]
pub struct TraversalTimings {
    /// Median seconds of the `mst.find_edges` phase.
    pub find_edges_s: f64,
    /// Median seconds of the whole `mst` phase.
    pub mst_s: f64,
    /// Median seconds of tree construction + `mst`.
    pub total_s: f64,
}

/// One `(generator, n)` cell of the ablation: both walkers plus the ratio.
#[derive(Clone, Debug)]
pub struct TraversalCell {
    /// Generator name (see [`TRAVERSAL_GENERATORS`]).
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Seed stack walker medians.
    pub stack: TraversalTimings,
    /// Stackless rope walker medians.
    pub stackless: TraversalTimings,
}

impl TraversalCell {
    /// `stack / stackless` on the `mst.find_edges` phase.
    pub fn speedup_find_edges(&self) -> f64 {
        self.stack.find_edges_s / self.stackless.find_edges_s
    }
}

/// One row of the fig1-style summary.
#[derive(Clone, Debug)]
pub struct SummaryRow {
    /// Human-readable configuration name.
    pub configuration: String,
    /// Point count.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// The paper's rate metric.
    pub mfeatures_per_s: f64,
    /// Median seconds per recorded phase (may be empty for non-single-tree
    /// rows, whose solvers report only totals).
    pub phases: Vec<(String, f64)>,
}

/// One `(generator, n, shards)` cell of the serving ablation: median
/// cold-vs-warm full-EMST query times against `emst_serve::ServeEngine`.
#[derive(Clone, Debug)]
pub struct ServingCell {
    /// Generator name (see [`TRAVERSAL_GENERATORS`]).
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Median seconds of a cold query (fresh engine: digest + plan +
    /// local solves + shard BVH builds + merge).
    pub cold_s: f64,
    /// Median seconds of a warm repeat query (resident artifacts: digest
    /// + cross-shard merge only).
    pub warm_s: f64,
}

impl ServingCell {
    /// `cold / warm` — how much the resident cache buys a repeat query.
    pub fn speedup_warm(&self) -> f64 {
        self.cold_s / self.warm_s
    }
}

/// One `(generator, n, shards, workers)` cell of the concurrent serving
/// ablation: aggregate warm-query throughput of one shared engine.
#[derive(Clone, Debug)]
pub struct ServingConcurrentCell {
    /// Generator name.
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Threads querying the shared engine concurrently.
    pub workers: usize,
    /// Total warm queries answered in the timed window.
    pub queries: usize,
    /// Aggregate throughput (queries / wall-clock seconds).
    pub queries_per_s: f64,
    /// Throughput over the same grid's `workers = 1` cell.
    pub speedup_vs_1: f64,
    /// CPU cores of the measuring host — the physical ceiling on
    /// `speedup_vs_1` (on a 1-CPU container ≈1.0 is the expected value).
    pub host_cpus: usize,
}

/// One `(generator, n, shards)` cell of the observability-overhead
/// measurement: median warm full-EMST query with instrumentation on vs
/// off on otherwise-identical resident engines.
#[derive(Clone, Debug)]
pub struct ObservabilityCell {
    /// Generator name.
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Median warm query seconds with metrics, spans and traces enabled
    /// (`ServeConfig::observability = true`, the default).
    pub warm_observed_s: f64,
    /// Median warm query seconds with every probe disabled
    /// (`ServeConfig::observability = false`).
    pub warm_raw_s: f64,
}

impl ObservabilityCell {
    /// Instrumentation overhead in percent: `(observed / raw − 1) × 100`.
    /// The acceptance budget is ≤5 on warm queries.
    pub fn overhead_pct(&self) -> f64 {
        (self.warm_observed_s / self.warm_raw_s - 1.0) * 100.0
    }
}

/// One `(generator, n, shards)` cell of the fault-tolerance reload
/// ablation: median reload of an evicted cloud from an artifact-bearing
/// spill (verified read + restore) vs a points-only spill
/// (deterministic rebuild), on otherwise-identical engines with no
/// faults injected.
#[derive(Clone, Debug)]
pub struct FaultToleranceCell {
    /// Generator name.
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Median reload seconds when the spill carries durable artifacts
    /// (`ServeConfig::spill_artifacts = true`, the default).
    pub restore_reload_s: f64,
    /// Median reload seconds when the spill carries points only and the
    /// engine re-runs plan + local solves (`spill_artifacts = false`).
    pub rebuild_reload_s: f64,
}

impl FaultToleranceCell {
    /// `rebuild / restore` — how much durable artifacts buy a reload.
    pub fn restore_speedup(&self) -> f64 {
        self.rebuild_reload_s / self.restore_reload_s
    }
}

/// One `(generator, n, shards)` cell of the network serving measurement:
/// median warm full-EMST request latency over a real TCP socket vs the
/// same request through the in-process protocol function, plus the
/// coalesced count of a same-key query storm.
#[derive(Clone, Debug)]
pub struct ServingNetworkCell {
    /// Generator name.
    pub generator: String,
    /// Point count.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Concurrent connections in the coalescing storm (also the server's
    /// worker-thread count).
    pub clients: usize,
    /// Sequential warm round-trips behind each latency median.
    pub requests: usize,
    /// Median seconds of a warm full-EMST request over the socket
    /// (write line → read reply, one connection, byte-verified).
    pub warm_net_s: f64,
    /// Median seconds of the identical request through
    /// `emst_serve::net::respond` on the same engine.
    pub warm_inproc_s: f64,
    /// Same-key storm queries that shared one in-flight execution
    /// (`ServeStats::query_coalesced` delta). `0` is an honest reading on
    /// a host where the storm never overlapped.
    pub coalesced: u64,
}

impl ServingNetworkCell {
    /// `net / inproc` — what the socket round-trip costs on top of the
    /// query itself.
    pub fn wire_overhead(&self) -> f64 {
        self.warm_net_s / self.warm_inproc_s
    }
}

/// One `(generator, n, shards)` cell of the incremental-update ablation:
/// median 1%-clustered-insert against a resident engine (dirty shards
/// re-solved, clean shards reused, exact re-merge) vs a cold
/// from-scratch build of the identical mutated cloud on a fresh engine.
#[derive(Clone, Debug)]
pub struct IncrementalCell {
    /// Generator name.
    pub generator: String,
    /// Point count of the parent cloud.
    pub n: usize,
    /// Shard count (the cache key's `K`).
    pub shards: usize,
    /// Points inserted by the mutation (≈1% of `n`, clustered around one
    /// resident member so the Morton router dirties few shards).
    pub mutated: usize,
    /// Shards the update actually re-solved (`UpdateReport` dirty set).
    pub dirty_shards: usize,
    /// Median seconds of the incremental `insert`: child digest + shard
    /// routing + dirty-shard local re-solves + exact cross-shard re-merge.
    pub update_s: f64,
    /// Median seconds of a cold from-scratch build of the same mutated
    /// cloud on a fresh engine (plan + all local solves + merge).
    pub rebuild_s: f64,
}

impl IncrementalCell {
    /// `rebuild / update` — what delta-solving dirty shards buys a
    /// mutation over rebuilding the whole cloud.
    pub fn speedup_update(&self) -> f64 {
        self.rebuild_s / self.update_s
    }
}

/// A complete snapshot, ready to serialize.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Interleaved repetitions behind each median.
    pub repeats: usize,
    /// Fig1-style rows.
    pub summary: Vec<SummaryRow>,
    /// Traversal ablation cells.
    pub traversal: Vec<TraversalCell>,
    /// Serving (cold vs warm) ablation cells.
    pub serving: Vec<ServingCell>,
    /// Concurrent serving (warm throughput vs worker count) cells.
    pub serving_concurrent: Vec<ServingConcurrentCell>,
    /// Observability-overhead cells (instrumentation on vs off).
    pub observability: Vec<ObservabilityCell>,
    /// Fault-tolerance reload cells (artifact restore vs rebuild).
    pub fault_tolerance: Vec<FaultToleranceCell>,
    /// Network serving cells (wire latency vs in-process + coalescing).
    pub serving_network: Vec<ServingNetworkCell>,
    /// Incremental-update cells (1% clustered insert vs cold rebuild).
    pub incremental: Vec<IncrementalCell>,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let m = samples.len();
    if m == 0 {
        return f64::NAN;
    }
    if m % 2 == 1 {
        samples[m / 2]
    } else {
        0.5 * (samples[m / 2 - 1] + samples[m / 2])
    }
}

/// Measures one ablation cell: `repeats` interleaved runs of both walkers
/// on the `Threads` backend, reporting per-phase medians.
pub fn measure_traversal_cell(
    generator: &str,
    kind: Kind,
    n: usize,
    repeats: usize,
) -> TraversalCell {
    let points: Vec<Point<2>> = kind.generate(n, 0x7A3);
    let mut samples: [[Vec<f64>; 3]; 2] = Default::default();
    for _ in 0..repeats {
        for (which, traversal) in [Traversal::Stack, Traversal::Stackless].into_iter().enumerate() {
            let cfg = EmstConfig { traversal, ..Default::default() };
            let r = SingleTreeBoruvka::new(&points).run(&Threads, &cfg);
            samples[which][0].push(r.timings.get("mst.find_edges"));
            samples[which][1].push(r.timings.get("mst"));
            samples[which][2].push(r.timings.get("tree") + r.timings.get("mst"));
        }
    }
    let timings = |s: &mut [Vec<f64>; 3]| TraversalTimings {
        find_edges_s: median(&mut s[0]),
        mst_s: median(&mut s[1]),
        total_s: median(&mut s[2]),
    };
    let [mut stack, mut stackless] = samples;
    TraversalCell {
        generator: generator.to_string(),
        n,
        stack: timings(&mut stack),
        stackless: timings(&mut stackless),
    }
}

/// Measures the full `generators × sizes` ablation grid.
pub fn measure_traversal_grid(sizes: &[usize], repeats: usize) -> Vec<TraversalCell> {
    let mut cells = vec![];
    for (name, kind) in TRAVERSAL_GENERATORS {
        for &n in sizes {
            cells.push(measure_traversal_cell(name, kind, n, repeats));
        }
    }
    cells
}

/// Measures one serving cell: `repeats` interleaved cold (fresh engine)
/// and warm (resident engine) full-EMST queries on the `Threads` backend.
/// Panics if a warm answer is not bit-identical to the cold one — the
/// harness refuses to report a speedup for wrong bits.
pub fn measure_serving_cell(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> ServingCell {
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x5E21);
    let resident = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    resident.ingest(&points);
    let mut cold = vec![];
    let mut warm = vec![];
    for _ in 0..repeats {
        let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
        let t = std::time::Instant::now();
        let c = fresh.emst(&points);
        cold.push(t.elapsed().as_secs_f64());
        assert_eq!(c.outcome, CacheOutcome::Miss);

        let t = std::time::Instant::now();
        let w = resident.emst(&points);
        warm.push(t.elapsed().as_secs_f64());
        assert_eq!(w.outcome, CacheOutcome::Hit);
        assert!(w.build_work.is_zero());
        assert_eq!(w.edges, c.edges, "warm answer must be bit-identical");
    }
    ServingCell {
        generator: generator.to_string(),
        n,
        shards,
        cold_s: median(&mut cold),
        warm_s: median(&mut warm),
    }
}

/// Measures the serving ablation over `sizes` (uniform and dense
/// generators) at one shard count; callers sweep `K` by calling this per
/// count (cells carry their `shards`).
pub fn measure_serving_grid(sizes: &[usize], shards: usize, repeats: usize) -> Vec<ServingCell> {
    let mut cells = vec![];
    for (name, kind) in [("uniform", Kind::Uniform), ("dense", Kind::GeoLifeLike)] {
        for &n in sizes {
            cells.push(measure_serving_cell(name, kind, n, shards, repeats));
        }
    }
    cells
}

/// Measures warm-query throughput of one *shared* engine at each worker
/// count in `workers_list` (the first entry is the scaling baseline;
/// callers pass `[1, 2, 4]`). Queries run on the `Serial` backend so the
/// worker threads are the only parallelism in play, and every answer is
/// asserted bit-identical to the pre-warmed single-threaded reference —
/// the harness refuses to report throughput for wrong bits.
pub fn measure_serving_concurrent(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    workers_list: &[usize],
    queries_per_worker: usize,
) -> Vec<ServingConcurrentCell> {
    use emst_exec::Serial;
    use emst_serve::{ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0xC0C);
    let engine = ServeEngine::<_, 2>::new(Serial, ServeConfig::new(shards, 2));
    // Warm twice: the second query runs against the merged-back
    // accelerator, so the timed loop measures the steady state.
    let reference = engine.emst(&points).edges;
    assert_eq!(engine.emst(&points).edges, reference);
    let host_cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut cells: Vec<ServingConcurrentCell> = vec![];
    let mut base_rate = f64::NAN;
    for &workers in workers_list {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (engine, points, reference) = (&engine, &points, &reference);
                scope.spawn(move || {
                    for _ in 0..queries_per_worker {
                        let warm = engine.emst(points);
                        assert_eq!(
                            &warm.edges, reference,
                            "concurrent warm answer must be bit-identical"
                        );
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let queries = workers * queries_per_worker;
        let rate = queries as f64 / secs;
        if cells.is_empty() {
            base_rate = rate;
        }
        cells.push(ServingConcurrentCell {
            generator: generator.to_string(),
            n,
            shards,
            workers,
            queries,
            queries_per_s: rate,
            speedup_vs_1: rate / base_rate,
            host_cpus,
        });
    }
    cells
}

/// Measures one observability cell: `repeats` interleaved warm full-EMST
/// queries against two resident engines that differ only in
/// `ServeConfig::observability`. The instrumented engine's answers are
/// asserted bit-identical to the raw engine's — probes must not perturb
/// results — and the instrumented engine must actually have recorded
/// metrics (an accidentally-dark engine would report a flattering 0%
/// overhead).
pub fn measure_observability(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> ObservabilityCell {
    use emst_serve::{ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x0B5);
    let observed = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    let raw_config = ServeConfig { observability: false, ..ServeConfig::new(shards, 1) };
    let raw = ServeEngine::<_, 2>::new(Threads, raw_config);
    // Warm both engines twice so the timed loop measures the steady state
    // (second query runs against the merged-back accelerator).
    let reference = raw.emst(&points).edges;
    raw.emst(&points);
    assert_eq!(observed.emst(&points).edges, reference, "instrumentation must not perturb bits");
    observed.emst(&points);
    let mut observed_s = vec![];
    let mut raw_s = vec![];
    for _ in 0..repeats {
        let t = std::time::Instant::now();
        let o = observed.emst(&points);
        observed_s.push(t.elapsed().as_secs_f64());
        assert_eq!(o.edges, reference);

        let t = std::time::Instant::now();
        let r = raw.emst(&points);
        raw_s.push(t.elapsed().as_secs_f64());
        assert_eq!(r.edges, reference);
    }
    assert!(
        observed.metrics_prometheus().contains("emst_serve_op_seconds_count"),
        "instrumented engine recorded no metrics"
    );
    ObservabilityCell {
        generator: generator.to_string(),
        n,
        shards,
        warm_observed_s: median(&mut observed_s),
        warm_raw_s: median(&mut raw_s),
    }
}

/// Measures one fault-tolerance reload cell: `repeats` interleaved
/// evict-then-reload cycles on two engines that differ only in
/// `ServeConfig::spill_artifacts`. Each cycle evicts the measured cloud
/// by querying a decoy through the single residency slot, then times the
/// by-key reload. Panics if any reloaded answer is not bit-identical to
/// the reference, if the restoring engine reports build work (it must
/// restore, not re-solve), or if the rebuilding engine reports none —
/// a mislabeled path would make the speedup meaningless.
pub fn measure_fault_tolerance(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> FaultToleranceCell {
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0xFA17);
    // The decoy only exists to push the measured cloud out of the single
    // residency slot; a smaller cloud keeps eviction churn cheap.
    let decoy: Vec<Point<2>> = kind.generate((n / 4).max(64), 0xDEC0);

    let restoring = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
    let rebuild_cfg = ServeConfig { spill_artifacts: false, ..ServeConfig::new(shards, 1) };
    let rebuilding = ServeEngine::<_, 2>::new(Threads, rebuild_cfg);
    let reference = restoring.emst(&points).edges;
    assert_eq!(rebuilding.emst(&points).edges, reference, "engines must agree before eviction");
    let key_restore = restoring.key(&points);
    let key_rebuild = rebuilding.key(&points);

    let mut restore_s = vec![];
    let mut rebuild_s = vec![];
    for _ in 0..repeats {
        restoring.emst(&decoy); // evict `points` into its artifact spill
        let t = std::time::Instant::now();
        let resp = restoring.emst_by_key(key_restore).expect("fault-free restore reload");
        restore_s.push(t.elapsed().as_secs_f64());
        assert_eq!(resp.outcome, CacheOutcome::Reloaded);
        assert_eq!(resp.edges, reference, "restored answer must be bit-identical");
        assert!(resp.build_work.is_zero(), "artifact restore must not rebuild");

        rebuilding.emst(&decoy); // evict `points` into its points-only spill
        let t = std::time::Instant::now();
        let resp = rebuilding.emst_by_key(key_rebuild).expect("fault-free rebuild reload");
        rebuild_s.push(t.elapsed().as_secs_f64());
        assert_eq!(resp.outcome, CacheOutcome::Reloaded);
        assert_eq!(resp.edges, reference, "rebuilt answer must be bit-identical");
        assert!(!resp.build_work.is_zero(), "a points-only reload must rebuild");
    }
    // The ladder accounting must agree with what was asserted per cycle:
    // only restores on one engine, only rebuilds on the other, and no
    // storage failures anywhere (this grid runs with faults disabled).
    let (rs, bs) = (restoring.stats(), rebuilding.stats());
    assert!(rs.artifact_restores >= repeats as u64 && rs.artifact_rebuilds == 0, "{rs:?}");
    assert!(bs.artifact_rebuilds >= repeats as u64 && bs.artifact_restores == 0, "{bs:?}");
    assert_eq!(rs.checksum_failures + bs.checksum_failures, 0, "no faults were injected");
    assert_eq!(rs.spill_failures + bs.spill_failures, 0, "no faults were injected");

    FaultToleranceCell {
        generator: generator.to_string(),
        n,
        shards,
        restore_reload_s: median(&mut restore_s),
        rebuild_reload_s: median(&mut rebuild_s),
    }
}

/// Measures one network serving cell: warm full-EMST request latency
/// over a real loopback socket vs the identical request through the
/// in-process protocol function on the same engine, then a same-key
/// storm of `clients` identical cold queries to count coalescing.
/// Panics if any wire reply is not byte-identical to the in-process
/// bytes — the harness refuses to report latency for wrong bits.
pub fn measure_serving_network(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    clients: usize,
    requests: usize,
) -> ServingNetworkCell {
    use emst_exec::Serial;
    use emst_serve::net::respond;
    use emst_serve::{NetConfig, NetSession, ServeConfig, ServeEngine, ServeServer};
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::Arc;

    let clients = clients.max(1);
    let points: Arc<Vec<Point<2>>> = Arc::new(kind.generate(n, 0x9E7));
    let engine = Arc::new(ServeEngine::<_, 2>::new(Serial, ServeConfig::new(shards, 2)));
    engine.ingest(&points);
    // Warm twice (steady state) and capture the expected warm wire bytes
    // from the in-process protocol function — the oracle for every
    // socket reply below.
    let mut session = NetSession::new(Arc::clone(&points));
    let _ = respond(engine.as_ref(), &mut session, "emst");
    let expected = respond(engine.as_ref(), &mut session, "emst").text;
    assert!(expected.starts_with("ok emst cache=hit "), "warm-up failed: {expected}");

    let mut inproc = vec![];
    for _ in 0..requests {
        let t = std::time::Instant::now();
        let r = respond(engine.as_ref(), &mut session, "emst");
        inproc.push(t.elapsed().as_secs_f64());
        assert_eq!(r.text, expected);
    }

    let server = ServeServer::bind(
        Arc::clone(&engine),
        Arc::clone(&points),
        "127.0.0.1:0",
        NetConfig { workers: clients, max_pending: 2 * clients },
    )
    .expect("bind an ephemeral loopback port");

    let mut net = vec![];
    {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..requests {
            let t = std::time::Instant::now();
            writer.write_all(b"emst\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            net.push(t.elapsed().as_secs_f64());
            assert_eq!(line, expected, "wire reply must match the in-process bytes");
        }
    }

    // Same-key storm: concurrent identical cold queries; overlapping
    // executions coalesce onto one flight and share its reply.
    let before = engine.stats().query_coalesced;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let addr = server.local_addr();
            scope.spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                c.write_all(b"hdbscan 4 8\nquit\n").unwrap();
                let mut got = String::new();
                c.read_to_string(&mut got).unwrap();
                assert!(got.starts_with("ok hdbscan cache="), "{got}");
            });
        }
    });
    let coalesced = engine.stats().query_coalesced - before;
    server.shutdown();

    ServingNetworkCell {
        generator: generator.to_string(),
        n,
        shards,
        clients,
        requests,
        warm_net_s: median(&mut net),
        warm_inproc_s: median(&mut inproc),
        coalesced,
    }
}

/// Measures one incremental-update cell: `repeats` interleaved runs of a
/// 1%-clustered `insert` against a freshly ingested resident parent (a
/// fresh engine per repeat — the child becomes resident after one
/// update, so re-timing against the same engine would measure a cache
/// hit, not the delta-solve) vs a cold from-scratch build of the same
/// mutated cloud. Panics if the incremental answer's edge-weight
/// multiset is not bit-identical to the from-scratch one, if the update
/// silently fell back to a full rebuild, or if no clean shard was
/// reused — a mislabeled path would make the speedup meaningless.
pub fn measure_incremental(
    generator: &str,
    kind: Kind,
    n: usize,
    shards: usize,
    repeats: usize,
) -> IncrementalCell {
    use emst_core::edge::weight_multiset;
    use emst_serve::{CacheOutcome, ServeConfig, ServeEngine};
    let points: Vec<Point<2>> = kind.generate(n, 0x1CA);
    // ~1% of the cloud, clustered around one resident member so the
    // Morton router dirties as few shards as possible — the locality the
    // incremental path exists to exploit.
    let mutated = (n / 100).max(1);
    let anchor = points[n / 3];
    let added: Vec<Point<2>> = (0..mutated)
        .map(|i| {
            let eps = 1e-4 * (i as f32 + 1.0) / mutated as f32;
            Point::new([anchor[0] + eps, anchor[1] - eps])
        })
        .collect();

    let mut update = vec![];
    let mut rebuild = vec![];
    let mut dirty_shards = shards;
    for _ in 0..repeats {
        let engine = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 2));
        let key = engine.ingest(&points);
        let t = std::time::Instant::now();
        let m = engine.insert(key, &added).expect("incremental insert");
        update.push(t.elapsed().as_secs_f64());
        assert!(!m.full_rebuild, "a clustered 1% insert must not fall back to a full rebuild");
        assert!(m.reused_shards > 0, "the incremental path must reuse clean shards");
        dirty_shards = m.dirty_shards.len();

        let fresh = ServeEngine::<_, 2>::new(Threads, ServeConfig::new(shards, 1));
        let t = std::time::Instant::now();
        let c = fresh.emst(&m.points);
        rebuild.push(t.elapsed().as_secs_f64());
        assert_eq!(c.outcome, CacheOutcome::Miss);
        assert_eq!(
            weight_multiset(&m.update.edges),
            weight_multiset(&c.edges),
            "incremental weight multiset must match the from-scratch build"
        );
    }
    IncrementalCell {
        generator: generator.to_string(),
        n,
        shards,
        mutated,
        dirty_shards,
        update_s: median(&mut update),
        rebuild_s: median(&mut rebuild),
    }
}

/// Measures the fig1-style summary rows at one size: every solver's rate,
/// plus phase medians for the single-tree runs.
pub fn measure_summary(n: usize, repeats: usize) -> Vec<SummaryRow> {
    let cloud = emst_datasets::PaperDataset::Hacc37M.generate(n, 37);
    let features = cloud.features();
    let dim = cloud.dim();
    let mut rows = vec![];

    // Single-tree rows carry per-phase medians.
    for (name, threads) in [("single-tree (Serial)", false), ("single-tree (Threads)", true)] {
        let mut totals = vec![];
        let mut phases: Vec<(String, Vec<f64>)> = vec![];
        for _ in 0..repeats {
            let r = crate::with_cloud(
                &cloud,
                |p| {
                    let solver = SingleTreeBoruvka::new(p);
                    if threads {
                        solver.run(&Threads, &EmstConfig::default())
                    } else {
                        solver.run(&emst_exec::Serial, &EmstConfig::default())
                    }
                },
                |p| {
                    let solver = SingleTreeBoruvka::new(p);
                    if threads {
                        solver.run(&Threads, &EmstConfig::default())
                    } else {
                        solver.run(&emst_exec::Serial, &EmstConfig::default())
                    }
                },
            );
            totals.push(r.timings.get("tree") + r.timings.get("mst"));
            for (phase, secs) in r.timings.iter() {
                match phases.iter_mut().find(|(p, _)| p == phase) {
                    Some((_, v)) => v.push(secs),
                    None => phases.push((phase.to_string(), vec![secs])),
                }
            }
        }
        let total = median(&mut totals);
        let mut phase_medians: Vec<(String, f64)> =
            phases.into_iter().map(|(p, mut v)| (p, median(&mut v))).collect();
        phase_medians.sort_by(|a, b| a.0.cmp(&b.0));
        rows.push(SummaryRow {
            configuration: name.to_string(),
            n,
            dim,
            mfeatures_per_s: crate::mfeatures_per_sec(features, total),
            phases: phase_medians,
        });
    }

    // Competing implementations: totals only.
    for (name, rate) in [
        ("dual-tree (Serial)", crate::dual_tree_rate(&cloud)),
        ("wspd (Serial)", crate::wspd_rate(&cloud, false)),
    ] {
        rows.push(SummaryRow {
            configuration: name.to_string(),
            n,
            dim,
            mfeatures_per_s: rate,
            phases: vec![],
        });
    }
    rows
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Serializes to the documented `emst-bench-snapshot/1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"emst-bench-snapshot/1\",\n");
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str("  \"backend\": \"Threads\",\n");
        out.push_str("  \"summary\": [\n");
        for (i, row) in self.summary.iter().enumerate() {
            let phases = row
                .phases
                .iter()
                .map(|(p, s)| format!("\"{p}\": {}", json_f64(*s)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{ \"configuration\": \"{}\", \"n\": {}, \"dim\": {}, \
                 \"mfeatures_per_s\": {}, \"phases\": {{ {} }} }}{}\n",
                row.configuration,
                row.n,
                row.dim,
                json_f64(row.mfeatures_per_s),
                phases,
                if i + 1 == self.summary.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"traversal\": [\n");
        for (i, cell) in self.traversal.iter().enumerate() {
            let t = |t: &TraversalTimings| {
                format!(
                    "{{ \"find_edges_s\": {}, \"mst_s\": {}, \"total_s\": {} }}",
                    json_f64(t.find_edges_s),
                    json_f64(t.mst_s),
                    json_f64(t.total_s)
                )
            };
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"stack\": {}, \"stackless\": {}, \
                 \"speedup_find_edges\": {} }}{}\n",
                cell.generator,
                cell.n,
                t(&cell.stack),
                t(&cell.stackless),
                json_f64(cell.speedup_find_edges()),
                if i + 1 == self.traversal.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"serving\": [\n");
        for (i, cell) in self.serving.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \"cold_s\": {}, \
                 \"warm_s\": {}, \"speedup_warm\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                json_f64(cell.cold_s),
                json_f64(cell.warm_s),
                json_f64(cell.speedup_warm()),
                if i + 1 == self.serving.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"serving_concurrent\": [\n");
        for (i, cell) in self.serving_concurrent.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \"workers\": {}, \
                 \"queries\": {}, \"queries_per_s\": {}, \"speedup_vs_1\": {}, \
                 \"host_cpus\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                cell.workers,
                cell.queries,
                json_f64(cell.queries_per_s),
                json_f64(cell.speedup_vs_1),
                cell.host_cpus,
                if i + 1 == self.serving_concurrent.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"observability\": [\n");
        for (i, cell) in self.observability.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \
                 \"warm_observed_s\": {}, \"warm_raw_s\": {}, \"overhead_pct\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                json_f64(cell.warm_observed_s),
                json_f64(cell.warm_raw_s),
                json_f64(cell.overhead_pct()),
                if i + 1 == self.observability.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"fault_tolerance\": [\n");
        for (i, cell) in self.fault_tolerance.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \
                 \"restore_reload_s\": {}, \"rebuild_reload_s\": {}, \
                 \"restore_speedup\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                json_f64(cell.restore_reload_s),
                json_f64(cell.rebuild_reload_s),
                json_f64(cell.restore_speedup()),
                if i + 1 == self.fault_tolerance.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"serving_network\": [\n");
        for (i, cell) in self.serving_network.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \"clients\": {}, \
                 \"requests\": {}, \"warm_net_s\": {}, \"warm_inproc_s\": {}, \
                 \"wire_overhead\": {}, \"coalesced\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                cell.clients,
                cell.requests,
                json_f64(cell.warm_net_s),
                json_f64(cell.warm_inproc_s),
                json_f64(cell.wire_overhead()),
                cell.coalesced,
                if i + 1 == self.serving_network.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"incremental\": [\n");
        for (i, cell) in self.incremental.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"generator\": \"{}\", \"n\": {}, \"shards\": {}, \"mutated\": {}, \
                 \"dirty_shards\": {}, \"update_s\": {}, \"rebuild_s\": {}, \
                 \"speedup_update\": {} }}{}\n",
                cell.generator,
                cell.n,
                cell.shards,
                cell.mutated,
                cell.dirty_shards,
                json_f64(cell.update_s),
                json_f64(cell.rebuild_s),
                json_f64(cell.speedup_update()),
                if i + 1 == self.incremental.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn snapshot_serializes_valid_shape() {
        let cell = measure_traversal_cell("uniform", Kind::Uniform, 500, 1);
        let serving = measure_serving_cell("uniform", Kind::Uniform, 600, 3, 1);
        let concurrent = measure_serving_concurrent("uniform", Kind::Uniform, 600, 3, &[1, 2], 2);
        let obs = measure_observability("uniform", Kind::Uniform, 600, 3, 1);
        let ft = measure_fault_tolerance("uniform", Kind::Uniform, 600, 3, 1);
        let net = measure_serving_network("uniform", Kind::Uniform, 600, 3, 2, 2);
        let inc = measure_incremental("uniform", Kind::Uniform, 600, 3, 1);
        let snap = Snapshot {
            repeats: 1,
            summary: measure_summary(400, 1),
            traversal: vec![cell],
            serving: vec![serving],
            serving_concurrent: concurrent,
            observability: vec![obs],
            fault_tolerance: vec![ft],
            serving_network: vec![net],
            incremental: vec![inc],
        };
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"emst-bench-snapshot/1\""));
        assert!(json.contains("\"speedup_find_edges\""));
        assert!(json.contains("\"speedup_warm\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"restore_speedup\""));
        assert!(json.contains("\"wire_overhead\""));
        assert!(json.contains("\"coalesced\""));
        assert!(json.contains("\"speedup_update\""));
        assert!(json.contains("\"dirty_shards\""));
        assert!(json.contains("single-tree (Threads)"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn traversal_cell_speedup_is_finite_and_positive() {
        let cell = measure_traversal_cell("dense", Kind::GeoLifeLike, 800, 1);
        assert!(cell.speedup_find_edges().is_finite());
        assert!(cell.stack.find_edges_s > 0.0);
        assert!(cell.stackless.find_edges_s > 0.0);
    }

    #[test]
    fn serving_cell_measures_both_paths() {
        // Bit-identity of warm answers is asserted inside the harness; at
        // tiny n the speedup itself is noise, so only shape is checked.
        let cell = measure_serving_cell("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.cold_s > 0.0);
        assert!(cell.warm_s > 0.0);
        assert!(cell.speedup_warm().is_finite());
    }

    #[test]
    fn concurrent_serving_cells_share_one_baseline() {
        // Bit-identity is asserted inside the harness; here the shape: the
        // first (workers = 1) cell is its own baseline by construction and
        // every cell answered its full query budget.
        let cells = measure_serving_concurrent("dense", Kind::GeoLifeLike, 600, 3, &[1, 2], 2);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].workers, 1);
        assert_eq!(cells[0].speedup_vs_1, 1.0);
        assert_eq!(cells[1].queries, 4);
        assert!(cells.iter().all(|c| c.queries_per_s > 0.0 && c.host_cpus >= 1));
        assert!(cells[1].speedup_vs_1.is_finite());
    }

    #[test]
    fn fault_tolerance_cell_measures_both_reload_paths() {
        // Bit-identity, restore-reports-zero-build-work and
        // rebuild-reports-nonzero are all asserted inside the harness; at
        // tiny n the speedup itself is noise, so only shape is checked.
        let cell = measure_fault_tolerance("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.restore_reload_s > 0.0);
        assert!(cell.rebuild_reload_s > 0.0);
        assert!(cell.restore_speedup().is_finite());
    }

    #[test]
    fn serving_network_cell_verifies_wire_bytes_and_measures_both_paths() {
        // Byte-identity of every socket reply against the in-process
        // oracle is asserted inside the harness; at tiny n the latency
        // ratio is noise (and `coalesced` may honestly be 0), so only
        // shape is checked here.
        let cell = measure_serving_network("dense", Kind::GeoLifeLike, 600, 3, 2, 3);
        assert!(cell.warm_net_s > 0.0);
        assert!(cell.warm_inproc_s > 0.0);
        assert!(cell.wire_overhead().is_finite());
        assert_eq!((cell.clients, cell.requests), (2, 3));
    }

    #[test]
    fn incremental_cell_measures_both_paths_and_stays_incremental() {
        // Weight-multiset identity with the from-scratch build, the
        // no-full-rebuild and clean-shards-reused invariants are all
        // asserted inside the harness; at tiny n the speedup itself is
        // noise, so only shape is checked here.
        let cell = measure_incremental("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.update_s > 0.0);
        assert!(cell.rebuild_s > 0.0);
        assert!(cell.speedup_update().is_finite());
        assert_eq!(cell.mutated, 7);
        assert!(cell.dirty_shards >= 1 && cell.dirty_shards < 4, "{}", cell.dirty_shards);
    }

    #[test]
    fn observability_cell_measures_both_engines() {
        // Bit-identity between instrumented and raw engines is asserted
        // inside the harness; at tiny n the overhead itself is pure noise,
        // so only shape is checked here.
        let cell = measure_observability("dense", Kind::GeoLifeLike, 700, 4, 2);
        assert!(cell.warm_observed_s > 0.0);
        assert!(cell.warm_raw_s > 0.0);
        assert!(cell.overhead_pct().is_finite());
    }
}
