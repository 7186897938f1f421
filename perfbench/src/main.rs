//! The emst workspace benchmark.
//!
//! ```text
//! emst-perfbench --cli <emst-cli> --workload <batch-hacc|serve-read|serve-mutate>
//!                --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! ```
//!
//! Untraced runs (`--trace 0`) drive the real `emst-cli` binary and report
//! the end-to-end metrics; traced runs (`--trace 1`) do the same and then
//! replay the workload's operations at each crate boundary to report the
//! per-layer metrics. Every answer is checked; a wrong answer ends the run
//! with a non-zero exit code and no result line. The last stdout line is
//! the JSON result.

mod layers;
mod loadgen;
mod report;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_string, Metric};

/// Parsed command line.
pub struct Args {
    pub cli: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("{flag} is required"));
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        cli: PathBuf::from(need("--cli")?),
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace,
        work: PathBuf::from(get("--work").unwrap_or(".bench_build/perfbench-work")),
    })
}

/// A deterministic generator (SplitMix64) for every seeded input.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and a per-use `tag`, so inputs
    /// drawn for one purpose never shift when another purpose draws more.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// What a workload hands back: the metrics of its mode plus the
/// operation counts and the workload-specific figures printed for people.
pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific figures with their sample counts (table only).
    pub details: Vec<Metric>,
    /// Constants of the workload (offered rates, pool size, n, K, ...).
    pub constants: Vec<(&'static str, String)>,
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts recorded with every result.
fn provenance(args: &Args, nproc: usize, result: &RunResult) -> String {
    let mut fields = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_string(&cpu_model())),
        ("rustc", json_string(&command_output("rustc", &["-V"]))),
        ("git_rev", json_string(&command_output("git", &["rev-parse", "HEAD"]))),
        ("build_profile", json_string(if cfg!(debug_assertions) { "debug" } else { "release" })),
    ];
    let constants: Vec<String> = result
        .constants
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    fields.push(("constants", format!("{{{}}}", constants.join(", "))));
    let counts = |metrics: &[Metric]| -> String {
        let items: Vec<String> =
            metrics.iter().map(|m| format!("{}: {}", json_string(&m.name), m.samples)).collect();
        format!("{{{}}}", items.join(", "))
    };
    fields.push(("samples", counts(&result.metrics)));
    fields.push(("detail_samples", counts(&result.details)));
    let body: Vec<String> =
        fields.into_iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {:<12} samples={}", m.name, m.value, m.unit, m.samples);
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !args.cli.is_file() {
        return Err(format!("emst-cli binary not found at {}", args.cli.display()));
    }
    let dir = args.work.join(format!("{}-seed{}", args.workload, args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = workloads::Ctx { args, dir: dir.clone(), nproc, started: std::time::Instant::now() };
    let mut rec = trace::Recorder::default();
    let result = match args.workload.as_str() {
        "batch-hacc" => workloads::batch_hacc(&ctx, &mut rec),
        "serve-read" => workloads::serve_read(&ctx, &mut rec),
        "serve-mutate" => workloads::serve_mutate(&ctx, &mut rec),
        other => Err(format!(
            "unknown workload {other:?} (expected batch-hacc, serve-read or serve-mutate)"
        )),
    };
    if args.trace {
        let spans = args.work.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        rec.write_jsonl(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("emst-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            print_table(&format!("{} (seed {})", args.workload, args.seed), &result.details);
            print_table("reported", &result.metrics);
            println!("{}", provenance(&args, nproc, &result));
            println!("{}", report::result_line(result.attempted, result.failed, &result.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("emst-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
