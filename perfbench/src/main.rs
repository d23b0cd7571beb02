//! End-to-end benchmark of the slam-kdv workspace. See `README.md` in
//! this directory for the workloads, the metrics and how to run it.
//!
//! `kdv-perfbench --workload <render|pan|live> --seed N --seconds S
//! --trace <0|1> --workdir DIR` prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed`, `metrics` and `repeat` (the
//! exact-repeat counters `run.py` compares across runs of one seed).

mod live;
mod pan;
mod render;
mod rng;
mod spans;
mod walk;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kdv_core::Point;
use kdv_data::City;

use crate::rng::Rng;
use crate::spans::Tracer;

/// Events in the generated dataset: the San Francisco stand-in at scale
/// 0.1 of the paper's size.
const N_POINTS: usize = 433_310;

/// Input streams drawn from one seed.
pub const STREAM_DATA: u64 = 1;
pub const STREAM_FEED: u64 = 2;
pub const STREAM_CHECK: u64 = 3;

/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not reach that layer).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("data.read_csv_s", "s"),
    ("data.scott_s", "s"),
    ("core.prep_ms", "ms"),
    ("core.fill_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.intervals", "count"),
    ("core.intervals_per_px", "ratio"),
    ("core.worker_imbalance", "ratio"),
    ("serve.tiles_hit", "count"),
    ("serve.tiles_missed", "count"),
    ("serve.hit_ratio", "fraction"),
    ("serve.evictions", "count"),
    ("serve.bands_computed", "count"),
    ("serve.band_recomputes", "count"),
    ("serve.hit_req_ms", "ms"),
    ("serve.band_ms", "ms"),
    ("serve.level_warm_ms", "ms"),
    ("serve.overview_req_ms", "ms"),
    ("coreset.build_s", "s"),
    ("coreset.points", "count"),
    ("stream.append_ms_p50", "ms"),
    ("stream.append_ms_max", "ms"),
    ("stream.expire_ms_p50", "ms"),
    ("stream.expire_ms_max", "ms"),
    ("stream.compact_ms_p50", "ms"),
    ("stream.compact_ms_max", "ms"),
    ("stream.batches", "count"),
    ("stream.generation", "count"),
    ("live.patched_bands", "count"),
    ("live.recomputed_bands", "count"),
    ("live.folded_batches", "count"),
    ("live.patch_ratio", "fraction"),
    ("live.patch_req_ms", "ms"),
    ("cache.patched", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.dropped_events", "count"),
    ("self.request_ms", "ms"),
    ("self.data_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.stream_ms", "ms"),
];

/// Which `self.*` bucket each benchmark span name reports under.
fn self_bucket(span: &str) -> &'static str {
    match span.split('.').next() {
        Some("data") => "self.data_ms",
        Some("core") => "self.core_ms",
        Some("serve") => "self.serve_ms",
        Some("stream") => "self.stream_ms",
        _ => "self.request_ms",
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub workdir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or(format!("unexpected argument '{flag}'"))?;
            let value = it.next().ok_or(format!("missing value for '{flag}'"))?;
            map.insert(key.to_string(), value);
        }
        let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
        let num = |k: &str| get(k)?.parse::<u64>().map_err(|_| format!("bad --{k}"));
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        };
        let seconds = num("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let workload = get("workload")?;
        if !["render", "pan", "live"].contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}' (render, pan, live)"));
        }
        Ok(Self {
            workload,
            seed: num("seed")?,
            seconds,
            trace,
            workdir: PathBuf::from(get("workdir")?),
        })
    }
}

/// The generated dataset, loaded the way a user loads it.
pub struct Loaded {
    pub points: Vec<Point>,
    pub bandwidth: f64,
}

/// CSV read plus Scott's-rule bandwidth: the first step of every
/// workload's set-up.
pub fn load(csv: &Path, tr: &Tracer) -> Loaded {
    let dataset = tr
        .span("data.read_csv_file", || kdv_data::csvio::read_csv_file(csv))
        .expect("the generated CSV reads back");
    let points = dataset.points();
    let bandwidth = tr.span("data.scott_bandwidth", || kdv_data::scott_bandwidth(&points));
    Loaded { points, bandwidth }
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn extent() -> kdv_core::Rect {
    City::SanFrancisco.synth_config().extent
}

/// Bitwise equality of two rasters.
pub fn same_bits(a: &kdv_core::DensityGrid, b: &kdv_core::DensityGrid) -> bool {
    a.res_x() == b.res_x()
        && a.res_y() == b.res_y()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn median(v: &[f64]) -> f64 {
    kdv_obs::stats::median_f64(v).unwrap_or(0.0)
}

pub fn percentile(v: &[f64], q: f64) -> f64 {
    kdv_obs::stats::percentile_f64(v, q).unwrap_or(0.0)
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// What one pass of the timed phase did. `wall_s` is the sum of the
/// timed intervals (requests and feed operations); output checks run
/// between them and are not timed.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    pub pixels: u64,
    /// Each request's latency, in request order.
    pub latencies_ms: Vec<f64>,
    /// Each feed call's time, in call order.
    pub feeds_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Counts that repeat exactly for a given seed.
    pub repeat: Vec<(&'static str, u64)>,
    /// Counts reported as-is (known to vary between runs).
    pub loose: Vec<(&'static str, u64)>,
    /// Per-layer metrics the workload measured itself.
    pub layers: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Runs request `id`: a `bench.request` span around a span named
    /// `call`. Its latency joins the phase's wall and latencies.
    pub fn request<T>(
        &mut self,
        tr: &Tracer,
        id: u64,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        tr.set_request(id);
        let t = Instant::now();
        let out = tr.span("bench.request", || tr.span(call, f));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.wall_s += ms / 1e3;
        self.latencies_ms.push(ms);
        self.attempted += 1;
        (out, ms)
    }

    /// Runs one feed call outside any request; its time joins the
    /// phase's wall. Returns the call's milliseconds.
    pub fn feed(&mut self, tr: &Tracer, call: &'static str, f: impl FnOnce()) -> f64 {
        tr.set_request(0);
        let t = Instant::now();
        tr.span(call, f);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.wall_s += ms / 1e3;
        self.feeds_ms.push(ms);
        ms
    }
}

/// One workload: its set-up (timed as `setup_s`) and its timed phase
/// over the state that set-up returned.
pub trait Workload {
    type State;
    /// Set-ups timed for `setup_s`; the last `PASSES` of them are each
    /// followed by one pass of the timed phase.
    const SETUP_REPS: usize;
    /// Passes of the timed phase, each on a fresh set-up and each doing
    /// the same work.
    const PASSES: usize;
    fn setup(&self, tr: &Tracer) -> Self::State;
    /// One pass; with `check`, it also runs the output checks.
    fn phase(&self, state: Self::State, tr: &Tracer, check: bool) -> Phase;
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    repeat: Vec<(&'static str, u64)>,
}

/// Median over passes of each timed operation (request or feed call) in
/// sequence order. Every pass does the same operations, so a burst of
/// load from other tenants of the host that slows one pass moves none of
/// these medians.
fn per_op_median(passes: &[Phase], ops: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
    let n = passes.iter().map(|p| ops(p).len()).min().unwrap_or(0);
    (0..n).map(|i| median(&passes.iter().map(|p| ops(p)[i]).collect::<Vec<_>>())).collect()
}

/// The untraced run: set up `SETUP_REPS` times (reporting the median),
/// and run a pass of the phase after each of the last `PASSES` set-ups;
/// the output checks run in the last pass. Latencies and the phase wall
/// are taken from the per-operation medians over the passes.
fn run_untraced<W: Workload>(w: &W) -> Outcome {
    assert!((1..=W::SETUP_REPS).contains(&W::PASSES), "every pass needs its own set-up");
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    for rep in 0..W::SETUP_REPS {
        let t = Instant::now();
        let state = w.setup(&off);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + W::PASSES >= W::SETUP_REPS {
            passes.push(w.phase(state, &off, rep + 1 == W::SETUP_REPS));
        }
    }
    let first = &passes[0];
    let same_work = passes.iter().all(|p| {
        p.latencies_ms.len() == first.latencies_ms.len()
            && p.feeds_ms.len() == first.feeds_ms.len()
            && p.pixels == first.pixels
            && p.repeat == first.repeat
    });
    if !same_work {
        let counts: Vec<_> = passes.iter().map(|p| (p.latencies_ms.len(), &p.repeat)).collect();
        eprintln!("work-repeat: the passes of one run did different work: {counts:?}");
    }
    let latencies_ms = per_op_median(&passes, |p| &p.latencies_ms);
    let feeds_ms = per_op_median(&passes, |p| &p.feeds_ms);
    let wall_s = (latencies_ms.iter().sum::<f64>() + feeds_ms.iter().sum::<f64>()) / 1e3;
    let q = |p: f64| percentile(&latencies_ms, p);
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    eprintln!(
        "timed phase: {} passes of {} requests, {:.1} Mpixel each; pass walls s {:?}, \
         per-request median wall {:.3} s; latency ms p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} \
         p95 {:.3} p99 {:.3}; set-up s {:?}",
        passes.len(),
        latencies_ms.len(),
        first.pixels as f64 / 1e6,
        pass_walls,
        wall_s,
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(0.95),
        q(0.99),
        setup_s
    );
    let mpix = first.pixels as f64 / 1e6 / wall_s.max(1e-9);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s), "s"),
        ("mpix_per_s".to_string(), mpix, "Mpixel/s"),
        ("latency_p50_ms".to_string(), median(&latencies_ms), "ms"),
        ("latency_p95_ms".to_string(), percentile(&latencies_ms, 0.95), "ms"),
        (
            "success_ratio".to_string(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
    ];
    Outcome {
        correct: failed == 0 && same_work,
        attempted,
        failed,
        metrics,
        repeat: first.repeat.clone(),
    }
}

/// The traced run: the phase once untraced and once traced, each on a
/// fresh set-up; per-layer metrics come from the traced one, and the
/// ratio of the two walls is `obs.trace_overhead`.
fn run_traced<W: Workload>(w: &W, spans_path: &Path) -> Outcome {
    let plain = w.phase(w.setup(&Tracer::new(false)), &Tracer::new(false), true);
    let tr = Tracer::new(true);
    let state = w.setup(&tr);
    let traced = w.phase(state, &tr, true);
    let mut correct = plain.failed == 0 && traced.failed == 0;
    if plain.repeat != traced.repeat {
        eprintln!(
            "work-repeat: untraced {:?} != traced {:?} within one run",
            plain.repeat, traced.repeat
        );
        correct = false;
    }
    if let Err(e) = tr.write(spans_path) {
        eprintln!("cannot write {}: {e}", spans_path.display());
        correct = false;
    }

    let mut layer: BTreeMap<&str, f64> = LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        assert!(layer.insert(name, value).is_some(), "per-layer metric {name} is not declared");
    };
    set("data.read_csv_s", median(&tr.durations_ms("data.read_csv_file")) / 1e3);
    set("data.scott_s", median(&tr.durations_ms("data.scott_bandwidth")) / 1e3);
    // Server construction is the coreset build; the server itself is lazy.
    set("coreset.build_s", median(&tr.durations_ms("serve.with_overview_coreset")) / 1e3);
    set("serve.level_warm_ms", tr.durations_ms("serve.warm_level").iter().sum());
    for (name, value) in &traced.layers {
        set(name, *value);
    }
    for (name, count) in traced.repeat.iter().chain(&traced.loose) {
        if LAYER_METRICS.iter().any(|(n, _)| n == name) {
            set(name, *count as f64);
        }
    }
    set("obs.trace_overhead", traced.wall_s / plain.wall_s.max(1e-9));
    set("obs.dropped_events", kdv_obs::span::dropped_events() as f64);
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, ms) in tr.self_ms() {
        *self_ms.entry(self_bucket(span)).or_insert(0.0) += ms;
    }
    for (bucket, ms) in self_ms {
        set(bucket, ms);
    }
    let metrics =
        LAYER_METRICS.iter().map(|&(name, unit)| (name.to_string(), layer[name], unit)).collect();
    Outcome {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        repeat: traced.repeat,
    }
}

fn drive<W: Workload>(w: &W, trace: bool, spans_path: &Path) -> Outcome {
    if trace {
        run_traced(w, spans_path)
    } else {
        run_untraced(w)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes the seed's dataset as CSV (untimed: the file on disk is where
/// set-up starts).
fn write_dataset(path: &Path, seed: u64) -> std::io::Result<()> {
    let config = City::SanFrancisco.synth_config();
    let data_seed = Rng::new(seed, STREAM_DATA).next_u64();
    let records = kdv_data::synth::generate(&config, N_POINTS, data_seed);
    kdv_data::csvio::write_csv_file(path, &kdv_data::Dataset::new("sf", records))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("cannot create {}: {e}", args.workdir.display()))?;
    let csv = args.workdir.join(format!("sf-{}-{}.csv", args.workload, args.seed));
    write_dataset(&csv, args.seed).map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let spans = args.workdir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let outcome = match args.workload.as_str() {
        "render" => drive(&render::Render::new(args, &csv), args.trace, &spans),
        "pan" => drive(&pan::Pan::new(args, &csv), args.trace, &spans),
        "live" => drive(&live::Live::new(args, &csv), args.trace, &spans),
        other => unreachable!("workload '{other}' passed argument parsing"),
    };
    std::fs::remove_file(&csv).map_err(|e| format!("cannot remove {}: {e}", csv.display()))?;
    Ok(outcome)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kdv-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kdv-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let repeat: Vec<String> = outcome.repeat.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"repeat\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(","),
        repeat.join(",")
    );
}
