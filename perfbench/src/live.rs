//! `live`: the walk confined to zooms 3–4 over the hotspot area, served
//! by a `LiveTileServer` while a seeded feed writes beside the reads.
//!
//! The feed runs at fixed points of the request sequence, on the same
//! thread: after every request one sealed batch of `BATCH` near-hotspot
//! arrivals is appended, the same number of the oldest points expire
//! once `WINDOW` arrivals are live, and once in each pass, at
//! `COMPACT_AT` of its walk, the stream is compacted. The cache holds the
//! working set, so no current tile is evicted (stale generations are):
//! cached tiles are patched, and after a compaction stale bands
//! recompute cold.

use std::path::{Path, PathBuf};

use kdv_core::{DensityGrid, Point};
use kdv_data::City;
use kdv_serve::{LiveConfig, LiveTileServer, Viewport};

use crate::pan::{self, config, pyramid, warm_levels, SHARDS};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::walk::{walk, WalkSpec};
use crate::{Args, Phase, Workload};

const ZOOMS: std::ops::RangeInclusive<u8> = 3..=4;
/// 256 MiB (the `kdv serve` default) against a working set of about
/// 80 MiB.
const CACHE_BYTES: usize = 256 << 20;
const BATCH: usize = 8;
const WINDOW: usize = 512;
/// The compaction falls after this share of a pass's appends.
const COMPACT_AT: f64 = 0.9;
/// Walk steps per second of `--seconds`, over all passes (sized like
/// `pan`'s).
const STEPS_PER_SECOND: f64 = 24.0;
/// Timed responses of the checked pass compared against the no-patch
/// arm.
const CHECKS: usize = 5;

pub struct Live {
    csv: PathBuf,
    seed: u64,
    steps: usize,
    compact_every: usize,
}

pub struct State {
    server: LiveTileServer,
    points: Vec<Point>,
}

impl Live {
    pub fn new(args: &Args, csv: &Path) -> Self {
        let steps = (args.seconds as f64 * STEPS_PER_SECOND / Self::PASSES as f64).round().max(1.0)
            as usize;
        let compact_every = (steps as f64 * COMPACT_AT).round().max(1.0) as usize;
        Self { csv: csv.to_path_buf(), seed: args.seed, steps, compact_every }
    }
}

/// The hotspots' bounding box (centre ± one sigma), as fractions of the
/// extent.
fn hotspot_area() -> (f64, f64, f64, f64) {
    let config = City::SanFrancisco.synth_config();
    let e = config.extent;
    let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    for h in &config.hotspots {
        x0 = x0.min(h.center.x - h.sigma_x);
        x1 = x1.max(h.center.x + h.sigma_x);
        y0 = y0.min(h.center.y - h.sigma_y);
        y1 = y1.max(h.center.y + h.sigma_y);
    }
    let fx = |x: f64| (x - e.min_x) / e.width();
    let fy = |y: f64| (y - e.min_y) / e.height();
    (fx(x0), fy(y0), fx(x1), fy(y1))
}

/// One batch of arrivals drawn from the city's hotspot mixture.
fn arrivals(rng: &mut Rng) -> Vec<Point> {
    let config = City::SanFrancisco.synth_config();
    let total: f64 = config.hotspots.iter().map(|h| h.weight).sum();
    (0..BATCH)
        .map(|_| {
            let mut pick = rng.unit() * total;
            let h = config
                .hotspots
                .iter()
                .find(|h| {
                    pick -= h.weight;
                    pick < 0.0
                })
                .unwrap_or(&config.hotspots[0]);
            let e = config.extent;
            Point::new(
                (h.center.x + rng.normal() * h.sigma_x).clamp(e.min_x, e.max_x),
                (h.center.y + rng.normal() * h.sigma_y).clamp(e.min_y, e.max_y),
            )
        })
        .collect()
}

fn live_server(points: Vec<Point>, bandwidth: f64, patching: bool, cache: usize) -> LiveTileServer {
    let config = config(&points, bandwidth);
    let live = LiveConfig { patching, compact_every: None };
    LiveTileServer::new(pyramid(), config, live, points, cache, SHARDS)
}

impl Workload for Live {
    type State = State;
    const SETUP_REPS: usize = 5;
    const PASSES: usize = 3;

    fn setup(&self, tr: &Tracer) -> State {
        let loaded = crate::load(&self.csv, tr);
        let points = loaded.points.clone();
        let server = tr.span("serve.live_tile_server_new", || {
            live_server(loaded.points, loaded.bandwidth, true, CACHE_BYTES)
        });
        let threads = crate::threads();
        warm_levels(tr, ZOOMS, |vp| server.serve_viewport(vp, threads).map(|(g, _)| g));
        State { server, points }
    }

    fn phase(&self, state: State, tr: &Tracer, check: bool) -> Phase {
        let State { server, points } = state;
        let threads = crate::threads();
        // The control arm of the checked pass: same feed, no patching, a
        // cache that admits nothing, so every band it serves is swept cold.
        let control = check.then(|| live_server(points, server.config().bandwidth, false, 1));
        let spec = WalkSpec { zooms: ZOOMS, start_zoom: 3, area: hotspot_area() };
        let steps = walk(&spec, server.pyramid(), self.steps);
        let keep = Rng::new(self.seed, crate::STREAM_CHECK).sample_indices(steps.len(), CHECKS);
        let mut feed = Rng::new(self.seed, crate::STREAM_FEED);

        // Untimed: cache every band in the rows the walk reaches, as a
        // server that has been live for a while would have; the timed
        // pass then recomputes cold only after a compaction. One request
        // a pixel wide per zoom computes those bands, in parallel.
        for zoom in ZOOMS {
            let at_zoom = || steps.iter().filter(|vp| vp.zoom == zoom);
            let Some(top) = at_zoom().map(|vp| vp.py).min() else { continue };
            let bottom = at_zoom().map(|vp| vp.py + vp.height).max().unwrap_or(top);
            let py = top / pan::TILE * pan::TILE;
            let vp = Viewport { zoom, px: 0, py, width: 1, height: bottom - py };
            server.serve_viewport(&vp, threads).expect("cache warm-up request");
        }

        let (cache, flight, stats) =
            (server.cache_stats(), server.flight_stats(), server.live_stats());
        let (hits0, misses0, evictions0, patched0) =
            (cache.hits(), cache.misses(), cache.evictions(), cache.patched());
        let (computed0, duplicates0) = (flight.computed(), flight.duplicate_computes());
        let (bands_patched0, bands_recomputed0, folded0) =
            (stats.patched_bands(), stats.recomputed_bands(), stats.folded_batches());
        let mut phase = Phase::default();
        let (mut append_ms, mut expire_ms, mut compact_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut patch_req_ms = Vec::new();
        let mut batches = 0u64;
        for (i, vp) in steps.iter().enumerate() {
            let (result, ms) =
                phase.request(tr, i as u64 + 1, "serve.serve_viewport_tiered", || {
                    server.serve_viewport_tiered(vp, threads)
                });
            match result {
                Ok((grid, report, _tier)) => {
                    phase.pixels += (grid.res_x() * grid.res_y()) as u64;
                    if report.cache_patched > 0 {
                        patch_req_ms.push(ms);
                    }
                    if let Some(control) =
                        control.as_ref().filter(|_| keep.binary_search(&i).is_ok())
                    {
                        phase.failed += u64::from(!matches_control(control, vp, &grid, threads));
                    }
                }
                Err(_) => phase.failed += 1,
            }

            // The feed, after every request; `appends` batches so far.
            let appends = i + 1;
            let batch = arrivals(&mut feed);
            append_ms.push(phase.feed(tr, "stream.append", || {
                server.append(&batch);
            }));
            if let Some(control) = &control {
                control.append(&batch);
            }
            batches += 1;
            if appends * BATCH > WINDOW {
                expire_ms.push(phase.feed(tr, "stream.expire_oldest", || {
                    server.expire_oldest(BATCH);
                }));
                if let Some(control) = &control {
                    control.expire_oldest(BATCH);
                }
                batches += 1;
            }
            if appends.is_multiple_of(self.compact_every) {
                compact_ms.push(phase.feed(tr, "stream.compact", || {
                    server.compact();
                }));
                if let Some(control) = &control {
                    control.compact();
                }
            }
        }

        let patched_bands = stats.patched_bands() - bands_patched0;
        let recomputed_bands = stats.recomputed_bands() - bands_recomputed0;
        phase.repeat = vec![
            ("serve.tiles_hit", cache.hits() - hits0),
            ("serve.tiles_missed", cache.misses() - misses0),
            ("serve.bands_computed", flight.computed() - computed0),
            ("serve.band_recomputes", flight.duplicate_computes() - duplicates0),
            ("live.patched_bands", patched_bands),
            ("live.recomputed_bands", recomputed_bands),
            ("live.folded_batches", stats.folded_batches() - folded0),
            ("cache.patched", cache.patched() - patched0),
            ("stream.batches", batches),
            ("stream.generation", server.generation()),
        ];
        phase.loose = vec![("serve.evictions", cache.evictions() - evictions0)];
        let hits = cache.hits() - hits0;
        let misses = cache.misses() - misses0;
        phase.layers = vec![
            ("serve.hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
            (
                "live.patch_ratio",
                patched_bands as f64 / (patched_bands + recomputed_bands).max(1) as f64,
            ),
            ("live.patch_req_ms", crate::median(&patch_req_ms)),
            ("stream.append_ms_p50", crate::median(&append_ms)),
            ("stream.append_ms_max", crate::max(&append_ms)),
            ("stream.expire_ms_p50", crate::median(&expire_ms)),
            ("stream.expire_ms_max", crate::max(&expire_ms)),
            ("stream.compact_ms_p50", crate::median(&compact_ms)),
            ("stream.compact_ms_max", crate::max(&compact_ms)),
        ];
        phase
    }
}

/// Whether the no-patch arm, at the same generation, serves the same bits.
fn matches_control(
    control: &LiveTileServer,
    vp: &Viewport,
    grid: &DensityGrid,
    threads: usize,
) -> bool {
    control.serve_viewport(vp, threads).is_ok_and(|(g, _)| crate::same_bits(&g, grid))
}
