//! `pan`: one user exploring a static `TileServer` — a 256-px single-tile
//! base with zooms 0–4, the coreset overview tier on zooms 0–1, and a
//! tile cache smaller than the walk's working set, so evictions force
//! band recomputes.

use std::path::{Path, PathBuf};

use kdv_core::{DensityGrid, KernelType, Point};
use kdv_coreset::CoresetMethod;
use kdv_serve::{OverviewConfig, PyramidSpec, ServeConfig, TileServer, Viewport};

use crate::rng::Rng;
use crate::spans::Tracer;
use crate::walk::{walk, WalkSpec};
use crate::{Args, Phase, Workload};

pub const TILE: usize = 256;
pub const MAX_ZOOM: u8 = 4;
/// One shard: with more, a tile's shard follows a hash of its key, which
/// holds the seed's Scott bandwidth, so which tiles were evicted — and
/// how many bands were recomputed — changed from seed to seed.
pub const SHARDS: usize = 1;
/// 64 MiB: smaller than the bands a pass computes, so about half of its
/// band computes are recomputes after eviction.
const CACHE_BYTES: usize = 64 << 20;
const OVERVIEW: OverviewConfig =
    OverviewConfig { max_zoom: 1, method: CoresetMethod::Grid, target_rel_epsilon: 0.01, seed: 0 };
/// Walk steps per second of `--seconds`, over all passes: sized so the
/// passes together last about that long with 2 cores at the commit that
/// added this benchmark.
const STEPS_PER_SECOND: f64 = 45.0;
/// Timed responses of the checked pass compared against a cold,
/// uncached server.
const CHECKS: usize = 6;

pub struct Pan {
    csv: PathBuf,
    seed: u64,
    steps: usize,
}

pub struct State {
    server: TileServer,
    points: Vec<Point>,
}

pub fn pyramid() -> PyramidSpec {
    PyramidSpec::single_tile_base(crate::extent(), TILE, MAX_ZOOM).expect("valid pyramid")
}

pub fn config(points: &[Point], bandwidth: f64) -> ServeConfig {
    ServeConfig {
        dataset: 1,
        kernel: KernelType::Epanechnikov,
        bandwidth,
        weight: 1.0 / points.len() as f64,
    }
}

/// Serves a 1×1 viewport at every zoom in `zooms`, which builds each
/// level's lazy sweep context (and caches the corner band).
pub fn warm_levels(
    tr: &Tracer,
    zooms: std::ops::RangeInclusive<u8>,
    serve: impl Fn(&Viewport) -> kdv_core::Result<DensityGrid>,
) {
    for zoom in zooms {
        let vp = Viewport { zoom, px: 0, py: 0, width: 1, height: 1 };
        tr.span("serve.warm_level", || serve(&vp)).expect("warm-up request");
    }
}

impl Pan {
    pub fn new(args: &Args, csv: &Path) -> Self {
        let steps = (args.seconds as f64 * STEPS_PER_SECOND / Self::PASSES as f64).round().max(1.0)
            as usize;
        Self { csv: csv.to_path_buf(), seed: args.seed, steps }
    }
}

impl Workload for Pan {
    type State = State;
    const SETUP_REPS: usize = 3;
    const PASSES: usize = 3;

    fn setup(&self, tr: &Tracer) -> State {
        let loaded = crate::load(&self.csv, tr);
        let config = config(&loaded.points, loaded.bandwidth);
        let points = loaded.points.clone();
        let server = tr
            .span("serve.with_overview_coreset", || {
                TileServer::with_overview_coreset(
                    pyramid(),
                    config,
                    loaded.points,
                    CACHE_BYTES,
                    SHARDS,
                    OVERVIEW,
                )
            })
            .expect("server construction");
        let threads = crate::threads();
        warm_levels(tr, 0..=MAX_ZOOM, |vp| server.serve_viewport(vp, threads).map(|(g, _)| g));
        State { server, points }
    }

    fn phase(&self, state: State, tr: &Tracer, check: bool) -> Phase {
        let State { server, points } = state;
        let threads = crate::threads();
        let spec = WalkSpec { zooms: 0..=MAX_ZOOM, start_zoom: 2, area: (0.0, 0.0, 1.0, 1.0) };
        let steps = walk(&spec, server.pyramid(), self.steps);
        let keep = Rng::new(self.seed, crate::STREAM_CHECK).sample_indices(steps.len(), CHECKS);

        let (cache, flight) = (server.cache_stats(), server.flight_stats());
        let (hits0, misses0, evictions0) = (cache.hits(), cache.misses(), cache.evictions());
        let (computed0, duplicates0) = (flight.computed(), flight.duplicate_computes());
        let mut phase = Phase::default();
        let (mut hit_ms, mut band_ms, mut overview_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut kept: Vec<(Viewport, DensityGrid)> = Vec::new();
        for (i, vp) in steps.iter().enumerate() {
            let computed_before = flight.computed();
            let (result, ms) =
                phase.request(tr, i as u64 + 1, "serve.serve_viewport_tiered", || {
                    server.serve_viewport_tiered(vp, threads)
                });
            let Ok((grid, report, _tier)) = result else {
                phase.failed += 1;
                continue;
            };
            phase.pixels += (grid.res_x() * grid.res_y()) as u64;
            let bands = flight.computed() - computed_before;
            if report.cache_misses == 0 {
                hit_ms.push(ms);
            } else if bands > 0 {
                band_ms.push(ms / bands as f64);
            }
            if vp.zoom <= OVERVIEW.max_zoom {
                overview_ms.push(ms);
            }
            if check && keep.binary_search(&i).is_ok() {
                kept.push((*vp, grid));
            }
        }
        let hits = cache.hits() - hits0;
        let misses = cache.misses() - misses0;
        eprintln!(
            "pan: {} of {} requests computed bands, {} were at overview zooms",
            band_ms.len(),
            steps.len(),
            overview_ms.len()
        );
        phase.repeat =
            vec![("coreset.points", server.tier_info(0).coreset_size.unwrap_or(0) as u64)];
        // The cache counts follow the eviction order. A request that leads
        // two bands computes them on two workers, and each inserts its
        // tiles when it finishes; when the two finish in the other order,
        // another tile is the least recently used one, so a later request
        // can hit where it missed (or miss where it hit), and recompute a
        // band one time more or less.
        phase.loose = vec![
            ("serve.tiles_hit", hits),
            ("serve.tiles_missed", misses),
            ("serve.bands_computed", flight.computed() - computed0),
            ("serve.band_recomputes", flight.duplicate_computes() - duplicates0),
            ("serve.evictions", cache.evictions() - evictions0),
        ];
        phase.layers = vec![
            ("serve.hit_ratio", hits as f64 / (hits + misses).max(1) as f64),
            ("serve.hit_req_ms", crate::median(&hit_ms)),
            ("serve.band_ms", crate::median(&band_ms)),
            ("serve.overview_req_ms", crate::median(&overview_ms)),
        ];
        let (pyramid, config) = (*server.pyramid(), *server.config());
        drop(server);
        if !check {
            return phase;
        }

        // Output check: a cold server whose cache admits nothing serves
        // the same viewports; every pixel must match bit for bit.
        tr.set_request(0);
        let cold = TileServer::with_overview_coreset(pyramid, config, points, 1, 1, OVERVIEW)
            .expect("reference server");
        for (vp, grid) in &kept {
            let same =
                cold.serve_viewport(vp, threads).is_ok_and(|(g, _)| crate::same_bits(&g, grid));
            phase.failed += u64::from(!same);
        }

        phase
    }
}
