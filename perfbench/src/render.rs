//! `render`: back-to-back full rasters at the paper's setting —
//! 1280×960, Epanechnikov, Scott's-rule bandwidth, SLAM_BUCKET with the
//! resolution-aware optimization, `threads = nproc`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kdv_core::digest::grid_checksum;
use kdv_core::driver::SweepContext;
use kdv_core::parallel::{compute_parallel_rao, compute_parallel_rao_with_report, ParallelEngine};
use kdv_core::{GridSpec, KdvParams, KernelType, Point};

use crate::rng::Rng;
use crate::spans::Tracer;
use crate::{Args, Phase, Workload};

const RES_X: usize = 1280;
const RES_Y: usize = 960;
/// Renders per second of `--seconds`, over all passes: sized so the
/// passes together last about that long with 2 cores at the commit that
/// added this benchmark. The count, not the clock, ends a pass, so every
/// run does the same work.
const RENDERS_PER_SECOND: f64 = 1.5;
/// Renders of the checked pass whose full rasters are kept and compared
/// value by value (every render of that pass is also compared by
/// checksum).
const FULL_CHECKS: usize = 2;

pub struct Render {
    csv: PathBuf,
    seed: u64,
    renders: usize,
}

pub struct State {
    points: Vec<Point>,
    params: KdvParams,
}

impl Render {
    pub fn new(args: &Args, csv: &Path) -> Self {
        let renders = (args.seconds as f64 * RENDERS_PER_SECOND / Self::PASSES as f64)
            .round()
            .max(1.0) as usize;
        Self { csv: csv.to_path_buf(), seed: args.seed, renders }
    }
}

impl Workload for Render {
    type State = State;
    const SETUP_REPS: usize = 15;
    const PASSES: usize = 3;

    fn setup(&self, tr: &Tracer) -> State {
        let loaded = crate::load(&self.csv, tr);
        let grid = GridSpec::new(crate::extent(), RES_X, RES_Y).expect("valid raster");
        let params = KdvParams::new(grid, KernelType::Epanechnikov, loaded.bandwidth)
            .with_weight(1.0 / loaded.points.len() as f64);
        State { points: loaded.points, params }
    }

    fn phase(&self, state: State, tr: &Tracer, check: bool) -> Phase {
        let State { points, params } = state;
        let threads = crate::threads();
        let keep =
            Rng::new(self.seed, crate::STREAM_CHECK).sample_indices(self.renders, FULL_CHECKS);
        let mut phase = Phase::default();
        let (mut fill_ms, mut sweep_ms, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
        let mut checksums = Vec::new();
        let mut kept = Vec::new();
        let mut intervals = 0u64;
        let mut skipped = 0u64;
        for i in 0..self.renders {
            let (result, _) =
                phase.request(tr, i as u64 + 1, "core.compute_parallel_rao_with_report", || {
                    compute_parallel_rao_with_report(
                        &params,
                        &points,
                        ParallelEngine::Bucket,
                        threads,
                    )
                });
            let Ok((grid, report)) = result else {
                phase.failed += 1;
                continue;
            };
            phase.pixels += (grid.res_x() * grid.res_y()) as u64;
            fill_ms.push(report.total_fill_nanos() as f64 / 1e6);
            sweep_ms.push(report.total_sweep_nanos() as f64 / 1e6);
            let busy: Vec<f64> = report
                .fill_nanos
                .iter()
                .zip(&report.sweep_nanos)
                .map(|(f, s)| (f + s) as f64)
                .collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            imbalance.push(crate::max(&busy) / mean.max(1.0));
            intervals = report.total_envelope() as u64;
            skipped = report.rows_skipped as u64;
            if check {
                checksums.push(grid_checksum(&grid));
                if keep.binary_search(&i).is_ok() {
                    kept.push(grid);
                }
            }
        }

        // Output check against the sequential (threads = 1) sweep.
        if check {
            tr.set_request(0);
            let reference = compute_parallel_rao(&params, &points, ParallelEngine::Bucket, 1)
                .expect("reference sweep");
            let want = grid_checksum(&reference);
            let bad_sums = checksums.iter().filter(|&&c| c != want).count();
            let bad_full = kept.iter().filter(|g| !crate::same_bits(g, &reference)).count();
            phase.failed += bad_sums.max(bad_full) as u64;
        }

        let t = Instant::now();
        tr.span("core.sweep_context_new", || SweepContext::new(&params, &points))
            .expect("sweep context");
        let prep_ms = t.elapsed().as_secs_f64() * 1e3;

        let pixels = (RES_X * RES_Y) as f64;
        phase.repeat = vec![("core.intervals", intervals), ("core.rows_skipped", skipped)];
        phase.layers = vec![
            ("core.prep_ms", prep_ms),
            ("core.fill_ms", crate::median(&fill_ms)),
            ("core.sweep_ms", crate::median(&sweep_ms)),
            ("core.intervals_per_px", intervals as f64 / pixels),
            ("core.worker_imbalance", crate::median(&imbalance)),
        ];
        phase
    }
}
