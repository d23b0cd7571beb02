//! The viewport walk of one exploring user.
//!
//! Every tenth step zooms one level in or out, keeping the centre; the
//! zoom sweeps up and down the allowed range, so every level is
//! revisited at a steady rate and no stretch of the walk stays shallow
//! or deep for long. Every other step pans by up to half a viewport in
//! x and y. The centre stays inside `area`, given as fractions of the
//! level.
//!
//! The walk is the same for every `--seed`. Which bands a walk computes
//! and recomputes sets most of the wall time of `pan` and `live`, and a
//! seeded walk changed that wall time by more than 2× from seed to seed;
//! with the walk fixed, the seed still draws the data set and the live
//! feed, and every seed does the same serving work.

use kdv_serve::{PyramidSpec, Viewport};

use crate::rng::Rng;

pub const WIDTH: usize = 512;
pub const HEIGHT: usize = 384;
const ZOOM_EVERY: usize = 10;
const WALK_SEED: u64 = 0x5eed;

pub struct WalkSpec {
    pub zooms: std::ops::RangeInclusive<u8>,
    pub start_zoom: u8,
    /// `(x0, y0, x1, y1)` as fractions of the level raster.
    pub area: (f64, f64, f64, f64),
}

/// `steps` viewports of the walk.
pub fn walk(spec: &WalkSpec, pyramid: &PyramidSpec, steps: usize) -> Vec<Viewport> {
    let mut rng = Rng::new(WALK_SEED, 0);
    let (x0, y0, x1, y1) = spec.area;
    let (mut cx, mut cy) = (0.5 * (x0 + x1), 0.5 * (y0 + y1));
    let mut zoom = spec.start_zoom;
    let mut deeper = true;
    let mut out = Vec::with_capacity(steps);
    for step in 1..=steps {
        if step % ZOOM_EVERY == 0 {
            if zoom == *spec.zooms.end() {
                deeper = false;
            } else if zoom == *spec.zooms.start() {
                deeper = true;
            }
            zoom = if deeper { zoom + 1 } else { zoom - 1 };
        } else {
            let (rx, ry) = pyramid.level_res(zoom);
            cx = (cx + rng.signed() * 0.5 * WIDTH as f64 / rx as f64).clamp(x0, x1);
            cy = (cy + rng.signed() * 0.5 * HEIGHT as f64 / ry as f64).clamp(y0, y1);
        }
        out.push(viewport_at(pyramid, zoom, cx, cy));
    }
    out
}

/// The `WIDTH × HEIGHT` viewport centred on `(cx, cy)`, shifted to lie
/// inside the level (the server clamps levels smaller than a viewport).
fn viewport_at(pyramid: &PyramidSpec, zoom: u8, cx: f64, cy: f64) -> Viewport {
    let (rx, ry) = pyramid.level_res(zoom);
    let corner = |c: f64, res: usize, len: usize| {
        let max = res.saturating_sub(len) as f64;
        (c * res as f64 - 0.5 * len as f64).clamp(0.0, max).round() as usize
    };
    Viewport {
        zoom,
        px: corner(cx, rx, WIDTH),
        py: corner(cy, ry, HEIGHT),
        width: WIDTH,
        height: HEIGHT,
    }
}
