//! The `handopt` baseline: hand-written multigrid modelled on the Ghysels &
//! Vanroose implementation the paper compares against — explicit loop
//! parallelisation (over rows/planes, on a worker pool the solver owns),
//! storage reuse via **two modulo buffers per level**, and pooled
//! allocations (all level buffers allocated once, up front, and reused
//! across cycles).
//!
//! With `time_tiled = true` this becomes the `handopt+pluto` configuration:
//! the pre-/post-smoothing loops are executed through the concurrent-start
//! split/diamond schedule of `gmg-poly` instead of step-by-step sweeps
//! (§4.1: "handopt further optimized by time tiling the smoothing steps").

// Index-based loops and wide row-kernel signatures mirror the hand-written C this baseline ports.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

use crate::config::{CycleType, MgConfig};
use gmg_poly::diamond::split_time_tiling;
use gmg_poly::Interval;
use gmg_runtime::tilebuf::SharedOut;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Per-level working set: the iterate, its modulo partner, and the RHS.
struct Level {
    u: Vec<f64>,
    tmp: Vec<f64>,
    rhs: Vec<f64>,
    n: i64,
    h: f64,
}

/// Hand-optimized multigrid solver (2-D and 3-D).
pub struct HandOpt {
    cfg: MgConfig,
    levels: Vec<Level>,
    /// Split/diamond time tiling of the smoother (`handopt+pluto`).
    time_tiled: bool,
    /// Worker pool every parallel loop runs on.
    pool: ThreadPool,
    /// Outer-dim tile width for time tiling.
    pub dtile_w: i64,
    /// Time-band height for time tiling.
    pub dtile_h: usize,
}

impl HandOpt {
    /// Plain `handopt` on `threads` workers (0 = the host's parallelism).
    pub fn new(cfg: MgConfig, threads: usize) -> Self {
        Self::with_time_tiling(cfg, false, threads)
    }

    /// `handopt+pluto` on `threads` workers (0 = the host's parallelism).
    pub fn new_pluto(cfg: MgConfig, threads: usize) -> Self {
        Self::with_time_tiling(cfg, true, threads)
    }

    fn with_time_tiling(cfg: MgConfig, time_tiled: bool, threads: usize) -> Self {
        // pooled allocation: every level buffer allocated once, here
        let levels = (0..cfg.levels)
            .map(|l| {
                let len = cfg.alloc_len(l);
                Level {
                    u: vec![0.0; len],
                    tmp: vec![0.0; len],
                    rhs: vec![0.0; len],
                    n: cfg.n_at(l),
                    h: cfg.h_at(l),
                }
            })
            .collect();
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("building a thread pool cannot fail");
        HandOpt {
            cfg,
            levels,
            time_tiled,
            pool,
            dtile_w: 64,
            dtile_h: 4,
        }
    }

    /// Variant label matching the paper.
    pub fn label(&self) -> &'static str {
        if self.time_tiled {
            "handopt+pluto"
        } else {
            "handopt"
        }
    }

    /// Run one full cycle: `v ← cycle(v, f)`.
    pub fn cycle(&mut self, v: &mut [f64], f: &[f64]) {
        let finest = (self.cfg.levels - 1) as usize;
        self.levels[finest].u.copy_from_slice(v);
        self.levels[finest].rhs.copy_from_slice(f);
        let shape = self.cfg.cycle;
        self.recurse(finest, shape);
        v.copy_from_slice(&self.levels[finest].u);
    }

    fn recurse(&mut self, level: usize, shape: CycleType) {
        let (pre, coarse, post) = (
            self.cfg.steps.pre,
            self.cfg.steps.coarse,
            self.cfg.steps.post,
        );
        if level == 0 {
            self.smooth(level, coarse);
            return;
        }
        self.smooth(level, pre);
        self.residual_into_tmp(level);
        self.restrict_tmp_to_coarse_rhs(level);
        // zero initial coarse guess
        self.levels[level - 1].u.fill(0.0);
        self.recurse(level - 1, shape);
        if matches!(shape, CycleType::W | CycleType::F) {
            let shape2 = if shape == CycleType::W {
                CycleType::W
            } else {
                CycleType::V
            };
            self.recurse(level - 1, shape2);
        }
        self.correct_from_coarse(level);
        self.smooth(level, post);
    }

    // ---- operators ----------------------------------------------------

    fn smooth(&mut self, level: usize, steps: usize) {
        if steps == 0 {
            return;
        }
        let nd = self.cfg.ndims;
        if self.cfg.smoother == crate::config::SmootherKind::GaussSeidelRB {
            // in-place red/black half-sweeps (neighbours of a point always
            // have the opposite colour for the 5-/7-point operator, so
            // in-place equals the two-stage functional formulation)
            let lv = &mut self.levels[level];
            let h2 = lv.h * lv.h;
            for _ in 0..steps {
                for red in [true, false] {
                    match nd {
                        2 => gsrb_half_2d(&self.pool, &mut lv.u, &lv.rhs, lv.n, h2, red),
                        3 => gsrb_half_3d(&self.pool, &mut lv.u, &lv.rhs, lv.n, h2, red),
                        _ => unreachable!(),
                    }
                }
            }
            return;
        }
        if self.time_tiled {
            self.smooth_split_tiled(level, steps);
            return;
        }
        let omega = self.cfg.omega;
        let lv = &mut self.levels[level];
        let w = omega * lv.h * lv.h / (2.0 * nd as f64);
        let inv_h2 = 1.0 / (lv.h * lv.h);
        for _ in 0..steps {
            match nd {
                2 => jacobi_step_2d(&self.pool, &lv.u, &mut lv.tmp, &lv.rhs, lv.n, w, inv_h2),
                3 => jacobi_step_3d(&self.pool, &lv.u, &mut lv.tmp, &lv.rhs, lv.n, w, inv_h2),
                _ => unreachable!(),
            }
            std::mem::swap(&mut lv.u, &mut lv.tmp);
        }
    }

    /// Time-tiled smoothing with the split/diamond schedule and the two
    /// modulo buffers (the Pluto-style execution of the paper's baseline).
    fn smooth_split_tiled(&mut self, level: usize, steps: usize) {
        let nd = self.cfg.ndims;
        let omega = self.cfg.omega;
        let lv = &mut self.levels[level];
        let n = lv.n;
        let w = omega * lv.h * lv.h / (2.0 * nd as f64);
        let inv_h2 = 1.0 / (lv.h * lv.h);
        let e = (n + 2) as usize;
        let row_block = e.pow(nd as u32 - 1);

        {
            // buffers by parity: step s writes buf[(s+1)%2] reading buf[s%2];
            // i.e. src(s) = parity s, dst(s) = parity s+1 (u starts as src).
            let bufs = [SharedOut::new(&mut lv.u), SharedOut::new(&mut lv.tmp)];
            let rhs: &[f64] = &lv.rhs;
            let schedule = split_time_tiling(n, steps, self.dtile_w, self.dtile_h, 1);
            let dom = Interval::new(1, n);
            for band in &schedule {
                for phase in [&band.phase1, &band.phase2] {
                    self.pool.for_each(phase, |trap| {
                        for s in 0..band.steps {
                            let t = band.t0 + s;
                            let rows = trap.rows_at(s as i64, dom);
                            if rows.is_empty() {
                                continue;
                            }
                            let src = &bufs[t % 2];
                            let dst = &bufs[(t + 1) % 2];
                            // SAFETY: split-tiling row disjointness within a
                            // phase plus the band-height clamp (see
                            // gmg_poly::diamond) keep all concurrent
                            // accesses disjoint.
                            unsafe {
                                let sread = src.read_segment(
                                    (rows.lo - 1) as usize * row_block,
                                    (rows.len() + 2) as usize * row_block,
                                );
                                let dwrite = dst.segment(
                                    rows.lo as usize * row_block,
                                    rows.len() as usize * row_block,
                                );
                                match nd {
                                    2 => jacobi_rows_2d(
                                        sread, dwrite, rhs, n, w, inv_h2, rows.lo, rows.hi,
                                    ),
                                    3 => jacobi_rows_3d(
                                        sread, dwrite, rhs, n, w, inv_h2, rows.lo, rows.hi,
                                    ),
                                    _ => unreachable!(),
                                }
                            }
                        }
                    });
                }
            }
        }
        if steps % 2 == 1 {
            let lv = &mut self.levels[level];
            std::mem::swap(&mut lv.u, &mut lv.tmp);
        }
    }

    fn residual_into_tmp(&mut self, level: usize) {
        let nd = self.cfg.ndims;
        let lv = &mut self.levels[level];
        let inv_h2 = 1.0 / (lv.h * lv.h);
        match nd {
            2 => residual_2d(&self.pool, &lv.u, &lv.rhs, &mut lv.tmp, lv.n, inv_h2),
            3 => residual_3d(&self.pool, &lv.u, &lv.rhs, &mut lv.tmp, lv.n, inv_h2),
            _ => unreachable!(),
        }
    }

    fn restrict_tmp_to_coarse_rhs(&mut self, level: usize) {
        let nd = self.cfg.ndims;
        let (coarse, fine) = {
            let (a, b) = self.levels.split_at_mut(level);
            (&mut a[level - 1], &b[0])
        };
        match nd {
            2 => restrict_2d(&self.pool, &fine.tmp, &mut coarse.rhs, coarse.n),
            3 => restrict_3d(&self.pool, &fine.tmp, &mut coarse.rhs, coarse.n),
            _ => unreachable!(),
        }
    }

    fn correct_from_coarse(&mut self, level: usize) {
        let nd = self.cfg.ndims;
        let (coarse, fine) = {
            let (a, b) = self.levels.split_at_mut(level);
            (&a[level - 1], &mut b[0])
        };
        match nd {
            2 => interp_add_2d(&self.pool, &coarse.u, &mut fine.u, fine.n),
            3 => interp_add_3d(&self.pool, &coarse.u, &mut fine.u, fine.n),
            _ => unreachable!(),
        }
    }
}

// ---- GSRB kernels -------------------------------------------------------

/// One in-place red or black Gauss–Seidel half-sweep (2-D):
/// `u = (Σ neighbours + h²·rhs) / 4` at points with `(y+x) % 2` matching
/// the colour. Parallel over rows (each row only reads neighbouring rows of
/// the other colour, which this half-sweep never writes).
fn gsrb_half_2d(pool: &ThreadPool, u: &mut [f64], rhs: &[f64], n: i64, h2: f64, red: bool) {
    let e = (n + 2) as usize;
    let start_parity = if red { 0usize } else { 1 };
    let un = SharedOut::new(u);
    pool.for_each(1..=n as usize, |y| {
        // SAFETY: rows are written disjointly (one task per row), and reads
        // of rows y±1 touch only the colour this sweep does not write.
        let row = unsafe { un.segment(y * e, e) };
        let above = unsafe { un.read_segment((y - 1) * e, e) };
        let below = unsafe { un.read_segment((y + 1) * e, e) };
        let first = 1 + ((start_parity + y + 1) % 2);
        let mut x = first;
        while x <= n as usize {
            row[x] = (row[x - 1] + row[x + 1] + above[x] + below[x] + h2 * rhs[y * e + x]) / 4.0;
            x += 2;
        }
    });
}

/// One in-place red or black half-sweep (3-D, 7-point).
fn gsrb_half_3d(pool: &ThreadPool, u: &mut [f64], rhs: &[f64], n: i64, h2: f64, red: bool) {
    let e = (n + 2) as usize;
    let pb = e * e;
    let start_parity = if red { 0usize } else { 1 };
    let un = SharedOut::new(u);
    pool.for_each(1..=n as usize, |z| {
        // SAFETY: planes are written disjointly; cross-plane reads touch
        // only the colour this sweep does not write.
        let plane = unsafe { un.segment(z * pb, pb) };
        let zm = unsafe { un.read_segment((z - 1) * pb, pb) };
        let zp = unsafe { un.read_segment((z + 1) * pb, pb) };
        for y in 1..=n as usize {
            let first = 1 + ((start_parity + z + y + 1) % 2);
            let mut x = first;
            while x <= n as usize {
                let s = y * e + x;
                plane[s] = (plane[s - 1]
                    + plane[s + 1]
                    + plane[s - e]
                    + plane[s + e]
                    + zm[s]
                    + zp[s]
                    + h2 * rhs[z * pb + s])
                    / 6.0;
                x += 2;
            }
        }
    });
}

// ---- 2-D kernels --------------------------------------------------------

/// One Jacobi sweep over the whole interior, parallel over rows.
fn jacobi_step_2d(
    pool: &ThreadPool,
    src: &[f64],
    dst: &mut [f64],
    rhs: &[f64],
    n: i64,
    w: f64,
    inv_h2: f64,
) {
    let e = (n + 2) as usize;
    pool.for_each(
        dst[e..(n as usize + 1) * e].chunks_mut(e).enumerate(),
        |(i, drow)| {
            let y = i + 1;
            jacobi_row_2d(src, drow, rhs, e, y, n as usize, w, inv_h2);
        },
    );
}

/// Jacobi over rows `[ylo, yhi]` where `src` starts at row `ylo − 1` and
/// `dst` at row `ylo` (the split-tiled path).
#[allow(clippy::too_many_arguments)]
fn jacobi_rows_2d(
    src: &[f64],
    dst: &mut [f64],
    rhs: &[f64],
    n: i64,
    w: f64,
    inv_h2: f64,
    ylo: i64,
    yhi: i64,
) {
    let e = (n + 2) as usize;
    for y in ylo..=yhi {
        let s = ((y - ylo + 1) * (n + 2)) as usize; // src row offset (src starts at ylo-1)
        let d = ((y - ylo) * (n + 2)) as usize;
        let r = (y * (n + 2)) as usize;
        for x in 1..=n as usize {
            let c = src[s + x];
            let a = (4.0 * c - src[s + x - 1] - src[s + x + 1] - src[s - e + x] - src[s + e + x])
                * inv_h2;
            dst[d + x] = c - w * (a - rhs[r + x]);
        }
    }
}

fn jacobi_row_2d(
    src: &[f64],
    drow: &mut [f64],
    rhs: &[f64],
    e: usize,
    y: usize,
    n: usize,
    w: f64,
    inv_h2: f64,
) {
    let s = y * e;
    for x in 1..=n {
        let c = src[s + x];
        let a =
            (4.0 * c - src[s + x - 1] - src[s + x + 1] - src[s - e + x] - src[s + e + x]) * inv_h2;
        drow[x] = c - w * (a - rhs[s + x]);
    }
}

fn residual_2d(pool: &ThreadPool, u: &[f64], rhs: &[f64], r: &mut [f64], n: i64, inv_h2: f64) {
    let e = (n + 2) as usize;
    pool.for_each(
        r[e..(n as usize + 1) * e].chunks_mut(e).enumerate(),
        |(i, rrow)| {
            let y = i + 1;
            let s = y * e;
            for x in 1..=n as usize {
                let a =
                    (4.0 * u[s + x] - u[s + x - 1] - u[s + x + 1] - u[s - e + x] - u[s + e + x])
                        * inv_h2;
                rrow[x] = rhs[s + x] - a;
            }
        },
    );
}

fn restrict_2d(pool: &ThreadPool, fine: &[f64], coarse: &mut [f64], nc: i64) {
    let ef = (2 * nc + 1 + 2) as usize;
    let ec = (nc + 2) as usize;
    pool.for_each(
        coarse[ec..(nc as usize + 1) * ec]
            .chunks_mut(ec)
            .enumerate(),
        |(i, crow)| {
            let yc = i + 1;
            let yf = 2 * yc;
            for xc in 1..=nc as usize {
                let xf = 2 * xc;
                let at = |dy: isize, dx: isize| {
                    fine[(yf as isize + dy) as usize * ef + (xf as isize + dx) as usize]
                };
                crow[xc] = (at(-1, -1)
                    + at(-1, 1)
                    + at(1, -1)
                    + at(1, 1)
                    + 2.0 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                    + 4.0 * at(0, 0))
                    / 16.0;
            }
        },
    );
}

fn interp_add_2d(pool: &ThreadPool, coarse: &[f64], fine: &mut [f64], nf: i64) {
    let ef = (nf + 2) as usize;
    let ec = ((nf + 1) / 2 + 1) as usize;
    pool.for_each(
        fine[ef..(nf as usize + 1) * ef].chunks_mut(ef).enumerate(),
        |(i, frow)| {
            let y = i + 1;
            for x in 1..=nf as usize {
                let v = if y.is_multiple_of(2) {
                    if x % 2 == 0 {
                        coarse[(y / 2) * ec + x / 2]
                    } else {
                        0.5 * (coarse[(y / 2) * ec + (x - 1) / 2]
                            + coarse[(y / 2) * ec + x.div_ceil(2)])
                    }
                } else if x % 2 == 0 {
                    0.5 * (coarse[((y - 1) / 2) * ec + x / 2] + coarse[y.div_ceil(2) * ec + x / 2])
                } else {
                    0.25 * (coarse[((y - 1) / 2) * ec + (x - 1) / 2]
                        + coarse[((y - 1) / 2) * ec + x.div_ceil(2)]
                        + coarse[y.div_ceil(2) * ec + (x - 1) / 2]
                        + coarse[y.div_ceil(2) * ec + x.div_ceil(2)])
                };
                frow[x] += v;
            }
        },
    );
}

// ---- 3-D kernels --------------------------------------------------------

fn jacobi_step_3d(
    pool: &ThreadPool,
    src: &[f64],
    dst: &mut [f64],
    rhs: &[f64],
    n: i64,
    w: f64,
    inv_h2: f64,
) {
    let e = (n + 2) as usize;
    let pb = e * e;
    pool.for_each(
        dst[pb..(n as usize + 1) * pb].chunks_mut(pb).enumerate(),
        |(i, dplane)| {
            let z = i + 1;
            for y in 1..=n as usize {
                let s = z * pb + y * e;
                for x in 1..=n as usize {
                    let c = src[s + x];
                    let a = (6.0 * c
                        - src[s + x - 1]
                        - src[s + x + 1]
                        - src[s - e + x]
                        - src[s + e + x]
                        - src[s - pb + x]
                        - src[s + pb + x])
                        * inv_h2;
                    dplane[y * e + x] = c - w * (a - rhs[s + x]);
                }
            }
        },
    );
}

#[allow(clippy::too_many_arguments)]
fn jacobi_rows_3d(
    src: &[f64],
    dst: &mut [f64],
    rhs: &[f64],
    n: i64,
    w: f64,
    inv_h2: f64,
    zlo: i64,
    zhi: i64,
) {
    let e = (n + 2) as usize;
    let pb = e * e;
    for z in zlo..=zhi {
        let sp = ((z - zlo + 1) as usize) * pb; // src starts at zlo-1
        let dp = ((z - zlo) as usize) * pb;
        let rp = z as usize * pb;
        for y in 1..=n as usize {
            let s = sp + y * e;
            for x in 1..=n as usize {
                let c = src[s + x];
                let a = (6.0 * c
                    - src[s + x - 1]
                    - src[s + x + 1]
                    - src[s - e + x]
                    - src[s + e + x]
                    - src[s - pb + x]
                    - src[s + pb + x])
                    * inv_h2;
                dst[dp + y * e + x] = c - w * (a - rhs[rp + y * e + x]);
            }
        }
    }
}

fn residual_3d(pool: &ThreadPool, u: &[f64], rhs: &[f64], r: &mut [f64], n: i64, inv_h2: f64) {
    let e = (n + 2) as usize;
    let pb = e * e;
    pool.for_each(
        r[pb..(n as usize + 1) * pb].chunks_mut(pb).enumerate(),
        |(i, rplane)| {
            let z = i + 1;
            for y in 1..=n as usize {
                let s = z * pb + y * e;
                for x in 1..=n as usize {
                    let a = (6.0 * u[s + x]
                        - u[s + x - 1]
                        - u[s + x + 1]
                        - u[s - e + x]
                        - u[s + e + x]
                        - u[s - pb + x]
                        - u[s + pb + x])
                        * inv_h2;
                    rplane[y * e + x] = rhs[s + x] - a;
                }
            }
        },
    );
}

fn restrict_3d(pool: &ThreadPool, fine: &[f64], coarse: &mut [f64], nc: i64) {
    let ef = (2 * nc + 1 + 2) as usize;
    let pf = ef * ef;
    let ec = (nc + 2) as usize;
    let pc = ec * ec;
    pool.for_each(
        coarse[pc..(nc as usize + 1) * pc]
            .chunks_mut(pc)
            .enumerate(),
        |(i, cplane)| {
            let zc = i + 1;
            let zf = 2 * zc;
            for yc in 1..=nc as usize {
                let yf = 2 * yc;
                for xc in 1..=nc as usize {
                    let xf = 2 * xc;
                    let mut acc = 0.0;
                    for dz in -1i32..=1 {
                        for dy in -1i32..=1 {
                            for dx in -1i32..=1 {
                                let wgt = (2 - dz.abs()) * (2 - dy.abs()) * (2 - dx.abs());
                                acc += wgt as f64
                                    * fine[(zf as i32 + dz) as usize * pf
                                        + (yf as i32 + dy) as usize * ef
                                        + (xf as i32 + dx) as usize];
                            }
                        }
                    }
                    cplane[yc * ec + xc] = acc / 64.0;
                }
            }
        },
    );
}

fn interp_add_3d(pool: &ThreadPool, coarse: &[f64], fine: &mut [f64], nf: i64) {
    let ef = (nf + 2) as usize;
    let pf = ef * ef;
    let ec = ((nf + 1) / 2 + 1) as usize;
    let pc = ec * ec;
    let cread = |z: usize, y: usize, x: usize| coarse[z * pc + y * ec + x];
    pool.for_each(
        fine[pf..(nf as usize + 1) * pf].chunks_mut(pf).enumerate(),
        |(i, fplane)| {
            let z = i + 1;
            let zs: &[usize] = &if z % 2 == 0 {
                vec![z / 2]
            } else {
                vec![(z - 1) / 2, z.div_ceil(2)]
            };
            for y in 1..=nf as usize {
                let ys: Vec<usize> = if y % 2 == 0 {
                    vec![y / 2]
                } else {
                    vec![(y - 1) / 2, y.div_ceil(2)]
                };
                for x in 1..=nf as usize {
                    let xs: Vec<usize> = if x % 2 == 0 {
                        vec![x / 2]
                    } else {
                        vec![(x - 1) / 2, x.div_ceil(2)]
                    };
                    let mut acc = 0.0;
                    for &zc in zs {
                        for &yc in &ys {
                            for &xc in &xs {
                                acc += cread(zc, yc, xc);
                            }
                        }
                    }
                    fplane[y * ef + x] += acc / (zs.len() * ys.len() * xs.len()) as f64;
                }
            }
        },
    );
}

/// A pool as wide as the host, for tests that call the kernels directly.
#[cfg(test)]
fn host_pool() -> ThreadPool {
    ThreadPoolBuilder::new().build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmoothSteps;

    /// `handopt` and `handopt+pluto` are thread-count twins: every parallel
    /// loop writes disjoint rows or planes, so the pool's width moves work
    /// between workers and changes no bit. A 1-wide solver spawns no worker.
    #[test]
    fn iterates_are_bitwise_equal_at_one_and_two_threads() {
        for nd in [2, 3] {
            let cfg = MgConfig::new(nd, 31, CycleType::V, SmoothSteps::s444());
            let (v0, f, _) = crate::solver::setup_poisson(&cfg);
            let ctors: [fn(MgConfig, usize) -> HandOpt; 2] = [HandOpt::new, HandOpt::new_pluto];
            for ctor in ctors {
                let run = |threads| {
                    let mut h = ctor(cfg.clone(), threads);
                    // narrow tiles, so a phase has trapezoids to share out
                    (h.dtile_w, h.dtile_h) = (8, 2);
                    let mut v = v0.clone();
                    for _ in 0..2 {
                        h.cycle(&mut v, &f);
                    }
                    (v, h.pool.counters().workers_spawned, h.label())
                };
                let ((one, spawned1, name), (two, spawned2, _)) = (run(1), run(2));
                let label = format!("{name} {nd}-D");
                assert_eq!((spawned1, spawned2), (0, 1), "{label}: workers spawned");
                assert!(
                    one.iter()
                        .zip(&two)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{label}: iterates differ between 1 and 2 threads"
                );
            }
        }
    }

    #[test]
    fn jacobi_2d_fixed_point_on_solution() {
        // if A u = f exactly, one Jacobi step leaves u unchanged
        let n = 7i64;
        let e = (n + 2) as usize;
        let h = 1.0 / (n + 1) as f64;
        // u = x(1-x)y(1-y)-like discrete: easier — pick u random, compute
        // f = A u, then step must be identity.
        let mut u = vec![0.0; e * e];
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                u[y * e + x] = ((y * 31 + x * 17) % 11) as f64;
            }
        }
        let inv_h2 = 1.0 / (h * h);
        let mut f = vec![0.0; e * e];
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                let s = y * e + x;
                f[s] = (4.0 * u[s] - u[s - 1] - u[s + 1] - u[s - e] - u[s + e]) * inv_h2;
            }
        }
        let mut dst = vec![0.0; e * e];
        jacobi_step_2d(&host_pool(), &u, &mut dst, &f, n, 0.8 * h * h / 4.0, inv_h2);
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                assert!((dst[y * e + x] - u[y * e + x]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn restrict_2d_constant_preserved() {
        let nc = 3i64;
        let nf = 7i64;
        let ef = (nf + 2) as usize;
        let ec = (nc + 2) as usize;
        let mut fine = vec![0.0; ef * ef];
        for y in 1..=nf as usize {
            for x in 1..=nf as usize {
                fine[y * ef + x] = 5.0;
            }
        }
        let mut coarse = vec![0.0; ec * ec];
        restrict_2d(&host_pool(), &fine, &mut coarse, nc);
        // centre coarse point sees only interior fine points → exactly 5
        assert!((coarse[2 * ec + 2] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn interp_add_2d_linear_exact() {
        let nf = 7i64;
        let nc = 3i64;
        let ef = (nf + 2) as usize;
        let ec = (nc + 2) as usize;
        let mut coarse = vec![0.0; ec * ec];
        for y in 0..ec {
            for x in 0..ec {
                coarse[y * ec + x] = (2 * y + x) as f64;
            }
        }
        let mut fine = vec![0.0; ef * ef];
        interp_add_2d(&host_pool(), &coarse, &mut fine, nf);
        // fine (y,x) ↔ coarse (y/2, x/2): value = 2·y/2 + x/2
        for y in 1..=nf as usize {
            for x in 1..=nf as usize {
                let want = y as f64 + x as f64 / 2.0;
                assert!(
                    (fine[y * ef + x] - want).abs() < 1e-12,
                    "({y},{x}): {} vs {want}",
                    fine[y * ef + x]
                );
            }
        }
    }

    #[test]
    fn split_tiled_smoother_matches_plain_2d() {
        let cfg = MgConfig::new(2, 63, CycleType::V, SmoothSteps::s444());
        let mut plain = HandOpt::new(cfg.clone(), 0);
        let mut tiled = HandOpt::new_pluto(cfg.clone(), 0);
        tiled.dtile_w = 16;
        tiled.dtile_h = 3;
        let l = (cfg.levels - 1) as usize;
        let len = cfg.alloc_len(cfg.levels - 1);
        for i in 0..len {
            let v = ((i * 29) % 13) as f64 - 6.0;
            plain.levels[l].u[i] = v;
            tiled.levels[l].u[i] = v;
            plain.levels[l].rhs[i] = ((i * 7) % 5) as f64;
            tiled.levels[l].rhs[i] = plain.levels[l].rhs[i];
        }
        // zero ghosts
        let e = (cfg.n_at(cfg.levels - 1) + 2) as usize;
        for k in 0..e {
            for (a, b) in [(0, k), (e - 1, k), (k, 0), (k, e - 1)] {
                plain.levels[l].u[a * e + b] = 0.0;
                tiled.levels[l].u[a * e + b] = 0.0;
            }
        }
        plain.smooth(l, 7);
        tiled.smooth(l, 7);
        for i in 0..len {
            assert!(
                (plain.levels[l].u[i] - tiled.levels[l].u[i]).abs() < 1e-12,
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn split_tiled_smoother_matches_plain_3d() {
        let cfg = MgConfig::new(3, 31, CycleType::V, SmoothSteps::s444());
        let mut plain = HandOpt::new(cfg.clone(), 0);
        let mut tiled = HandOpt::new_pluto(cfg.clone(), 0);
        tiled.dtile_w = 8;
        tiled.dtile_h = 2;
        let l = (cfg.levels - 1) as usize;
        let n = cfg.n_at(cfg.levels - 1);
        let e = (n + 2) as usize;
        for z in 1..=n as usize {
            for y in 1..=n as usize {
                for x in 1..=n as usize {
                    let i = (z * e + y) * e + x;
                    plain.levels[l].u[i] = ((i * 29) % 13) as f64 - 6.0;
                    tiled.levels[l].u[i] = plain.levels[l].u[i];
                    plain.levels[l].rhs[i] = ((i * 7) % 5) as f64;
                    tiled.levels[l].rhs[i] = plain.levels[l].rhs[i];
                }
            }
        }
        plain.smooth(l, 5);
        tiled.smooth(l, 5);
        for i in 0..cfg.alloc_len(cfg.levels - 1) {
            assert!(
                (plain.levels[l].u[i] - tiled.levels[l].u[i]).abs() < 1e-12,
                "mismatch at {i}"
            );
        }
    }
}

#[cfg(test)]
mod gsrb_tests {
    use super::*;
    use crate::config::{CycleType, MgConfig, SmoothSteps};

    #[test]
    fn gsrb_half_updates_only_one_colour_2d() {
        let n = 5i64;
        let e = (n + 2) as usize;
        // non-harmonic field so every update changes the value
        let mut u: Vec<f64> = (0..e * e).map(|i| ((i * 37) % 11) as f64).collect();
        let rhs = vec![0.0; e * e];
        // zero the ghost ring
        for k in 0..e {
            for (a, b) in [(0, k), (e - 1, k), (k, 0), (k, e - 1)] {
                u[a * e + b] = 0.0;
            }
        }
        let before = u.clone();
        gsrb_half_2d(&host_pool(), &mut u, &rhs, n, 1.0, true);
        for y in 1..=n as usize {
            for x in 1..=n as usize {
                let i = y * e + x;
                if (y + x) % 2 == 0 {
                    assert_ne!(u[i], before[i], "red ({y},{x}) not updated");
                } else {
                    assert_eq!(u[i], before[i], "black ({y},{x}) modified");
                }
            }
        }
    }

    #[test]
    fn gsrb_half_updates_only_one_colour_3d() {
        let n = 3i64;
        let e = (n + 2) as usize;
        let mut u = vec![0.0; e * e * e];
        for z in 1..=n as usize {
            for y in 1..=n as usize {
                for x in 1..=n as usize {
                    let i = (z * e + y) * e + x;
                    u[i] = ((i * 53) % 13) as f64 + 1.0;
                }
            }
        }
        let rhs = vec![0.0; e * e * e];
        let before = u.clone();
        gsrb_half_3d(&host_pool(), &mut u, &rhs, n, 1.0, false); // black sweep
        for z in 1..=n as usize {
            for y in 1..=n as usize {
                for x in 1..=n as usize {
                    let i = (z * e + y) * e + x;
                    if (z + y + x) % 2 == 1 {
                        assert_ne!(u[i], before[i], "black ({z},{y},{x}) not updated");
                    } else {
                        assert_eq!(u[i], before[i], "red ({z},{y},{x}) modified");
                    }
                }
            }
        }
    }

    #[test]
    fn gsrb_converges_faster_than_jacobi() {
        let base = MgConfig::new(
            2,
            63,
            CycleType::V,
            SmoothSteps {
                pre: 2,
                coarse: 40,
                post: 2,
            },
        );
        let run = |cfg: MgConfig| {
            let mut h = HandOpt::new(cfg.clone(), 0);
            let (mut v, f, _) = crate::solver::setup_poisson(&cfg);
            crate::solver::run_cycles(&mut h, &cfg, &mut v, &f, 4).conv_factor()
        };
        let jac = run(base.clone());
        let gs = run(base.with_gsrb());
        assert!(
            gs < jac,
            "GSRB ({gs}) should smooth better than Jacobi ({jac})"
        );
    }
}
