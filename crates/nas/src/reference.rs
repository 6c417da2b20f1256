//! Direct Rust port of the NPB MG reference kernels (`resid`, `psinv`,
//! `rprj3`, `interp`) and the `mg3P` V-cycle, with straightforward loop
//! parallelisation — the comparison target of Figure 10e.
//!
//! Like the Fortran original, `psinv` exploits partial sums: the 27-point
//! class stencil is computed from per-row running sums `r1 = Σ (face+edge)`
//! and `r2 = Σ (edge+corner)` reused across the inner loop (the paper notes
//! "NAS MG implementation uses a hand-optimized loop body computation that
//! computes a partial sum and reuses it multiple times through a line
//! buffer").

use crate::{A_COEFF, C_COEFF, R_COEFF};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Per-level grids of the NAS solver.
struct Level {
    /// Approximation `z` (called `u` at the finest level).
    z: Vec<f64>,
    /// Residual / restricted RHS.
    r: Vec<f64>,
    n: i64,
}

/// The NAS MG benchmark state (non-periodic boundaries).
pub struct NasReference {
    levels: Vec<Level>,
    /// RHS `v` at the finest level.
    v: Vec<f64>,
    nlevels: usize,
    /// Worker pool every parallel loop runs on.
    pool: ThreadPool,
}

impl NasReference {
    /// New solver for a `(n+2)³` grid (`n = 2^k − 1`) with `nlevels` levels,
    /// on `threads` workers (0 = the host's parallelism).
    pub fn new(n: i64, nlevels: usize, threads: usize) -> Self {
        assert!(((n + 1) as u64).is_power_of_two());
        let mut levels = Vec::with_capacity(nlevels);
        for l in 0..nlevels {
            let nl = ((n + 1) >> (nlevels - 1 - l)) - 1;
            assert!(nl >= 1, "too many levels");
            let len = ((nl + 2) as usize).pow(3);
            levels.push(Level {
                z: vec![0.0; len],
                r: vec![0.0; len],
                n: nl,
            });
        }
        let len = ((n + 2) as usize).pow(3);
        NasReference {
            levels,
            v: vec![0.0; len],
            nlevels,
            pool: ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building a thread pool cannot fail"),
        }
    }

    /// Finest interior size.
    pub fn n(&self) -> i64 {
        self.levels[self.nlevels - 1].n
    }

    /// Set the RHS (dense `(n+2)³`).
    pub fn set_v(&mut self, v: &[f64]) {
        self.v.copy_from_slice(v);
    }

    /// Current approximation at the finest level.
    pub fn u(&self) -> &[f64] {
        &self.levels[self.nlevels - 1].z
    }

    /// Overwrite the approximation (e.g. to reset between experiments).
    pub fn set_u(&mut self, u: &[f64]) {
        self.levels[self.nlevels - 1].z.copy_from_slice(u);
    }

    /// L2 norm of the current residual `v − A u`.
    pub fn rnm2(&mut self) -> f64 {
        let fin = self.nlevels - 1;
        let n = self.levels[fin].n;
        let mut tmp = vec![0.0; self.levels[fin].r.len()];
        resid(&self.pool, &self.levels[fin].z, &self.v, &mut tmp, n);
        let e = (n + 2) as usize;
        let mut s = 0.0;
        for z in 1..=n as usize {
            for y in 1..=n as usize {
                for x in 1..=n as usize {
                    let v = tmp[(z * e + y) * e + x];
                    s += v * v;
                }
            }
        }
        (s / (n as f64).powi(3)).sqrt()
    }

    /// One benchmark iteration: `r = v − A u`, then the `mg3P` V-cycle.
    pub fn iteration(&mut self) {
        let fin = self.nlevels - 1;
        // r = v - A u
        {
            let lv = &mut self.levels[fin];
            let n = lv.n;
            let mut tmp = std::mem::take(&mut lv.r);
            resid(&self.pool, &lv.z, &self.v, &mut tmp, n);
            lv.r = tmp;
        }
        self.mg3p();
    }

    /// The NPB `mg3P` V-cycle (no pre-smoothing).
    fn mg3p(&mut self) {
        let fin = self.nlevels - 1;
        // down: restrict residuals
        for k in (1..=fin).rev() {
            let (coarse, fine) = {
                let (a, b) = self.levels.split_at_mut(k);
                (&mut a[k - 1], &b[0])
            };
            rprj3(&self.pool, &fine.r, coarse.n, &mut coarse.r);
        }
        // coarsest: z = S r from a zero guess
        {
            let lv = &mut self.levels[0];
            lv.z.fill(0.0);
            let n = lv.n;
            let mut z = std::mem::take(&mut lv.z);
            psinv(&self.pool, &lv.r, &mut z, n);
            lv.z = z;
        }
        // up
        for k in 1..=fin {
            let (coarse, fine) = {
                let (a, b) = self.levels.split_at_mut(k);
                (&a[k - 1], &mut b[0])
            };
            let n = fine.n;
            if k < fin {
                // z_k = Q z_{k-1} (z_k starts at zero)
                fine.z.fill(0.0);
                interp_add(&self.pool, &coarse.z, &mut fine.z, n);
                // r_k = r_k − A z_k  (NPB: resid(u,r,r))
                let mut tmp = vec![0.0; fine.r.len()];
                resid(&self.pool, &fine.z, &fine.r, &mut tmp, n);
                fine.r.copy_from_slice(&tmp);
                // z_k = z_k + S r_k
                let mut z = std::mem::take(&mut fine.z);
                psinv(&self.pool, &fine.r, &mut z, n);
                fine.z = z;
            } else {
                // finest: u += Q z; r = v − A u; u += S r
                interp_add(&self.pool, &coarse.z, &mut fine.z, n);
                let mut tmp = vec![0.0; fine.r.len()];
                resid(&self.pool, &fine.z, &self.v, &mut tmp, n);
                fine.r.copy_from_slice(&tmp);
                let mut z = std::mem::take(&mut fine.z);
                psinv(&self.pool, &fine.r, &mut z, n);
                fine.z = z;
            }
        }
    }
}

/// `r = v − A u` with the 27-point class-`a` operator.
pub fn resid(pool: &ThreadPool, u: &[f64], v: &[f64], r: &mut [f64], n: i64) {
    let e = (n + 2) as usize;
    let pb = e * e;
    let (a0, a2, a3) = (A_COEFF[0], A_COEFF[2], A_COEFF[3]);
    pool.for_each(
        r[pb..(n as usize + 1) * pb].chunks_mut(pb).enumerate(),
        |(i, rp)| {
            let z = i + 1;
            for y in 1..=n as usize {
                let s = z * pb + y * e;
                for x in 1..=n as usize {
                    // partial sums by class (a1 = 0 is skipped like NPB)
                    let mut edge = 0.0;
                    let mut corner = 0.0;
                    for dz in [-1i64, 0, 1] {
                        for dy in [-1i64, 0, 1] {
                            for dx in [-1i64, 0, 1] {
                                let cls = (dz != 0) as u32 + (dy != 0) as u32 + (dx != 0) as u32;
                                if cls < 2 {
                                    continue;
                                }
                                let idx = ((z as i64 + dz) as usize) * pb
                                    + ((y as i64 + dy) as usize) * e
                                    + (x as i64 + dx) as usize;
                                if cls == 2 {
                                    edge += u[idx];
                                } else {
                                    corner += u[idx];
                                }
                            }
                        }
                    }
                    rp[y * e + x] = v[s + x] - a0 * u[s + x] - a2 * edge - a3 * corner;
                }
            }
        },
    );
}

/// `z = z + C r` with the 27-point class-`c` smoother (corner class is 0
/// and skipped).
pub fn psinv(pool: &ThreadPool, r: &[f64], z: &mut [f64], n: i64) {
    let e = (n + 2) as usize;
    let pb = e * e;
    let (c0, c1, c2) = (C_COEFF[0], C_COEFF[1], C_COEFF[2]);
    pool.for_each(
        z[pb..(n as usize + 1) * pb].chunks_mut(pb).enumerate(),
        |(i, zp)| {
            let zc = i + 1;
            for y in 1..=n as usize {
                let s = zc * pb + y * e;
                // line buffers of partial sums, NPB-style:
                // r1[x] = r(z±1,y,x) + r(z,y±1,x)  (face contributions in z/y)
                // r2[x] = r(z±1,y±1,x)             (edge contributions in z/y)
                let mut r1 = vec![0.0; e];
                let mut r2 = vec![0.0; e];
                for x in 0..e {
                    r1[x] = r[s - pb + x] + r[s + pb + x] + r[s - e + x] + r[s + e + x];
                    r2[x] = r[s - pb - e + x]
                        + r[s - pb + e + x]
                        + r[s + pb - e + x]
                        + r[s + pb + e + x];
                }
                for x in 1..=n as usize {
                    let faces = r1[x] + r[s + x - 1] + r[s + x + 1];
                    let edges = r2[x] + r1[x - 1] + r1[x + 1];
                    zp[y * e + x] += c0 * r[s + x] + c1 * faces + c2 * edges;
                }
            }
        },
    );
}

/// NPB `rprj3`: restrict `fine` onto `coarse` (interior size `nc`).
pub fn rprj3(pool: &ThreadPool, fine: &[f64], nc: i64, coarse: &mut [f64]) {
    let ef = (2 * nc + 1 + 2) as usize;
    let pf = ef * ef;
    let ec = (nc + 2) as usize;
    let pc = ec * ec;
    pool.for_each(
        coarse[pc..(nc as usize + 1) * pc]
            .chunks_mut(pc)
            .enumerate(),
        |(i, cp)| {
            let zc = i + 1;
            let zf = 2 * zc;
            for yc in 1..=nc as usize {
                let yf = 2 * yc;
                for xc in 1..=nc as usize {
                    let xf = 2 * xc;
                    let mut acc = 0.0;
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                let cls =
                                    (dz != 0) as usize + (dy != 0) as usize + (dx != 0) as usize;
                                acc += R_COEFF[cls]
                                    * fine[((zf as i64 + dz) as usize) * pf
                                        + ((yf as i64 + dy) as usize) * ef
                                        + (xf as i64 + dx) as usize];
                            }
                        }
                    }
                    cp[yc * ec + xc] = acc;
                }
            }
        },
    );
}

/// Trilinear prolongation, added into `fine` (interior size `nf`).
pub fn interp_add(pool: &ThreadPool, coarse: &[f64], fine: &mut [f64], nf: i64) {
    let ef = (nf + 2) as usize;
    let pf = ef * ef;
    let ec = ((nf + 1) / 2 + 1) as usize;
    let pc = ec * ec;
    pool.for_each(
        fine[pf..(nf as usize + 1) * pf].chunks_mut(pf).enumerate(),
        |(i, fp)| {
            let z = i + 1;
            let zs: Vec<usize> = if z % 2 == 0 {
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
                    for &zc in &zs {
                        for &yc in &ys {
                            for &xc in &xs {
                                acc += coarse[zc * pc + yc * ec + xc];
                            }
                        }
                    }
                    fp[y * ef + x] += acc / (zs.len() * ys.len() * xs.len()) as f64;
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init_charges;

    /// A pool as wide as the host, for tests that call the kernels directly.
    fn host_pool() -> ThreadPool {
        ThreadPoolBuilder::new().build().unwrap()
    }

    /// The reference port is a thread-count twin: every parallel loop
    /// writes disjoint planes, so the pool's width changes no bit. A 1-wide
    /// solver spawns no worker.
    #[test]
    fn iterates_are_bitwise_equal_at_one_and_two_threads() {
        let n = 31i64;
        let e = (n + 2) as usize;
        let mut v = vec![0.0; e * e * e];
        init_charges(&mut v, n, 10, 7);
        let run = |threads| {
            let mut nas = NasReference::new(n, 4, threads);
            nas.set_v(&v);
            for _ in 0..2 {
                nas.iteration();
            }
            (nas.u().to_vec(), nas.pool.counters().workers_spawned)
        };
        let ((one, spawned1), (two, spawned2)) = (run(1), run(2));
        assert_eq!((spawned1, spawned2), (0, 1), "workers spawned");
        assert!(
            one.iter().zip(&two).all(|(a, b)| a.to_bits() == b.to_bits()),
            "iterates differ between 1 and 2 threads"
        );
    }

    #[test]
    fn resid_of_zero_u_is_v() {
        let n = 7i64;
        let e = (n + 2) as usize;
        let u = vec![0.0; e * e * e];
        let mut v = vec![0.0; e * e * e];
        init_charges(&mut v, n, 5, 1);
        let mut r = vec![0.0; e * e * e];
        resid(&host_pool(), &u, &v, &mut r, n);
        for i in 0..v.len() {
            let z = i / (e * e);
            let y = (i / e) % e;
            let x = i % e;
            let interior = (1..=n as usize).contains(&z)
                && (1..=n as usize).contains(&y)
                && (1..=n as usize).contains(&x);
            if interior {
                assert_eq!(r[i], v[i]);
            }
        }
    }

    #[test]
    fn resid_annihilates_constants_away_from_boundary() {
        let n = 15i64;
        let e = (n + 2) as usize;
        let u = vec![1.0; e * e * e];
        let v = vec![0.0; e * e * e];
        let mut r = vec![0.0; e * e * e];
        resid(&host_pool(), &u, &v, &mut r, n);
        // centre point: Σ a = 0
        let c = (8 * e + 8) * e + 8;
        assert!(r[c].abs() < 1e-13);
    }

    #[test]
    fn psinv_partial_sums_match_naive() {
        let n = 7i64;
        let e = (n + 2) as usize;
        let mut r = vec![0.0; e * e * e];
        init_charges(&mut r, n, 8, 3);
        for (i, v) in r.iter_mut().enumerate() {
            *v += ((i * 31) % 7) as f64 * 0.1;
        }
        // zero the ghost ring (boundary condition)
        for z in 0..e {
            for y in 0..e {
                for x in 0..e {
                    if z == 0 || z == e - 1 || y == 0 || y == e - 1 || x == 0 || x == e - 1 {
                        r[(z * e + y) * e + x] = 0.0;
                    }
                }
            }
        }
        let mut z1 = vec![0.0; e * e * e];
        psinv(&host_pool(), &r, &mut z1, n);
        // naive evaluation
        let w = crate::class_weights(&C_COEFF);
        let mut z2 = vec![0.0; e * e * e];
        for zc in 1..=n as usize {
            for y in 1..=n as usize {
                for x in 1..=n as usize {
                    let mut acc = 0.0;
                    for dz in 0..3usize {
                        for dy in 0..3usize {
                            for dx in 0..3usize {
                                acc += w[dz][dy][dx]
                                    * r[((zc + dz - 1) * e + (y + dy - 1)) * e + x + dx - 1];
                            }
                        }
                    }
                    z2[(zc * e + y) * e + x] = acc;
                }
            }
        }
        for i in 0..z1.len() {
            assert!((z1[i] - z2[i]).abs() < 1e-13, "mismatch at {i}");
        }
    }

    #[test]
    fn iterations_reduce_residual() {
        let n = 31i64;
        let mut nas = NasReference::new(n, 4, 0);
        let e = (n + 2) as usize;
        let mut v = vec![0.0; e * e * e];
        init_charges(&mut v, n, 10, 7);
        nas.set_v(&v);
        let r0 = nas.rnm2();
        for _ in 0..4 {
            nas.iteration();
        }
        let r4 = nas.rnm2();
        assert!(r4 < r0 * 0.05, "NAS MG failed to converge: {r0} → {r4}");
    }
}
