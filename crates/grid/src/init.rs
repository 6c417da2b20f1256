//! Grid initialisation helpers: manufactured solutions and RHS fields for the
//! Poisson problems the paper evaluates.
//!
//! The 2-D/3-D benchmarks solve `∇²u = f` on the unit square/cube with
//! homogeneous Dirichlet boundaries. With the manufactured solution
//! `u(x,y) = sin(πx)·sin(πy)` the RHS is `f = -2π² sin(πx) sin(πy)` (and the
//! 3-D analogue with `-3π²`), which lets tests check convergence against a
//! known answer.

use crate::{View2Mut, View3Mut};
use std::f64::consts::PI;

/// Fill the interior of a 2-D grid (ghost ring untouched) with the
/// manufactured Poisson RHS `f = -2π² sin(πx) sin(πy)` where the grid spans
/// `[0,1]²` including the ghost ring as the boundary.
pub fn poisson_rhs_2d(f: &mut View2Mut<'_>) {
    let (ny, nx) = (f.ny(), f.nx());
    let hy = 1.0 / (ny - 1) as f64;
    let hx = 1.0 / (nx - 1) as f64;
    for y in 1..ny - 1 {
        let sy = (PI * y as f64 * hy).sin();
        for x in 1..nx - 1 {
            let sx = (PI * x as f64 * hx).sin();
            f.set(y, x, -2.0 * PI * PI * sy * sx);
        }
    }
}

/// The exact manufactured solution matching [`poisson_rhs_2d`].
pub fn poisson_exact_2d(u: &mut View2Mut<'_>) {
    let (ny, nx) = (u.ny(), u.nx());
    let hy = 1.0 / (ny - 1) as f64;
    let hx = 1.0 / (nx - 1) as f64;
    for y in 0..ny {
        let sy = (PI * y as f64 * hy).sin();
        for x in 0..nx {
            let sx = (PI * x as f64 * hx).sin();
            u.set(y, x, sy * sx);
        }
    }
}

/// 3-D manufactured Poisson RHS `f = -3π² sin(πx) sin(πy) sin(πz)`.
pub fn poisson_rhs_3d(f: &mut View3Mut<'_>) {
    let (nz, ny, nx) = (f.nz(), f.ny(), f.nx());
    let hz = 1.0 / (nz - 1) as f64;
    let hy = 1.0 / (ny - 1) as f64;
    let hx = 1.0 / (nx - 1) as f64;
    for z in 1..nz - 1 {
        let sz = (PI * z as f64 * hz).sin();
        for y in 1..ny - 1 {
            let sy = (PI * y as f64 * hy).sin();
            for x in 1..nx - 1 {
                let sx = (PI * x as f64 * hx).sin();
                f.set(z, y, x, -3.0 * PI * PI * sz * sy * sx);
            }
        }
    }
}

/// The exact manufactured solution matching [`poisson_rhs_3d`].
pub fn poisson_exact_3d(u: &mut View3Mut<'_>) {
    let (nz, ny, nx) = (u.nz(), u.ny(), u.nx());
    let hz = 1.0 / (nz - 1) as f64;
    let hy = 1.0 / (ny - 1) as f64;
    let hx = 1.0 / (nx - 1) as f64;
    for z in 0..nz {
        let sz = (PI * z as f64 * hz).sin();
        for y in 0..ny {
            let sy = (PI * y as f64 * hy).sin();
            for x in 0..nx {
                let sx = (PI * x as f64 * hx).sin();
                u.set(z, y, x, sz * sy * sx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{l2_interior_2d, max_interior_3d};
    use crate::{View2, View2Mut, View3, View3Mut};

    #[test]
    fn rhs_2d_symmetric_and_negative() {
        let mut buf = vec![0.0; 17 * 17];
        poisson_rhs_2d(&mut View2Mut::dense(&mut buf, 17, 17));
        let v = View2::dense(&buf, 17, 17);
        // peak magnitude at the center
        let center = v.at(8, 8);
        assert!(center < 0.0);
        assert!((center + 2.0 * PI * PI).abs() < 1e-10);
        // symmetric in x and y
        assert!((v.at(3, 5) - v.at(5, 3)).abs() < 1e-12);
        assert!((v.at(3, 5) - v.at(13, 5)).abs() < 1e-12);
        // ghost ring untouched
        assert_eq!(v.at(0, 0), 0.0);
        assert!(l2_interior_2d(&v) > 0.0);
    }

    #[test]
    fn exact_2d_satisfies_discrete_laplacian_approximately() {
        let n = 64usize;
        let mut u = vec![0.0; (n + 1) * (n + 1)];
        let mut f = vec![0.0; (n + 1) * (n + 1)];
        poisson_exact_2d(&mut View2Mut::dense(&mut u, n + 1, n + 1));
        poisson_rhs_2d(&mut View2Mut::dense(&mut f, n + 1, n + 1));
        let uv = View2::dense(&u, n + 1, n + 1);
        let fv = View2::dense(&f, n + 1, n + 1);
        let h = 1.0 / n as f64;
        // Discrete laplacian of exact u should approximate f to O(h^2).
        let mut max_err: f64 = 0.0;
        for y in 1..n {
            for x in 1..n {
                let lap = (uv.at(y - 1, x) + uv.at(y + 1, x) + uv.at(y, x - 1) + uv.at(y, x + 1)
                    - 4.0 * uv.at(y, x))
                    / (h * h);
                max_err = max_err.max((lap - fv.at(y, x)).abs());
            }
        }
        assert!(max_err < 0.05, "discretisation error too large: {max_err}");
    }

    #[test]
    fn exact_3d_zero_on_boundary() {
        let mut u = vec![0.0; 9 * 9 * 9];
        poisson_exact_3d(&mut View3Mut::dense(&mut u, 9, 9, 9));
        let v = View3::dense(&u, 9, 9, 9);
        for y in 0..9 {
            for x in 0..9 {
                assert!(v.at(0, y, x).abs() < 1e-12);
                assert!(v.at(8, y, x).abs() < 1e-12);
            }
        }
        assert!(max_interior_3d(&v) > 0.5);
    }
}
