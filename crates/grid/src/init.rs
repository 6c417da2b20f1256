//! The manufactured Poisson problems the paper evaluates.
//!
//! The 2-D/3-D benchmarks solve `∇²u = f` on the unit square/cube with
//! homogeneous Dirichlet boundaries. With the manufactured solution
//! `u(x,y) = sin(πx)·sin(πy)` the RHS is `f = -2π² sin(πx) sin(πy)` (and the
//! 3-D analogue with `-3π²`), which lets tests check convergence against a
//! known answer.

use std::f64::consts::PI;

/// Fill the interior of the dense grid `f` (ghost ring untouched) with the
/// manufactured Poisson RHS `f = -dπ² Π sin(πx)`, `d = extents.len()`,
/// where the grid spans `[0,1]^d` including the ghost ring as the boundary.
pub fn poisson_rhs(f: &mut [f64], extents: &[usize]) {
    fill(f, extents, 1, -(extents.len() as f64) * PI * PI);
}

/// The exact manufactured solution `Π sin(πx)` matching [`poisson_rhs`],
/// over the whole grid `u`.
pub fn poisson_exact(u: &mut [f64], extents: &[usize]) {
    fill(u, extents, 0, 1.0);
}

/// Set every point of `grid` at least `skip` points in from each face to
/// `scale · sin(πz·hz) · sin(πy·hy) · sin(πx·hx)`, multiplied in that
/// order (outermost first): `mg`'s `setup_poisson_is_pinned` pins the bits
/// this association gives.
fn fill(grid: &mut [f64], extents: &[usize], skip: usize, scale: f64) {
    assert_eq!(
        grid.len(),
        extents.iter().product(),
        "grid length vs extents {extents:?}"
    );
    let sines: Vec<Vec<f64>> = extents
        .iter()
        .map(|&n| {
            let h = 1.0 / (n - 1) as f64;
            (0..n).map(|i| (PI * i as f64 * h).sin()).collect()
        })
        .collect();
    fill_axis(grid, &sines, skip, scale);
}

/// [`fill`] for the sub-grid `grid` whose remaining axes have the sine
/// tables `sines`, every value starting from the product `acc`.
fn fill_axis(grid: &mut [f64], sines: &[Vec<f64>], skip: usize, acc: f64) {
    let [s, inner @ ..] = sines else { return };
    let points = s.len().saturating_sub(2 * skip);
    for (sub, &si) in grid
        .chunks_mut(grid.len() / s.len())
        .zip(s)
        .skip(skip)
        .take(points)
    {
        match inner {
            [] => sub[0] = acc * si,
            _ => fill_axis(sub, inner, skip, acc * si),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_2d_symmetric_and_negative() {
        let mut f = vec![0.0; 17 * 17];
        poisson_rhs(&mut f, &[17, 17]);
        let at = |y: usize, x: usize| f[y * 17 + x];
        // peak magnitude at the center
        let center = at(8, 8);
        assert!(center < 0.0);
        assert!((center + 2.0 * PI * PI).abs() < 1e-10);
        // symmetric in x and y
        assert!((at(3, 5) - at(5, 3)).abs() < 1e-12);
        assert!((at(3, 5) - at(13, 5)).abs() < 1e-12);
        // ghost ring untouched, interior not
        for i in 0..17 {
            for v in [at(0, i), at(16, i), at(i, 0), at(i, 16)] {
                assert_eq!(v, 0.0);
            }
        }
        let l2: f64 = (1..16)
            .map(|y| (1..16).map(|x| at(y, x).powi(2)).sum::<f64>())
            .sum();
        assert!(l2.sqrt() > 0.0);
    }

    #[test]
    fn exact_2d_satisfies_discrete_laplacian_approximately() {
        let n = 64usize;
        let e = n + 1;
        let mut u = vec![0.0; e * e];
        let mut f = vec![0.0; e * e];
        poisson_exact(&mut u, &[e, e]);
        poisson_rhs(&mut f, &[e, e]);
        let h = 1.0 / n as f64;
        // Discrete laplacian of exact u should approximate f to O(h^2).
        let max_err = (1..n)
            .flat_map(|y| (1..n).map(move |x| y * e + x))
            .map(|c| {
                let lap = (u[c - e] + u[c + e] + u[c - 1] + u[c + 1] - 4.0 * u[c]) / (h * h);
                (lap - f[c]).abs()
            })
            .fold(0.0, f64::max);
        assert!(max_err < 0.05, "discretisation error too large: {max_err}");
    }

    #[test]
    fn exact_3d_zero_on_boundary() {
        let mut u = vec![0.0; 9 * 9 * 9];
        poisson_exact(&mut u, &[9, 9, 9]);
        let at = |z: usize, y: usize, x: usize| u[(z * 9 + y) * 9 + x];
        for y in 0..9 {
            for x in 0..9 {
                assert!(at(0, y, x).abs() < 1e-12);
                assert!(at(8, y, x).abs() < 1e-12);
            }
        }
        let mut max: f64 = 0.0;
        for z in 1..8 {
            for y in 1..8 {
                for x in 1..8 {
                    max = max.max(at(z, y, x).abs());
                }
            }
        }
        assert!(max > 0.5);
    }
}
