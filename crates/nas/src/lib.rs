//! # gmg-nas — the NAS Multigrid benchmark (MG from NPB 3.2)
//!
//! The paper's fifth benchmark: NAS MG solves `∇²u = v` with a V-cycle that
//! has **no pre-smoothing** (§4.1), using the NPB 27-point
//! coefficient-class operators:
//!
//! * `resid` — `r = v − A u` with `a = [−8/3, 0, 1/6, 1/12]` (coefficient by
//!   neighbour class: centre / face / edge / corner),
//! * `psinv` — the smoother `u = u + C r`, `c = [−3/8, 1/32, −1/64, 0]`,
//! * `rprj3` — restriction with `[1/2, 1/4, 1/8, 1/16]`,
//! * `interp` — trilinear prolongation.
//!
//! Per the paper we use the **non-periodic** (Dirichlet) boundary setting.
//! The NPB reference initialises the RHS with ±1 charges at pseudo-random
//! grid points; we reproduce that deterministically.
//!
//! Two implementations are provided: [`reference::NasReference`], a direct
//! Rust port of the Fortran loop nests (the paper's "reference version",
//! with its hand-optimized flavour of straightforward parallel loops), and
//! [`dsl::build_nas_pipeline`], the PolyMG program compiled and run through
//! the optimizing stack.

// Index-based loops here mirror the math (multi-slice stencil updates); clippy prefers iterators but the indices are the clearer notation.
#![allow(clippy::needless_range_loop)]

pub mod dsl;
pub mod reference;

/// Coefficient classes of the NPB operators, indexed by the number of
/// non-zero offset components (0 = centre, 1 = face, 2 = edge, 3 = corner).
pub const A_COEFF: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];

/// Smoother coefficients (classes A and up in NPB).
pub const C_COEFF: [f64; 4] = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

/// Restriction coefficients.
pub const R_COEFF: [f64; 4] = [0.5, 0.25, 0.125, 0.0625];

/// Expand a coefficient class array into a dense 3×3×3 weight volume.
pub fn class_weights(coef: &[f64; 4]) -> Vec<Vec<Vec<f64>>> {
    let mut w = vec![vec![vec![0.0; 3]; 3]; 3];
    for (dz, plane) in w.iter_mut().enumerate() {
        for (dy, row) in plane.iter_mut().enumerate() {
            for (dx, v) in row.iter_mut().enumerate() {
                let cls = usize::from(dz != 1) + usize::from(dy != 1) + usize::from(dx != 1);
                *v = coef[cls];
            }
        }
    }
    w
}

/// NPB-style ±1 charge initialisation: `n_charges` points at +1 and
/// `n_charges` at −1, deterministic per seed. Buffer is dense `(n+2)³`.
pub fn init_charges(v: &mut [f64], n: i64, n_charges: usize, seed: u64) {
    let e = (n + 2) as usize;
    v.fill(0.0);
    let mut placed = 0usize;
    let mut k = 0u64;
    while placed < 2 * n_charges {
        let h = polymg::splitmix64(seed.wrapping_add(k));
        k += 1;
        let z = 1 + (h % n as u64) as usize;
        let y = 1 + ((h >> 21) % n as u64) as usize;
        let x = 1 + ((h >> 42) % n as u64) as usize;
        let idx = (z * e + y) * e + x;
        if v[idx] != 0.0 {
            continue;
        }
        v[idx] = if placed < n_charges { 1.0 } else { -1.0 };
        placed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_weights_structure() {
        let w = class_weights(&A_COEFF);
        assert_eq!(w[1][1][1], -8.0 / 3.0);
        assert_eq!(w[0][1][1], 0.0); // face
        assert_eq!(w[0][0][1], 1.0 / 6.0); // edge
        assert_eq!(w[0][0][0], 1.0 / 12.0); // corner
                                            // 1 centre + 6 faces + 12 edges + 8 corners
        let mut counts = [0usize; 4];
        for z in 0..3 {
            for y in 0..3 {
                for x in 0..3 {
                    let cls = usize::from(z != 1) + usize::from(y != 1) + usize::from(x != 1);
                    counts[cls] += 1;
                    assert_eq!(w[z][y][x], A_COEFF[cls]);
                }
            }
        }
        assert_eq!(counts, [1, 6, 12, 8]);
    }

    #[test]
    fn a_annihilates_constants_in_the_periodic_sense() {
        // Σ a-weights = -8/3 + 6·0 + 12/6 + 8/12 = 0: A of a constant field
        // vanishes away from boundaries.
        let s: f64 = [
            A_COEFF[0],
            6.0 * A_COEFF[1],
            12.0 * A_COEFF[2],
            8.0 * A_COEFF[3],
        ]
        .iter()
        .sum();
        assert!(s.abs() < 1e-15);
    }

    #[test]
    fn charges_balanced_and_deterministic() {
        let n = 15i64;
        let e = (n + 2) as usize;
        let mut a = vec![0.0; e * e * e];
        let mut b = vec![0.0; e * e * e];
        init_charges(&mut a, n, 10, 42);
        init_charges(&mut b, n, 10, 42);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&v| v == 1.0).count(), 10);
        assert_eq!(a.iter().filter(|&&v| v == -1.0).count(), 10);
        assert_eq!(a.iter().sum::<f64>(), 0.0);
        // all charges interior
        for z in [0, e - 1] {
            for y in 0..e {
                for x in 0..e {
                    assert_eq!(a[(z * e + y) * e + x], 0.0);
                }
            }
        }
        init_charges(&mut b, n, 10, 43);
        assert_ne!(a, b);
    }
}
