//! Seeded problem inputs. The program under test receives only the arrays
//! generated here; the same seed gives byte-identical arrays.

use gmg_multigrid::config::MgConfig;

/// splitmix64 stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Derive an independent stream seed for input number `k` of a run.
pub fn stream(seed: u64, k: u64) -> u64 {
    Rng(seed ^ k.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

const MINOR_MODES: usize = 5;
const MINOR_AMPLITUDE: f64 = 0.02;
const NOISE_AMPLITUDE: f64 = 1e-3;

/// A right-hand side on the finest grid of `cfg`, ghost ring zero
/// (homogeneous Dirichlet): the lowest sine mode at amplitude 1, plus five
/// seeded low modes at amplitude ≤ 0.02, plus seeded white noise ≤ 1e-3.
///
/// The lowest mode is the one a multigrid cycle with an under-solved
/// coarsest level reduces most slowly, so it fixes the number of cycles to
/// a residual target; keeping it dominant makes that count a property of
/// the solver and not of the seed, while every array element still depends
/// on the seed. (A white-noise right-hand side would reach 1e-3 in one
/// cycle: its residual is all high-frequency.)
pub fn rhs(cfg: &MgConfig, seed: u64) -> Vec<f64> {
    let n = cfg.n as usize;
    let e = n + 2;
    let h = cfg.h_at(cfg.levels - 1);
    let mut rng = Rng(seed);
    // per mode: amplitude and one sine table per axis
    let mut modes: Vec<(f64, Vec<Vec<f64>>)> = Vec::with_capacity(1 + MINOR_MODES);
    for m in 0..=MINOR_MODES {
        let amp = if m == 0 {
            1.0
        } else {
            MINOR_AMPLITUDE * rng.signed_unit()
        };
        let tables = (0..cfg.ndims)
            .map(|_| {
                let k = if m == 0 { 1 } else { rng.range(1, 4) } as f64;
                (0..e)
                    .map(|i| (std::f64::consts::PI * k * i as f64 * h).sin())
                    .collect()
            })
            .collect();
        modes.push((amp, tables));
    }
    let mut g = vec![0.0; cfg.alloc_len(cfg.levels - 1)];
    match cfg.ndims {
        2 => {
            for y in 1..=n {
                for x in 1..=n {
                    let smooth: f64 = modes.iter().map(|(a, t)| a * t[0][y] * t[1][x]).sum();
                    g[y * e + x] = smooth + NOISE_AMPLITUDE * rng.signed_unit();
                }
            }
        }
        3 => {
            for z in 1..=n {
                for y in 1..=n {
                    for x in 1..=n {
                        let smooth: f64 = modes
                            .iter()
                            .map(|(a, t)| a * t[0][z] * t[1][y] * t[2][x])
                            .sum();
                        g[(z * e + y) * e + x] = smooth + NOISE_AMPLITUDE * rng.signed_unit();
                    }
                }
            }
        }
        d => panic!("unsupported rank {d}"),
    }
    g
}

/// The zero initial guess (ghost ring included).
pub fn zero_guess(cfg: &MgConfig) -> Vec<f64> {
    vec![0.0; cfg.alloc_len(cfg.levels - 1)]
}

/// Seeded values in `[lo, hi)` over a whole dense array (kernel probes).
pub fn dense(len: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = Rng(seed);
    (0..len)
        .map(|_| lo + (hi - lo) * 0.5 * (rng.signed_unit() + 1.0))
        .collect()
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Number of positions at which `got` differs bitwise from `want`
/// (a length mismatch counts every position).
pub fn mismatches(got: &[f64], want: &[u64]) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.to_bits() != **w)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_multigrid::config::{CycleType, SmoothSteps};

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for ndims in [2usize, 3] {
            let cfg = MgConfig::new(ndims, 15, CycleType::V, SmoothSteps::s444());
            let a = rhs(&cfg, 11);
            let b = rhs(&cfg, 11);
            let c = rhs(&cfg, 12);
            assert_eq!(bits(&a), bits(&b));
            assert_ne!(bits(&a), bits(&c));
            // ghost ring stays zero, interior is filled
            assert_eq!(a[0], 0.0);
            assert_eq!(*a.last().unwrap(), 0.0);
            assert!(a.iter().filter(|x| **x != 0.0).count() >= 15usize.pow(ndims as u32) - 1);
        }
    }

    #[test]
    fn mismatch_count() {
        let v = [1.0, 2.0, 3.0];
        let mut want = bits(&v);
        assert_eq!(mismatches(&v, &want), 0);
        want[1] ^= 1;
        assert_eq!(mismatches(&v, &want), 1);
        assert_eq!(mismatches(&v[..2], &want), 3);
    }
}
