//! The NAS MG benchmark: the Fortran-port reference against the
//! PolyMG-compiled pipeline (Figure 10e at example scale).
//!
//! ```sh
//! cargo run --release --example nas_mg
//! ```

use polymg_repro::compiler::{PipelineOptions, Variant};
use polymg_repro::mg::solver::CycleRunner;
use polymg_repro::nas::dsl::NasDsl;
use polymg_repro::nas::reference::NasReference;
use std::time::Instant;

fn main() {
    let n = 63i64; // interior (64³ grid points with the boundary)
    let levels = 4u32;
    let iters = 10usize;
    let e = (n + 2) as usize;

    // NPB-style ±1 charge RHS
    let mut v = vec![0.0; e * e * e];
    polymg_repro::nas::init_charges(&mut v, n, 10, 314159);

    // reference port
    let mut nref = NasReference::new(n, levels as usize, 0);
    nref.set_v(&v);
    let r0 = nref.rnm2();
    let t0 = Instant::now();
    for _ in 0..iters {
        nref.iteration();
    }
    let t_ref = t0.elapsed().as_secs_f64();
    let r_ref = nref.rnm2();
    println!("NAS reference : {t_ref:>7.3}s   residual {r0:.3e} → {r_ref:.3e}");

    // PolyMG variants
    for variant in [Variant::Naive, Variant::OptPlus] {
        let opts = PipelineOptions::for_variant(variant, 3);
        let mut dsl = NasDsl::new(n, levels, opts, variant.label()).expect("compile failed");
        println!(
            "{:<14}: {} DAG stages, {} groups",
            variant.label(),
            dsl.engine().plan().graph.num_compute_stages(),
            dsl.engine().plan().groups.len()
        );
        let mut u = vec![0.0; e * e * e];
        let t0 = Instant::now();
        for _ in 0..iters {
            dsl.cycle(&mut u, &v);
        }
        let secs = t0.elapsed().as_secs_f64();
        // verify against the reference result
        let mut max = 0.0f64;
        for (a, b) in u.iter().zip(nref.u()) {
            max = max.max((a - b).abs());
        }
        println!(
            "{:<14}: {secs:>7.3}s   speedup vs reference {:.2}x   max dev {max:.2e}",
            variant.label(),
            t_ref / secs
        );
        assert!(max < 1e-10);
    }
}
