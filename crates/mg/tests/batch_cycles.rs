//! Batched multi-RHS execution: bitwise equivalence against sequential
//! single-RHS cycles across variants, pool-traffic amortisation, typed
//! mid-batch fault handling without pooled-slot leaks, and input
//! validation.

use gmg_multigrid::config::{CycleType, MgConfig, SmoothSteps};
use gmg_multigrid::solver::{setup_poisson, DslRunner};
use polymg::{splitmix64, ChaosOptions, PipelineOptions, Variant};

/// B perturbed copies of the base problem: distinct interiors, same shape.
fn perturbed_batch(cfg: &MgConfig, b: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (v0, f, _) = setup_poisson(cfg);
    let mut vs = Vec::with_capacity(b);
    let mut fs = Vec::with_capacity(b);
    for k in 0..b {
        let mut v = v0.clone();
        let mut fk = f.clone();
        for (i, x) in fk.iter_mut().enumerate() {
            let r = splitmix64((k as u64) << 32 | i as u64);
            *x += (r % 1000) as f64 * 1e-6;
        }
        if k > 0 {
            // nonzero initial guesses exercise the V input path too
            for (i, x) in v.iter_mut().enumerate() {
                let r = splitmix64(0xABCD ^ (k as u64) << 32 ^ i as u64);
                *x = (r % 100) as f64 * 1e-7;
            }
            // ghost ring must keep the boundary value
            gmg_runtime::fill_ghost(
                &mut v,
                &vec![cfg.n_at(cfg.levels - 1) + 2; cfg.ndims],
                0.0,
            );
        }
        vs.push(v);
        fs.push(fk);
    }
    (vs, fs)
}

fn assert_batch_matches_sequential(cfg: &MgConfig, variant: Variant, b: usize, cycles: usize) {
    let opts = || PipelineOptions::for_variant(variant, cfg.ndims);
    let (vs0, fs) = perturbed_batch(cfg, b);

    // sequential references, one fresh runner per RHS
    let mut expect = Vec::new();
    for (v0, f) in vs0.iter().zip(&fs) {
        let mut r = DslRunner::new(cfg, opts(), "seq").unwrap();
        let mut v = v0.clone();
        for _ in 0..cycles {
            r.cycle_with_stats(&mut v, f).unwrap();
        }
        expect.push(v);
    }

    let mut batch_runner = DslRunner::new(cfg, opts(), "batch").unwrap();
    let mut vs = vs0;
    let fslices: Vec<&[f64]> = fs.iter().map(|f| f.as_slice()).collect();
    for _ in 0..cycles {
        batch_runner.cycle_batch_with_stats(&mut vs, &fslices).unwrap();
    }

    for (k, (got, want)) in vs.iter().zip(&expect).enumerate() {
        let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
        let wb: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            gb, wb,
            "batched RHS {k} diverged bitwise from sequential ({variant:?}, {}d)",
            cfg.ndims
        );
    }
}

#[test]
fn batch_matches_sequential_bitwise_2d_all_variants() {
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    for variant in [
        Variant::Naive,
        Variant::Opt,
        Variant::OptPlus,
        Variant::DtileOptPlus,
    ] {
        assert_batch_matches_sequential(&cfg, variant, 3, 2);
    }
}

#[test]
fn batch_matches_sequential_bitwise_3d() {
    let mut cfg = MgConfig::new(3, 15, CycleType::V, SmoothSteps::s444());
    cfg.levels = 3;
    for variant in [Variant::Naive, Variant::OptPlus] {
        assert_batch_matches_sequential(&cfg, variant, 3, 2);
    }
}

#[test]
fn batch_matches_sequential_bitwise_wcycle() {
    let cfg = MgConfig::new(2, 31, CycleType::W, SmoothSteps::s444());
    assert_batch_matches_sequential(&cfg, Variant::OptPlus, 4, 1);
}

#[test]
fn batch_amortises_pool_traffic() {
    // A warm batched pass of B RHS must do no more pool allocations than a
    // warm single pass: PoolAlloc runs only on the first RHS of the sweep.
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    let mut runner = DslRunner::new(&cfg, opts, "pool").unwrap();
    let (mut vs, fs) = perturbed_batch(&cfg, 4);
    let fslices: Vec<&[f64]> = fs.iter().map(|f| f.as_slice()).collect();

    // warm the pool
    runner.cycle_batch_with_stats(&mut vs, &fslices).unwrap();

    let warm = runner.engine().pool_stats();
    let mut v1 = vec![vs[0].clone()];
    runner
        .cycle_batch_with_stats(&mut v1, &fslices[..1])
        .unwrap();
    let after_single = runner.engine().pool_stats();
    let single_allocs =
        (after_single.hits - warm.hits) + (after_single.misses - warm.misses);

    runner.cycle_batch_with_stats(&mut vs, &fslices).unwrap();
    let after_batch = runner.engine().pool_stats();
    let batch_allocs =
        (after_batch.hits - after_single.hits) + (after_batch.misses - after_single.misses);

    assert!(single_allocs > 0, "plan must use the pool");
    assert_eq!(
        batch_allocs, single_allocs,
        "a batch of 4 must allocate exactly as much as a single pass"
    );
}

#[test]
fn mid_batch_fault_is_typed_and_leaks_nothing() {
    let cfg = MgConfig::new(2, 31, CycleType::V, SmoothSteps::s444());
    let mut opts = PipelineOptions::for_variant(Variant::OptPlus, 2);
    opts.chaos = Some(ChaosOptions::new(0xBA7C4, 1.0));
    let mut runner = DslRunner::new(&cfg, opts, "chaos").unwrap();
    let (mut vs, fs) = perturbed_batch(&cfg, 3);
    let fslices: Vec<&[f64]> = fs.iter().map(|f| f.as_slice()).collect();

    let live0 = runner.engine().pool_stats().live_bytes;
    let err = runner
        .cycle_batch_with_stats(&mut vs, &fslices)
        .expect_err("rate-1.0 chaos must fail the batch");
    // typed, never a panic
    let _ = format!("{err}");
    assert_eq!(
        runner.engine().pool_stats().live_bytes,
        live0,
        "failed batch leaked pooled bytes"
    );

    // disarm and rerun: the engine and pool stay usable and correct
    runner.engine_mut().set_chaos(None);
    let (vs0, _) = perturbed_batch(&cfg, 3);
    let mut expect = vs0.clone();
    {
        let mut seq = DslRunner::new(
            &cfg,
            PipelineOptions::for_variant(Variant::OptPlus, 2),
            "seq",
        )
        .unwrap();
        for (v, f) in expect.iter_mut().zip(&fs) {
            seq.cycle_with_stats(v, f).unwrap();
        }
    }
    let mut vs = vs0;
    runner.cycle_batch_with_stats(&mut vs, &fslices).unwrap();
    for (got, want) in vs.iter().zip(&expect) {
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "post-recovery batch diverged"
        );
    }
}

#[test]
fn empty_and_mismatched_batches_are_typed_errors() {
    let cfg = MgConfig::new(2, 15, CycleType::V, SmoothSteps::s444());
    let mut runner = DslRunner::new(
        &cfg,
        PipelineOptions::for_variant(Variant::OptPlus, 2),
        "bad",
    )
    .unwrap();
    let (v0, f, _) = setup_poisson(&cfg);
    assert!(runner.cycle_batch_with_stats(&mut [], &[]).is_err());
    let mut vs = vec![v0];
    assert!(runner
        .cycle_batch_with_stats(&mut vs, &[f.as_slice(), f.as_slice()])
        .is_err());
}
