//! Property-based tests (proptest) over the core invariants listed in
//! DESIGN.md §7:
//!
//! * tile partitions cover each point exactly once, and owned regions
//!   partition every scaled live-out domain;
//! * backward region propagation covers the exact read footprint;
//! * the storage remapper never aliases two simultaneously-live items;
//! * the pool never hands out a buffer twice concurrently;
//! * the split/diamond schedule covers space-time exactly once with
//!   dependences satisfied;
//! * linearisation preserves expression semantics.

use proptest::prelude::*;

use polymg_repro::compiler::storage::{remap_storage, RemapItem, StorageClass};
use polymg_repro::ir::expr::Operand;
use polymg_repro::ir::linearize;
use polymg_repro::poly::diamond::split_time_tiling;
use polymg_repro::poly::region::{propagate_regions, GroupEdge, GroupStage};
use polymg_repro::poly::tiling::{owned_region, tile_partition};
use polymg_repro::poly::{AxisFootprint, BoxDomain, Footprint, Interval, Ratio};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tile_partition_exact_cover(
        n in 1i64..40,
        ty in 1i64..12,
        tx in 1i64..12,
    ) {
        let dom = BoxDomain::interior(2, n);
        let tiles = tile_partition(&dom, &[ty, tx]);
        let total: i64 = tiles.iter().map(BoxDomain::len).sum();
        prop_assert_eq!(total, n * n);
        // spot-check coverage of a few points
        for p in [[1, 1], [n, n], [(n + 1) / 2, 1]] {
            let c = tiles.iter().filter(|t| t.contains_point(&p)).count();
            prop_assert_eq!(c, 1);
        }
    }

    #[test]
    fn owned_regions_partition_scaled_domains(
        k in 2u32..6,
        t in 1i64..16,
        halvings in 0u32..3,
    ) {
        // fine interior 2^k − 1, coarse scaled by 2^halvings
        let nf = (1i64 << k) - 1;
        let nc = (1i64 << (k.saturating_sub(halvings))) - 1;
        prop_assume!(nc >= 1);
        let fine = BoxDomain::interior(1, nf);
        let coarse = BoxDomain::interior(1, nc);
        let scale = vec![Ratio::new(nc + 1, nf + 1)];
        let tiles = tile_partition(&fine, &[t]);
        let owned: Vec<BoxDomain> =
            tiles.iter().map(|tl| owned_region(tl, &scale, &coarse)).collect();
        for p in 1..=nc {
            let c = owned.iter().filter(|o| o.contains_point(&[p])).count();
            prop_assert_eq!(c, 1, "coarse point {} owned {} times", p, c);
        }
    }

    #[test]
    fn region_propagation_covers_footprints(
        n in 8i64..32,
        r1 in 0i64..3,
        r2 in 0i64..3,
        lo in 1i64..8,
        len in 1i64..8,
    ) {
        // chain 0 → 1 → 2 with radii r1, r2; owned box on stage 2
        let dom = BoxDomain::interior(2, n);
        let hi = (lo + len).min(n);
        let owned = BoxDomain::new(vec![Interval::new(lo, hi); 2]);
        let stages = vec![
            GroupStage { domain: dom, owned: BoxDomain::empty(2) },
            GroupStage { domain: dom, owned: BoxDomain::empty(2) },
            GroupStage { domain: dom, owned },
        ];
        let edges = vec![
            GroupEdge {
                producer: 0,
                consumer: 1,
                footprint: Footprint::uniform(2, AxisFootprint::stencil(r1)),
            },
            GroupEdge {
                producer: 1,
                consumer: 2,
                footprint: Footprint::uniform(2, AxisFootprint::stencil(r2)),
            },
        ];
        let regions = propagate_regions(&stages, &edges);
        // every read of every computed consumer point must be inside the
        // producer's alloc box (or the ghost dilation of its domain)
        for (edge, (cons, prod)) in [(0usize, (1usize, 0usize)), (1, (2, 1))] {
            let fp = &edges[edge].footprint;
            let c = &regions[cons].compute;
            if c.is_empty() { continue; }
            for d in 0..2 {
                let needed = fp.0[d].input_needed(&c.0[d]);
                prop_assert!(
                    regions[prod].alloc.0[d].contains_interval(&needed),
                    "dim {}: needed {} alloc {}",
                    d, needed, regions[prod].alloc.0[d]
                );
                // and computable part is inside domain
                prop_assert!(dom.0[d].contains_interval(&regions[prod].compute.0[d]));
            }
        }
    }

    #[test]
    fn storage_remap_never_aliases(
        lives in proptest::collection::vec((0i64..20, 1i64..6, 0usize..3), 1..40),
    ) {
        let items: Vec<RemapItem> = lives
            .iter()
            .map(|&(t, life, cls)| RemapItem {
                time: t,
                last_use: t + life,
                class: StorageClass {
                    ndims: 1,
                    size_key: vec![8 * (cls as i64 + 1)],
                    param_tag: None,
                },
            })
            .collect();
        let r = remap_storage(&items, true);
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                if r.buffer_of[i] != r.buffer_of[j] {
                    continue;
                }
                let (a, b) = (&items[i], &items[j]);
                prop_assert!(
                    a.time > b.last_use || b.time > a.last_use,
                    "items {} and {} alias while live", i, j
                );
                prop_assert_eq!(&a.class, &b.class);
            }
        }
        // reuse never produces more buffers than 1:1
        prop_assert!(r.num_buffers() <= items.len());
    }

    #[test]
    fn split_tiling_covers_space_time(
        n in 4i64..40,
        steps in 1usize..12,
        w in 2i64..20,
        h in 1usize..6,
    ) {
        let bands = split_time_tiling(n, steps, w, h, 1);
        let dom = Interval::new(1, n);
        let mut seen = vec![0u8; steps * n as usize];
        for band in &bands {
            for phase in [&band.phase1, &band.phase2] {
                for trap in phase {
                    for s in 0..band.steps {
                        let rows = trap.rows_at(s as i64, dom);
                        if rows.is_empty() { continue; }
                        for i in rows.lo..=rows.hi {
                            seen[(band.t0 + s) * n as usize + (i - 1) as usize] += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "coverage counts: {:?}", seen);
    }

    #[test]
    fn linearize_preserves_semantics(
        c1 in -3.0f64..3.0,
        c2 in -3.0f64..3.0,
        bias in -2.0f64..2.0,
        o1 in -2i64..3,
        o2 in -2i64..3,
    ) {
        let s = |k: usize, offs: &[i64]| Operand::Slot(k).at(offs);
        let e = bias + c1 * s(0, &[o1, 0]) - (s(1, &[0, o2]) / 2.0) * c2
            + 0.5 * (s(0, &[o1, 0]) - s(0, &[0, 0]));
        let form = linearize(&e).unwrap();
        // evaluate both at a few points with a synthetic field
        let field = |slot: usize, idx: &[i64]| {
            (slot as f64 + 1.0) * (3.0 * idx[0] as f64 - idx[1] as f64 + 0.25)
        };
        for p in [[4i64, 5], [7, 2]] {
            let direct = e.eval_at(&p, &mut |op, idx| match op {
                Operand::Slot(k) => field(*k, idx),
                _ => unreachable!(),
            });
            let mut lin = form.bias;
            for t in &form.taps {
                let idx = t.access.eval(&p);
                lin += t.coeff * field(t.slot, &idx);
            }
            prop_assert!((direct - lin).abs() < 1e-9, "{} vs {}", direct, lin);
        }
    }

    #[test]
    fn interval_algebra(
        a_lo in -20i64..20, a_len in 0i64..20,
        b_lo in -20i64..20, b_len in 0i64..20,
    ) {
        let a = Interval::new(a_lo, a_lo + a_len);
        let b = Interval::new(b_lo, b_lo + b_len);
        let i = a.intersect(&b);
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a) && h.contains_interval(&b));
        prop_assert!(a.contains_interval(&i) && b.contains_interval(&i));
        // point-wise consistency
        for p in (a_lo - 2)..(a_lo + a_len + 2) {
            prop_assert_eq!(i.contains(p), a.contains(p) && b.contains(p));
            prop_assert!(!(a.contains(p) || b.contains(p)) || h.contains(p));
        }
    }
}

// Pool safety under a random alloc/free trace (deterministic shrinking).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pool_never_hands_out_live_buffer(ops in proptest::collection::vec((0usize..4, 16usize..64), 1..60)) {
        use polymg_repro::runtime::BufferPool;
        let mut pool = BufferPool::new();
        let mut live: Vec<(usize, gmg_grid::Buffer)> = Vec::new();
        let mut next_tag = 0usize;
        for (op, len) in ops {
            if op == 0 && !live.is_empty() {
                // free the oldest
                let (_, buf) = live.remove(0);
                pool.deallocate(buf);
            } else {
                let mut buf = pool.allocate(len);
                // stamp the buffer and verify no live buffer shares storage
                let tag = next_tag as f64;
                next_tag += 1;
                buf.as_mut_slice()[0] = tag;
                for (t, other) in &live {
                    prop_assert!(
                        (other.as_slice()[0] - *t as f64).abs() < 0.5,
                        "live buffer {} was clobbered", t
                    );
                }
                live.push((next_tag - 1, buf));
            }
        }
        let stats = pool.stats();
        prop_assert!(stats.peak_live_bytes >= stats.live_bytes);
    }
}
