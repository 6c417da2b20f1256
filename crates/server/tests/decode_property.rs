//! The one solve decode, as generated properties: every valid request —
//! drawn across shape × scenario × precision tier × coefficient grid —
//! round-trips bitwise under each solve opcode (batches of 1–4 included),
//! and any other byte string decodes to a typed error or to requests that
//! re-encode to exactly those bytes. Never a panic.

use gmg_server::protocol::{self, BatchSolveRequest, SolveRequest};
use polymg::{splitmix64, Scenario};
use proptest::collection;
use proptest::prelude::*;

const SOLVE_OPS: [u8; 3] = [
    protocol::OP_SOLVE,
    protocol::OP_SOLVE_SCENARIO,
    protocol::OP_SOLVE_BATCH,
];

/// `len` arbitrary f64 bit patterns (NaNs and infinities included: the wire
/// carries bits, not numbers).
fn grid(seed: u64, len: usize) -> Vec<f64> {
    (0..len as u64)
        .map(|i| f64::from_bits(splitmix64(seed ^ i.wrapping_mul(0x9e37))))
        .collect()
}

/// The header a draw describes, or `None` for a draw that names no valid
/// configuration (no smoothing step at all).
#[allow(clippy::too_many_arguments)]
fn request(
    ndims: u8,
    k: u32,
    levels: u32,
    cycle: u8,
    variant: u8,
    steps: (u8, u8, u8),
    scenario: u8,
    mixed: bool,
    seed: u64,
) -> Option<SolveRequest> {
    if steps == (0, 0, 0) {
        return None;
    }
    // 2-D n ∈ {3, 7, 15, 31}, 3-D n ∈ {3, 7}; levels 0 (default) ..= k
    let k = if ndims == 3 { k.min(3) } else { k };
    let n = (1u32 << k) - 1;
    let sc = Scenario::from_wire_id(scenario).expect("drawn from the wire ids");
    let len = (n as usize + 2).pow(ndims as u32);
    Some(SolveRequest {
        tenant: (seed >> 40) as u32,
        ndims,
        cycle,
        variant,
        pre: steps.0,
        coarse: steps.1,
        post: steps.2,
        iters: 1 + (seed % 64) as u16,
        n,
        levels: levels % (k + 1),
        scenario,
        mixed: mixed && sc.supports_mixed_precision(),
        v: grid(seed, len),
        f: grid(!seed, len),
        coeff: if sc.needs_coeff() {
            grid(seed.rotate_left(17), len)
        } else {
            Vec::new()
        },
    })
}

/// `count` requests sharing `req`'s header and coefficient grid, each with
/// its own `v` and `f`: a valid batch.
fn batch_of(req: &SolveRequest, count: usize, seed: u64) -> Vec<SolveRequest> {
    (0..count as u64)
        .map(|b| {
            let mut r = req.clone();
            r.v = grid(seed ^ (b << 56), r.v.len());
            r.f = grid(!seed ^ (b << 56), r.f.len());
            r
        })
        .collect()
}

fn encode(op: u8, reqs: Vec<SolveRequest>) -> Vec<u8> {
    if op == protocol::OP_SOLVE_BATCH {
        BatchSolveRequest { reqs }.encode()
    } else {
        reqs[0].encode()
    }
}

/// Where a flipped byte lands on structure rather than grid data: the
/// batch framing, and the first request's header and scenario trailer.
fn field_offsets(op: u8, req: &SolveRequest) -> Vec<usize> {
    let framing = if op == protocol::OP_SOLVE_BATCH { 6 } else { 0 };
    let trailer = 24 + 16 * req.v.len();
    let fields = (0..24).chain(trailer..trailer + 6);
    (0..framing).chain(fields.map(|o| o + framing)).collect()
}

/// The hostile-input property: `payload` under `op` decodes to a typed
/// error, or to requests that re-encode to exactly `payload`.
fn errs_or_reencodes(op: u8, payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(reqs) = protocol::decode_solve(op, payload) {
        prop_assert!(op == protocol::OP_SOLVE_BATCH || reqs.len() == 1);
        prop_assert!(
            encode(op, reqs) == payload,
            "op {op:#04x}: an accepted payload of {} bytes re-encodes differently",
            payload.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_requests_round_trip_bitwise_under_every_solve_opcode(
        ndims in 2u8..4,
        k in 2u32..6,
        levels in 0u32..8,
        cycle_variant in (0u8..3, 0u8..4),
        steps in (0u8..5, 0u8..5, 0u8..5),
        scenario_mixed in (0u8..5, proptest::bool::ANY),
        count in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let ((cycle, variant), (scenario, mixed)) = (cycle_variant, scenario_mixed);
        let drawn = request(ndims, k, levels, cycle, variant, steps, scenario, mixed, seed);
        prop_assume!(drawn.is_some());
        let reqs = batch_of(&drawn.unwrap(), count, seed);
        for op in SOLVE_OPS {
            let sent = if op == protocol::OP_SOLVE_BATCH { reqs.clone() } else { reqs[..1].to_vec() };
            let bytes = encode(op, sent.clone());
            let got = protocol::decode_solve(op, &bytes)
                .map_err(|e| TestCaseError::fail(format!("op {op:#04x}: {e}")))?;
            prop_assert_eq!(got.len(), sent.len());
            for (g, s) in got.iter().zip(&sent) {
                prop_assert!(g.encode() == s.encode(), "op {op:#04x}: request changed in transit");
            }
            prop_assert!(encode(op, got) == bytes);
        }
    }

    #[test]
    fn truncated_and_flipped_payloads_err_or_reencode(
        ndims in 2u8..4,
        k in 2u32..4,
        scenario_mixed in (0u8..5, proptest::bool::ANY),
        count in 1usize..5,
        damage in (0usize..1 << 20, proptest::bool::ANY, 0usize..1 << 20, 0u8..=255),
        seed in 0u64..u64::MAX,
    ) {
        let ((scenario, mixed), (cut, on_field, at, byte)) = (scenario_mixed, damage);
        let req = request(ndims, k, 0, 0, 2, (2, 1, 2), scenario, mixed, seed).expect("valid");
        let reqs = batch_of(&req, count, seed);
        for op in SOLVE_OPS {
            let sent = if op == protocol::OP_SOLVE_BATCH { reqs.clone() } else { reqs[..1].to_vec() };
            let bytes = encode(op, sent);
            errs_or_reencodes(op, &bytes[..cut % bytes.len()])?;
            let fields = field_offsets(op, &req);
            let at = if on_field { fields[at % fields.len()] } else { at % bytes.len() };
            let mut flipped = bytes.clone();
            flipped[at] = byte;
            errs_or_reencodes(op, &flipped)?;
        }
    }

    #[test]
    fn arbitrary_bytes_err_or_reencode(
        bytes in collection::vec(0u8..=255, 0..512),
        op in 0usize..3,
    ) {
        errs_or_reencodes(SOLVE_OPS[op], &bytes)?;
    }
}
