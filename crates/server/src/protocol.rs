//! Wire protocol for the solve service.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [u32 payload_len LE] [u8 opcode] [payload bytes …]
//! ```
//!
//! `payload_len` counts only the payload (not the opcode byte), and is
//! bounded by [`MAX_FRAME`] so a corrupt or hostile header cannot make the
//! server allocate gigabytes. Multi-byte integers are little-endian
//! throughout; grids travel as raw `f64` bit patterns, which is what makes
//! the end-to-end bitwise verification in `loadgen` meaningful.
//!
//! Request opcodes are `0x0_`, responses `0x8_` (a request's reply is
//! `request | 0x80`); [`OP_ERROR`] is the single typed-failure response
//! (`[u16 code][utf8 message]`). The three solve opcodes carry one request
//! layout ([`SolveRequest`]) and differ only in framing — one request or a
//! counted batch ([`decode_solve`]). A malformed *frame* (truncated header,
//! oversized length) poisons the connection and it is closed after an error
//! frame is attempted; a malformed *payload* inside a well-formed frame only
//! fails that request — the connection stays usable.

use std::io::{Read, Write};

use gmg_multigrid::config::{ConfigError, CycleType, MgConfig, SmoothSteps};
use polymg::{Scenario, Variant};

/// Hard bound on a frame payload (64 MiB — a 2047² 2-D grid pair with
/// headroom). Anything larger is rejected before allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request: run a solve (payload = [`SolveRequest`]). Answered by
/// [`OP_SOLVE_OK`].
pub const OP_SOLVE: u8 = 0x01;
/// Request: liveness probe; payload is echoed back.
pub const OP_PING: u8 = 0x02;
/// Request: server counters as `key value` lines.
pub const OP_STATS: u8 = 0x03;
/// Request: drain in-flight solves, then acknowledge and stop.
pub const OP_SHUTDOWN: u8 = 0x04;
/// Request: run N same-shape solves in one batched engine pass (payload =
/// [`BatchSolveRequest`]). Answered by [`OP_SOLVE_BATCH_OK`] with all N
/// results, or by one [`OP_ERROR`] frame for the whole batch.
pub const OP_SOLVE_BATCH: u8 = 0x05;
/// Request: run a solve (payload = [`SolveRequest`], the same bytes as
/// [`OP_SOLVE`]); clients send it for non-default scenarios
/// ([`SolveRequest::needs_scenario_frame`]). Answered by
/// [`OP_SOLVE_SCENARIO_OK`].
pub const OP_SOLVE_SCENARIO: u8 = 0x06;

/// Response to [`OP_SOLVE`] (payload = [`SolveResponse`]).
pub const OP_SOLVE_OK: u8 = 0x81;
/// Response to [`OP_PING`].
pub const OP_PONG: u8 = 0x82;
/// Response to [`OP_STATS`].
pub const OP_STATS_OK: u8 = 0x83;
/// Response to [`OP_SHUTDOWN`], sent once the server is drained.
pub const OP_SHUTDOWN_ACK: u8 = 0x84;
/// Response to [`OP_SOLVE_BATCH`] (payload = [`BatchSolveResponse`]).
pub const OP_SOLVE_BATCH_OK: u8 = 0x85;
/// Response to [`OP_SOLVE_SCENARIO`] (payload = [`SolveResponse`]).
pub const OP_SOLVE_SCENARIO_OK: u8 = 0x86;
/// Typed failure: `[u16 code][utf8 message]`.
pub const OP_ERROR: u8 = 0xEE;

/// Hard bound on the RHS count of one [`OP_SOLVE_BATCH`] frame. A batch of
/// 64 finest 2-D grids already saturates [`MAX_FRAME`]; anything above is a
/// hostile or buggy client.
pub const MAX_BATCH: usize = 64;

/// Typed reasons a request can fail without killing the connection or the
/// server. The `u16` values are the wire encoding and must stay stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was unreadable (truncated, oversized). The
    /// connection is closed after this is sent.
    BadFrame = 1,
    /// The payload of a well-formed SOLVE frame failed to decode/validate.
    BadRequest = 2,
    /// The admission queue is at capacity — back off and retry.
    QueueFull = 3,
    /// The tenant already has its maximum number of solves in flight.
    TenantLimit = 4,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 5,
    /// Plan compilation failed for the requested configuration.
    CompileFailed = 6,
    /// The solve started but surfaced a typed `ExecError` (including
    /// injected chaos faults).
    ExecFailed = 7,
    /// The request frame's opcode is not part of the protocol.
    UnknownOpcode = 8,
    /// Server-side invariant failure (reply channel died, …).
    Internal = 9,
}

impl ErrorCode {
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::QueueFull,
            4 => ErrorCode::TenantLimit,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::CompileFailed,
            7 => ErrorCode::ExecFailed,
            8 => ErrorCode::UnknownOpcode,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }

    pub fn label(&self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::TenantLimit => "tenant-limit",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::CompileFailed => "compile-failed",
            ErrorCode::ExecFailed => "exec-failed",
            ErrorCode::UnknownOpcode => "unknown-opcode",
            ErrorCode::Internal => "internal",
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug)]
pub struct Frame {
    pub opcode: u8,
    pub payload: Vec<u8>,
}

/// Why [`read_frame`] could not produce a frame. `Closed` is the clean
/// case (EOF exactly at a frame boundary); everything else is a protocol
/// violation or transport failure.
#[derive(Debug)]
pub enum FrameError {
    /// Peer closed the connection between frames.
    Closed,
    /// Peer disconnected mid-frame (inside the header or payload).
    Truncated(&'static str),
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized(u32),
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated(at) => write!(f, "frame truncated in {at}"),
            FrameError::Oversized(len) => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_FRAME}")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Read until `buf` is full. Distinguishes EOF-before-any-byte (`Ok(false)`
/// when `allow_clean_eof`) from EOF mid-buffer (`Truncated`).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
    allow_clean_eof: bool,
) -> Result<bool, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && allow_clean_eof {
                    return Ok(false);
                }
                return Err(FrameError::Truncated(what));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame. Blocks until a full frame arrives or the peer fails.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut head = [0u8; 5];
    if !read_full(r, &mut head, "header", true)? {
        return Err(FrameError::Closed);
    }
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let opcode = head[4];
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, "payload", false)?;
    Ok(Frame { opcode, payload })
}

/// Encode one frame (header + payload) into a single buffer.
pub fn frame_bytes(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.push(opcode);
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame (single buffered write so a frame is never interleaved).
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_bytes(opcode, payload))?;
    w.flush()
}

/// Incremental frame boundary check against a receive buffer.
///
/// * `Ok(None)` — not enough bytes yet to know (header incomplete).
/// * `Ok(Some((opcode, total)))` — a frame starts at `buf[0]` and spans
///   `total` bytes (`5 + payload_len`); the payload may still be partial
///   (`buf.len() < total`), but the caller now knows how much to wait for.
/// * `Err(len)` — the header declares a payload larger than [`MAX_FRAME`];
///   the connection must be poisoned without allocating.
pub fn frame_boundary(buf: &[u8]) -> Result<Option<(u8, usize)>, u32> {
    if buf.len() < 5 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME {
        return Err(len);
    }
    Ok(Some((buf[4], 5 + len as usize)))
}

/// Encode an [`OP_ERROR`] payload.
pub fn encode_error(code: ErrorCode, msg: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(2 + msg.len());
    p.extend_from_slice(&(code as u16).to_le_bytes());
    p.extend_from_slice(msg.as_bytes());
    p
}

/// Decode an [`OP_ERROR`] payload.
pub fn decode_error(payload: &[u8]) -> Option<(ErrorCode, String)> {
    if payload.len() < 2 {
        return None;
    }
    let code = ErrorCode::from_u16(u16::from_le_bytes([payload[0], payload[1]]))?;
    Some((code, String::from_utf8_lossy(&payload[2..]).into_owned()))
}

/// Little-endian cursor over a payload; every accessor is bounds-checked so
/// a short payload yields a typed decode error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload too short: need {n} bytes for {what} at offset {}",
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, String> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64_vec(&mut self, n: usize, what: &str) -> Result<Vec<f64>, String> {
        let b = self.take(n * 8, what)?;
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// A solve request: one multigrid configuration plus the initial guess `v`
/// and right-hand side `f` (ghost layers included, finest level).
///
/// Every solve opcode carries this one layout — [`OP_SOLVE`] and
/// [`OP_SOLVE_SCENARIO`] one of it, [`OP_SOLVE_BATCH`] a counted list:
///
/// ```text
/// [u32 tenant][u8 ndims][u8 cycle][u8 variant][u8 pre][u8 coarse][u8 post]
/// [u16 iters][u32 n][u32 levels][u32 elems][elems × f64 v][elems × f64 f]
/// [u8 scenario][u8 mixed][u32 coeff_elems][coeff_elems × f64 coeff]
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Tenant id for per-tenant admission control.
    pub tenant: u32,
    /// 2 or 3.
    pub ndims: u8,
    /// 0 = V, 1 = W, 2 = F.
    pub cycle: u8,
    /// 0 = naive, 1 = opt, 2 = opt+, 3 = dtile-opt+.
    pub variant: u8,
    pub pre: u8,
    pub coarse: u8,
    pub post: u8,
    /// Cycles to run (each full multigrid cycle updates `v` in place).
    pub iters: u16,
    /// Finest interior size per dimension; must be `2^k − 1`.
    pub n: u32,
    /// Multigrid levels; 0 selects the default (4, clamped to fit `n`).
    pub levels: u32,
    /// Scenario wire id ([`Scenario::wire_id`]); 0 is constant-coefficient.
    pub scenario: u8,
    /// Run the smoothing chains on the mixed-precision (f32) tier.
    pub mixed: bool,
    pub v: Vec<f64>,
    pub f: Vec<f64>,
    /// Variable-coefficient grid ("A", finest level, ghost ring included).
    /// Empty means none; only the `varcoef` scenario carries one.
    pub coeff: Vec<f64>,
}

/// Largest finest interior size a request may name: bounds what the header
/// makes the server compute before the grids arrive.
const MAX_N: u32 = 8191;

impl SolveRequest {
    /// The request in the one layout of the type's doc.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(30 + 16 * self.v.len() + 8 * self.coeff.len());
        p.extend_from_slice(&self.tenant.to_le_bytes());
        p.extend_from_slice(&[self.ndims, self.cycle, self.variant]);
        p.extend_from_slice(&[self.pre, self.coarse, self.post]);
        p.extend_from_slice(&self.iters.to_le_bytes());
        p.extend_from_slice(&self.n.to_le_bytes());
        p.extend_from_slice(&self.levels.to_le_bytes());
        p.extend_from_slice(&(self.v.len() as u32).to_le_bytes());
        for &x in self.v.iter().chain(&self.f) {
            p.extend_from_slice(&x.to_le_bytes());
        }
        p.extend_from_slice(&[self.scenario, self.mixed as u8]);
        p.extend_from_slice(&(self.coeff.len() as u32).to_le_bytes());
        for &x in &self.coeff {
            p.extend_from_slice(&x.to_le_bytes());
        }
        p
    }

    /// [`SolveRequest::encode`]; the name stays because `benchmark/` calls it.
    pub fn encode_scenario(&self) -> Vec<u8> {
        self.encode()
    }

    /// [`SolveRequest::decode`]; the name stays because `benchmark/` calls it.
    pub fn decode_scenario(payload: &[u8]) -> Result<SolveRequest, String> {
        SolveRequest::decode(payload)
    }

    /// Decode and fully validate one request: the configuration
    /// ([`MgConfig::validate`]), the grid lengths, the strict `mixed` byte,
    /// and the scenario against its precision tier and coefficient grid
    /// ([`Scenario::validate`]). Nothing a hostile payload carries can panic
    /// the server, and an accepted payload re-encodes to itself.
    pub fn decode(payload: &[u8]) -> Result<SolveRequest, String> {
        let mut c = Cursor::new(payload);
        let mut req = SolveRequest {
            tenant: c.u32("tenant")?,
            ndims: c.u8("ndims")?,
            cycle: c.u8("cycle")?,
            variant: c.u8("variant")?,
            pre: c.u8("pre")?,
            coarse: c.u8("coarse")?,
            post: c.u8("post")?,
            iters: c.u16("iters")?,
            n: c.u32("n")?,
            levels: c.u32("levels")?,
            scenario: 0,
            mixed: false,
            v: Vec::new(),
            f: Vec::new(),
            coeff: Vec::new(),
        };
        let elems = c.u32("elems")? as usize;
        if req.cycle > 2 {
            return Err(format!(
                "cycle must be 0 (V), 1 (W) or 2 (F), got {}",
                req.cycle
            ));
        }
        if req.variant > 3 {
            return Err(format!("variant must be 0..=3, got {}", req.variant));
        }
        if req.iters == 0 || req.iters > 64 {
            return Err(format!("iters must be in 1..=64, got {}", req.iters));
        }
        req.try_config().map_err(|e| e.to_string())?;
        if req.n > MAX_N {
            return Err(format!(
                "n = {} exceeds the largest servable size {MAX_N}",
                req.n
            ));
        }
        let expect = (req.n as usize + 2).pow(req.ndims as u32);
        if elems != expect {
            return Err(format!(
                "grid length {elems} does not match (n+2)^ndims = {expect}"
            ));
        }
        req.v = c.f64_vec(elems, "v")?;
        req.f = c.f64_vec(elems, "f")?;
        req.scenario = c.u8("scenario")?;
        req.mixed = match c.u8("mixed")? {
            0 => false,
            1 => true,
            b => return Err(format!("mixed flag must be 0 or 1, got {b}")),
        };
        let coeff_elems = c.u32("coeff_elems")? as usize;
        if coeff_elems != 0 && coeff_elems != expect {
            return Err(format!(
                "coefficient grid length {coeff_elems} does not match (n+2)^ndims = {expect}"
            ));
        }
        req.coeff = c.f64_vec(coeff_elems, "coeff")?;
        c.done()?;
        Scenario::from_wire_id(req.scenario)
            .and_then(|sc| sc.validate(req.mixed, !req.coeff.is_empty()))
            .map_err(|e| e.to_string())?;
        Ok(req)
    }

    /// The multigrid configuration the header describes, or why it
    /// describes none. A `levels` of 0 resolves to the default here, so the
    /// decoded request keeps the bytes it arrived as.
    fn try_config(&self) -> Result<MgConfig, ConfigError> {
        let cycle = match self.cycle {
            0 => CycleType::V,
            1 => CycleType::W,
            _ => CycleType::F,
        };
        let steps = SmoothSteps {
            pre: self.pre as usize,
            coarse: self.coarse as usize,
            post: self.post as usize,
        };
        let levels = match self.levels {
            // default 4, clamped to the deepest hierarchy n supports
            0 => 4u32.min(self.n.wrapping_add(1).trailing_zeros().max(1)),
            l => l,
        };
        MgConfig::checked(self.ndims as usize, self.n as i64, levels, cycle, steps)
    }

    /// The multigrid configuration this request describes. Only valid after
    /// [`SolveRequest::decode`]'s checks (panics otherwise).
    pub fn config(&self) -> MgConfig {
        self.try_config().expect("validated on decode")
    }

    pub fn variant_enum(&self) -> Variant {
        match self.variant {
            0 => Variant::Naive,
            1 => Variant::Opt,
            2 => Variant::OptPlus,
            _ => Variant::DtileOptPlus,
        }
    }

    /// The decoded scenario. Only valid after [`SolveRequest::decode`]
    /// (which rejects unknown wire ids).
    pub fn scenario_enum(&self) -> Scenario {
        Scenario::from_wire_id(self.scenario).expect("validated on decode")
    }

    /// Does a client send this request as [`OP_SOLVE_SCENARIO`] rather than
    /// [`OP_SOLVE`]? Anything but the constant-coefficient f64 default does;
    /// both opcodes carry the same payload and differ only in the reply
    /// opcode.
    pub fn needs_scenario_frame(&self) -> bool {
        self.scenario != 0 || self.mixed || !self.coeff.is_empty()
    }

    /// Build a request from a configuration and grids (client side).
    pub fn from_config(
        cfg: &MgConfig,
        variant: Variant,
        tenant: u32,
        iters: u16,
        v: Vec<f64>,
        f: Vec<f64>,
    ) -> SolveRequest {
        let cycle = match cfg.cycle {
            CycleType::V => 0,
            CycleType::W => 1,
            CycleType::F => 2,
        };
        let variant = match variant {
            Variant::Naive => 0,
            Variant::Opt => 1,
            Variant::OptPlus => 2,
            Variant::DtileOptPlus => 3,
        };
        SolveRequest {
            tenant,
            ndims: cfg.ndims as u8,
            cycle,
            variant,
            pre: cfg.steps.pre as u8,
            coarse: cfg.steps.coarse as u8,
            post: cfg.steps.post as u8,
            iters,
            n: cfg.n as u32,
            levels: cfg.levels,
            scenario: 0,
            mixed: false,
            v,
            f,
            coeff: Vec::new(),
        }
    }
}

/// The requests a solve frame carries — the server's one solve decode.
/// The opcode decides only the framing: [`OP_SOLVE_BATCH`] is a counted
/// [`BatchSolveRequest`], every other solve opcode one [`SolveRequest`].
pub fn decode_solve(opcode: u8, payload: &[u8]) -> Result<Vec<SolveRequest>, String> {
    if opcode == OP_SOLVE_BATCH {
        BatchSolveRequest::decode(payload).map(|b| b.reqs)
    } else {
        SolveRequest::decode(payload).map(|r| vec![r])
    }
}

/// What a request compiles to, as one comparable value: the ten header
/// fields that select the pipeline, the variant and the precision tier.
/// Everything else in a [`SolveRequest`] is data (`tenant`, `iters`, grids).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RequestShape {
    ndims: u8,
    cycle: u8,
    variant: u8,
    pre: u8,
    coarse: u8,
    post: u8,
    n: u32,
    levels: u32,
    scenario: u8,
    mixed: bool,
}

impl SolveRequest {
    /// The plan-selecting header fields (see [`RequestShape`]).
    pub(crate) fn shape(&self) -> RequestShape {
        RequestShape {
            ndims: self.ndims,
            cycle: self.cycle,
            variant: self.variant,
            pre: self.pre,
            coarse: self.coarse,
            post: self.post,
            n: self.n,
            levels: self.levels,
            scenario: self.scenario,
            mixed: self.mixed,
        }
    }

    /// Do two requests compile to the same plan and run the same iteration
    /// count — i.e. can they share one batched engine pass? Tenant is
    /// deliberately excluded: coalescing across tenants is allowed (each
    /// keeps its own admission charge). Scenario, precision tier and the
    /// coefficient grid (bitwise) are included: a batched pass binds one
    /// "A" grid for every lane.
    pub fn same_plan_shape(&self, other: &SolveRequest) -> bool {
        self.shape() == other.shape()
            && self.iters == other.iters
            && self.coeff.len() == other.coeff.len()
            && self
                .coeff
                .iter()
                .zip(&other.coeff)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// N same-shape solves in one frame: `[u16 count]` then per request
/// `[u32 len][SolveRequest bytes]`. All embedded requests must agree on
/// plan shape (they run as one batched engine pass) and tenant (the frame
/// is admitted as one unit of the sender's quota).
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSolveRequest {
    pub reqs: Vec<SolveRequest>,
}

impl BatchSolveRequest {
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&(self.reqs.len() as u16).to_le_bytes());
        for req in &self.reqs {
            let bytes = req.encode();
            p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            p.extend_from_slice(&bytes);
        }
        p
    }

    /// Decode and fully validate: every embedded request passes
    /// [`SolveRequest::decode`]'s checks, the count matches the payload,
    /// and the batch is shape- and tenant-homogeneous.
    pub fn decode(payload: &[u8]) -> Result<BatchSolveRequest, String> {
        let mut c = Cursor::new(payload);
        let count = c.u16("batch count")? as usize;
        if count == 0 {
            return Err("batch count must be at least 1".to_string());
        }
        if count > MAX_BATCH {
            return Err(format!("batch count {count} exceeds maximum {MAX_BATCH}"));
        }
        let mut reqs = Vec::with_capacity(count);
        for i in 0..count {
            let len = c.u32("embedded request length")? as usize;
            let bytes = c.take(len, "embedded request")?;
            let req = SolveRequest::decode(bytes).map_err(|e| format!("batch request {i}: {e}"))?;
            reqs.push(req);
        }
        c.done()?;
        for (i, req) in reqs.iter().enumerate().skip(1) {
            if !req.same_plan_shape(&reqs[0]) {
                return Err(format!(
                    "mixed-shape batch: request {i} differs from request 0"
                ));
            }
            if req.tenant != reqs[0].tenant {
                return Err(format!(
                    "mixed-tenant batch: request {i} has tenant {}, request 0 has {}",
                    req.tenant, reqs[0].tenant
                ));
            }
        }
        Ok(BatchSolveRequest { reqs })
    }
}

/// Response to a batch: every grid solved, in request order.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSolveResponse {
    /// Server-side service time of the whole batched pass.
    pub elapsed_ns: u64,
    pub vs: Vec<Vec<f64>>,
}

impl BatchSolveResponse {
    pub fn encode(&self) -> Vec<u8> {
        let grid: usize = self.vs.first().map(|v| v.len()).unwrap_or(0);
        let mut p = Vec::with_capacity(10 + self.vs.len() * (4 + 8 * grid));
        p.extend_from_slice(&self.elapsed_ns.to_le_bytes());
        p.extend_from_slice(&(self.vs.len() as u16).to_le_bytes());
        for v in &self.vs {
            p.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for &x in v {
                p.extend_from_slice(&x.to_le_bytes());
            }
        }
        p
    }

    pub fn decode(payload: &[u8]) -> Result<BatchSolveResponse, String> {
        let mut c = Cursor::new(payload);
        let elapsed_ns = c.u64("elapsed_ns")?;
        let count = c.u16("batch count")? as usize;
        let mut vs = Vec::with_capacity(count);
        for _ in 0..count {
            let elems = c.u32("elems")? as usize;
            vs.push(c.f64_vec(elems, "v")?);
        }
        c.done()?;
        Ok(BatchSolveResponse { elapsed_ns, vs })
    }
}

/// A successful solve: the updated fine-grid solution.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveResponse {
    /// Server-side service time (excludes queue wait).
    pub elapsed_ns: u64,
    pub v: Vec<f64>,
}

impl SolveResponse {
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(12 + 8 * self.v.len());
        p.extend_from_slice(&self.elapsed_ns.to_le_bytes());
        p.extend_from_slice(&(self.v.len() as u32).to_le_bytes());
        for &x in &self.v {
            p.extend_from_slice(&x.to_le_bytes());
        }
        p
    }

    pub fn decode(payload: &[u8]) -> Result<SolveResponse, String> {
        let mut c = Cursor::new(payload);
        let elapsed_ns = c.u64("elapsed_ns")?;
        let elems = c.u32("elems")? as usize;
        let v = c.f64_vec(elems, "v")?;
        c.done()?;
        Ok(SolveResponse { elapsed_ns, v })
    }
}

/// Parse an [`OP_STATS_OK`] payload (`key value` lines) into pairs.
pub fn decode_stats(payload: &[u8]) -> Vec<(String, u64)> {
    let text = String::from_utf8_lossy(payload);
    text.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let k = it.next()?;
            let v = it.next()?.parse().ok()?;
            Some((k.to_string(), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request() -> SolveRequest {
        let cfg = MgConfig::new(2, 7, CycleType::V, SmoothSteps::s444());
        let len = (7 + 2) * (7 + 2);
        let mut cfg = cfg;
        cfg.levels = 2;
        SolveRequest::from_config(&cfg, Variant::OptPlus, 3, 2, vec![0.5; len], vec![1.5; len])
    }

    #[test]
    fn solve_request_round_trips() {
        let req = small_request();
        let back = SolveRequest::decode(&req.encode()).expect("decode");
        assert_eq!(back, req);
        assert_eq!(back.config().tag(), "V-2D-4-4-4");

        // levels 0 is the default: kept as sent, resolved by config()
        let mut req = small_request();
        req.levels = 0;
        let back = SolveRequest::decode(&req.encode()).expect("decode");
        assert_eq!((back.levels, back.config().levels), (0, 3));
    }

    #[test]
    fn solve_response_round_trips() {
        let resp = SolveResponse {
            elapsed_ns: 123_456,
            v: vec![1.0, -2.5, f64::MIN_POSITIVE],
        };
        let back = SolveResponse::decode(&resp.encode()).expect("decode");
        assert_eq!(back, resp);
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        let good = small_request().encode();
        // truncated payload
        assert!(SolveRequest::decode(&good[..10]).is_err());
        // trailing garbage
        let mut long = good.clone();
        long.push(0);
        assert!(SolveRequest::decode(&long).is_err());
        // n not 2^k - 1
        let mut req = small_request();
        req.n = 8;
        assert!(SolveRequest::decode(&req.encode())
            .unwrap_err()
            .contains("2^k"));
        // grid length mismatch
        let mut req = small_request();
        req.v.pop();
        req.f.pop();
        assert!(SolveRequest::decode(&req.encode()).is_err());
        // too many levels for n
        let mut req = small_request();
        req.levels = 5;
        assert!(SolveRequest::decode(&req.encode())
            .unwrap_err()
            .contains("too deep"));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello").unwrap();
        write_frame(&mut buf, OP_STATS, b"").unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r).unwrap();
        assert_eq!((f1.opcode, f1.payload.as_slice()), (OP_PING, &b"hello"[..]));
        let f2 = read_frame(&mut r).unwrap();
        assert_eq!(f2.opcode, OP_STATS);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));

        // header declaring an absurd length is rejected without allocating
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut bad = huge.to_vec();
        bad.push(OP_PING);
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Oversized(_))
        ));

        // EOF inside the header is Truncated, not Closed
        let partial = [1u8, 0];
        assert!(matches!(
            read_frame(&mut &partial[..]),
            Err(FrameError::Truncated("header"))
        ));
    }

    #[test]
    fn frame_boundary_tracks_partial_frames() {
        let buf = frame_bytes(OP_PING, b"hello");
        // fewer than 5 bytes: undecidable
        assert_eq!(frame_boundary(&buf[..4]), Ok(None));
        // header visible: boundary known even while the payload is partial
        assert_eq!(frame_boundary(&buf[..5]), Ok(Some((OP_PING, 10))));
        assert_eq!(frame_boundary(&buf[..7]), Ok(Some((OP_PING, 10))));
        assert_eq!(frame_boundary(&buf), Ok(Some((OP_PING, 10))));
        // trailing bytes of a following frame do not confuse the boundary
        let mut two = buf.clone();
        two.extend_from_slice(&frame_bytes(OP_STATS, b""));
        assert_eq!(frame_boundary(&two), Ok(Some((OP_PING, 10))));
        assert_eq!(frame_boundary(&two[10..]), Ok(Some((OP_STATS, 5))));
        // oversized declarations are rejected before any allocation
        let mut bad = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bad.push(OP_PING);
        assert_eq!(frame_boundary(&bad), Err(MAX_FRAME + 1));
    }

    #[test]
    fn error_frames_round_trip() {
        let p = encode_error(ErrorCode::QueueFull, "busy");
        let (code, msg) = decode_error(&p).unwrap();
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(msg, "busy");
        assert!(decode_error(&[1]).is_none());
    }

    #[test]
    fn batch_request_round_trips() {
        let mut r0 = small_request();
        let mut r1 = small_request();
        r0.f[5] = 7.25;
        r1.v[3] = -1.5;
        let batch = BatchSolveRequest {
            reqs: vec![r0, r1],
        };
        let back = BatchSolveRequest::decode(&batch.encode()).expect("decode");
        assert_eq!(back, batch);
    }

    #[test]
    fn batch_response_round_trips() {
        let resp = BatchSolveResponse {
            elapsed_ns: 42,
            vs: vec![vec![1.0, 2.0], vec![-0.5, f64::MIN_POSITIVE]],
        };
        let back = BatchSolveResponse::decode(&resp.encode()).expect("decode");
        assert_eq!(back, resp);
    }

    #[test]
    fn batch_decode_rejects_malformed() {
        // zero count
        assert!(BatchSolveRequest::decode(&0u16.to_le_bytes())
            .unwrap_err()
            .contains("at least 1"));
        // oversized count
        let mut p = ((MAX_BATCH + 1) as u16).to_le_bytes().to_vec();
        p.extend_from_slice(&[0; 64]);
        assert!(BatchSolveRequest::decode(&p)
            .unwrap_err()
            .contains("exceeds maximum"));
        // count/payload mismatch: declares 2, carries 1
        let one = small_request().encode();
        let mut p = 2u16.to_le_bytes().to_vec();
        p.extend_from_slice(&(one.len() as u32).to_le_bytes());
        p.extend_from_slice(&one);
        assert!(BatchSolveRequest::decode(&p).is_err());
        // embedded length overruns the payload
        let mut p = 1u16.to_le_bytes().to_vec();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&one[..8]);
        assert!(BatchSolveRequest::decode(&p).is_err());
        // trailing garbage after the last embedded request
        let good = BatchSolveRequest {
            reqs: vec![small_request()],
        }
        .encode();
        let mut p = good.clone();
        p.push(0);
        assert!(BatchSolveRequest::decode(&p)
            .unwrap_err()
            .contains("trailing"));
        // a malformed embedded request names its index
        let mut bad_inner = small_request();
        bad_inner.n = 8;
        let batch = BatchSolveRequest {
            reqs: vec![small_request(), bad_inner],
        };
        assert!(BatchSolveRequest::decode(&batch.encode())
            .unwrap_err()
            .contains("batch request 1"));
        // mixed shapes are rejected
        let mut other = small_request();
        other.iters += 1;
        let batch = BatchSolveRequest {
            reqs: vec![small_request(), other],
        };
        assert!(BatchSolveRequest::decode(&batch.encode())
            .unwrap_err()
            .contains("mixed-shape"));
        // mixed tenants are rejected
        let mut other = small_request();
        other.tenant += 1;
        let batch = BatchSolveRequest {
            reqs: vec![small_request(), other],
        };
        assert!(BatchSolveRequest::decode(&batch.encode())
            .unwrap_err()
            .contains("mixed-tenant"));
    }

    #[test]
    fn same_plan_shape_ignores_tenant_only() {
        let a = small_request();
        let mut b = small_request();
        b.tenant += 9;
        b.v[0] += 1.0;
        assert!(a.same_plan_shape(&b));
        let mut c = small_request();
        c.levels += 1;
        assert!(!a.same_plan_shape(&c));
    }

    #[test]
    fn scenario_request_round_trips() {
        // varcoef with a coefficient grid
        let mut req = small_request();
        req.scenario = Scenario::VarCoef.wire_id();
        req.coeff = (0..req.v.len()).map(|i| 1.0 + 0.01 * i as f64).collect();
        let back = SolveRequest::decode_scenario(&req.encode_scenario()).expect("decode");
        assert_eq!(back, req);
        assert_eq!(back.scenario_enum(), Scenario::VarCoef);
        assert!(back.needs_scenario_frame());

        // mixed-precision constant (no coeff)
        let mut req = small_request();
        req.mixed = true;
        let back = SolveRequest::decode_scenario(&req.encode_scenario()).expect("decode");
        assert_eq!(back, req);

        // every coeff-free scenario rides the frame with an empty grid
        for sc in [Scenario::Constant, Scenario::Fmg, Scenario::Rbgs, Scenario::Chebyshev] {
            let mut req = small_request();
            req.scenario = sc.wire_id();
            let back = SolveRequest::decode_scenario(&req.encode_scenario()).expect("decode");
            assert_eq!(back.scenario_enum(), sc);
        }
    }

    #[test]
    fn scenario_decode_rejects_invalid_shapes() {
        // unknown wire id
        let mut req = small_request();
        req.scenario = 9;
        assert!(SolveRequest::decode_scenario(&req.encode_scenario())
            .unwrap_err()
            .contains("wire id"));

        // varcoef without a coefficient grid
        let mut req = small_request();
        req.scenario = Scenario::VarCoef.wire_id();
        assert!(SolveRequest::decode_scenario(&req.encode_scenario())
            .unwrap_err()
            .contains("coefficient grid"));

        // coeff on a scenario that takes none
        let mut req = small_request();
        req.coeff = vec![1.0; req.v.len()];
        assert!(SolveRequest::decode_scenario(&req.encode_scenario())
            .unwrap_err()
            .contains("takes no coefficient"));

        // mixed precision on a multi-case smoother
        let mut req = small_request();
        req.scenario = Scenario::Chebyshev.wire_id();
        req.mixed = true;
        assert!(SolveRequest::decode_scenario(&req.encode_scenario())
            .unwrap_err()
            .contains("mixed-precision"));

        // coeff grid length must match the solve grids
        let mut req = small_request();
        req.scenario = Scenario::VarCoef.wire_id();
        req.coeff = vec![1.0; 7];
        assert!(SolveRequest::decode_scenario(&req.encode_scenario())
            .unwrap_err()
            .contains("does not match"));

        // mixed flag must be a strict boolean byte
        let mut req = small_request();
        req.mixed = true;
        let mut p = req.encode_scenario();
        let mixed_at = p.len() - 4 - 1; // before [u32 coeff_elems = 0]
        assert_eq!(p[mixed_at], 1);
        p[mixed_at] = 2;
        assert!(SolveRequest::decode_scenario(&p)
            .unwrap_err()
            .contains("mixed flag"));
    }

    #[test]
    fn same_plan_shape_separates_scenarios() {
        let a = small_request();
        // scenario differs
        let mut b = small_request();
        b.scenario = Scenario::Rbgs.wire_id();
        assert!(!a.same_plan_shape(&b));
        // precision tier differs
        let mut b = small_request();
        b.mixed = true;
        assert!(!a.same_plan_shape(&b));
        // same varcoef scenario, different coefficient grid (bitwise)
        let mut c0 = small_request();
        c0.scenario = Scenario::VarCoef.wire_id();
        c0.coeff = vec![1.0; c0.v.len()];
        let mut c1 = c0.clone();
        assert!(c0.same_plan_shape(&c1));
        c1.coeff[0] = 1.5;
        assert!(!c0.same_plan_shape(&c1));
    }

    #[test]
    fn stats_payload_parses() {
        let pairs = decode_stats(b"requests 10\nok 9\nbad-line\nexec_errors 1\n");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], ("requests".to_string(), 10));
    }
}
