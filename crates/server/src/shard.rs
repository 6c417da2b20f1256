//! The per-shard readiness loop: nonblocking accept, ring-buffer frame
//! decode, connection ownership, and ordered response flushing.
//!
//! Each shard runs one event loop thread around a level-triggered epoll
//! set (via the in-tree `shim-epoll` crate) holding three kinds of fds:
//!
//! * an eventfd **waker** (token 0) — how workers and other shards
//!   interrupt a blocked `epoll_wait` (solve completions, adoptions,
//!   shutdown); no drain-time self-connection anywhere,
//! * the **listener** (token 1, shard 0 only) — accepted connections are
//!   dealt round-robin across shards, since the owning tenant is unknown
//!   until the first solve payload arrives,
//! * **connections** (tokens ≥ 2, monotonic, never reused) — each with a
//!   compacting receive ring ([`RingBuf`]) and a sequence-ordered outbox.
//!
//! Frame decode is incremental: [`protocol::frame_boundary`] finds frame
//! edges in whatever bytes have arrived, oversized declarations poison the
//! connection before any allocation, and solve payloads decode straight
//! out of the ring slice — the wire bytes are copied exactly once, into
//! the `f64` grids the engine consumes.
//!
//! Responses carry the per-connection sequence number assigned at decode,
//! so pipelined requests are answered strictly in request order even when
//! their solves finish out of order on different workers.
//!
//! A connection *migrates* at most once: when its first solve names a
//! tenant whose [`shard_for_tenant`] home is another shard, the whole
//! connection (socket, ring residue, decoded-but-unadmitted job) is handed
//! over through the target's inbox, and every later request from that
//! connection is admitted, solved, and answered entirely shard-locally.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shim_epoll::{Event, Interest};

use crate::protocol::{self, ErrorCode, SolveRequest};
use crate::ring::RingBuf;
use crate::server::{shard_for_tenant, Shard, Shared};

const TOK_WAKER: u64 = 0;
const TOK_LISTENER: u64 = 1;
const TOK_FIRST_CONN: u64 = 2;

/// Outbox pull target per flush round: enough to keep `write` syscalls
/// large, small enough to bound per-connection buffering.
const WBUF_TARGET: usize = 1 << 20;

/// How long a drained server keeps trying to flush stragglers before
/// force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One connection owned by a shard's event loop.
pub(crate) struct Conn {
    stream: TcpStream,
    ring: RingBuf,
    /// Sequence number assigned to the next decoded request.
    next_seq: u64,
    /// Sequence number of the next response to transmit.
    send_seq: u64,
    /// Finished response frames waiting for their turn (keyed by seq, so
    /// out-of-order completions park here until the gap fills).
    ready: BTreeMap<u64, Vec<u8>>,
    /// In-progress wire buffer (`wpos..` is unsent).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Home shard once the first solve named a tenant; `None` until then.
    home: Option<usize>,
    /// Framing is poisoned (or drain is closing us): flush what is owed,
    /// accept nothing more, then hang up.
    close_after_flush: bool,
    /// SHUTDOWN echoes owed once the server drains, at their request seq.
    parked_acks: Vec<(u64, Vec<u8>)>,
    /// Interest currently registered with the poller.
    reg: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            ring: RingBuf::new(),
            next_seq: 0,
            send_seq: 0,
            ready: BTreeMap::new(),
            wbuf: Vec::new(),
            wpos: 0,
            home: None,
            close_after_flush: false,
            parked_acks: Vec::new(),
            reg: Interest::READABLE,
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn enqueue(&mut self, seq: u64, frame: Vec<u8>) {
        self.ready.insert(seq, frame);
    }

    /// Pull due response frames (in seq order, no gaps) into the wire
    /// buffer, up to the pull target.
    fn pump(&mut self) {
        while self.wbuf.len() < WBUF_TARGET {
            match self.ready.remove(&self.send_seq) {
                Some(frame) => {
                    if self.wbuf.is_empty() && self.wpos == 0 {
                        self.wbuf = frame;
                    } else {
                        self.wbuf.extend_from_slice(&frame);
                    }
                    self.send_seq += 1;
                }
                None => break,
            }
        }
    }

    /// Write as much owed data as the socket accepts right now.
    /// `Ok(())` means either fully flushed or the socket would block;
    /// `Err` means the connection is dead.
    fn try_flush(&mut self) -> std::io::Result<()> {
        loop {
            if self.wpos == self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
                self.pump();
                if self.wbuf.is_empty() {
                    return Ok(());
                }
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn has_pending_writes(&self) -> bool {
        self.wpos < self.wbuf.len() || self.ready.contains_key(&self.send_seq)
    }
}

/// A solve decoded on one shard but owed admission on another (it rides
/// along with its connection during migration).
pub(crate) struct PendingJob {
    pub reqs: Vec<SolveRequest>,
    /// The solve opcode the job arrived under.
    pub op: u8,
    pub seq: u64,
}

/// Cross-thread messages into a shard's event loop.
pub(crate) enum ShardMsg {
    /// Take ownership of a connection: from the acceptor (round-robin
    /// deal, `migrated == false`) or from another shard that resolved the
    /// connection's tenant home here (`migrated == true`, possibly with a
    /// decoded job still owed admission and with undecoded ring residue).
    Adopt {
        conn: Box<Conn>,
        pending: Option<PendingJob>,
        migrated: bool,
    },
    /// A worker finished the request `(conn, seq)`; the encoded response
    /// frame is ready to enter that connection's ordered outbox.
    Complete { conn: u64, seq: u64, frame: Vec<u8> },
}

/// What the caller must do with a connection after driving it.
enum Directive {
    Keep,
    Close { truncated: bool },
    Migrate { target: usize, pending: PendingJob },
}

enum After {
    Keep,
    Drop,
}

/// Flush, then reconcile poller interest with what the connection still
/// needs; `Drop` when it is dead or done.
fn settle(shard: &Shard, token: u64, conn: &mut Conn) -> After {
    if conn.try_flush().is_err() {
        return After::Drop;
    }
    if conn.close_after_flush && !conn.has_pending_writes() {
        return After::Drop;
    }
    let want = Interest {
        readable: !conn.close_after_flush,
        writable: conn.has_pending_writes(),
    };
    if want != conn.reg {
        if shard
            .poller
            .modify(conn.stream.as_raw_fd(), token, want)
            .is_err()
        {
            return After::Drop;
        }
        conn.reg = want;
    }
    After::Keep
}

fn close_conn(
    sh: &Shared,
    shard: &Shard,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    truncated: bool,
) {
    if let Some(conn) = conns.remove(&token) {
        if truncated {
            // The peer vanished mid-frame: count it and attempt (best
            // effort, the peer is usually gone) a typed goodbye.
            sh.count_protocol_error();
            let payload =
                protocol::encode_error(ErrorCode::BadFrame, "frame truncated by peer disconnect");
            let _ = (&conn.stream).write(&protocol::frame_bytes(protocol::OP_ERROR, &payload));
        }
        let _ = shard.poller.remove(conn.stream.as_raw_fd());
        // dropping the Conn closes the socket
    }
}

/// Register a connection with this shard's poller and map. Returns the
/// token, or `None` if registration failed (the connection is dropped).
fn register(
    shard: &Shard,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    mut conn: Conn,
) -> Option<u64> {
    let token = *next_token;
    *next_token += 1;
    if shard
        .poller
        .add(conn.stream.as_raw_fd(), token, Interest::READABLE)
        .is_err()
    {
        return None;
    }
    conn.reg = Interest::READABLE;
    shard.counters.accepted.fetch_add(1, Ordering::Relaxed);
    conns.insert(token, conn);
    Some(token)
}

/// Act on a directive produced by driving or flushing a connection.
fn apply(
    sh: &Arc<Shared>,
    shard_id: usize,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    d: Directive,
) {
    let shard = &sh.shards[shard_id];
    match d {
        Directive::Keep => {
            if let Some(conn) = conns.get_mut(&token) {
                if let After::Drop = settle(shard, token, conn) {
                    close_conn(sh, shard, conns, token, false);
                }
            }
        }
        Directive::Close { truncated } => close_conn(sh, shard, conns, token, truncated),
        Directive::Migrate { target, pending } => {
            if let Some(conn) = conns.remove(&token) {
                let _ = shard.poller.remove(conn.stream.as_raw_fd());
                sh.shards[target].send(ShardMsg::Adopt {
                    conn: Box::new(conn),
                    pending: Some(pending),
                    migrated: true,
                });
            }
        }
    }
}

/// Route a decoded solve: resolve the connection's home shard on first
/// contact (possibly migrating the whole connection), otherwise admit it
/// here. Admission rejections become typed error frames at the request's
/// seq — the connection stays open.
fn route(
    sh: &Shared,
    shard_id: usize,
    token: u64,
    conn: &mut Conn,
    seq: u64,
    reqs: Vec<SolveRequest>,
    op: u8,
) -> Option<Directive> {
    if conn.home.is_none() {
        let target = shard_for_tenant(reqs[0].tenant, sh.shards.len());
        conn.home = Some(target);
        if target != shard_id {
            return Some(Directive::Migrate {
                target,
                pending: PendingJob { reqs, op, seq },
            });
        }
    }
    if let Err((code, msg)) = sh.admit(shard_id, token, seq, reqs, op) {
        let payload = protocol::encode_error(code, &msg);
        conn.enqueue(seq, protocol::frame_bytes(protocol::OP_ERROR, &payload));
    }
    None
}

/// A request decoded to owned data, so the ring slice borrow can end
/// before the handler needs the connection mutably.
enum Msg {
    Ping(Vec<u8>),
    Stats,
    Shutdown(Vec<u8>),
    /// A solve frame's requests (or why they did not decode) and its
    /// opcode.
    Solve(Result<Vec<SolveRequest>, String>, u8),
    Unknown(u8),
}

/// Decode and handle every complete frame in the ring. `None` means "keep
/// the connection and carry on"; `Some` is a close or migration demand.
fn parse_available(
    sh: &Shared,
    shard_id: usize,
    token: u64,
    conn: &mut Conn,
) -> Option<Directive> {
    let shard = &sh.shards[shard_id];
    loop {
        if conn.close_after_flush {
            return None;
        }
        let (opcode, total) = match protocol::frame_boundary(conn.ring.available()) {
            Ok(None) => return None,
            Ok(Some(x)) => x,
            Err(len) => {
                // Poison: we can no longer find frame boundaries. Answer
                // once (ordered behind anything already owed), then hang up
                // after the flush.
                sh.count_protocol_error();
                let seq = conn.alloc_seq();
                let msg = format!(
                    "declared payload of {len} bytes exceeds {}",
                    protocol::MAX_FRAME
                );
                let payload = protocol::encode_error(ErrorCode::BadFrame, &msg);
                conn.enqueue(seq, protocol::frame_bytes(protocol::OP_ERROR, &payload));
                conn.close_after_flush = true;
                return None;
            }
        };
        if conn.ring.available().len() < total {
            // Partial frame: pre-size the ring so the rest lands
            // contiguously, then wait for more bytes.
            conn.ring.ensure_capacity(total);
            return None;
        }
        shard.counters.frames.fetch_add(1, Ordering::Relaxed);
        let msg = {
            let payload = &conn.ring.available()[5..total];
            match opcode {
                protocol::OP_PING => Msg::Ping(payload.to_vec()),
                protocol::OP_STATS => Msg::Stats,
                protocol::OP_SHUTDOWN => Msg::Shutdown(payload.to_vec()),
                op @ (protocol::OP_SOLVE
                | protocol::OP_SOLVE_SCENARIO
                | protocol::OP_SOLVE_BATCH) => Msg::Solve(protocol::decode_solve(op, payload), op),
                other => Msg::Unknown(other),
            }
        };
        conn.ring.consume(total);
        let seq = conn.alloc_seq();
        match msg {
            Msg::Ping(echo) => {
                conn.enqueue(seq, protocol::frame_bytes(protocol::OP_PONG, &echo));
            }
            Msg::Stats => {
                conn.enqueue(
                    seq,
                    protocol::frame_bytes(protocol::OP_STATS_OK, sh.stats_text().as_bytes()),
                );
            }
            Msg::Shutdown(echo) => {
                sh.begin_shutdown();
                if sh.gate.is_drained() {
                    conn.enqueue(seq, protocol::frame_bytes(protocol::OP_SHUTDOWN_ACK, &echo));
                    conn.close_after_flush = true;
                } else {
                    // Owed only once the drain completes; the drained sweep
                    // releases it at this seq so it stays ordered behind
                    // responses to earlier pipelined requests.
                    conn.parked_acks.push((seq, echo));
                }
            }
            Msg::Unknown(op) => {
                sh.count_protocol_error();
                let payload =
                    protocol::encode_error(ErrorCode::UnknownOpcode, &format!("opcode {op:#04x}"));
                conn.enqueue(seq, protocol::frame_bytes(protocol::OP_ERROR, &payload));
            }
            Msg::Solve(Err(e), _) => {
                sh.count_protocol_error();
                let payload = protocol::encode_error(ErrorCode::BadRequest, &e);
                conn.enqueue(seq, protocol::frame_bytes(protocol::OP_ERROR, &payload));
            }
            Msg::Solve(Ok(reqs), op) => {
                if let Some(d) = route(sh, shard_id, token, conn, seq, reqs, op) {
                    return Some(d);
                }
            }
        }
    }
}

/// Read-and-parse pump for one connection. With `fill == false` only the
/// bytes already in the ring are parsed (adoption replay; the socket's
/// own backlog re-arms via level-triggered epoll).
fn drive_conn(
    sh: &Shared,
    shard_id: usize,
    token: u64,
    conn: &mut Conn,
    fill: bool,
) -> Directive {
    loop {
        if let Some(d) = parse_available(sh, shard_id, token, conn) {
            return d;
        }
        if !fill || conn.close_after_flush {
            return Directive::Keep;
        }
        match conn.ring.fill_from(&mut conn.stream) {
            // EOF mid-frame is a protocol violation; EOF at a frame
            // boundary is a clean close.
            Ok(0) => {
                return Directive::Close {
                    truncated: !conn.ring.is_empty(),
                }
            }
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Directive::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Directive::Close { truncated: false },
        }
    }
}

/// Drain every accepted-but-unassigned connection off the listener and
/// deal it to a shard round-robin.
fn accept_ready(
    sh: &Arc<Shared>,
    shard_id: usize,
    listener: &Option<TcpListener>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    rr_next: &mut usize,
) {
    let Some(l) = listener else { return };
    let shard = &sh.shards[shard_id];
    loop {
        match l.accept() {
            Ok((stream, _)) => {
                if sh.gate.is_closed() {
                    continue; // dropped: the peer sees a reset, as it would racing the old accept-loop exit
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let nshards = sh.shards.len();
                let target = *rr_next % nshards;
                *rr_next += 1;
                let conn = Conn::new(stream);
                if target == shard_id {
                    register(shard, conns, next_token, conn);
                } else {
                    sh.shards[target].send(ShardMsg::Adopt {
                        conn: Box::new(conn),
                        pending: None,
                        migrated: false,
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Apply every message in the shard's inbox: adoptions register (and
/// replay any ring residue), completions enter their connection's ordered
/// outbox and flush opportunistically.
fn drain_inbox(
    sh: &Arc<Shared>,
    shard_id: usize,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let shard = &sh.shards[shard_id];
    for msg in shard.take_inbox() {
        match msg {
            ShardMsg::Adopt {
                conn,
                pending,
                migrated,
            } => {
                let Some(token) = register(shard, conns, next_token, *conn) else {
                    continue;
                };
                if migrated {
                    shard.counters.adopted.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(p) = pending {
                    if let Err((code, msg)) = sh.admit(shard_id, token, p.seq, p.reqs, p.op) {
                        let payload = protocol::encode_error(code, &msg);
                        let conn = conns.get_mut(&token).expect("just registered");
                        conn.enqueue(p.seq, protocol::frame_bytes(protocol::OP_ERROR, &payload));
                    }
                }
                let d = {
                    let conn = conns.get_mut(&token).expect("just registered");
                    drive_conn(sh, shard_id, token, conn, false)
                };
                apply(sh, shard_id, conns, token, d);
            }
            ShardMsg::Complete { conn: token, seq, frame } => {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.enqueue(seq, frame);
                    if let After::Drop = settle(shard, token, conn) {
                        close_conn(sh, shard, conns, token, false);
                    }
                }
                // else: the connection died before its solve finished; the
                // result is dropped, exactly like the old dead-reply-channel
                // path.
            }
        }
    }
}

/// The shard's event loop (one thread per shard). Owns the poller, every
/// connection assigned to this shard, and (shard 0) the listener.
pub(crate) fn event_loop(sh: Arc<Shared>, shard_id: usize, listener: Option<TcpListener>) {
    let shard = &sh.shards[shard_id];
    shard
        .poller
        .add(shard.waker.fd(), TOK_WAKER, Interest::READABLE)
        .expect("register shard waker");
    let mut listener = listener;
    if let Some(l) = &listener {
        shard
            .poller
            .add(l.as_raw_fd(), TOK_LISTENER, Interest::READABLE)
            .expect("register listener");
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = TOK_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    let mut rr_next: usize = 0;
    let mut grace: Option<Instant> = None;

    loop {
        // Block indefinitely in steady state; once drained, poll on a short
        // tick so straggling flushes and the grace deadline make progress.
        let timeout = if sh.gate.is_drained() {
            Some(Duration::from_millis(25))
        } else {
            None
        };
        if shard.poller.wait(&mut events, timeout).is_err() {
            break;
        }
        shard.counters.wakeups.fetch_add(1, Ordering::Relaxed);

        for &ev in &events {
            match ev.token {
                TOK_WAKER => shard.waker.drain(),
                TOK_LISTENER => {
                    accept_ready(&sh, shard_id, &listener, &mut conns, &mut next_token, &mut rr_next)
                }
                token => {
                    let d = {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        if ev.writable && conn.try_flush().is_err() {
                            Directive::Close { truncated: false }
                        } else if ev.readable {
                            drive_conn(&sh, shard_id, token, conn, true)
                        } else {
                            Directive::Keep
                        }
                    };
                    apply(&sh, shard_id, &mut conns, token, d);
                }
            }
        }

        drain_inbox(&sh, shard_id, &mut conns, &mut next_token);

        if sh.gate.is_closed() {
            if let Some(l) = listener.take() {
                // Stop accepting the moment shutdown begins; backlogged
                // connections are reset, matching the old accept-loop exit.
                let _ = shard.poller.remove(l.as_raw_fd());
            }
        }

        if sh.gate.is_drained() {
            // Completions posted just before the gate drained may still
            // sit in the inbox — apply them before closing out.
            drain_inbox(&sh, shard_id, &mut conns, &mut next_token);
            let deadline = *grace.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                let conn = conns.get_mut(&token).expect("token just listed");
                for (seq, echo) in std::mem::take(&mut conn.parked_acks) {
                    conn.enqueue(
                        seq,
                        protocol::frame_bytes(protocol::OP_SHUTDOWN_ACK, &echo),
                    );
                }
                conn.close_after_flush = true;
                if let After::Drop = settle(shard, token, conn) {
                    close_conn(&sh, shard, &mut conns, token, false);
                }
            }
            if conns.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
    }
}
