//! # gmg-runtime — execution substrate for compiled PolyMG pipelines
//!
//! This crate is the Rust counterpart of the C code PolyMG generates
//! (paper Figure 8) plus the runtime library it links against:
//!
//! * [`pool`] — the pooled memory allocator of §3.2.3 (`pool_allocate` /
//!   `pool_deallocate`): buffers live across multigrid-cycle invocations,
//!   requests are served from a free list of previously allocated arrays.
//! * [`arena`] — engine-resident scratch for overlapped tiles, one slab per
//!   worker (the stack buffers declared inside the tile loop in Figure 8).
//! * [`kernel`] — the specialised stencil loops executing lowered
//!   [`polymg::KernelBody`] cases over a region: parity-dispatched,
//!   unit-stride fast paths, with a checked generic path and an interpreter
//!   fallback; generic over the element type (`f64`, and `f32` for the
//!   mixed-precision smoother chain).
//! * [`schedule`] — the VM: binds external arrays into slots and interprets
//!   a [`polymg::schedule::ExecProgram`] op stream, recording an op-level
//!   trace timeline.
//! * [`ops`] — the per-op execution bodies: untiled sweeps, overlapped
//!   tiles in parallel with scratchpads (rayon), diamond/split time tiling
//!   for smoother chains, and the mixed-precision (f32) smoother chain.
//! * [`interp`] — a deliberately simple reference interpreter used as the
//!   correctness oracle in tests.
//!
//! ## Safety
//!
//! Parallel tiles write disjoint *boxes* of the same output arrays, which
//! cannot be expressed as slice splitting. All such writes go through the
//! [`tilebuf`] wrapper, whose single `unsafe` block is justified by the
//! owned-region partition property of the planner (each output point is
//! owned by exactly one tile — property-tested in `gmg-poly` and asserted
//! in the integration suite).

pub mod arena;
pub mod interp;
pub mod kernel;
pub mod ops;
pub mod pool;
pub mod schedule;
pub mod tilebuf;

pub use kernel::fill_ghost;
pub use pool::{BufferPool, PoolStats};
pub use schedule::{BatchRhs, Engine, ExecError, RunStats};
