//! # gmg-grid — flat grid storage and the Poisson test problem
//!
//! Two things the rest of the workspace shares: [`Buffer`], the flat,
//! zero-initialised allocation the runtime's pools hand out, and the
//! manufactured Poisson problem ([`poisson_rhs`], [`poisson_exact`]) the
//! solver sets up.
//!
//! Grids are dense `f64` slices, x fastest, extents outermost first. Ghost
//! zones are part of the allocation: a "problem size `n`" grid for a
//! second-order stencil has `n + 2` points per dimension, the boundary ring
//! holding the Dirichlet values (zero for the homogeneous problems the
//! paper evaluates). Nothing here knows about multigrid.

mod buffer;
mod init;

pub use buffer::Buffer;
pub use init::{poisson_exact, poisson_rhs};
