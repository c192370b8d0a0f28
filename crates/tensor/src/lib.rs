//! Dense `f32` tensor algebra for the TAaMR reproduction.
//!
//! This crate is the numerical substrate shared by the CNN framework
//! (`taamr-nn`), the attack implementations and the image pipeline. It
//! provides a row-major, contiguous, heap-allocated [`Tensor`] together with
//! the handful of operations a from-scratch convolutional network needs:
//!
//! * shape bookkeeping ([`Shape`]) with checked reshapes,
//! * elementwise arithmetic and mapping combinators,
//! * reductions (sum / mean / max / argmax, optionally along an axis),
//! * a packed-panel, register-tiled SGEMM ([`gemm`]) used by dense and
//!   convolution layers, bitwise deterministic at every thread count,
//! * `im2col` / `col2im` lowering for convolutions ([`im2col`] / [`col2im`]),
//!   with allocation-free `_into` variants fed by reusable scratch arenas
//!   ([`GemmScratch`] / [`ConvScratch`]),
//! * seeded random initialisation (uniform, normal, He, Xavier).
//!
//! The design deliberately avoids views/strides: every tensor owns its data
//! contiguously, which keeps the layer implementations simple and the
//! backward passes easy to audit.
//!
//! # Example
//!
//! ```
//! use taamr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), taamr_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

mod conv;
mod error;
mod gemm;
mod init;
mod ops;
pub mod partition;
mod reduce;
mod scratch;
mod shape;
mod tensor;

pub use conv::{col2im, col2im_into, im2col, im2col_into, Conv2dGeometry};
pub use error::TensorError;
pub use gemm::{
    dot_blocked, gemm, gemm_blocked, gemm_blocked_scheduled, gemm_packed, gemm_with_scratch,
    BlockSizes, GemmSchedule, PackedB, Transpose, GEMM_BLOCKING, GEMM_KC, MR, NR,
};
pub use partition::{aligned_blocks, block_grid, GridTask};
pub use init::seeded_rng;
pub use scratch::{
    conv_scratch_footprint, gemm_scratch_footprint, with_conv_scratch, with_gemm_scratch,
    ConvScratch, GemmScratch,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
