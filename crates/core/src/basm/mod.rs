//! The Bottom-up Adaptive Spatiotemporal Model: StAEL + StSTL + StABT.

pub mod model;
pub mod stabt;
pub mod stael;
pub mod ststl;

pub use model::{Basm, BasmConfig};
pub use stabt::{StAbt, StAbtLayer};
pub use stael::StAel;
pub use ststl::StStl;
