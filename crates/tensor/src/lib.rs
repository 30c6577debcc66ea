//! # basm-tensor
//!
//! The deep-learning substrate of the BASM reproduction: a dense rank-2
//! tensor type, a tape-based reverse-mode autograd engine, neural-network
//! layers, optimizers and a sparse-gradient embedding store — everything the
//! paper's TensorFlow 1.4 stack provided, rebuilt from scratch in Rust.
//!
//! ## Quick tour
//!
//! ```
//! use basm_tensor::{Graph, ParamStore, Tensor, Prng};
//! use basm_tensor::optim::{Optimizer, Sgd};
//!
//! let mut rng = Prng::seeded(1);
//! let mut store = ParamStore::new();
//! let w = store.add("w", rng.xavier(3, 1));
//!
//! // One training step of a tiny linear model.
//! let mut g = Graph::new();
//! let x = g.input(rng.randn(8, 3, 1.0));
//! let y = g.input(Tensor::zeros(8, 1));
//! let wv = g.param(&store, w);
//! let logits = g.matmul(x, wv);
//! let loss = g.bce_with_logits(logits, y);
//! g.backward(loss);
//! store.accumulate_grads(&g);
//! Sgd::new(0.0).step(&mut store, 0.1);
//! ```
//!
//! Layers ([`nn`]) compose on top of [`Graph`]; every op's gradient is
//! verified against finite differences (see `tests/gradcheck.rs`).

pub mod backward;
pub mod bufpool;
pub mod gradcheck;
pub mod graph;
pub mod linalg;
pub mod nn;
pub mod optim;
pub mod packstore;
pub mod params;
pub mod pool;
pub mod serialize;
pub mod rng;
pub mod simd;
pub mod tensor;

pub use graph::{with_graph, Graph, Module, Var};
pub use params::{ParamId, ParamStore};
pub use rng::Prng;
pub use tensor::Tensor;
