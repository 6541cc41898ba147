//! Pure-Rust ML substrate for the `omg` workspace.
//!
//! The paper's experiments continuously *retrain* models (SSD for
//! detection, a ResNet for ECG classification) on newly labeled or weakly
//! labeled data. Mature Rust inference/training stacks for those exact
//! architectures do not exist, so this crate provides genuinely trainable
//! replacements that exercise the same code paths at laptop scale:
//!
//! * [`SoftmaxRegression`] — multinomial logistic regression trained with
//!   mini-batch SGD; used as the trainable head of the simulated detector.
//! * [`Mlp`] — a multi-layer perceptron with ReLU hidden layers, softmax
//!   output, and backprop; used as the ECG rhythm classifier.
//! * [`optim`] — the SGD (with momentum) optimizer.
//! * [`uncertainty`] — least-confidence / margin / entropy scores, the
//!   competing data-selection signals of the paper's active-learning
//!   baselines ("uncertainty sampling with least confident", §5.4).
//! * [`Dataset`] — feature/label storage with shuffling, splits, and
//!   mini-batching.
//!
//! # Example: learn XOR with a small MLP
//!
//! ```
//! use omg_learn::{Dataset, Mlp, MlpConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut data = Dataset::new(2);
//! for (x, y, label) in [(0., 0., 0), (0., 1., 1), (1., 0., 1), (1., 1., 0)] {
//!     data.push(vec![x, y], label);
//! }
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut mlp = Mlp::new(MlpConfig { input_dim: 2, hidden: vec![8], classes: 2, lr: 0.5 }, &mut rng);
//! for _ in 0..2000 { mlp.train_epoch(&data, 4, &mut rng); }
//! assert_eq!(mlp.predict(&[0.0, 1.0]), 1);
//! assert_eq!(mlp.predict(&[1.0, 1.0]), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod linalg;
mod logreg;
mod loss;
mod mlp;
pub mod optim;
pub mod uncertainty;

pub use dataset::Dataset;
pub use logreg::SoftmaxRegression;
pub use loss::{cross_entropy, softmax};
pub use mlp::{Mlp, MlpConfig};
