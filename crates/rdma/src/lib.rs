//! `rdma-sim` — the requester-side RDMA posting models.
//!
//! * [`doorbell`] — the requester-side posting cost model behind the
//!   paper's Advice #4 (when doorbell batching helps and when it hurts),
//!   charged on every post by the harness and the rack runtime;
//! * [`transport`] — the unsignaled-send bookkeeping the rack runtime
//!   keeps per requester thread, forcing one signaled post per
//!   [`SIGNAL_INTERVAL`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doorbell;
pub mod transport;

pub use doorbell::{PostCostModel, PostMode, PosterKind};
pub use transport::{SignalTracker, SIGNAL_INTERVAL};
