//! `rdma-sim` — a verbs-like RDMA API over the simulated SmartNIC fabric.
//!
//! Two layers:
//!
//! * [`verbs`] — the application-facing object model (Context / Pd / Mr /
//!   Cq / Qp), used by the quickstart example the way ibverbs would be,
//!   with the protection, QP-state, RNR and RC-recovery contract that
//!   the failure-injection tests pin;
//! * [`doorbell`] — the requester-side posting cost model behind the
//!   paper's Advice #4 (when doorbell batching helps and when it hurts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doorbell;
pub mod transport;
pub mod verbs;

pub use doorbell::{PostCostModel, PostMode, PosterKind};
pub use transport::{QpState, RecvQueue, SendFlags, SignalTracker, MAX_INLINE, SIGNAL_INTERVAL};
pub use verbs::{Context, Cq, FabricRef, Mr, Pd, Qp, QpType, RdmaError, Wc};
