//! The middle-box interception engines: passive and active relays.
//!
//! *Passive relay* (paper §III-B): a hook on the middle-box kernel's
//! FORWARD path copies every packet to user space — "one [system call] per
//! packet" — where services may transform data-segment bytes in place. The
//! packet continues along the original end-to-end TCP connection, so all
//! processing delay lands on the data *and* ack path.
//!
//! *Active relay*: the middle-box terminates TCP ("breaks the original
//! single TCP connection into two"), acknowledging data immediately on
//! receipt. A pseudo-server accepts the redirected flow from the ingress
//! gateway and a pseudo-client connects onward to the egress gateway
//! (binding the same source port so the Figure-3 chain rules keep
//! matching). Received PDUs are held in a bounded persistence buffer
//! (modelling the paper's non-volatile staging copy) — when it fills, the
//! pseudo-server's advertised window shrinks and the source stalls, which
//! is the active relay's flow-control story.

mod active;
mod codec;
mod passive;
mod queue;

pub use active::{
    ActiveRelayConfig, ActiveRelayMb, MbControl, RelayCopyStats, RelayQosConfig, ReplicaTarget,
    RetryPolicy,
};
pub use passive::{PassiveTap, PassiveTapConfig, WireTracker};
