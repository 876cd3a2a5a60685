//! The workspace-level error type of the Proteus service API.
//!
//! Every fallible operation on the owner/optimizer surface —
//! configuration validation, partitioning, wire decode, graph
//! validation/reassembly, and protocol-state violations in the streaming
//! sessions — reports through [`ProteusError`]. Library code never
//! panics on malformed input; panics are reserved for internal
//! invariants.

use crate::artifact::ArtifactError;
use crate::store::StoreError;
use proteus_graph::{GraphError, WireError};
use std::fmt;

/// Any failure of the Proteus owner/optimizer API.
#[derive(Debug, Clone, PartialEq)]
pub enum ProteusError {
    /// A [`crate::ProteusConfig`] is degenerate (rejected by
    /// [`crate::ProteusConfig::validate`]) or the training corpus is
    /// unusable.
    Config {
        /// What was wrong.
        detail: String,
    },
    /// Partitioning the protected model failed (the plan could not be
    /// extracted or its piece interfaces are broken).
    Partition {
        /// What was wrong.
        detail: String,
    },
    /// A wire frame or payload failed to decode.
    Wire(WireError),
    /// Graph validation, shape inference, execution, or reassembly failed.
    Graph(GraphError),
    /// A streaming session was driven out of protocol: secrets requested
    /// before all frames were emitted, an out-of-range or cross-request
    /// frame accepted, reassembly attempted while frames are still
    /// missing, ...
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// A frame for a bucket the session (or serving runtime) has already
    /// accepted arrived again. Split out from [`ProteusError::Protocol`]
    /// so replay/duplication — the failure mode a lossy or adversarial
    /// transport actually produces — is matchable without string
    /// inspection. The first accepted frame is always retained; a
    /// duplicate is never silently overwritten.
    DuplicateFrame {
        /// Bucket index the duplicate claimed.
        bucket_index: u32,
        /// Request the frame belonged to.
        request_id: u64,
    },
    /// A trained-state artifact failed to encode, decode, or validate
    /// (see [`crate::artifact`]): bad magic, version skew, a section
    /// checksum mismatch, malformed state, a config-fingerprint mismatch,
    /// or file I/O.
    Artifact(ArtifactError),
    /// An optimizer worker panicked while executing a task of this
    /// request. The panic was contained (`catch_unwind`) — the pool and
    /// every other request lane keep running — but this request's
    /// in-flight frames are abandoned: the lane fails closed rather than
    /// emitting a frame with missing members. The owner may resend the
    /// request; request-id-keyed determinism makes the replay
    /// bit-identical.
    WorkerCrashed {
        /// Request whose lane failed.
        request_id: u64,
        /// Panic payload / failure site.
        detail: String,
    },
    /// The serving runtime could not start its worker pool: the OS
    /// refused to spawn a worker thread.
    ReplicaUnavailable {
        /// What happened.
        detail: String,
    },
    /// The durable store failed: filesystem I/O, a corrupt or tampered
    /// WAL record, an unusable commit marker, a missing entry, or store
    /// misuse (see [`crate::store::StoreError`]).
    Store(StoreError),
}

impl ProteusError {
    /// Shorthand for [`ProteusError::Config`].
    pub fn config(detail: impl Into<String>) -> ProteusError {
        ProteusError::Config {
            detail: detail.into(),
        }
    }

    /// Shorthand for [`ProteusError::Partition`].
    pub fn partition(detail: impl Into<String>) -> ProteusError {
        ProteusError::Partition {
            detail: detail.into(),
        }
    }

    /// Shorthand for [`ProteusError::Protocol`].
    pub fn protocol(detail: impl Into<String>) -> ProteusError {
        ProteusError::Protocol {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ProteusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProteusError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            ProteusError::Partition { detail } => write!(f, "partitioning failed: {detail}"),
            ProteusError::Wire(e) => write!(f, "{e}"),
            ProteusError::Graph(e) => write!(f, "{e}"),
            ProteusError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ProteusError::DuplicateFrame {
                bucket_index,
                request_id,
            } => write!(
                f,
                "protocol violation: duplicate frame for bucket {bucket_index} of request {request_id:#x}"
            ),
            ProteusError::Artifact(e) => write!(f, "{e}"),
            ProteusError::WorkerCrashed { request_id, detail } => write!(
                f,
                "worker crashed serving request {request_id:#x}: {detail}"
            ),
            ProteusError::ReplicaUnavailable { detail } => {
                write!(f, "serving runtime unavailable: {detail}")
            }
            ProteusError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProteusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProteusError::Wire(e) => Some(e),
            ProteusError::Graph(e) => Some(e),
            ProteusError::Artifact(e) => Some(e),
            ProteusError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for ProteusError {
    fn from(e: ArtifactError) -> ProteusError {
        ProteusError::Artifact(e)
    }
}

impl From<StoreError> for ProteusError {
    fn from(e: StoreError) -> ProteusError {
        ProteusError::Store(e)
    }
}

impl From<WireError> for ProteusError {
    fn from(e: WireError) -> ProteusError {
        ProteusError::Wire(e)
    }
}

impl From<GraphError> for ProteusError {
    fn from(e: GraphError) -> ProteusError {
        ProteusError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ProteusError::config("k must be at least 1 (got 0)");
        assert!(e.to_string().contains("k must be at least 1"));
        let e: ProteusError = WireError::UnknownVersion {
            got: 9,
            supported: 1,
        }
        .into();
        assert!(e.to_string().contains("unknown wire version 9"));
        let e: ProteusError = GraphError::Cyclic.into();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn duplicate_frame_is_its_own_variant() {
        let e = ProteusError::DuplicateFrame {
            bucket_index: 3,
            request_id: 0xBEEF,
        };
        assert!(e.to_string().contains("duplicate frame for bucket 3"));
        assert!(e.to_string().contains("0xbeef"));
        assert!(!matches!(e, ProteusError::Protocol { .. }));
    }

    #[test]
    fn sources_chain_to_underlying_errors() {
        use std::error::Error;
        let e = ProteusError::from(WireError::truncated("frame header"));
        assert!(e.source().is_some());
        let e = ProteusError::protocol("secrets requested early");
        assert!(e.source().is_none());
    }

    #[test]
    fn fault_family_displays() {
        let crash = ProteusError::WorkerCrashed {
            request_id: 0xAB,
            detail: "fault injection: task 3".into(),
        };
        assert!(crash.to_string().contains("0xab"));
        assert!(crash.to_string().contains("fault injection: task 3"));

        let gone = ProteusError::ReplicaUnavailable {
            detail: "failed to spawn serve worker 1".into(),
        };
        assert!(gone.to_string().contains("spawn serve worker 1"));
        // the family stays matchable and comparable
        assert_eq!(gone.clone(), gone);
        assert!(!matches!(crash, ProteusError::Protocol { .. }));
    }
}
