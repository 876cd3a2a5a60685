//! The networking error taxonomy, and the mapping that flattens core
//! [`ProteusError`]s to wire [`ErrorCode`]s so they can cross the socket
//! typed.

use proteus::ProteusError;
use proteus_graph::{ErrorCode, ErrorFrame, WireError};
use std::fmt;
use std::io;

/// Everything the networking layer can fail with. Every variant is a
/// typed condition — connection teardown without one of these is a bug,
/// not a protocol outcome.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io {
        /// What was being done when the I/O failed.
        context: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// Bytes on the wire failed frame decoding.
    Wire(WireError),
    /// A core pipeline operation failed locally (session, artifact,
    /// runtime).
    Proteus(ProteusError),
    /// The peer's hello was malformed or arrived out of order.
    Handshake {
        /// What was wrong.
        detail: String,
    },
    /// The peer speaks a network-protocol version this library does not.
    VersionMismatch {
        /// Version the peer announced.
        got: u16,
        /// Version this library speaks.
        supported: u16,
    },
    /// The peer serves (or expects) a different trained artifact.
    FingerprintMismatch {
        /// Fingerprint this side expected.
        expected: u64,
        /// Fingerprint the peer announced.
        got: u64,
    },
    /// The server rejected or failed the request and said so with a
    /// typed error frame.
    Remote(ErrorFrame),
    /// A protocol invariant was violated (frame for an unknown request,
    /// response after end-of-stream, ...).
    Protocol {
        /// What was violated.
        detail: String,
    },
}

impl NetError {
    /// Shorthand for [`NetError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> NetError {
        NetError::Io {
            context: context.into(),
            source,
        }
    }

    /// Shorthand for [`NetError::Protocol`].
    pub fn protocol(detail: impl Into<String>) -> NetError {
        NetError::Protocol {
            detail: detail.into(),
        }
    }

    /// Shorthand for [`NetError::Handshake`].
    pub fn handshake(detail: impl Into<String>) -> NetError {
        NetError::Handshake {
            detail: detail.into(),
        }
    }

    /// The typed code of the remote failure, when this error is one.
    pub fn remote_code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Remote(frame) => Some(frame.code),
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { context, source } => write!(f, "net i/o error {context}: {source}"),
            NetError::Wire(e) => write!(f, "net wire error: {e}"),
            NetError::Proteus(e) => write!(f, "net pipeline error: {e}"),
            NetError::Handshake { detail } => write!(f, "handshake error: {detail}"),
            NetError::VersionMismatch { got, supported } => write!(
                f,
                "protocol version mismatch: peer speaks {got}, this library speaks {supported}"
            ),
            NetError::FingerprintMismatch { expected, got } => write!(
                f,
                "artifact fingerprint mismatch: expected {expected:#018x}, peer has {got:#018x}"
            ),
            NetError::Remote(frame) => write!(f, "{frame}"),
            NetError::Protocol { detail } => write!(f, "net protocol error: {detail}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Wire(e) => Some(e),
            NetError::Proteus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl From<ProteusError> for NetError {
    fn from(e: ProteusError) -> NetError {
        NetError::Proteus(e)
    }
}

/// Flattens a core [`ProteusError`] to the stable wire [`ErrorCode`] a
/// server reports it under. Total — every variant maps somewhere, so a
/// new core variant without a deliberate code lands on
/// [`ErrorCode::Internal`] rather than tearing the connection down.
pub fn error_code_for(err: &ProteusError) -> ErrorCode {
    match err {
        ProteusError::Config { .. } => ErrorCode::Config,
        ProteusError::Partition { .. } => ErrorCode::Partition,
        ProteusError::Wire(_) => ErrorCode::Wire,
        ProteusError::Graph(_) => ErrorCode::Graph,
        ProteusError::Protocol { .. } => ErrorCode::Protocol,
        ProteusError::DuplicateFrame { .. } => ErrorCode::DuplicateFrame,
        ProteusError::Artifact(_) => ErrorCode::Artifact,
        ProteusError::WorkerCrashed { .. } => ErrorCode::WorkerCrashed,
        ProteusError::ReplicaUnavailable { .. } => ErrorCode::ReplicaUnavailable,
        // durable-store failures are a server-side condition the client
        // can neither cause nor repair
        ProteusError::Store(_) => ErrorCode::Internal,
    }
}

/// Builds the error frame a server sends for a request that failed with
/// `err`.
pub fn error_frame_for(request_id: u64, err: &ProteusError) -> ErrorFrame {
    ErrorFrame::new(request_id, error_code_for(err), err.to_string())
}
