//! The workspace-level shim/service error type.
//!
//! Every fallible operation on the session API ([`crate::service`]) and the
//! fallible variants of the corrector API report through [`ShimError`]
//! instead of panicking or collapsing every failure into `None` — a reader
//! can distinguish "no posterior computed yet" (poll again) from "that
//! event does not exist" (a programming error) from "the service is gone".

use bayesperf_events::EventId;
use std::fmt;

/// Everything that can go wrong on the shim's session API (and the fleet
/// layer built on top of it).
///
/// Marked `#[non_exhaustive]`: downstream binaries composing these errors
/// with `?` keep compiling when a future layer (like `fleet::wire`) adds
/// variants — match with a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShimError {
    /// The event is not in the catalog or was not selected by this session.
    UnknownEvent(EventId),
    /// No derived event with this name exists in the catalog.
    UnknownDerived(String),
    /// The monitor service has been closed; no new sessions or samples are
    /// accepted and reads no longer serve.
    SessionClosed,
    /// The service is paused (the deterministic-backpressure test hook),
    /// so a sync barrier cannot honor its "everything processed"
    /// guarantee. Resume first.
    ServicePaused,
    /// The kernel↔shim ring buffer was full and the sample was dropped.
    /// `dropped` is the cumulative drop count including this one.
    RingOverflow {
        /// Total samples dropped at the ring so far.
        dropped: u64,
    },
    /// Inference has not yet published a posterior snapshot (fewer than one
    /// complete chunk of windows ingested). Poll again after more samples.
    NoPosteriorYet,
    /// A window chunk of the wrong size was handed to the corrector.
    WindowMismatch {
        /// Windows the corrector's engine was built for.
        expected: usize,
        /// Windows actually supplied.
        got: usize,
    },
    /// An empty window chunk was handed to the corrector.
    EmptyChunk,
    /// A fleet operation named a shard that is not (or no longer) a
    /// member of the fleet.
    UnknownShard {
        /// The shard id that failed to resolve.
        shard: u32,
    },
    /// A fleet-level read or fusion was attempted with no shard having
    /// published a posterior snapshot yet.
    NoShards,
    /// A scraped snapshot's posterior vector was not sized for the
    /// aggregating catalog (a scrape from a foreign catalog/arch).
    CatalogMismatch {
        /// Events in the aggregator's catalog.
        expected: usize,
        /// Events the snapshot actually carried.
        got: usize,
    },
    /// A wire-codec buffer ended before the layout said it would
    /// (truncated scrape, short read).
    WireTruncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A wire-codec buffer carried an unsupported format version or a
    /// wrong magic/kind tag.
    WireVersion {
        /// Version byte found in the buffer.
        got: u8,
        /// Highest version this build decodes.
        supported: u8,
    },
    /// A wire-codec buffer was structurally well-formed but carried an
    /// invalid value (e.g. a non-positive variance or an absurd length).
    WireMalformed {
        /// What was wrong, for the log line.
        what: &'static str,
    },
    /// A scrape request/response exchange missed its per-request deadline
    /// (the frame may have been dropped, delayed, or the peer is slow —
    /// the caller cannot tell, which is exactly why health accounting
    /// treats timeouts as soft evidence, not proof of death).
    ScrapeTimeout,
    /// A scrape link failed below the wire layer: connect refused, reset,
    /// short write, or a partition.
    LinkDown {
        /// What failed, for the log line.
        what: &'static str,
    },
    /// The background service thread is down — either mid-restart after a
    /// crash or permanently failed (restart budget exhausted). Unlike
    /// [`ShimError::SessionClosed`] this is not an orderly shutdown: the
    /// last snapshot may be arbitrarily stale, so reads refuse to serve it.
    ServiceDown {
        /// Why the service went down (e.g. the panic payload).
        cause: String,
    },
    /// The OS refused to spawn a background service thread (resource
    /// exhaustion). Reported to the caller instead of panicking in the
    /// constructor.
    SpawnFailed {
        /// Which thread failed to spawn, for the log line.
        what: &'static str,
    },
}

impl fmt::Display for ShimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShimError::UnknownEvent(e) => write!(f, "unknown or unselected event {e}"),
            ShimError::UnknownDerived(name) => write!(f, "unknown derived event {name:?}"),
            ShimError::SessionClosed => write!(f, "monitor service is closed"),
            ShimError::ServicePaused => write!(f, "monitor service is paused"),
            ShimError::RingOverflow { dropped } => {
                write!(f, "ring buffer full, sample dropped ({dropped} total)")
            }
            ShimError::NoPosteriorYet => write!(f, "no posterior published yet"),
            ShimError::WindowMismatch { expected, got } => {
                write!(f, "chunk of {got} windows, engine built for {expected}")
            }
            ShimError::EmptyChunk => write!(f, "chunk must contain at least one window"),
            ShimError::UnknownShard { shard } => write!(f, "unknown fleet shard {shard}"),
            ShimError::NoShards => write!(f, "no shard has published a posterior yet"),
            ShimError::CatalogMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot of {got} events, aggregator catalog has {expected}"
                )
            }
            ShimError::WireTruncated { offset } => {
                write!(f, "wire buffer truncated at byte {offset}")
            }
            ShimError::WireVersion { got, supported } => {
                write!(
                    f,
                    "wire version {got} unsupported (this build reads <= {supported})"
                )
            }
            ShimError::WireMalformed { what } => write!(f, "malformed wire buffer: {what}"),
            ShimError::ScrapeTimeout => write!(f, "scrape exchange missed its deadline"),
            ShimError::LinkDown { what } => write!(f, "scrape link failed: {what}"),
            ShimError::ServiceDown { cause } => {
                write!(f, "monitor service is down: {cause}")
            }
            ShimError::SpawnFailed { what } => {
                write!(f, "failed to spawn {what} thread")
            }
        }
    }
}

impl std::error::Error for ShimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ShimError::RingOverflow { dropped: 3 };
        assert!(e.to_string().contains("3 total"));
        let e = ShimError::UnknownDerived("ipc".into());
        assert!(e.to_string().contains("ipc"));
        let e = ShimError::WindowMismatch {
            expected: 6,
            got: 4,
        };
        assert!(e.to_string().contains('6') && e.to_string().contains('4'));
        let e = ShimError::WireTruncated { offset: 17 };
        assert!(e.to_string().contains("17"));
        let e = ShimError::WireVersion {
            got: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('1'));
        let e = ShimError::UnknownShard { shard: 3 };
        assert!(e.to_string().contains('3'));
        let e = ShimError::ScrapeTimeout;
        assert!(e.to_string().contains("deadline"));
        let e = ShimError::LinkDown {
            what: "connect refused",
        };
        assert!(e.to_string().contains("connect refused"));
        let e = ShimError::ServiceDown {
            cause: "panicked: boom".into(),
        };
        assert!(e.to_string().contains("down") && e.to_string().contains("boom"));
        let e = ShimError::SpawnFailed {
            what: "inference service",
        };
        assert!(e.to_string().contains("inference service"));
    }

    #[test]
    fn composes_with_question_mark_as_a_boxed_error() {
        // The satellite requirement: fleet/wire errors must flow through
        // `?` in downstream binaries returning `Box<dyn Error>`.
        fn downstream() -> Result<(), Box<dyn std::error::Error>> {
            Err(ShimError::WireMalformed {
                what: "non-positive variance",
            })?
        }
        let err = downstream().unwrap_err();
        assert!(err.to_string().contains("non-positive variance"));
    }
}
