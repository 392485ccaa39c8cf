use std::error::Error;
use std::fmt;

use dpm_harness::HarnessError;
use dpm_sim::SimError;

/// Classification of a supervised system failure, driving the retry
/// strategy. Panics and engine errors draw from one attempt budget
/// (`ServeConfig::max_attempts`):
///
/// * [`ErrorClass::Panic`] — the stepping closure unwound. Treated as
///   transient/environmental: the system is rebuilt and **replayed with
///   the same seed**, so a recovered system's report is bit-identical to
///   a never-faulted run.
/// * [`ErrorClass::Engine`] — [`dpm_sim::SimRun::step`] returned a
///   [`SimError`]. The engine is deterministic in its seed, so replaying
///   the same stream would fail identically; retries draw a **fresh seed**
///   from the `SERVE_RETRY_TAG` domain
///   (`dpm_harness::seed::derive_serve_attempt_seed`).
/// * [`ErrorClass::Setup`] — the system could not even be constructed
///   (workload or simulator rejected the configuration). Deterministic in
///   the configuration alone, so there is no retry: the system is
///   quarantined immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A panic unwound out of the stepping closure.
    Panic,
    /// The simulation engine returned an error mid-run.
    Engine,
    /// System construction failed before the first event.
    Setup,
}

impl ErrorClass {
    /// Stable lower-case name used in journals and artifacts.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorClass::Panic => "panic",
            ErrorClass::Engine => "engine",
            ErrorClass::Setup => "setup",
        }
    }

    /// Inverse of [`ErrorClass::as_str`].
    #[must_use]
    pub fn parse(name: &str) -> Option<ErrorClass> {
        match name {
            "panic" => Some(ErrorClass::Panic),
            "engine" => Some(ErrorClass::Engine),
            "setup" => Some(ErrorClass::Setup),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A rejected `ServeConfig` parameter — typed, so callers can match on
/// the exact violation instead of parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `systems == 0`: an empty fleet serves nothing.
    NoSystems,
    /// `shards == 0`: no worker threads to run on.
    NoShards,
    /// `batch_events == 0`: the round-robin scheduler would never step.
    NoBatchEvents,
    /// More shards than systems — some shards would own no work. The
    /// runtime used to clamp this silently; it is now an error so fleet
    /// sizing mistakes fail loudly.
    ShardsExceedSystems {
        /// Requested shard count.
        shards: usize,
        /// Fleet size.
        systems: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoSystems => write!(f, "systems must be positive"),
            ConfigError::NoShards => write!(f, "shards must be positive"),
            ConfigError::NoBatchEvents => write!(f, "batch_events must be positive"),
            ConfigError::ShardsExceedSystems { shards, systems } => {
                write!(
                    f,
                    "{shards} shards exceed the {systems}-system fleet (some shards would be empty)"
                )
            }
        }
    }
}

/// Error type for policy compilation and the sharded serving runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The system has more modes than the compiled action encoding (one
    /// byte per state) can address.
    TooManyModes {
        /// Modes in the provider.
        n_modes: usize,
    },
    /// The policy does not fit the system it is being compiled against.
    PolicyMismatch {
        /// What was inconsistent.
        reason: String,
    },
    /// A serve configuration parameter was rejected.
    Config(ConfigError),
    /// A serialized compiled-policy artifact could not be decoded.
    Format {
        /// What was malformed.
        reason: String,
    },
    /// A simulated system failed inside a shard.
    Sim {
        /// Index of the failing system in the fleet.
        system: usize,
        /// The underlying engine error.
        source: SimError,
    },
    /// A shard thread panicked outside the supervised stepping closure (a
    /// bug — per-system panics are isolated and retried).
    ShardPanic {
        /// Index of the shard.
        shard: usize,
    },
    /// A fleet checkpoint journal could not be read, validated against
    /// the configuration, or written.
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
    /// Artifact serialization failed.
    Harness(HarnessError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::TooManyModes { n_modes } => {
                write!(
                    f,
                    "cannot compile: {n_modes} modes exceed the one-byte action encoding"
                )
            }
            ServeError::PolicyMismatch { reason } => {
                write!(f, "policy does not match the system: {reason}")
            }
            ServeError::Config(e) => write!(f, "invalid serve configuration: {e}"),
            ServeError::Format { reason } => {
                write!(f, "malformed compiled-policy artifact: {reason}")
            }
            ServeError::Sim { system, source } => {
                write!(f, "system {system} failed: {source}")
            }
            ServeError::ShardPanic { shard } => write!(f, "shard {shard} panicked"),
            ServeError::Checkpoint { reason } => {
                write!(f, "fleet checkpoint journal: {reason}")
            }
            ServeError::Harness(e) => write!(f, "artifact failure: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Sim { source, .. } => Some(source),
            ServeError::Harness(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HarnessError> for ServeError {
    fn from(e: HarnessError) -> Self {
        ServeError::Harness(e)
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(ServeError::TooManyModes { n_modes: 300 }
            .to_string()
            .contains("300"));
        let e = ServeError::Sim {
            system: 4,
            source: SimError::EventBudgetExhausted { events: 9 },
        };
        assert!(e.to_string().contains("system 4"));
        assert!(e.source().is_some());
        assert!(ServeError::Checkpoint {
            reason: "torn".to_owned()
        }
        .to_string()
        .contains("torn"));
    }

    #[test]
    fn config_errors_are_typed_and_display() {
        let e = ServeError::from(ConfigError::ShardsExceedSystems {
            shards: 8,
            systems: 3,
        });
        assert!(matches!(
            e,
            ServeError::Config(ConfigError::ShardsExceedSystems {
                shards: 8,
                systems: 3
            })
        ));
        assert!(e.to_string().contains("8 shards"));
        for c in [
            ConfigError::NoSystems,
            ConfigError::NoShards,
            ConfigError::NoBatchEvents,
        ] {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn error_classes_round_trip_their_names() {
        for class in [ErrorClass::Panic, ErrorClass::Engine, ErrorClass::Setup] {
            assert_eq!(ErrorClass::parse(class.as_str()), Some(class));
            assert_eq!(class.to_string(), class.as_str());
        }
        assert_eq!(ErrorClass::parse("cosmic-ray"), None);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
