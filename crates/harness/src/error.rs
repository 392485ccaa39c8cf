//! Error type for the experiment harness.

use std::fmt;

/// Errors surfaced by the harness.
#[derive(Debug)]
pub enum HarnessError {
    /// A malformed experiment plan or runner configuration.
    InvalidPlan {
        /// What was wrong.
        reason: String,
    },
    /// A command-line argument could not be interpreted.
    InvalidArgument {
        /// What was wrong.
        reason: String,
    },
    /// A task failed; the runner reports the first failure.
    Task {
        /// Index of the failed task in plan order.
        index: usize,
        /// Human-readable label of the task's plan point.
        label: String,
        /// The task's own error message.
        message: String,
    },
    /// A checkpoint journal could not be used for resume (plan mismatch,
    /// malformed entry, wrong schema).
    Checkpoint {
        /// What was wrong.
        reason: String,
    },
    /// Malformed JSON input (artifact parsing).
    Json {
        /// Byte offset of the error.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// An artifact or journal could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::InvalidPlan { reason } => write!(f, "invalid plan: {reason}"),
            HarnessError::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            HarnessError::Task {
                index,
                label,
                message,
            } => write!(f, "task {index} ({label}) failed: {message}"),
            HarnessError::Checkpoint { reason } => {
                write!(f, "checkpoint journal rejected: {reason}")
            }
            HarnessError::Json { offset, reason } => {
                write!(f, "malformed JSON at byte {offset}: {reason}")
            }
            HarnessError::Io(e) => write!(f, "I/O failed: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> Self {
        HarnessError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = HarnessError::Task {
            index: 3,
            label: "w=1.0".to_owned(),
            message: "boom".to_owned(),
        };
        assert!(e.to_string().contains("task 3"));
        assert!(e.to_string().contains("w=1.0"));
        let io: HarnessError = std::io::Error::other("nope").into();
        assert!(io.to_string().contains("nope"));
    }
}
