use std::error::Error;
use std::fmt;

use dpm_linalg::LinalgError;

use crate::stationary::ChainBlock;

/// Error type for CTMC construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtmcError {
    /// A matrix failed generator-matrix validation (Eqns. 2.1–2.4).
    InvalidGenerator {
        /// What was violated and where.
        reason: String,
    },
    /// A matrix failed stochastic-matrix validation.
    InvalidStochastic {
        /// What was violated and where.
        reason: String,
    },
    /// The chain is reducible where an irreducible chain is required
    /// (Theorem 2.1 needs irreducibility for a unique limiting distribution).
    Reducible {
        /// Number of communicating classes found.
        classes: usize,
    },
    /// A state index was out of range.
    StateOutOfRange {
        /// Offending index.
        state: usize,
        /// Number of states in the chain.
        n_states: usize,
    },
    /// A numerical step failed in the underlying linear algebra.
    Numerical(LinalgError),
    /// One block of a chain's gain/bias factorization
    /// ([`crate::stationary::ChainFactors`]) had a numerically zero pivot.
    SingularBlock {
        /// Which block failed.
        block: ChainBlock,
        /// States in that block.
        states: usize,
        /// States in the whole chain.
        n_states: usize,
        /// Pivot column, within the block, at which elimination stopped.
        pivot: usize,
    },
    /// An analysis parameter was invalid (negative time, bad tolerance, ...).
    InvalidParameter {
        /// Explanation.
        reason: String,
    },
    /// Every backend in a stationary-solver fallback chain was tried and
    /// rejected. Each entry is `(method, why it was rejected)` in the order
    /// the chain escalated.
    FallbackExhausted {
        /// The attempted methods with their rejection reasons.
        attempts: Vec<(String, String)>,
    },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::InvalidGenerator { reason } => {
                write!(f, "invalid generator matrix: {reason}")
            }
            CtmcError::InvalidStochastic { reason } => {
                write!(f, "invalid stochastic matrix: {reason}")
            }
            CtmcError::Reducible { classes } => write!(
                f,
                "chain is reducible ({classes} communicating classes); limiting distribution is not unique"
            ),
            CtmcError::StateOutOfRange { state, n_states } => {
                write!(f, "state {state} out of range for chain with {n_states} states")
            }
            CtmcError::Numerical(e) => write!(f, "numerical failure: {e}"),
            CtmcError::SingularBlock {
                block,
                states,
                n_states,
                pivot,
            } => write!(
                f,
                "singular {block}, {states} of {n_states} states, pivot {pivot}"
            ),
            CtmcError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            CtmcError::FallbackExhausted { attempts } => {
                write!(f, "all stationary solver fallbacks failed:")?;
                for (method, reason) in attempts {
                    write!(f, " [{method}: {reason}]")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for CtmcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CtmcError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CtmcError {
    fn from(e: LinalgError) -> Self {
        CtmcError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let err = CtmcError::Reducible { classes: 3 };
        assert!(err.to_string().contains('3'));
        let err = CtmcError::StateOutOfRange {
            state: 7,
            n_states: 4,
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains('4'));
    }

    #[test]
    fn singular_block_names_the_block() {
        let err = CtmcError::SingularBlock {
            block: ChainBlock::Transient,
            states: 77,
            n_states: 83,
            pivot: 71,
        };
        assert_eq!(
            err.to_string(),
            "singular transient block, 77 of 83 states, pivot 71"
        );
    }

    #[test]
    fn wraps_linalg_error_with_source() {
        let inner = LinalgError::Singular { pivot: 0 };
        let err = CtmcError::from(inner.clone());
        assert_eq!(err, CtmcError::Numerical(inner));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CtmcError>();
    }
}
