//! Error type for model construction and validation.

use std::fmt;

/// Errors raised while building or validating binary quadratic models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A node index was at least `n`.
    NodeOutOfRange { node: usize, n: usize },
    /// A self-loop `(i, i)` was supplied where an off-diagonal edge was
    /// required (diagonal weights have their own channel).
    SelfLoop { node: usize },
    /// Two models or a model and a solution disagree on the number of bits.
    SizeMismatch { expected: usize, actual: usize },
    /// The model has no variables.
    Empty,
    /// A coefficient sum overflows `i64`, or the model's coefficient mass
    /// exceeds [`crate::COEFFICIENT_SUM_BOUND`], so its energies would not
    /// all fit `i64`.
    CoefficientRange,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for model with {n} nodes")
            }
            ModelError::SelfLoop { node } => {
                write!(f, "self-loop on node {node}: use a diagonal weight instead")
            }
            ModelError::SizeMismatch { expected, actual } => {
                write!(f, "size mismatch: expected {expected} bits, got {actual}")
            }
            ModelError::Empty => write!(f, "model must have at least one variable"),
            ModelError::CoefficientRange => write!(
                f,
                "coefficients out of range: Σ|W_ii| + Σ_{{i<j}}|W_ij| must be at most {} \
                 (2^62 − 1) so every energy fits i64",
                crate::COEFFICIENT_SUM_BOUND
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ModelError::NodeOutOfRange { node: 9, n: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = ModelError::SelfLoop { node: 2 };
        assert!(e.to_string().contains("self-loop"));
        let e = ModelError::SizeMismatch {
            expected: 10,
            actual: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(ModelError::Empty.to_string().contains("at least one"));
        let e = ModelError::CoefficientRange.to_string();
        assert!(e.contains("out of range") && e.contains("4611686018427387903"));
    }
}
