use std::fmt;

/// Errors produced when constructing or solving Markov models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// A matrix that must be a CTMC generator is not one.
    NotAGenerator {
        /// Explanation of the violated property.
        message: String,
    },
    /// A rate was negative or non-finite.
    InvalidRate {
        /// Offending value.
        value: f64,
        /// Context, e.g. `"MMPP state rate"`.
        context: &'static str,
    },
    /// Shapes of the supplied components disagree.
    DimensionMismatch {
        /// Explanation including the offending dimensions.
        message: String,
    },
    /// A parameter was out of its documented domain.
    InvalidParameter {
        /// Explanation of the violated precondition.
        message: String,
    },
    /// A computed quantity violates a bound it must satisfy, so the
    /// arithmetic that produced it cannot be trusted (for example an
    /// index of dispersion below 1 when the modulator's rates span more
    /// orders of magnitude than `f64` resolves).
    Inaccurate {
        /// What was computed, e.g. `"asymptotic IDC"`.
        quantity: &'static str,
        /// The untrustworthy value.
        value: f64,
        /// The bound it violates.
        bound: &'static str,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(performa_linalg::LinalgError),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::NotAGenerator { message } => {
                write!(f, "not a CTMC generator: {message}")
            }
            MarkovError::InvalidRate { value, context } => {
                write!(f, "invalid rate {value} for {context}")
            }
            MarkovError::DimensionMismatch { message } => {
                write!(f, "dimension mismatch: {message}")
            }
            MarkovError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
            MarkovError::Inaccurate {
                quantity,
                value,
                bound,
            } => write!(
                f,
                "{quantity} = {value:e} violates {bound}: the result is not numerically trustworthy"
            ),
            MarkovError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<performa_linalg::LinalgError> for MarkovError {
    fn from(e: performa_linalg::LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = MarkovError::NotAGenerator {
            message: "row 2 sums to 0.5".into(),
        };
        assert!(e.to_string().contains("row 2"));
        let e = MarkovError::InvalidRate {
            value: -1.0,
            context: "MMPP state rate",
        };
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn from_linalg() {
        use std::error::Error;
        let e: MarkovError = performa_linalg::LinalgError::Singular { pivot: 1 }.into();
        assert!(e.source().is_some());
    }
}
