//! Error types for sketch construction and combination.

/// Errors produced by sketch configuration and merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SketchError {
    /// A configuration parameter was out of its valid range.
    InvalidConfig {
        /// Which parameter was rejected.
        parameter: &'static str,
        /// Human-readable description of the constraint that failed.
        reason: String,
    },
    /// Two sketches could not be merged because they were built from
    /// different seed material — their samples are not coordinated, and a
    /// union of them would be meaningless.
    SeedMismatch,
    /// Two sketches could not be merged because their shapes differ
    /// (trial count or per-trial capacity).
    ConfigMismatch {
        /// Description of the differing dimension.
        detail: String,
    },
    /// A label lay outside the `[0, 2^61 − 1)` universe. Fold larger labels
    /// with `gt_hash::fold61` (or use the `insert_hashed` APIs).
    LabelOutOfRange {
        /// The offending label.
        label: u64,
    },
    /// A union was requested over zero summaries. There is no neutral
    /// element to return: a sketch needs a config and seed, and an empty
    /// slice carries neither.
    EmptyUnion,
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration: {parameter}: {reason}")
            }
            SketchError::SeedMismatch => {
                write!(
                    f,
                    "cannot merge sketches built from different seeds (samples are uncoordinated)"
                )
            }
            SketchError::ConfigMismatch { detail } => {
                write!(f, "cannot merge sketches with different shapes: {detail}")
            }
            SketchError::LabelOutOfRange { label } => {
                write!(
                    f,
                    "label {label} outside the [0, 2^61-1) universe; fold it with gt_hash::fold61"
                )
            }
            SketchError::EmptyUnion => {
                write!(
                    f,
                    "cannot union zero summaries: no config/seed to build a result from"
                )
            }
        }
    }
}

impl std::error::Error for SketchError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SketchError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SketchError::InvalidConfig {
            parameter: "epsilon",
            reason: "must be in (0, 1)".into(),
        };
        assert!(e.to_string().contains("epsilon"));
        assert!(SketchError::SeedMismatch
            .to_string()
            .contains("uncoordinated"));
        let e = SketchError::ConfigMismatch {
            detail: "trials 4 vs 8".into(),
        };
        assert!(e.to_string().contains("trials 4 vs 8"));
        assert!(SketchError::LabelOutOfRange { label: u64::MAX }
            .to_string()
            .contains("fold"));
        assert!(SketchError::EmptyUnion.to_string().contains("zero"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SketchError::SeedMismatch);
    }
}
