use std::fmt;
use std::time::Duration;

/// The one error type of the crate.
///
/// Every failure mode of the emulation layer and of building and running
/// a [`crate::Session`] — configuration and quantization (`Config`),
/// graph construction/execution ([`axnn::NnError`]), multiplier-catalog
/// lookups ([`axmult::MultError`]), tensor/shape errors
/// ([`axtensor::TensorError`]), and serving-engine rejections
/// ([`Error::Overloaded`], [`Error::DeadlineExceeded`],
/// [`Error::ShuttingDown`], [`Error::BatchFailed`]) — is, or converts
/// into, this one type via `From`, so `?` works uniformly at every call
/// site.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A graph construction or execution error.
    Nn(axnn::NnError),
    /// A multiplier/catalog error.
    Mult(axmult::MultError),
    /// A tensor/shape error.
    Tensor(axtensor::TensorError),
    /// An invalid emulation or session parameter (including a
    /// non-finite quantization range).
    Config(String),
    /// The serving engine's bounded submission queue was full — the
    /// request was shed at submission time (explicit backpressure).
    Overloaded {
        /// The configured [`crate::ServeConfig::queue_depth`] that was
        /// full.
        depth: usize,
    },
    /// The request's SLO deadline expired before a shard started its
    /// micro-batch — it was shed at batch-formation time instead of
    /// wasting compute on an answer the caller no longer wants. Distinct
    /// from [`Error::Overloaded`]: the queue had room, the latency
    /// budget did not.
    DeadlineExceeded {
        /// The latency budget the request was submitted with.
        budget: Duration,
    },
    /// The serving engine is shutting down and no longer accepts
    /// submissions.
    ShuttingDown,
    /// The micro-batch this request was part of failed to execute, or
    /// the response channel was severed; the message carries the
    /// underlying failure.
    BatchFailed(String),
    /// A circuit-to-LUT compilation failure (netlist shape, verification,
    /// registration) from the [`crate::compile`] pipeline.
    Compile(axcompile::CompileError),
    /// A filesystem failure (e.g. reading a pre-baked LUT file for
    /// [`crate::compile::import_lut_file`]).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Nn(e) => write!(f, "graph error: {e}"),
            Error::Mult(e) => write!(f, "multiplier error: {e}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Overloaded { depth } => write!(
                f,
                "serving error: request shed: submission queue full ({depth} requests)"
            ),
            Error::DeadlineExceeded { budget } => write!(
                f,
                "serving error: request shed: deadline exceeded (budget {budget:?})"
            ),
            Error::ShuttingDown => write!(f, "serving error: engine is shutting down"),
            Error::BatchFailed(msg) => {
                write!(f, "serving error: batch execution failed: {msg}")
            }
            Error::Compile(e) => write!(f, "multiplier compilation error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Nn(e) => Some(e),
            Error::Mult(e) => Some(e),
            Error::Tensor(e) => Some(e),
            Error::Config(_)
            | Error::Overloaded { .. }
            | Error::DeadlineExceeded { .. }
            | Error::ShuttingDown
            | Error::BatchFailed(_) => None,
            Error::Compile(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<axcompile::CompileError> for Error {
    fn from(e: axcompile::CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<axnn::NnError> for Error {
    fn from(e: axnn::NnError) -> Self {
        Error::Nn(e)
    }
}

impl From<axmult::MultError> for Error {
    fn from(e: axmult::MultError) -> Self {
        Error::Mult(e)
    }
}

impl From<axtensor::TensorError> for Error {
    fn from(e: axtensor::TensorError) -> Self {
        Error::Tensor(e)
    }
}
