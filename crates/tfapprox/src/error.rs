use std::fmt;

/// The one error type of the crate.
///
/// Every failure mode of the emulation layer and of building and running
/// a [`crate::Session`] — configuration and quantization (`Config`),
/// graph construction/execution ([`axnn::NnError`]), multiplier-catalog
/// lookups ([`axmult::MultError`]), tensor/shape errors
/// ([`axtensor::TensorError`]), and serving-engine rejections
/// ([`crate::serve::ServeError`]) — is, or converts into, this one type
/// via `From`, so `?` works uniformly at every call site.
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
    /// A serving-engine rejection (backpressure shed, shutdown, or a
    /// failed batch) — every request outcome is explicit, never a silent
    /// drop.
    Serve(crate::serve::ServeError),
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
            Error::Serve(e) => write!(f, "serving error: {e}"),
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
            Error::Config(_) => None,
            Error::Serve(e) => Some(e),
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

impl From<crate::serve::ServeError> for Error {
    fn from(e: crate::serve::ServeError) -> Self {
        Error::Serve(e)
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
