//! Error type shared by everything that runs inside a simulation.

use std::fmt;

/// Result type for code running inside a simulated process.
pub type SimResult<T> = Result<T, SimError>;

/// Errors surfaced to simulated processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The simulation was dropped while this process was blocked. A process
    /// receiving this should unwind promptly (the `?` operator does the right
    /// thing); it is the normal way processes are reclaimed.
    Terminated,
    /// An application-level failure. Protocol layers convert their own error
    /// types into this variant when a process gives up; the simulation run
    /// loop reports it by panicking with the message, so tests fail loudly.
    App(String),
}

impl SimError {
    /// Convenience constructor for application errors.
    pub fn app(msg: impl Into<String>) -> Self {
        SimError::App(msg.into())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Terminated => write!(f, "simulation terminated"),
            SimError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(SimError::Terminated.to_string(), "simulation terminated");
        assert_eq!(SimError::app("boom").to_string(), "application error: boom");
    }
}
