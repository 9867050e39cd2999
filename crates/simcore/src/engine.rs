//! The synchronous round loop.
//!
//! The paper describes its control schemes "in a round-based system": each
//! round, every head observes the (previous round's) state of its
//! monitored cells, receives notifications sent in the previous round, and
//! completes at most one action before the next round starts. A protocol
//! implements [`RoundProtocol::execute_round`] with exactly those
//! semantics; [`RoundRunner`] drives it until quiescence or a round cap.
//!
//! Quiescence is declared after a configurable number of consecutive
//! rounds report [`RoundOutcome::Quiescent`]; the default of 2 rounds
//! absorbs the one-round notification latency of the paper's scheme (a
//! head that just sent a notification has no visible action in flight, but
//! the system is not yet stable).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::Round;

/// What a protocol reports after executing one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundOutcome {
    /// The round performed or scheduled work (movements, notifications,
    /// detections).
    Progress,
    /// Nothing happened and nothing is pending from this protocol's local
    /// view.
    Quiescent,
}

/// A protocol executable by [`RoundRunner`].
pub trait RoundProtocol {
    /// Executes one synchronous round and reports whether anything
    /// happened. Implementations must be deterministic given their own
    /// state (randomness comes from an owned [`crate::rng::SimRng`]).
    fn execute_round(&mut self, round: Round) -> RoundOutcome;
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quiescence {
    /// The protocol reported no work for the required number of
    /// consecutive rounds.
    Reached,
    /// The round cap was hit first (the protocol may be livelocked or the
    /// cap too small).
    MaxRoundsExceeded,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of rounds executed.
    pub rounds: Round,
    /// How the run terminated.
    pub termination: Quiescence,
}

impl RunReport {
    /// `true` when the run terminated by quiescence (not by the cap).
    pub fn is_quiescent(&self) -> bool {
        self.termination == Quiescence::Reached
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.termination {
            Quiescence::Reached => write!(f, "quiescent after {} rounds", self.rounds),
            Quiescence::MaxRoundsExceeded => {
                write!(f, "round cap ({}) exceeded", self.rounds)
            }
        }
    }
}

/// Configuration error for [`RoundRunner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `max_rounds` must be at least 1.
    ZeroMaxRounds,
    /// `quiescent_rounds` must be at least 1.
    ZeroQuiescentRounds,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ZeroMaxRounds => write!(f, "max_rounds must be at least 1"),
            EngineError::ZeroQuiescentRounds => {
                write!(f, "quiescent_rounds must be at least 1")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Drives a [`RoundProtocol`] to quiescence.
///
/// ```
/// use wsn_simcore::engine::{RoundOutcome, RoundProtocol, RoundRunner};
///
/// struct CountDown(u32);
/// impl RoundProtocol for CountDown {
///     fn execute_round(&mut self, _round: u64) -> RoundOutcome {
///         if self.0 == 0 { RoundOutcome::Quiescent } else { self.0 -= 1; RoundOutcome::Progress }
///     }
/// }
///
/// let runner = RoundRunner::new(100)?;
/// let report = runner.run(&mut CountDown(5));
/// assert!(report.is_quiescent());
/// # Ok::<(), wsn_simcore::engine::EngineError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRunner {
    max_rounds: Round,
    quiescent_rounds: Round,
}

impl RoundRunner {
    /// A runner with the given round cap and the default quiescence
    /// window of 2 consecutive idle rounds.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroMaxRounds`] when `max_rounds == 0`.
    pub fn new(max_rounds: Round) -> Result<RoundRunner, EngineError> {
        RoundRunner::with_quiescence(max_rounds, 2)
    }

    /// A runner requiring `quiescent_rounds` consecutive idle rounds.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroMaxRounds`] or
    /// [`EngineError::ZeroQuiescentRounds`] on zero arguments.
    pub fn with_quiescence(
        max_rounds: Round,
        quiescent_rounds: Round,
    ) -> Result<RoundRunner, EngineError> {
        if max_rounds == 0 {
            return Err(EngineError::ZeroMaxRounds);
        }
        if quiescent_rounds == 0 {
            return Err(EngineError::ZeroQuiescentRounds);
        }
        Ok(RoundRunner {
            max_rounds,
            quiescent_rounds,
        })
    }

    /// The configured round cap.
    pub fn max_rounds(&self) -> Round {
        self.max_rounds
    }

    /// Runs `protocol` until quiescence or the cap, returning the
    /// termination report.
    pub fn run<P: RoundProtocol>(&self, protocol: &mut P) -> RunReport {
        let mut idle_streak: Round = 0;
        for round in 0..self.max_rounds {
            match protocol.execute_round(round) {
                RoundOutcome::Progress => idle_streak = 0,
                RoundOutcome::Quiescent => {
                    idle_streak += 1;
                    if idle_streak >= self.quiescent_rounds {
                        return RunReport {
                            rounds: round + 1,
                            termination: Quiescence::Reached,
                        };
                    }
                }
            }
        }
        RunReport {
            rounds: self.max_rounds,
            termination: Quiescence::MaxRoundsExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Script(Vec<RoundOutcome>);
    impl RoundProtocol for Script {
        fn execute_round(&mut self, round: Round) -> RoundOutcome {
            self.0
                .get(round as usize)
                .copied()
                .unwrap_or(RoundOutcome::Quiescent)
        }
    }

    #[test]
    fn config_validation() {
        assert_eq!(RoundRunner::new(0).unwrap_err(), EngineError::ZeroMaxRounds);
        assert_eq!(
            RoundRunner::with_quiescence(10, 0).unwrap_err(),
            EngineError::ZeroQuiescentRounds
        );
        assert!(RoundRunner::new(1).is_ok());
    }

    #[test]
    fn stops_after_quiescence_window() {
        use RoundOutcome::{Progress as P, Quiescent as Q};
        let runner = RoundRunner::with_quiescence(100, 2).unwrap();
        let report = runner.run(&mut Script(vec![P, P, Q, Q]));
        assert_eq!(report.rounds, 4);
        assert!(report.is_quiescent());
    }

    #[test]
    fn idle_streak_resets_on_progress() {
        use RoundOutcome::{Progress as P, Quiescent as Q};
        let runner = RoundRunner::with_quiescence(100, 2).unwrap();
        // Q P Q Q -> streak broken at round 1, quiescent at round 4.
        let report = runner.run(&mut Script(vec![Q, P, Q, Q]));
        assert_eq!(report.rounds, 4);
        assert!(report.is_quiescent());
    }

    #[test]
    fn cap_exceeded_is_reported() {
        struct Busy;
        impl RoundProtocol for Busy {
            fn execute_round(&mut self, _r: Round) -> RoundOutcome {
                RoundOutcome::Progress
            }
        }
        let runner = RoundRunner::new(10).unwrap();
        let report = runner.run(&mut Busy);
        assert_eq!(report.rounds, 10);
        assert_eq!(report.termination, Quiescence::MaxRoundsExceeded);
        assert!(!report.is_quiescent());
    }

    #[test]
    fn single_quiescent_round_window() {
        use RoundOutcome::Quiescent as Q;
        let runner = RoundRunner::with_quiescence(100, 1).unwrap();
        let report = runner.run(&mut Script(vec![Q]));
        assert_eq!(report.rounds, 1);
        assert!(report.is_quiescent());
    }

    #[test]
    fn error_and_report_display() {
        assert!(!EngineError::ZeroMaxRounds.to_string().is_empty());
        assert!(!EngineError::ZeroQuiescentRounds.to_string().is_empty());
        let r = RunReport {
            rounds: 3,
            termination: Quiescence::Reached,
        };
        assert!(r.to_string().contains("3"));
        let c = RunReport {
            rounds: 10,
            termination: Quiescence::MaxRoundsExceeded,
        };
        assert!(c.to_string().contains("cap"));
    }
}
