//! The shard agent: one engine partition served over stdin/stdout.
//!
//! An agent is a [`DurableEngine`] (in-memory WAL — the router is the
//! durability authority in a sharded deployment; the agent's log
//! exists so apply semantics stay *identical* to the single-process
//! durable path) behind a read-dispatch-respond loop. It applies
//! forwarded commands through the same
//! [`apply`](pphcr_core::DurableEngine::apply) entry point recovery
//! replays through, exports its observability snapshot for merging,
//! and can donate or receive a full engine snapshot for rebalancing.

use crate::protocol::{read_frame, write_frame, ProtoError, Request, Response, WireEvent};
use pphcr_core::{restore_engine, DurableEngine, Engine, EngineConfig, MemWal};
use std::io::{Read, Write};

/// One shard's server state.
pub struct AgentState {
    durable: DurableEngine<MemWal>,
}

impl Default for AgentState {
    fn default() -> Self {
        AgentState::new()
    }
}

impl AgentState {
    /// A fresh agent over a default-config engine and an empty log.
    #[must_use]
    pub fn new() -> Self {
        AgentState {
            durable: DurableEngine::new(Engine::new(EngineConfig::default()), MemWal::new()),
        }
    }

    /// Handles one request. Engine-level rejections are *outcomes*
    /// (carried inside [`Response::Applied`]); only infrastructure
    /// failures (undecodable snapshot, WAL fault) become
    /// [`Response::Fault`].
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Apply(cmd) => match self.durable.apply(cmd) {
                Ok(result) => Response::Applied {
                    error: result.error,
                    events: result
                        .events
                        .iter()
                        .map(|e| WireEvent { user: e.user().0, line: format!("{e:?}") })
                        .collect(),
                },
                Err(e) => Response::Fault(format!("wal append failed: {e}")),
            },
            Request::Obs => Response::Obs(self.durable.engine().obs_snapshot()),
            Request::Snapshot => match self.durable.snapshot_bytes() {
                Ok(bytes) => Response::Snapshot(bytes),
                Err(e) => Response::Fault(format!("snapshot export failed: {e}")),
            },
            Request::Restore(bytes) => match restore_engine(&bytes, &[]) {
                Ok((engine, report)) => {
                    self.durable =
                        DurableEngine::resume(engine, MemWal::new(), report.last_seq + 1);
                    Response::Restored
                }
                Err(e) => Response::Fault(format!("restore failed: {e}")),
            },
        }
    }
}

/// Serves requests from `input` until clean EOF (the router closing
/// the pipe is the shutdown signal), echoing each request's sequence
/// number on its response so the router can match them up.
///
/// # Errors
/// [`ProtoError`] when a frame is corrupt or the pipe fails mid-frame;
/// undecodable requests are answered with [`Response::Fault`] and the
/// loop continues.
pub fn serve(input: &mut impl Read, output: &mut impl Write) -> Result<(), ProtoError> {
    let mut state = AgentState::new();
    while let Some((seq, kind, body)) = read_frame(input)? {
        let response = match Request::decode(kind, &body) {
            Ok(request) => state.handle(request),
            Err(e) => Response::Fault(format!("bad request: {e}")),
        };
        let (kind, body) = response.encode();
        write_frame(output, seq, kind, &body)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::ServiceIndex;
    use pphcr_core::EngineCommand;
    use pphcr_geo::TimePoint;
    use pphcr_userdata::{AgeBand, UserId, UserProfile};

    fn register(user: u64) -> Request {
        Request::Apply(EngineCommand::RegisterUser {
            profile: UserProfile {
                id: UserId(user),
                name: format!("listener {user}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            now: TimePoint::at(0, 9, 0, 0),
        })
    }

    #[test]
    fn apply_reports_outcomes_not_faults() {
        let mut agent = AgentState::new();
        let ok = agent.handle(register(1));
        assert_eq!(ok, Response::Applied { error: None, events: Vec::new() });
        // A rejected command is an outcome, byte-identical to what the
        // single-process engine would record.
        let rejected = agent.handle(Request::Apply(EngineCommand::ChangeService {
            user: UserId(9),
            service: ServiceIndex(1),
            now: TimePoint::at(0, 9, 0, 1),
        }));
        match rejected {
            Response::Applied { error: Some(msg), events } => {
                assert!(msg.contains('9'), "{msg}");
                assert!(events.is_empty());
            }
            other => panic!("expected recorded rejection: {other:?}"),
        }
    }

    #[test]
    fn snapshot_restore_round_trips_engine_state() {
        let mut donor = AgentState::new();
        donor.handle(register(1));
        donor.handle(Request::Apply(EngineCommand::Tick {
            users: vec![UserId(1)],
            now: TimePoint::at(0, 9, 5, 0),
            batch: true,
            workers: Some(1),
        }));
        let bytes = match donor.handle(Request::Snapshot) {
            Response::Snapshot(b) => b,
            other => panic!("no snapshot: {other:?}"),
        };
        let mut recipient = AgentState::new();
        assert_eq!(recipient.handle(Request::Restore(bytes.clone())), Response::Restored);
        // The recipient re-exports byte-identical state (the recovery
        // banner is in-memory only and deliberately not persisted).
        match recipient.handle(Request::Snapshot) {
            Response::Snapshot(again) => assert_eq!(again, bytes),
            other => panic!("no snapshot: {other:?}"),
        }
        assert_eq!(recipient.handle(Request::Obs), donor.handle(Request::Obs));
    }

    #[test]
    fn serve_answers_over_a_byte_pipe() {
        let mut input = Vec::new();
        let (kind, body) = register(2).encode();
        write_frame(&mut input, 1, kind, &body).unwrap();
        let (kind, body) = Request::Obs.encode();
        write_frame(&mut input, 2, kind, &body).unwrap();
        let mut output = Vec::new();
        serve(&mut std::io::Cursor::new(input), &mut output).unwrap();
        let mut cursor = std::io::Cursor::new(output);
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(seq, 1);
        assert!(matches!(Response::decode(kind, &body).unwrap(), Response::Applied { .. }));
        let (seq, kind, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(seq, 2);
        assert!(matches!(Response::decode(kind, &body).unwrap(), Response::Obs(_)));
    }
}
