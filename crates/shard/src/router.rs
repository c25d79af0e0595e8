//! The shard router: one [`EngineCommand`] API over N shard agents.
//!
//! Routing is the partition function the engine already exports:
//! [`user_shard`]`(user, n)` names the owning shard of a user-targeted
//! command; commands with no target user (catalog ingest, classifier
//! training, environment configuration, ticks) broadcast to every
//! shard, because that state is replicated.
//!
//! **Ticks** fan out with per-shard user *sub-lists* (order preserved,
//! possibly empty): every shard runs every tick so its `tick_seq`,
//! telemetry pump and `engine.ticks` counter advance exactly like the
//! single process's. Fan-out is *pipelined* — the router dispatches
//! every sub-list before reading any response — so the per-shard tick
//! work runs concurrently across the agent processes. Each shard returns its events in sub-list order;
//! the router re-interleaves them into global request order by walking
//! the full user list and popping the owning shard's queue while its
//! front event belongs to that user — sound because, on a clean
//! transport, every event a tick emits belongs to the user being
//! ticked. Leftover events are a routing bug and fail loudly.
//!
//! **Observability** merges per-shard snapshots through
//! [`pphcr_obs::merge`] with the plan this deployment implies:
//! `engine.ticks` and the catalog gauges are replicated (asserted
//! equal), everything else sums, and `bus.published` sheds the
//! `(N-1) × ingests` double count that broadcasting `IngestClip`
//! introduces (each shard's bus publishes its own `Ingested` message).
//! The decision trace re-interleaves from the router's tick log by
//! matching `(user, at_s)` against each owning shard's trace queue.
//!
//! **Rebalancing** is snapshot handoff: the donor shard exports its
//! engine snapshot ([`Request::Snapshot`]), a fresh agent restores it
//! ([`Request::Restore`]) and takes over the slot, byte-identically —
//! mid-stream, without replaying the command history.

use crate::agent::AgentState;
use crate::protocol::{read_frame, write_frame, ProtoError, Request, Response, WireEvent};
use pphcr_core::{user_shard, EngineCommand};
use pphcr_obs::merge::{merge_snapshots, MergeError, MergePlan};
use pphcr_obs::{DecisionTraceEntry, ObsSnapshot};
use pphcr_userdata::UserId;
use std::collections::VecDeque;
use std::fmt;
use std::io::BufReader;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Typed failures of the sharded deployment.
#[derive(Debug)]
pub enum ShardError {
    /// A router needs at least one shard.
    NoShards,
    /// The wire protocol failed (pipe, framing, decode).
    Proto(ProtoError),
    /// An agent reported an infrastructure fault.
    AgentFault(String),
    /// An agent's pipe closed while a response was expected.
    AgentExited,
    /// The agent process could not be spawned.
    Spawn(std::io::Error),
    /// An agent answered with a response kind the call did not expect,
    /// or out of sequence.
    BadResponse,
    /// A shard rejected its tick sub-list — the router requires tick
    /// user lists to be registered, the same contract
    /// `Engine::run_tick` enforces up front.
    TickRejected(String),
    /// A broadcast command produced events or a rejection on some
    /// shard — replicated state has diverged.
    BroadcastDiverged {
        /// The shard that disagreed.
        shard: usize,
    },
    /// A tick left events in a shard queue the request order could not
    /// account for.
    EventLeak {
        /// The shard holding unaccounted events.
        shard: usize,
    },
    /// Shard traces held entries the router's tick log could not
    /// account for.
    TraceLeak {
        /// The shard holding unaccounted entries.
        shard: usize,
    },
    /// The observability fold failed.
    Merge(MergeError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "router needs at least one shard"),
            ShardError::Proto(e) => write!(f, "protocol failure: {e}"),
            ShardError::AgentFault(msg) => write!(f, "agent fault: {msg}"),
            ShardError::AgentExited => write!(f, "agent exited mid-conversation"),
            ShardError::Spawn(e) => write!(f, "could not spawn agent: {e}"),
            ShardError::BadResponse => write!(f, "agent answered out of protocol"),
            ShardError::TickRejected(msg) => write!(f, "shard rejected tick: {msg}"),
            ShardError::BroadcastDiverged { shard } => {
                write!(f, "broadcast diverged on shard {shard}")
            }
            ShardError::EventLeak { shard } => {
                write!(f, "unaccounted events left on shard {shard}")
            }
            ShardError::TraceLeak { shard } => {
                write!(f, "unaccounted trace entries left on shard {shard}")
            }
            ShardError::Merge(e) => write!(f, "observability merge failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ProtoError> for ShardError {
    fn from(e: ProtoError) -> Self {
        ShardError::Proto(e)
    }
}

impl From<MergeError> for ShardError {
    fn from(e: MergeError) -> Self {
        ShardError::Merge(e)
    }
}

/// One shard connection: request in, response out. Implemented by the
/// real child-process pipe and by an in-process agent (unit tests,
/// in-memory deployments) — the router cannot tell them apart.
///
/// The primitives are split so the router can *pipeline* fan-out:
/// dispatch a request to every shard first ([`send`](Self::send)),
/// then collect responses in the same order ([`recv`](Self::recv)).
/// Across process shards that overlaps the per-shard engine work —
/// shard K computes its tick while the router still waits on shard
/// K−1's response — which is where the scaling curve comes from.
pub trait ShardTransport {
    /// Dispatches one request without waiting for its response.
    ///
    /// # Errors
    /// [`ShardError`] when the transport fails to accept the request.
    fn send(&mut self, request: &Request) -> Result<(), ShardError>;

    /// Receives the response to the oldest outstanding
    /// [`send`](Self::send), in dispatch order.
    ///
    /// # Errors
    /// [`ShardError`] when the transport or the agent fails; an
    /// agent-side [`Response::Fault`] surfaces as
    /// [`ShardError::AgentFault`].
    fn recv(&mut self) -> Result<Response, ShardError>;

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    /// As for [`send`](Self::send) and [`recv`](Self::recv).
    fn call(&mut self, request: &Request) -> Result<Response, ShardError> {
        self.send(request)?;
        self.recv()
    }
}

/// An agent living in this process, behind the same codec the pipe
/// uses: requests and responses round-trip through their wire encoding
/// so in-process deployments exercise byte-level fidelity too.
#[derive(Default)]
pub struct InProcessShard {
    state: AgentState,
    pending: VecDeque<Response>,
}

impl InProcessShard {
    /// A fresh in-process shard agent.
    #[must_use]
    pub fn new() -> Self {
        InProcessShard { state: AgentState::new(), pending: VecDeque::new() }
    }
}

impl ShardTransport for InProcessShard {
    fn send(&mut self, request: &Request) -> Result<(), ShardError> {
        let (kind, body) = request.encode();
        let decoded = Request::decode(kind, &body)?;
        let response = self.state.handle(decoded);
        let (kind, body) = response.encode();
        self.pending.push_back(Response::decode(kind, &body)?);
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ShardError> {
        match self.pending.pop_front() {
            Some(Response::Fault(msg)) => Err(ShardError::AgentFault(msg)),
            Some(ok) => Ok(ok),
            None => Err(ShardError::BadResponse),
        }
    }
}

/// A shard agent child process, spoken to over piped stdin/stdout.
/// Dropping the handle closes the pipe (the agent's shutdown signal)
/// and reaps the process.
#[derive(Debug)]
pub struct ProcessShard {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    seq: u64,
    /// Sequence numbers of dispatched-but-unread requests, oldest
    /// first; [`recv`](ShardTransport::recv) matches responses against
    /// these in order.
    outstanding: VecDeque<u64>,
}

impl ProcessShard {
    /// Spawns the agent binary at `path` with piped stdio.
    ///
    /// # Errors
    /// [`ShardError::Spawn`] when the process cannot start or its
    /// pipes are unavailable.
    pub fn spawn(path: &Path) -> Result<Self, ShardError> {
        let mut child = Command::new(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(ShardError::Spawn)?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        match (stdin, stdout) {
            (Some(stdin), Some(stdout)) => Ok(ProcessShard {
                child,
                stdin: Some(stdin),
                stdout: BufReader::new(stdout),
                seq: 0,
                outstanding: VecDeque::new(),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(ShardError::Spawn(std::io::Error::other("stdio pipes unavailable")))
            }
        }
    }
}

impl ShardTransport for ProcessShard {
    fn send(&mut self, request: &Request) -> Result<(), ShardError> {
        self.seq += 1;
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(ShardError::AgentExited);
        };
        let (kind, body) = request.encode();
        write_frame(stdin, self.seq, kind, &body)?;
        self.outstanding.push_back(self.seq);
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ShardError> {
        let Some(expected) = self.outstanding.pop_front() else {
            return Err(ShardError::BadResponse);
        };
        let Some((seq, kind, body)) = read_frame(&mut self.stdout)? else {
            return Err(ShardError::AgentExited);
        };
        if seq != expected {
            return Err(ShardError::BadResponse);
        }
        match Response::decode(kind, &body)? {
            Response::Fault(msg) => Err(ShardError::AgentFault(msg)),
            ok => Ok(ok),
        }
    }
}

impl Drop for ProcessShard {
    fn drop(&mut self) {
        // Closing stdin is the agent's clean-shutdown signal.
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// The command router over N shards.
pub struct Router<T: ShardTransport> {
    shards: Vec<T>,
    /// Commands applied so far; used as the `op=` index on identity
    /// lines so sharded and single-process streams align positionally.
    applied: u64,
    /// `IngestClip` broadcasts seen — the `bus.published` double-count
    /// the merge plan must shed.
    ingest_broadcasts: u64,
    /// `(at_s, users)` of every tick, in order — the interleave key
    /// for the merged decision trace.
    tick_log: Vec<(u64, Vec<UserId>)>,
}

impl<T: ShardTransport> Router<T> {
    /// A router over the given shard connections (at least one).
    ///
    /// # Errors
    /// [`ShardError::NoShards`] on an empty shard set.
    pub fn new(shards: Vec<T>) -> Result<Self, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::NoShards);
        }
        Ok(Router { shards, applied: 0, ingest_broadcasts: 0, tick_log: Vec::new() })
    }

    /// The owning shard index of a user under this router's partition.
    #[must_use]
    pub fn owner(&self, user: UserId) -> usize {
        user_shard(user, self.shards.len() as u64) as usize
    }

    /// Applies one command across the deployment, returning the
    /// identity lines (`op=<i> event=…` / `op=<i> rejected=…`) in the
    /// exact order the single-process engine would emit them.
    ///
    /// # Errors
    /// [`ShardError`] on transport failure or identity violations
    /// (event leaks, diverged broadcasts, rejected tick sub-lists).
    pub fn apply(&mut self, cmd: &EngineCommand) -> Result<Vec<String>, ShardError> {
        let op = self.applied;
        self.applied += 1;
        match cmd.target_user() {
            Some(user) => {
                let shard = self.owner(user);
                let response = self.call_shard(shard, &Request::Apply(cmd.clone()))?;
                let Response::Applied { error, events } = response else {
                    return Err(ShardError::BadResponse);
                };
                Ok(render_lines(op, &events, error.as_deref()))
            }
            None => match cmd {
                EngineCommand::Tick { users, now, batch, workers } => {
                    let lines = self.apply_tick(op, users, *now, *batch, *workers)?;
                    Ok(lines)
                }
                other => {
                    if matches!(other, EngineCommand::IngestClip { .. }) {
                        self.ingest_broadcasts += 1;
                    }
                    self.broadcast(other)?;
                    Ok(Vec::new())
                }
            },
        }
    }

    /// Broadcasts a replicated-state command; every shard must accept
    /// it silently (these commands emit no events and cannot be
    /// rejected on one shard but not another). Dispatches to every
    /// shard before collecting any response so the shards apply it
    /// concurrently.
    fn broadcast(&mut self, cmd: &EngineCommand) -> Result<(), ShardError> {
        let request = Request::Apply(cmd.clone());
        for shard in 0..self.shards.len() {
            self.send_shard(shard, &request)?;
        }
        for shard in 0..self.shards.len() {
            let response = self.recv_shard(shard)?;
            let Response::Applied { error, events } = response else {
                return Err(ShardError::BadResponse);
            };
            if error.is_some() || !events.is_empty() {
                return Err(ShardError::BroadcastDiverged { shard });
            }
        }
        Ok(())
    }

    /// Fans a tick out to every shard with its user sub-list, then
    /// re-interleaves the per-shard event queues into request order.
    fn apply_tick(
        &mut self,
        op: u64,
        users: &[UserId],
        now: pphcr_geo::TimePoint,
        batch: bool,
        workers: Option<u64>,
    ) -> Result<Vec<String>, ShardError> {
        let n = self.shards.len();
        let mut subs: Vec<Vec<UserId>> = vec![Vec::new(); n];
        for &user in users {
            let shard = self.owner(user);
            if let Some(sub) = subs.get_mut(shard) {
                sub.push(user);
            }
        }
        // Pipelined fan-out: every shard gets its sub-list before any
        // response is read, so the per-shard tick work overlaps across
        // processes instead of serialising on the router.
        for (shard, sub) in subs.into_iter().enumerate() {
            let request = Request::Apply(EngineCommand::Tick { users: sub, now, batch, workers });
            self.send_shard(shard, &request)?;
        }
        let mut queues: Vec<VecDeque<WireEvent>> = Vec::with_capacity(n);
        for shard in 0..n {
            let response = self.recv_shard(shard)?;
            let Response::Applied { error, events } = response else {
                return Err(ShardError::BadResponse);
            };
            if let Some(msg) = error {
                return Err(ShardError::TickRejected(msg));
            }
            queues.push(events.into());
        }
        let mut merged: Vec<WireEvent> = Vec::new();
        for &user in users {
            let shard = self.owner(user);
            if let Some(queue) = queues.get_mut(shard) {
                while queue.front().is_some_and(|e| e.user == user.0) {
                    if let Some(event) = queue.pop_front() {
                        merged.push(event);
                    }
                }
            }
        }
        if let Some(shard) = queues.iter().position(|q| !q.is_empty()) {
            return Err(ShardError::EventLeak { shard });
        }
        self.tick_log.push((now.seconds(), users.to_vec()));
        Ok(render_lines(op, &merged, None))
    }

    /// Captures every shard's observability snapshot and folds them
    /// into the single-process equivalent.
    ///
    /// # Errors
    /// [`ShardError::Merge`] when the fold fails its invariants,
    /// [`ShardError::TraceLeak`] when shard traces hold entries the
    /// tick log cannot place.
    pub fn merged_obs(&mut self) -> Result<ObsSnapshot, ShardError> {
        for shard in 0..self.shards.len() {
            self.send_shard(shard, &Request::Obs)?;
        }
        let mut parts: Vec<ObsSnapshot> = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            match self.recv_shard(shard)? {
                Response::Obs(snap) => parts.push(snap),
                _ => return Err(ShardError::BadResponse),
            }
        }
        let trace = self.interleave_traces(&parts)?;
        let n = self.shards.len() as i64;
        let plan = MergePlan {
            replicated_counters: vec!["engine.ticks".to_string()],
            replicated_gauges: vec!["catalog.clips".to_string(), "catalog.epoch".to_string()],
            gauge_deductions: vec![(
                "bus.published".to_string(),
                (n - 1) * self.ingest_broadcasts as i64,
            )],
            trace,
        };
        Ok(merge_snapshots(&parts, &plan)?)
    }

    /// Rebuilds the global decision-trace order from the tick log: a
    /// tick of user `u` at `t` contributed at most one entry to `u`'s
    /// owning shard, so walking ticks in order and matching `(user,
    /// at_s)` against each shard queue's front restores the exact
    /// single-process sequence.
    fn interleave_traces(
        &self,
        parts: &[ObsSnapshot],
    ) -> Result<Vec<DecisionTraceEntry>, ShardError> {
        let mut queues: Vec<VecDeque<DecisionTraceEntry>> =
            parts.iter().map(|p| p.trace.iter().cloned().collect()).collect();
        let mut merged = Vec::new();
        for (at_s, users) in &self.tick_log {
            for &user in users {
                let shard = self.owner(user);
                if let Some(queue) = queues.get_mut(shard) {
                    if queue.front().is_some_and(|e| e.user == user.0 && e.at_s == *at_s) {
                        if let Some(entry) = queue.pop_front() {
                            merged.push(entry);
                        }
                    }
                }
            }
        }
        if let Some(shard) = queues.iter().position(|q| !q.is_empty()) {
            return Err(ShardError::TraceLeak { shard });
        }
        Ok(merged)
    }

    /// Migrates shard `index` onto `replacement` by snapshot handoff:
    /// the donor exports its engine snapshot, the replacement restores
    /// it byte-identically and takes over the slot. The donor is
    /// dropped (for a [`ProcessShard`], that closes its pipe and reaps
    /// the process).
    ///
    /// # Errors
    /// [`ShardError`] when either side fails; on failure the donor
    /// stays in place.
    pub fn rebalance(&mut self, index: usize, mut replacement: T) -> Result<(), ShardError> {
        let snapshot = match self.call_shard(index, &Request::Snapshot)? {
            Response::Snapshot(bytes) => bytes,
            _ => return Err(ShardError::BadResponse),
        };
        match replacement.call(&Request::Restore(snapshot))? {
            Response::Restored => {}
            _ => return Err(ShardError::BadResponse),
        }
        if let Some(slot) = self.shards.get_mut(index) {
            *slot = replacement;
        }
        Ok(())
    }

    fn call_shard(&mut self, index: usize, request: &Request) -> Result<Response, ShardError> {
        match self.shards.get_mut(index) {
            Some(shard) => shard.call(request),
            None => Err(ShardError::NoShards),
        }
    }

    fn send_shard(&mut self, index: usize, request: &Request) -> Result<(), ShardError> {
        match self.shards.get_mut(index) {
            Some(shard) => shard.send(request),
            None => Err(ShardError::NoShards),
        }
    }

    fn recv_shard(&mut self, index: usize) -> Result<Response, ShardError> {
        match self.shards.get_mut(index) {
            Some(shard) => shard.recv(),
            None => Err(ShardError::NoShards),
        }
    }
}

/// Renders the identity lines for one applied command: one line per
/// event in order, then the rejection line when the command was
/// rejected — the same shapes the single-process baseline renders.
fn render_lines(op: u64, events: &[WireEvent], error: Option<&str>) -> Vec<String> {
    let mut out: Vec<String> = events.iter().map(|e| format!("op={op} event={}", e.line)).collect();
    if let Some(err) = error {
        out.push(format!("op={op} rejected={err}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::ServiceIndex;
    use pphcr_geo::TimePoint;
    use pphcr_userdata::{AgeBand, UserProfile};

    fn in_process_router(n: usize) -> Router<InProcessShard> {
        Router::new((0..n).map(|_| InProcessShard::new()).collect()).unwrap()
    }

    fn register(user: u64, now: TimePoint) -> EngineCommand {
        EngineCommand::RegisterUser {
            profile: UserProfile {
                id: UserId(user),
                name: format!("listener {user}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            now,
        }
    }

    #[test]
    fn routes_by_partition_and_broadcasts_ticks() {
        let mut router = in_process_router(2);
        let now = TimePoint::at(0, 9, 0, 0);
        let users: Vec<UserId> = (1..=6).map(UserId).collect();
        for &u in &users {
            router.apply(&register(u.0, now)).unwrap();
        }
        // Both shards own at least one of six users with this hash.
        let owners: std::collections::BTreeSet<usize> =
            users.iter().map(|&u| router.owner(u)).collect();
        assert_eq!(owners.len(), 2, "partition is degenerate for this user set");
        let lines = router
            .apply(&EngineCommand::Tick {
                users: users.clone(),
                now: now.advance(pphcr_geo::TimeSpan::minutes(1)),
                batch: true,
                workers: Some(1),
            })
            .unwrap();
        // Fresh listeners with no fixes produce no events, but every
        // shard must have ticked exactly once.
        assert!(lines.is_empty(), "{lines:?}");
        let obs = router.merged_obs().unwrap();
        assert_eq!(obs.counter("engine.ticks"), 1);
        assert_eq!(obs.counter("engine.tick_users"), 6);
    }

    #[test]
    fn rejections_surface_as_recorded_outcomes() {
        let mut router = in_process_router(2);
        let now = TimePoint::at(0, 9, 0, 0);
        let lines = router
            .apply(&EngineCommand::ChangeService {
                user: UserId(404),
                service: ServiceIndex(1),
                now,
            })
            .unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines.first().unwrap().contains("rejected="), "{lines:?}");
    }

    #[test]
    fn rebalance_hands_state_to_a_fresh_shard() {
        let mut router = in_process_router(2);
        let now = TimePoint::at(0, 9, 0, 0);
        for u in 1..=4u64 {
            router.apply(&register(u, now)).unwrap();
        }
        let before = router.merged_obs().unwrap().to_json();
        router.rebalance(1, InProcessShard::new()).unwrap();
        let after = router.merged_obs().unwrap().to_json();
        assert_eq!(before, after);
    }

    #[test]
    fn empty_router_is_refused() {
        assert!(matches!(Router::<InProcessShard>::new(Vec::new()), Err(ShardError::NoShards)));
    }
}
