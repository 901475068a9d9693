//! The active relay: split-TCP store-and-forward middle-box engine.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use storm_iscsi::{
    Initiator, InitiatorConfig, InitiatorEvent, IoTag, Iqn, Pdu, ScsiStatus, SessionParams,
};
use storm_net::{App, BusMsg, CloseReason, Cx, HostId, SendQueue, SockAddr, SockId};
use storm_qos::{RateLimitSpec, RateLimiter};
use storm_sim::trace::{flow_token, req_token, Hop, TraceEvent, TraceHook};
use storm_sim::{FaultAction, FaultHook, FaultSite, SerialResource, SimDuration, SimTime};

use super::codec::{ChainUnit, OutUnit, WireCodec};
use crate::service::{CmdTable, Dir, ReplicaIo, StorageService, SvcAction, SvcCtx};

/// A replica volume the middle-box attaches for side I/O (the replication
/// service's backup volumes).
#[derive(Debug, Clone)]
pub struct ReplicaTarget {
    /// The replica's iSCSI portal.
    pub portal: SockAddr,
    /// The replica volume's IQN.
    pub iqn: Iqn,
}

/// Watchdog policy for replica I/O: a request that produces no response
/// within `timeout` is retried with bounded exponential backoff; a replica
/// that times out `fail_threshold` times in a row is declared unresponsive
/// and failed over (the paper's "once a replica is not responsive ... it
/// will be eliminated from future operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Time allowed for one replica request to complete.
    pub timeout: SimDuration,
    /// Re-issues per request before the request is failed to its service.
    pub max_retries: u32,
    /// Delay before the first retry; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
    /// Consecutive timeouts after which the whole replica is failed.
    pub fail_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(500),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(200),
            fail_threshold: 3,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), capped.
    fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        let d = self.backoff_base * (1u64 << exp);
        d.min(self.backoff_cap)
    }
}

/// Control messages a fault driver delivers over the hypervisor bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbControl {
    /// Crash the middle-box VM: every flow and replica session is cut.
    Crash,
    /// Boot the middle-box back up; replica sessions reconnect.
    Restart,
}

/// Tenant QoS shaping at the relay admission point.
///
/// The relay is the tenant's entry into the platform, so per-tenant rate
/// limits are enforced here: request-direction PDUs that exceed the
/// tenant's token buckets have their processing start pushed back by the
/// shaping delay. The delay is *queueing*, not CPU — the relay core stays
/// free for other flows — and a tenant under its limit sees a zero delay
/// and a byte-identical datapath.
#[derive(Debug, Clone)]
pub struct RelayQosConfig {
    /// Tenant this relay serves (trace/metric attribution).
    pub tenant: u32,
    /// IOPS + bandwidth buckets applied to request-direction PDUs.
    pub limit: RateLimitSpec,
}

/// Active relay configuration.
#[derive(Debug, Clone)]
pub struct ActiveRelayConfig {
    /// Local port the pseudo-server listens on (flows are DNAT-redirected
    /// here).
    pub listen_port: u16,
    /// Where the pseudo-client connects onward (the egress gateway).
    pub upstream: SockAddr,
    /// Persistence buffer capacity in bytes; beyond it the pseudo-server
    /// stops reading and the source stalls (paper §III-B consistency
    /// copy).
    pub buffer_cap: usize,
    /// Per-PDU API overhead (decapsulation/encapsulation).
    pub per_pdu_cost: SimDuration,
    /// CPU accounting label (e.g. `"mb"`).
    pub label: String,
    /// Replica volumes to attach.
    pub replicas: Vec<ReplicaTarget>,
    /// Initiator identity for replica sessions.
    pub initiator_iqn: Iqn,
    /// Replica I/O watchdog; `None` disables timeouts entirely.
    pub retry: Option<RetryPolicy>,
    /// Per-tenant rate shaping; `None` (default) admits everything.
    pub qos: Option<RelayQosConfig>,
}

impl ActiveRelayConfig {
    /// Defaults: listen on 13260, 8 MiB buffer, 4 µs per PDU.
    pub fn new(upstream: SockAddr) -> Self {
        ActiveRelayConfig {
            listen_port: 13260,
            upstream,
            buffer_cap: 8 << 20,
            per_pdu_cost: SimDuration::from_micros(4),
            label: "mb".into(),
            replicas: Vec::new(),
            initiator_iqn: Iqn::for_host("middlebox"),
            retry: Some(RetryPolicy::default()),
            qos: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Server,
    Client,
}

struct FlowPair {
    server: SockId,
    client: SockId,
    /// The flow's original (initiator-side) source port — the request-token
    /// prefix shared with the guest and the target.
    src_port: u16,
    proto: WireCodec,
    /// The flow's open commands, by itt.
    cmds: CmdTable,
    s_out: SendQueue,
    c_out: SendQueue,
    /// Bytes received from the server side, not yet released upstream.
    buffered_in: usize,
    paused: bool,
    proc: SerialResource,
    closed: bool,
}

/// One in-flight replica request: the owning service, its completion
/// context, the request itself (kept for retries), the attempt count, and
/// the flow pair whose PDU triggered it (side actions the completion
/// produces route back to that pair, not to an arbitrary open flow).
struct PendingIo {
    svc: usize,
    ctx: u64,
    io: ReplicaIo,
    attempts: u32,
    origin: Option<usize>,
}

struct ReplicaSession {
    ini: Initiator,
    sock: Option<SockId>,
    sendq: SendQueue,
    // BTreeMap: on replica failure every outstanding request is failed
    // back to its service, and that sweep must run in tag order — with a
    // HashMap the eviction trace depended on hasher state.
    pending: BTreeMap<IoTag, PendingIo>,
    parked: Vec<(usize, ReplicaIo, u64, Option<usize>)>,
    up: bool,
    failed: bool,
    /// Consecutive request timeouts (reset by any completion).
    timeouts: u32,
}

/// A chain output headed for a send queue.
enum PduOut {
    /// The received wire image re-emitted as-is, carrying `units`
    /// commands: nothing is re-encoded or copied.
    Verbatim { wire: Vec<Bytes>, units: u64 },
    /// Units to encode in the flow's wire format.
    Encode(Vec<OutUnit>),
}

/// A side I/O a chain service requested: `(service, replica, io, ctx)`.
type ReplicaOp = (usize, usize, ReplicaIo, u64);

/// What the service chain made of one ingress message, gathered unit by
/// unit.
struct ChainOut {
    /// Forwards of the units that did not pass untouched (plus, on
    /// nvmeq, the verbatim units around them, in wire order).
    forwards: Vec<OutUnit>,
    /// Whether every unit passed the chain untouched.
    verbatim: bool,
    replies: Vec<OutUnit>,
    replica_ops: Vec<ReplicaOp>,
    /// Relay plus service CPU time.
    cost: SimDuration,
}

/// One message's store-and-forward release, held until its processing
/// completes on the flow's serial resource.
struct Deferred {
    pair: usize,
    dir: Dir,
    forwards: PduOut,
    replies: Vec<OutUnit>,
    replica_ops: Vec<ReplicaOp>,
    /// Persistence-buffer bytes the release drains.
    input_bytes: usize,
}

/// Memcpy accounting for the relay datapath (see
/// [`ActiveRelayMb::copy_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayCopyStats {
    /// Data-segment bytes copied anywhere on the relay path: stream
    /// reassembly plus small-segment batching on encode. Zero for a
    /// passthrough chain.
    pub data_bytes_copied: u64,
    /// The allowed fixed-size metadata copies: 48-byte BHS decode
    /// scratch on iSCSI; on nvmeq, frame headers and entries peeked on
    /// decode plus the fresh headers and re-encoded entries of rebuilt
    /// frames.
    pub header_bytes_copied: u64,
    /// PDUs that took the verbatim fast path (original wire bytes
    /// forwarded, no re-encode).
    pub verbatim_forwards: u64,
}

impl RelayCopyStats {
    fn add(&mut self, o: RelayCopyStats) {
        self.data_bytes_copied += o.data_bytes_copied;
        self.header_bytes_copied += o.header_bytes_copied;
        self.verbatim_forwards += o.verbatim_forwards;
    }
}

/// The active-relay middle-box application.
pub struct ActiveRelayMb {
    cfg: ActiveRelayConfig,
    services: Vec<Box<dyn StorageService>>,
    pairs: Vec<FlowPair>,
    by_sock: HashMap<SockId, (usize, Side)>,
    replicas: Vec<ReplicaSession>,
    replica_socks: HashMap<SockId, usize>,
    deferred: HashMap<u64, Deferred>,
    svc_timers: HashMap<u64, (usize, u64)>,
    /// Watchdog token -> the replica request it guards.
    watchdogs: HashMap<u64, (usize, IoTag)>,
    /// Backoff token -> the request to re-issue when it fires.
    retries: HashMap<u64, (usize, PendingIo)>,
    limiter: Option<RateLimiter>,
    next_token: u64,
    /// Keys handed out to commands, unique across the relay's flows.
    cmd_keys: u64,
    alerts: Vec<(SimTime, String)>,
    pdus_forwarded: u64,
    /// Encode-side copies, verbatim forwards, and the reassembly copies
    /// of pairs a crash dropped (live pairs' streams are summed on read).
    copies: RelayCopyStats,
    crashed: bool,
    fault: FaultHook,
    fault_mb: u32,
    trace: TraceHook,
    trace_mb: u32,
}

impl ActiveRelayMb {
    /// Creates the relay with a service chain (may be empty = pure
    /// store-and-forward, the paper's MB-ACTIVE-RELAY baseline).
    pub fn new(cfg: ActiveRelayConfig, services: Vec<Box<dyn StorageService>>) -> Self {
        let limiter = cfg.qos.as_ref().map(|q| RateLimiter::new(q.limit));
        ActiveRelayMb {
            cfg,
            limiter,
            services,
            pairs: Vec::new(),
            by_sock: HashMap::new(),
            replicas: Vec::new(),
            replica_socks: HashMap::new(),
            deferred: HashMap::new(),
            svc_timers: HashMap::new(),
            watchdogs: HashMap::new(),
            retries: HashMap::new(),
            next_token: 1,
            cmd_keys: 0,
            alerts: Vec::new(),
            pdus_forwarded: 0,
            copies: RelayCopyStats::default(),
            crashed: false,
            fault: FaultHook::none(),
            fault_mb: 0,
            trace: TraceHook::none(),
            trace_mb: 0,
        }
    }

    /// Arms this middle-box's fault hook; `mb` identifies it in
    /// [`FaultSite::MbProcess`] sites.
    pub fn set_fault_hook(&mut self, hook: FaultHook, mb: u32) {
        self.fault = hook;
        self.fault_mb = mb;
    }

    /// Arms this middle-box's trace hook; `mb` identifies it in
    /// [`Hop::Relay`] stage events. Emits one [`TraceEvent::Meta`] per
    /// chained service so the analyzer can label service stages by name.
    pub fn set_trace_hook(&mut self, hook: TraceHook, mb: u32) {
        self.trace = hook;
        self.trace_mb = mb;
        if self.trace.is_armed() {
            self.trace.emit(
                SimTime::ZERO,
                TraceEvent::Meta {
                    hop: Hop::Relay,
                    id: mb,
                    name: "active-relay".to_string(),
                },
            );
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    SimTime::ZERO,
                    TraceEvent::Meta {
                        hop: Hop::Service,
                        id: idx as u32,
                        name: svc.name().to_string(),
                    },
                );
            }
        }
    }

    /// Whether the middle-box is currently crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Alerts raised by services, with timestamps.
    pub fn alerts(&self) -> &[(SimTime, String)] {
        &self.alerts
    }

    /// PDUs forwarded through the chain.
    pub fn pdus_forwarded(&self) -> u64 {
        self.pdus_forwarded
    }

    /// `(throttled_ops, total_shaping_delay)` of the tenant rate limiter;
    /// zeros when QoS is not configured.
    pub fn qos_throttle_stats(&self) -> (u64, SimDuration) {
        self.limiter
            .as_ref()
            .map_or((0, SimDuration::ZERO), |l| l.throttle_stats())
    }

    /// Memcpy accounting across the relay's datapath: reassembly copies
    /// on both flow streams plus small-segment batching on encode. Feeds
    /// the `relay.bytes_copied` metric and the zero-copy acceptance test.
    pub fn copy_stats(&self) -> RelayCopyStats {
        let mut s = self.copies;
        for p in &self.pairs {
            s.add(p.proto.copy_stats());
        }
        s
    }

    /// Commands open across the relay's flows: opened as they head to
    /// the target, retired when their final status leaves.
    pub fn open_commands(&self) -> usize {
        self.pairs.iter().map(|p| p.cmds.by_itt.len()).sum()
    }

    /// Access a service by index (use
    /// [`StorageService::downcast_ref`](crate::service::StorageService)
    /// to read concrete state).
    pub fn service(&self, idx: usize) -> Option<&dyn StorageService> {
        self.services.get(idx).map(|s| s.as_ref())
    }

    /// Mutable access to a service by index.
    pub fn service_mut(&mut self, idx: usize) -> Option<&mut (dyn StorageService + 'static)> {
        self.services.get_mut(idx).map(|s| s.as_mut())
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Runs one chain unit through the service chain, in order towards
    /// the target and in reverse towards the initiator, each service
    /// seeing the unit's command: emits its `Hop::Relay` and per-service
    /// `Hop::Service` stages, arms service timers and gathers outputs and
    /// costs into `out`. A unit the chain passed untouched (same header
    /// bytes, same data storage) stays a wire view; the storage-identity
    /// check makes that test O(header), since a service that rewrote the
    /// payload produced new storage.
    fn run_unit(
        &mut self,
        cx: &mut Cx<'_>,
        pair_idx: usize,
        dir: Dir,
        unit: ChainUnit,
        out: &mut ChainOut,
    ) {
        let now = cx.now();
        let itt = unit.pdu.itt();
        let req = req_token(self.pairs[pair_idx].src_port, itt);
        let cmds = &mut self.pairs[pair_idx].cmds;
        let cmd = match unit.cmd {
            Some(fresh) => Some(cmds.open(itt, fresh, &mut self.cmd_keys)),
            None => cmds.get(itt),
        };
        self.trace.emit_with(now, || TraceEvent::Stage {
            req,
            hop: Hop::Relay,
            id: self.trace_mb,
            dur: self.cfg.per_pdu_cost,
        });
        out.cost += self.cfg.per_pdu_cost;
        let n = self.services.len();
        let mut frontier = vec![unit.pdu];
        for k in 0..n {
            let idx = match dir {
                Dir::ToTarget => k,
                Dir::ToInitiator => n - 1 - k,
            };
            let mut next = Vec::new();
            let mut charged = SimDuration::ZERO;
            for p in frontier {
                let mut scx = SvcCtx::new(now).with_cmd(cmd);
                self.services[idx].on_pdu(&mut scx, dir, p);
                for action in scx.take_actions() {
                    match action {
                        SvcAction::Forward(p) => next.push(p),
                        SvcAction::Reply(p) => {
                            let cmds = &mut self.pairs[pair_idx].cmds;
                            let unit = outbound(cmds, &mut self.services, dir.flip(), p);
                            out.replies.push(unit);
                        }
                        SvcAction::Replica { replica, io, ctx } => {
                            out.replica_ops.push((idx, replica, io, ctx))
                        }
                        SvcAction::Alert(msg) => self.alerts.push((now, msg)),
                        SvcAction::Charge(c) => charged += c,
                        SvcAction::Timer { delay, token } => {
                            let t = self.token();
                            self.svc_timers.insert(t, (idx, token));
                            cx.set_timer(delay, t);
                        }
                    }
                }
            }
            if charged > SimDuration::ZERO {
                out.cost += charged;
                self.trace.emit_with(now, || TraceEvent::Stage {
                    req,
                    hop: Hop::Service,
                    id: idx as u32,
                    dur: charged,
                });
            }
            frontier = next;
        }
        let (cmds, services) = (&mut self.pairs[pair_idx].cmds, &mut self.services);
        if frontier.len() == 1
            && frontier[0].encode_bhs() == unit.in_bhs
            && frontier[0].data().same_storage(&unit.in_data)
        {
            self.copies.verbatim_forwards += 1;
            if let Some(cmd) = cmds.retire(dir, &frontier[0]) {
                retire_in_chain(services, cmd.key);
            }
            if !unit.entry_wire.is_empty() {
                out.forwards.push(OutUnit::Verbatim {
                    entry_wire: unit.entry_wire,
                    data: unit.in_data,
                });
            }
        } else {
            out.verbatim = false;
            let forwards = frontier
                .into_iter()
                .map(|p| outbound(cmds, services, dir, p));
            out.forwards.extend(forwards);
        }
    }

    /// The flow pair side actions should route to: the originating pair
    /// when known and still open, otherwise the first open pair (timers
    /// and other flow-less contexts).
    fn route_pair(&self, origin: Option<usize>) -> Option<usize> {
        match origin {
            Some(i) if i < self.pairs.len() && !self.pairs[i].closed => Some(i),
            _ => self.pairs.iter().position(|p| !p.closed),
        }
    }

    /// Executes the actions a service emitted outside the data path
    /// (replica completions, timers). `origin` is the flow pair whose PDU
    /// led here, when there is one.
    fn run_side_actions(
        &mut self,
        cx: &mut Cx<'_>,
        svc_idx: usize,
        mut scx: SvcCtx,
        origin: Option<usize>,
    ) {
        let actions = scx.take_actions();
        let now = cx.now();
        for action in actions {
            match action {
                // Side-context replies flow back towards the initiator
                // (replication serving a read from a replica, the cache
                // acking a journaled write); forwards continue upstream
                // (a failed replica read re-dispatched to the primary).
                SvcAction::Reply(p) => self.send_side(cx, origin, Dir::ToInitiator, p),
                SvcAction::Forward(p) => self.send_side(cx, origin, Dir::ToTarget, p),
                SvcAction::Replica { replica, io, ctx } => {
                    self.issue_replica(cx, svc_idx, replica, io, ctx, origin);
                }
                SvcAction::Alert(msg) => self.alerts.push((now, msg)),
                SvcAction::Charge(c) => {
                    let _ = cx.charge(c, &self.cfg.label);
                }
                SvcAction::Timer { delay, token } => {
                    let t = self.token();
                    self.svc_timers.insert(t, (svc_idx, token));
                    cx.set_timer(delay, t);
                }
            }
        }
    }

    /// Sends a side-context PDU travelling in `dir` on the flow the
    /// request came in on, in that flow's wire format.
    fn send_side(&mut self, cx: &mut Cx<'_>, origin: Option<usize>, dir: Dir, pdu: Pdu) {
        let Some(i) = self.route_pair(origin) else {
            return;
        };
        let p = &mut self.pairs[i];
        let unit = outbound(&mut p.cmds, &mut self.services, dir, pdu);
        let (q, sock) = match dir {
            Dir::ToTarget => (&mut p.c_out, p.client),
            Dir::ToInitiator => (&mut p.s_out, p.server),
        };
        self.pdus_forwarded += p.proto.encode(dir, [unit], q, &mut self.copies);
        q.pump(cx, sock);
    }

    fn issue_replica(
        &mut self,
        cx: &mut Cx<'_>,
        svc_idx: usize,
        replica: usize,
        io: ReplicaIo,
        ctx: u64,
        origin: Option<usize>,
    ) {
        self.issue_replica_attempt(
            cx,
            replica,
            PendingIo {
                svc: svc_idx,
                ctx,
                io,
                attempts: 0,
                origin,
            },
        );
    }

    fn issue_replica_attempt(&mut self, cx: &mut Cx<'_>, replica: usize, req: PendingIo) {
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        if sess.failed {
            let (svc, ctx, origin) = (req.svc, req.ctx, req.origin);
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc].on_replica_done(&mut scx, replica, ctx, false, Bytes::new());
            self.run_side_actions(cx, svc, scx, origin);
            return;
        }
        if !sess.up {
            sess.parked.push((req.svc, req.io, req.ctx, req.origin));
            return;
        }
        let tag = match &req.io {
            ReplicaIo::Write { lba, data } => sess.ini.write(*lba, data.clone()),
            ReplicaIo::Read { lba, sectors } => sess.ini.read(*lba, *sectors),
        };
        sess.pending.insert(tag, req);
        if let Some(sock) = sess.sock {
            for c in sess.ini.take_wire() {
                sess.sendq.push_bytes(c);
            }
            sess.sendq.pump(cx, sock);
        }
        // Arm the request watchdog.
        if let Some(policy) = self.cfg.retry {
            let token = self.token();
            self.watchdogs.insert(token, (replica, tag));
            cx.set_timer(policy.timeout, token);
        }
    }

    /// A replica request produced no response within the timeout window:
    /// retry with bounded exponential backoff, and once the session has
    /// timed out `fail_threshold` requests in a row, fail the replica.
    fn handle_replica_timeout(&mut self, cx: &mut Cx<'_>, replica: usize, tag: IoTag) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        // The response arrived (or the session already failed over).
        let Some(mut req) = sess.pending.remove(&tag) else {
            return;
        };
        sess.timeouts += 1;
        if sess.timeouts >= policy.fail_threshold {
            let (svc, ctx, origin) = (req.svc, req.ctx, req.origin);
            self.fail_replica(cx, replica);
            // `fail_replica` drained the remaining pending requests; this
            // one was removed above, so report it failed separately.
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc].on_replica_done(&mut scx, replica, ctx, false, Bytes::new());
            self.run_side_actions(cx, svc, scx, origin);
            return;
        }
        if req.attempts < policy.max_retries {
            req.attempts += 1;
            let backoff = policy.backoff(req.attempts);
            let token = self.token();
            self.retries.insert(token, (replica, req));
            cx.set_timer(backoff, token);
        } else {
            // Out of retries: this request alone is failed to its service.
            let (svc, ctx, origin) = (req.svc, req.ctx, req.origin);
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc].on_replica_done(&mut scx, replica, ctx, false, Bytes::new());
            self.run_side_actions(cx, svc, scx, origin);
        }
    }

    fn flush_replica(&mut self, cx: &mut Cx<'_>, idx: usize) {
        if let Some(sess) = self.replicas.get_mut(idx) {
            if let Some(sock) = sess.sock {
                for c in sess.ini.take_wire() {
                    sess.sendq.push_bytes(c);
                }
                sess.sendq.pump(cx, sock);
            }
        }
    }

    /// The relay datapath for both transports: decodes received bytes
    /// into messages (one per iSCSI PDU, one per nvmeq frame), takes the
    /// fault and QoS decisions once per message, runs each of its chain
    /// units, and releases the message as one store-and-forward deferral
    /// — so a doorbell keeps up to `queue_depth` commands in flight while
    /// the chain still sees one PDU at a time.
    fn handle_pair_data(&mut self, cx: &mut Cx<'_>, pair_idx: usize, side: Side, data: Bytes) {
        let now = cx.now();
        let dir = match side {
            Side::Server => Dir::ToTarget,
            Side::Client => Dir::ToInitiator,
        };
        let msgs = {
            let pair = &mut self.pairs[pair_idx];
            if side == Side::Server {
                pair.buffered_in += data.len();
            }
            match pair.proto.decode(side == Side::Client, data) {
                Some(m) => m,
                None => {
                    let (s, c) = (pair.server, pair.client);
                    pair.closed = true;
                    cx.abort(s);
                    cx.abort(c);
                    return;
                }
            }
        };
        // Backpressure: the persistence buffer is full.
        {
            let pair = &mut self.pairs[pair_idx];
            if side == Side::Server && !pair.paused && pair.buffered_in > self.cfg.buffer_cap {
                pair.paused = true;
                let s = pair.server;
                let src_port = pair.src_port;
                cx.pause(s);
                self.trace.emit_with(now, || TraceEvent::Mark {
                    req: flow_token(src_port),
                    hop: Hop::Buffer,
                    id: self.trace_mb,
                });
            }
        }
        for msg in msgs {
            let input_bytes = if side == Side::Server {
                msg.input_bytes
            } else {
                0
            };
            // Fault injection: an armed plan may drop or slow message
            // processing inside the middle-box.
            let mut fault_delay = SimDuration::ZERO;
            match self
                .fault
                .decide(now, FaultSite::MbProcess { mb: self.fault_mb })
            {
                FaultAction::Proceed => {}
                FaultAction::Drop | FaultAction::Fail => {
                    // Keep the persistence-buffer accounting draining.
                    let p = &mut self.pairs[pair_idx];
                    p.buffered_in = p.buffered_in.saturating_sub(input_bytes);
                    continue;
                }
                FaultAction::Delay(d) => fault_delay = d,
            }
            // Tenant rate limiting: request-direction messages draw from
            // the token bucket — a doorbell batch is one shaping decision,
            // matching its one network transfer. The shaping delay is
            // queueing (a later serve start), not CPU, so an under-limit
            // tenant's datapath is byte-identical to the unlimited one.
            let qos_delay = match &mut self.limiter {
                Some(l) if dir == Dir::ToTarget => l.admit(now, msg.input_bytes as u64),
                _ => SimDuration::ZERO,
            };
            if qos_delay > SimDuration::ZERO {
                let req = req_token(self.pairs[pair_idx].src_port, msg.tag);
                self.trace.emit_with(now, || TraceEvent::Stage {
                    req,
                    hop: Hop::Qos,
                    id: self.trace_mb,
                    dur: qos_delay,
                });
            }
            let n = msg.units.len();
            let mut out = ChainOut {
                // A multi-unit frame may re-frame every unit one by one:
                // size for all of them up front.
                forwards: Vec::with_capacity(if n > 1 { n } else { 0 }),
                verbatim: true,
                replies: Vec::new(),
                replica_ops: Vec::new(),
                // Handshake frames bypass the chain: the relay forwards
                // the connect/disconnect exchange verbatim, like splicing
                // does for iSCSI login on the passive path.
                cost: if n == 0 {
                    self.cfg.per_pdu_cost + fault_delay
                } else {
                    fault_delay
                },
            };
            let units = (n as u64).max(1);
            for unit in msg.units {
                self.run_unit(cx, pair_idx, dir, unit, &mut out);
            }
            let forwards = if out.verbatim {
                PduOut::Verbatim {
                    wire: msg.wire,
                    units,
                }
            } else {
                PduOut::Encode(out.forwards)
            };
            // Account CPU and serialize processing per flow.
            let _ = cx.charge(out.cost, &self.cfg.label);
            let done = self.pairs[pair_idx].proc.serve(now + qos_delay, out.cost);
            let token = self.token();
            self.deferred.insert(
                token,
                Deferred {
                    pair: pair_idx,
                    dir,
                    forwards,
                    replies: out.replies,
                    replica_ops: out.replica_ops,
                    input_bytes,
                },
            );
            cx.set_timer(done - now, token);
        }
    }

    fn release(&mut self, cx: &mut Cx<'_>, d: Deferred) {
        let Deferred {
            pair,
            dir,
            forwards,
            replies,
            replica_ops,
            input_bytes,
        } = d;
        if pair >= self.pairs.len() || self.pairs[pair].closed {
            return;
        }
        for (svc_idx, replica, io, ctx) in replica_ops {
            self.issue_replica(cx, svc_idx, replica, io, ctx, Some(pair));
        }
        let p = &mut self.pairs[pair];
        let (ahead, back) = match dir {
            Dir::ToTarget => (&mut p.c_out, &mut p.s_out),
            Dir::ToInitiator => (&mut p.s_out, &mut p.c_out),
        };
        self.pdus_forwarded += match forwards {
            PduOut::Verbatim { wire, units } => {
                ahead.push_all(wire);
                units
            }
            PduOut::Encode(units) => p.proto.encode(dir, units, ahead, &mut self.copies),
        };
        if !replies.is_empty() {
            // Chain replies head back where the message came from (on
            // nvmeq, coalesced into one frame).
            self.pdus_forwarded += p.proto.encode(dir.flip(), replies, back, &mut self.copies);
        }
        let (server, client) = (p.server, p.client);
        p.buffered_in = p.buffered_in.saturating_sub(input_bytes);
        let resume = p.paused && p.buffered_in < self.cfg.buffer_cap / 2;
        if resume {
            p.paused = false;
        }
        p.c_out.pump(cx, client);
        p.s_out.pump(cx, server);
        if resume {
            cx.resume(server);
        }
    }

    fn handle_replica_events(&mut self, cx: &mut Cx<'_>, idx: usize, events: Vec<InitiatorEvent>) {
        for ev in events {
            match ev {
                InitiatorEvent::LoginComplete => {
                    let parked = {
                        let sess = &mut self.replicas[idx];
                        sess.up = true;
                        std::mem::take(&mut sess.parked)
                    };
                    for (svc_idx, io, ctx, origin) in parked {
                        self.issue_replica(cx, svc_idx, idx, io, ctx, origin);
                    }
                }
                InitiatorEvent::LoginFailed { .. } => self.fail_replica(cx, idx),
                InitiatorEvent::WriteComplete { tag, status }
                | InitiatorEvent::FlushComplete { tag, status } => {
                    if let Some(req) = self.replicas[idx].pending.remove(&tag) {
                        self.replicas[idx].timeouts = 0;
                        let ok = status == ScsiStatus::Good;
                        let mut scx = SvcCtx::new(cx.now());
                        self.services[req.svc].on_replica_done(
                            &mut scx,
                            idx,
                            req.ctx,
                            ok,
                            Bytes::new(),
                        );
                        self.run_side_actions(cx, req.svc, scx, req.origin);
                    }
                }
                InitiatorEvent::ReadComplete { tag, status, data } => {
                    if let Some(req) = self.replicas[idx].pending.remove(&tag) {
                        self.replicas[idx].timeouts = 0;
                        let ok = status == ScsiStatus::Good;
                        let mut scx = SvcCtx::new(cx.now());
                        self.services[req.svc].on_replica_done(&mut scx, idx, req.ctx, ok, data);
                        self.run_side_actions(cx, req.svc, scx, req.origin);
                    }
                }
                InitiatorEvent::LoggedOut => self.fail_replica(cx, idx),
                InitiatorEvent::ProtocolError(_) => self.fail_replica(cx, idx),
            }
        }
        self.flush_replica(cx, idx);
    }

    /// Opens (or re-opens) every configured replica session.
    fn connect_replicas(&mut self, cx: &mut Cx<'_>) {
        self.replicas.clear();
        self.replica_socks.clear();
        for i in 0..self.cfg.replicas.len() {
            let portal = self.cfg.replicas[i].portal;
            let sock = cx.connect(portal);
            let ini = Initiator::new(InitiatorConfig {
                initiator_iqn: self.cfg.initiator_iqn.clone(),
                target_iqn: self.cfg.replicas[i].iqn.clone(),
                params: SessionParams::default(),
                isid: [0x80, 0, 0, 0x10, 0, self.replicas.len() as u8],
            });
            let idx = self.replicas.len();
            self.replicas.push(ReplicaSession {
                ini,
                sock: Some(sock),
                sendq: SendQueue::new(),
                pending: BTreeMap::new(),
                parked: Vec::new(),
                up: false,
                failed: false,
                timeouts: 0,
            });
            self.replica_socks.insert(sock, idx);
        }
    }

    /// Crashes the middle-box VM: every flow and replica session is cut
    /// and all in-flight state is lost, like a power failure.
    fn crash(&mut self, cx: &mut Cx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        for pair in &mut self.pairs {
            if !pair.closed {
                pair.closed = true;
                cx.abort(pair.server);
                cx.abort(pair.client);
            }
            self.copies.add(pair.proto.copy_stats());
        }
        self.pairs.clear();
        self.by_sock.clear();
        for sess in &mut self.replicas {
            if let Some(sock) = sess.sock.take() {
                cx.abort(sock);
            }
        }
        self.replicas.clear();
        self.replica_socks.clear();
        self.deferred.clear();
        self.svc_timers.clear();
        self.watchdogs.clear();
        self.retries.clear();
    }

    /// Boots the middle-box back up. Replica sessions reconnect from
    /// scratch; service state (e.g. replicas a service already evicted)
    /// survives, as it would on a warm restart from a persistence buffer.
    fn restart(&mut self, cx: &mut Cx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        self.connect_replicas(cx);
    }

    fn fail_replica(&mut self, cx: &mut Cx<'_>, idx: usize) {
        let outstanding: Vec<(usize, u64, Option<usize>)> = {
            let sess = &mut self.replicas[idx];
            if sess.failed {
                return;
            }
            sess.failed = true;
            sess.up = false;
            std::mem::take(&mut sess.pending)
                .into_values()
                .map(|v| (v.svc, v.ctx, v.origin))
                .collect()
        };
        self.trace.emit_with(cx.now(), || TraceEvent::ReplicaEvict {
            mb: self.trace_mb,
            replica: idx as u32,
        });
        // Fail outstanding I/O back to the owning services, then tell
        // every service the replica is gone.
        for (svc_idx, ctx, origin) in outstanding {
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc_idx].on_replica_done(&mut scx, idx, ctx, false, Bytes::new());
            self.run_side_actions(cx, svc_idx, scx, origin);
        }
        for svc_idx in 0..self.services.len() {
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc_idx].on_replica_failed(&mut scx, idx);
            self.run_side_actions(cx, svc_idx, scx, None);
        }
    }
}

/// An outbound PDU travelling in `dir` with the command it belongs to; a
/// final status leaving towards the initiator retires that command.
fn outbound(
    cmds: &mut CmdTable,
    services: &mut [Box<dyn StorageService>],
    dir: Dir,
    pdu: Pdu,
) -> OutUnit {
    let cmd = match cmds.retire(dir, &pdu) {
        Some(done) => {
            retire_in_chain(services, done.key);
            Some(done)
        }
        None => cmds.get(pdu.itt()),
    };
    OutUnit::Pdu(pdu, cmd)
}

/// Tells every chain service that the command of `key` retired, however
/// it ended: a status from the target or a reply from any service.
fn retire_in_chain(services: &mut [Box<dyn StorageService>], key: u64) {
    for svc in services {
        svc.on_retire(key);
    }
}

impl App for ActiveRelayMb {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(self.cfg.listen_port);
        self.connect_replicas(cx);
    }

    fn on_bus(&mut self, cx: &mut Cx<'_>, _from: HostId, msg: BusMsg) {
        if let Ok(ctl) = msg.downcast::<MbControl>() {
            match ctl {
                MbControl::Crash => self.crash(cx),
                MbControl::Restart => self.restart(cx),
            }
        }
    }

    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.replicas[idx].ini.start_login();
            self.flush_replica(cx, idx);
        }
        // Pseudo-client connections need no handshake hook: queued bytes
        // flush automatically.
    }

    fn on_connect_failed(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.fail_replica(cx, idx);
        } else if let Some(&(pair, _)) = self.by_sock.get(&sock) {
            let server = self.pairs[pair].server;
            self.pairs[pair].closed = true;
            cx.abort(server);
        }
    }

    fn on_accepted(&mut self, cx: &mut Cx<'_>, _port: u16, sock: SockId) {
        if self.crashed {
            cx.abort(sock);
            return;
        }
        // New steered flow: open the upstream leg, binding the flow's
        // original source port so port-matched chain rules keep working.
        let src_port = cx.tuple_of(sock).map(|t| t.dst.port);
        let client = cx.connect_from(self.cfg.upstream, src_port);
        let pair_idx = self.pairs.len();
        self.pairs.push(FlowPair {
            server: sock,
            client,
            src_port: src_port.unwrap_or(0),
            proto: WireCodec::Undecided,
            cmds: CmdTable::default(),
            s_out: SendQueue::new(),
            c_out: SendQueue::new(),
            buffered_in: 0,
            paused: false,
            proc: SerialResource::new(),
            closed: false,
        });
        self.by_sock.insert(sock, (pair_idx, Side::Server));
        self.by_sock.insert(client, (pair_idx, Side::Client));
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            let events = self.replicas[idx].ini.feed_bytes(data);
            self.handle_replica_events(cx, idx, events);
            return;
        }
        if let Some(&(pair, side)) = self.by_sock.get(&sock) {
            self.handle_pair_data(cx, pair, side, data);
        }
    }

    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.flush_replica(cx, idx);
            return;
        }
        if let Some(&(pair, side)) = self.by_sock.get(&sock) {
            let p = &mut self.pairs[pair];
            match side {
                Side::Server => {
                    let s = p.server;
                    p.s_out.pump(cx, s);
                }
                Side::Client => {
                    let c = p.client;
                    p.c_out.pump(cx, c);
                }
            }
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {
        if let Some(d) = self.deferred.remove(&token) {
            self.release(cx, d);
        } else if let Some((svc_idx, user_token)) = self.svc_timers.remove(&token) {
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc_idx].on_timer(&mut scx, user_token);
            self.run_side_actions(cx, svc_idx, scx, None);
        } else if let Some((replica, tag)) = self.watchdogs.remove(&token) {
            self.handle_replica_timeout(cx, replica, tag);
        } else if let Some((replica, req)) = self.retries.remove(&token) {
            self.issue_replica_attempt(cx, replica, req);
            self.flush_replica(cx, replica);
        }
    }

    fn on_closed(&mut self, cx: &mut Cx<'_>, sock: SockId, _reason: CloseReason) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.fail_replica(cx, idx);
            return;
        }
        if let Some(&(pair, side)) = self.by_sock.get(&sock) {
            let p = &mut self.pairs[pair];
            if !p.closed {
                p.closed = true;
                // Propagate the close to the other leg.
                let other = match side {
                    Side::Server => p.client,
                    Side::Client => p.server,
                };
                cx.close(other);
            }
        }
    }
}

impl std::fmt::Debug for ActiveRelayMb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveRelayMb")
            .field("pairs", &self.pairs.len())
            .field("services", &self.services.len())
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}
