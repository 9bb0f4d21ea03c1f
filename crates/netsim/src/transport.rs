//! Reliable per-link transport: correct protocol execution over lossy
//! links.
//!
//! The paper's model (and [`crate::Simulator`]) assumes reliable
//! synchronous delivery, but [`crate::ChurnPlan`] injects exactly the
//! faults real sensor links exhibit — i.i.d. message loss and transient
//! outages — under which a bare protocol run silently computes a wrong
//! (possibly infeasible) result. This module closes that gap with a
//! classic ARQ layer, [`Reliable`], that wraps any [`NodeLogic`] and
//! executes it **bit-for-bit identically to a lossless run** as long as
//! every frame eventually gets through:
//!
//! * each executed round of the wrapped ("inner") logic produces one
//!   **frame** per link, tagged with a per-link sequence number (the
//!   inner round number) and a halting flag,
//! * receivers acknowledge **cumulatively**; acks piggyback on data
//!   frames and fall back to pure ack frames when a node has no data to
//!   send,
//! * senders retransmit the oldest unacknowledged frame on a
//!   deterministic timeout with bounded exponential backoff
//!   ([`TransportConfig::rto`] doubling up to
//!   [`TransportConfig::backoff_cap`]),
//! * a frame that stays unacknowledged after
//!   [`TransportConfig::max_retransmits`] retransmissions is a **delivery
//!   failure**: the node halts and the run surfaces
//!   [`SimError::DeliveryFailed`] naming the link, the sequence number
//!   and the attempt count — loss beyond the budget is an error, never a
//!   silent wrong answer.
//!
//! # Logical vs physical rounds
//!
//! The transport virtualizes time. The inner logic advances to logical
//! round `r` only when the round-`(r - 1)` frame from every non-halted
//! neighbor has arrived (the α-synchronizer condition, executed here on
//! the round-driven simulator so timeouts can fire); each physical
//! simulator round advances the inner logic by at most one logical round.
//! The inner context reports the **logical** round, reconstructs the
//! exact synchronous inbox (senders in id order, self-sends included —
//! self-sends never touch the wire), and hands the inner logic its
//! unchanged per-node RNG stream. Since the transport itself draws no
//! randomness, the inner execution trace — every draw, every branch,
//! every output — equals the lossless run's, at every `FTCLUST_THREADS`
//! setting. Loss only stretches physical time and adds metered overhead
//! frames.
//!
//! # Termination
//!
//! Reliable *distributed* termination over lossy links is the
//! two-generals problem: no node can ever learn for certain that its
//! final acknowledgment arrived, so any node that withdraws after a
//! finite quiet period can strand a peer whose retries all happened to
//! be lost. The transport sidesteps the dilemma by splitting the
//! decision. A node reports [`Reliable::done`] once its inner logic has
//! halted, every frame it ever sent is acknowledged, and every
//! neighbor's halting frame has been received — all facts it *knows*
//! from received frames, never inferred from timeouts — but it stays in
//! the network, re-acknowledging retransmissions indefinitely (only
//! isolated nodes halt on their own). The transport path of
//! [`Executor::run`](crate::exec::Executor::run), which observes every
//! node, stops the simulation once **all** nodes are done: global
//! knowledge that no protocol frame can still be needed. A frame
//! therefore fails only when its retransmit budget is genuinely
//! exhausted — reported as a (deterministic, seeded)
//! [`SimError::DeliveryFailed`] rather than a hang or a stranded peer.
//!
//! # CONGEST accounting
//!
//! Frames are first-class metered messages: a frame carries the bundled
//! payloads plus a header of two counters and two flags
//! ([`FrameMsg::bit_size`]), so header overhead is `O(log R)` bits for
//! `R` executed rounds — within the `O(log n)` regime for every
//! polylogarithmic-round protocol in this repository. Retransmissions,
//! pure acks and suppressed duplicates are tallied into
//! [`crate::Metrics::retransmits`], [`crate::Metrics::acks`] and
//! [`crate::Metrics::duplicates_suppressed`], refining the conservation
//! law (see [`crate::Metrics::unique_delivered`]).
//!
//! The lossless path is untouched: a simulation without [`Reliable`] (and
//! a [`Reliable`] one without loss) behaves exactly as before — the
//! transport is pure opt-in.

use crate::{bits_for_ids, Context, Control, Envelope, NodeLogic, Payload, SimError, Simulator};
use ftclust_graphs::NodeId;
use std::collections::VecDeque;

/// Data half of a [`FrameMsg`]: one logical round's bundle on one link.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameData<P> {
    /// Per-link sequence number — equal to the sender's logical round.
    pub seq: u64,
    /// `true` on the sender's final frame (its inner logic halted in
    /// round `seq`), so the receiver stops expecting higher sequences.
    pub halting: bool,
    /// The inner protocol messages for this link and round (possibly
    /// empty — an empty bundle is still the "round executed" beacon).
    pub payloads: Vec<P>,
}

/// One transport frame: a cumulative acknowledgment, optionally carrying
/// a data bundle. `data: None` is a pure ack.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMsg<P> {
    /// Cumulative ack: every frame with `seq < ack` from the addressee
    /// has been received in order.
    pub ack: u64,
    /// The data bundle, absent on pure acks.
    pub data: Option<FrameData<P>>,
}

impl<P: Payload> Payload for FrameMsg<P> {
    fn bit_size(&self) -> usize {
        // Header: data-present flag + the ack counter at its
        // self-delimiting width (a counter with value x needs
        // ceil(log2(x + 2)) bits, >= 1). Data adds the halting flag, the
        // sequence counter, and the bundled payloads at their own
        // metered sizes. Sequence numbers grow with the logical round,
        // so headers stay O(log R) bits for R-round protocols.
        let mut bits = 1 + bits_for_ids(self.ack as usize + 2);
        if let Some(d) = &self.data {
            bits += 1 + bits_for_ids(d.seq as usize + 2);
            bits += d.payloads.iter().map(Payload::bit_size).sum::<usize>();
        }
        bits
    }
}

/// Retransmission policy of the [`Reliable`] transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout, in physical rounds (the lossless
    /// ack round-trip is 2 rounds, so values below 3 retransmit
    /// spuriously). Must be at least 1.
    pub rto: u64,
    /// Ceiling for the exponentially backed-off timeout. Must be at
    /// least `rto`.
    pub backoff_cap: u64,
    /// Retransmissions allowed per frame (beyond the initial send)
    /// before the link is declared failed.
    pub max_retransmits: u32,
}

impl Default for TransportConfig {
    /// `rto = 3`, `backoff_cap = 16`, `max_retransmits = 20`: a frame
    /// fails only if 21 consecutive transmission round-trips (the frame
    /// or its ack) are lost — probability below `(2p)^21` at loss rate
    /// `p`, negligible for every loss rate the experiments sweep.
    fn default() -> Self {
        TransportConfig {
            rto: 3,
            backoff_cap: 16,
            max_retransmits: 20,
        }
    }
}

impl TransportConfig {
    /// A generous physical-round ceiling for a protocol that runs
    /// `logical_rounds` inner rounds: every round may wait out a full
    /// retransmission budget. Actual lossy runs finish in a small
    /// multiple of `logical_rounds`; this is the diagnostic limit that
    /// [`Executor::run`](crate::exec::Executor::run) derives from a
    /// protocol's logical budget.
    pub fn round_budget(&self, logical_rounds: u64) -> u64 {
        logical_rounds
            .saturating_mul(u64::from(self.max_retransmits) + 1)
            .saturating_mul(self.backoff_cap.max(self.rto))
            .saturating_add(self.rto + 8)
    }

    fn validate(&self) {
        assert!(self.rto >= 1, "rto must be at least 1 round");
        assert!(
            self.backoff_cap >= self.rto,
            "backoff_cap {} below rto {}",
            self.backoff_cap,
            self.rto
        );
    }
}

/// A recorded delivery failure: the retransmit budget for `seq` ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// The unresponsive peer.
    pub to: NodeId,
    /// Sequence number of the frame that could not be delivered.
    pub seq: u64,
    /// Transmissions attempted (initial send + retransmissions).
    pub attempts: u32,
}

impl DeliveryFailure {
    /// The failure as a [`SimError`], attributed to sender `from`.
    pub fn into_error(self, from: NodeId) -> SimError {
        SimError::DeliveryFailed {
            from,
            to: self.to,
            seq: self.seq,
            attempts: self.attempts,
        }
    }
}

/// An outbound frame awaiting acknowledgment.
#[derive(Debug)]
struct SentFrame<P> {
    seq: u64,
    halting: bool,
    payloads: Vec<P>,
    /// Transmissions so far; 0 = created this round, not yet on the wire.
    attempts: u32,
}

/// A link's unacknowledged frames, oldest first: the oldest two inline,
/// any further ones in a heap spill (see [`Link::unacked`] for when the
/// spill is needed).
#[derive(Debug)]
struct Unacked<P> {
    inline: [Option<SentFrame<P>>; 2],
    /// Slot of the oldest frame. The other slot holds the second
    /// oldest; the spill is empty unless both slots are full.
    head: usize,
    spill: VecDeque<SentFrame<P>>,
}

impl<P> Unacked<P> {
    fn new() -> Self {
        Unacked {
            inline: [None, None],
            head: 0,
            spill: VecDeque::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.inline[self.head].is_none()
    }

    fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }

    fn front_mut(&mut self) -> Option<&mut SentFrame<P>> {
        self.inline[self.head].as_mut()
    }

    fn back_mut(&mut self) -> Option<&mut SentFrame<P>> {
        let [a, b] = &mut self.inline;
        let (oldest, second) = if self.head == 0 { (a, b) } else { (b, a) };
        self.spill
            .back_mut()
            .or(second.as_mut())
            .or(oldest.as_mut())
    }

    fn push_back(&mut self, frame: SentFrame<P>) {
        let second = self.head ^ 1;
        if self.inline[self.head].is_none() {
            self.inline[self.head] = Some(frame);
        } else if self.inline[second].is_none() {
            self.inline[second] = Some(frame);
        } else {
            self.spill.push_back(frame);
        }
    }

    fn pop_front(&mut self) -> Option<SentFrame<P>> {
        let oldest = self.inline[self.head].take()?;
        // The freed slot takes the third oldest and becomes the second.
        self.inline[self.head] = self.spill.pop_front();
        self.head ^= 1;
        Some(oldest)
    }
}

/// Per-neighbor ARQ state.
#[derive(Debug)]
struct Link<P> {
    peer: NodeId,
    // --- send side ---
    /// Frames sent (or queued) but not yet cumulatively acked, oldest
    /// first. While the peer is live this holds at most two adjacent
    /// logical rounds: we execute round `r + 1` only with the peer's
    /// round-`r` frame, which acks everything before our round `r`.
    /// Once the peer has halted we execute on without waiting for it, so
    /// frames pile up for as long as its pure acks are lost (depth 4
    /// measured on the `repair-lossy` benchmark, seed 7) — hence the
    /// spill.
    unacked: Unacked<P>,
    /// Highest cumulative ack received from the peer.
    acked: u64,
    /// Current (backed-off) retransmission timeout.
    rto_cur: u64,
    /// Physical round at which the oldest unacked frame may be
    /// retransmitted; `u64::MAX` when nothing is outstanding.
    due: u64,
    // --- receive side ---
    /// In-order bundles not yet consumed by the inner logic: sequences
    /// `consumed..recv_next`, sequence `s` in slot `s % 2`. Only filled
    /// while our inner logic runs, and then at most two deep: the peer
    /// executes its round `s` only with our round-`(s - 1)` frame, so it
    /// is never more than one round ahead of the bundle we consume next.
    ready: [Vec<P>; 2],
    /// Out-of-order bundles with `seq > recv_next` (payloads dropped
    /// once our inner logic has halted).
    ooo: Vec<(u64, Vec<P>)>,
    /// Next in-order sequence expected — also the cumulative ack we send.
    recv_next: u64,
    /// Next sequence the inner logic will consume.
    consumed: u64,
    /// Sequence of the peer's halting frame (`u64::MAX` = still active).
    peer_halt_seq: u64,
    /// A data frame (new or duplicate) arrived and deserves an ack this
    /// round.
    need_ack: bool,
}

impl<P> Link<P> {
    fn new(peer: NodeId) -> Self {
        Link {
            peer,
            unacked: Unacked::new(),
            acked: 0,
            rto_cur: 0,
            due: u64::MAX,
            ready: [Vec::new(), Vec::new()],
            ooo: Vec::new(),
            recv_next: 0,
            consumed: 0,
            peer_halt_seq: u64::MAX,
            need_ack: false,
        }
    }

    /// Every frame we ever sent is acked, and the peer's full stream
    /// (through its halting frame) has been received.
    fn closed(&self) -> bool {
        self.unacked.is_empty()
            && self.peer_halt_seq != u64::MAX
            && self.recv_next > self.peer_halt_seq
    }

    /// The `ready` slot for bundle `recv_next`. Fails fast if the window
    /// is full, which the bound on [`Link::ready`] rules out.
    fn next_ready_slot(&mut self) -> &mut Vec<P> {
        assert!(
            self.recv_next - self.consumed < 2,
            "ready window overflow on the link to {}",
            self.peer
        );
        &mut self.ready[(self.recv_next % 2) as usize]
    }
}

/// Index of the link to `peer`. Inbox slices and inner sends mostly come
/// in ascending peer order — the order of `links` — so a forward
/// `cursor` finds most peers in a step; anything else (jitter-delayed
/// frames staged ahead of the rest, sends in another order) falls back
/// to binary search.
fn find_link<P>(links: &[Link<P>], peer: NodeId, cursor: &mut usize) -> Option<usize> {
    while links.get(*cursor).is_some_and(|l| l.peer < peer) {
        *cursor += 1;
    }
    if links.get(*cursor).is_some_and(|l| l.peer == peer) {
        return Some(*cursor);
    }
    let pos = links.binary_search_by_key(&peer, |l| l.peer).ok()?;
    *cursor = pos;
    Some(pos)
}

/// Wraps a [`NodeLogic`] in the reliable transport described in the
/// [module docs](self). `Reliable<L>` is itself a `NodeLogic` over
/// [`FrameMsg`] frames, so it runs on the ordinary [`crate::Simulator`]
/// — but connected nodes never halt on their own (see the module docs
/// on termination), so run it through
/// [`Executor::run`](crate::exec::Executor::run) with a transport
/// [`Stack`](crate::exec::Stack), or step it manually and stop once
/// every node reports [`Reliable::done`].
///
/// The transport masks **message** loss (drops, outage windows) and the
/// adversary's corruption, duplication and jitter; it does not mask
/// *node* crashes — a frame addressed to a crashed node that never
/// recovers exhausts its budget and fails. Run crash-tolerant protocols
/// on the surviving topology instead (see `ftclust_core::repair`).
#[derive(Debug)]
pub struct Reliable<L: NodeLogic> {
    inner: L,
    cfg: TransportConfig,
    /// Per-neighbor ARQ state, in `neighbors()` order; built lazily on
    /// the first round (the topology is only visible through the
    /// context).
    links: Vec<Link<L::Payload>>,
    started: bool,
    /// Next logical round the inner logic will execute.
    local_round: u64,
    inner_halted: bool,
    /// Earliest [`Link::due`] as of the end of the last round that ran
    /// the send loop. A halted node with an empty inbox has nothing to
    /// do before this round.
    next_due: u64,
    /// Self-addressed inner messages, keyed by sending logical round.
    pending_self: Vec<(u64, Vec<L::Payload>)>,
    failure: Option<DeliveryFailure>,
    /// Recycled buffers for the inner context.
    inner_outbox: Vec<Envelope<L::Payload>>,
    inner_inbox: Vec<Envelope<L::Payload>>,
    /// Rounds returned early by the idle check (white-box tests).
    #[cfg(test)]
    idle_skips: u64,
}

impl<L: NodeLogic> Reliable<L> {
    /// Wraps `inner` with the given retransmission policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`rto == 0` or
    /// `backoff_cap < rto`).
    pub fn new(inner: L, cfg: TransportConfig) -> Self {
        cfg.validate();
        Reliable {
            inner,
            cfg,
            links: Vec::new(),
            started: false,
            local_round: 0,
            inner_halted: false,
            next_due: 0,
            pending_self: Vec::new(),
            failure: None,
            inner_outbox: Vec::new(),
            inner_inbox: Vec::new(),
            #[cfg(test)]
            idle_skips: 0,
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps the transport, returning the inner protocol state.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// Logical rounds the inner logic has executed.
    pub fn logical_rounds(&self) -> u64 {
        self.local_round
    }

    /// The delivery failure that aborted this node, if any.
    pub fn failure(&self) -> Option<DeliveryFailure> {
        self.failure
    }

    /// True once the inner logic has executed its halting round.
    pub fn inner_halted(&self) -> bool {
        self.inner_halted
    }

    /// True once this node needs nothing more from the network: its
    /// inner logic has halted, every frame it ever sent has been
    /// acknowledged, and every neighbor's stream has been received
    /// through its halting frame. All three facts are known from
    /// received frames — never inferred from timeouts — so `done` can
    /// never falsely turn true. A done node keeps re-acknowledging peer
    /// retransmissions until the whole run stops (see the module docs on
    /// termination); [`Executor::run`](crate::exec::Executor::run) ends the
    /// simulation once every node is done.
    pub fn done(&self) -> bool {
        self.inner_halted && self.links.iter().all(Link::closed)
    }

    /// Can the inner logic execute logical round `r` now? Round 0 needs
    /// no input; round `r > 0` needs the round-`(r - 1)` bundle from
    /// every neighbor that had not already halted before `r - 1`.
    fn can_execute(&self, r: u64) -> bool {
        if r == 0 {
            return true;
        }
        let prev = r - 1;
        self.links
            .iter()
            .all(|l| prev > l.peer_halt_seq || (l.consumed == prev && l.recv_next > prev))
    }

    /// Reconstructs the synchronous inbox for logical round `r` into
    /// `inner_inbox`: one consumed bundle per expecting link plus the
    /// round-`(r - 1)` self-sends, envelopes grouped by sender in
    /// ascending id order — exactly the order [`crate::Simulator`]'s
    /// sequential merge produces.
    fn build_inbox(&mut self, me: NodeId, r: u64) {
        self.inner_inbox.clear();
        if r == 0 {
            return;
        }
        let prev = r - 1;
        let self_pos = self
            .pending_self
            .iter()
            .position(|(round, _)| *round == prev);
        let mut self_payloads = self_pos.map(|i| self.pending_self.swap_remove(i).1);
        let mut self_done = false;
        for link in &mut self.links {
            if prev <= link.peer_halt_seq && link.consumed == prev {
                // Self-sends sort between neighbors by id.
                if !self_done && me < link.peer {
                    if let Some(payloads) = self_payloads.take() {
                        for p in payloads {
                            self.inner_inbox.push(Envelope {
                                from: me,
                                to: me,
                                payload: p,
                            });
                        }
                    }
                    self_done = true;
                }
                debug_assert!(link.recv_next > prev, "can_execute checked ready");
                let from = link.peer;
                let slot = &mut link.ready[(prev % 2) as usize];
                self.inner_inbox
                    .extend(slot.drain(..).map(|payload| Envelope {
                        from,
                        to: me,
                        payload,
                    }));
                link.consumed += 1;
            } else if !self_done && me < link.peer {
                // Still emit self-sends at the right position even when
                // this link contributes nothing this round.
                if let Some(payloads) = self_payloads.take() {
                    for p in payloads {
                        self.inner_inbox.push(Envelope {
                            from: me,
                            to: me,
                            payload: p,
                        });
                    }
                }
                self_done = true;
            }
        }
        if let Some(payloads) = self_payloads.take() {
            for p in payloads {
                self.inner_inbox.push(Envelope {
                    from: me,
                    to: me,
                    payload: p,
                });
            }
        }
    }
}

impl<L: NodeLogic> NodeLogic for Reliable<L> {
    type Payload = FrameMsg<L::Payload>;

    fn on_round(
        &mut self,
        inbox: &[Envelope<FrameMsg<L::Payload>>],
        ctx: &mut Context<'_, FrameMsg<L::Payload>>,
    ) -> Control {
        let now = ctx.round();
        // --- Idle: nothing arrived, nothing left to execute and no
        // timer due, so the scan below would send nothing. O(1) instead
        // of a walk over every link, every physical round, for each node
        // that waits for the rest of the network to finish.
        if inbox.is_empty() && self.inner_halted && now < self.next_due {
            debug_assert!(
                self.links.iter().all(|l| !l.need_ack && l.due > now),
                "idle node skipped a pending send"
            );
            #[cfg(test)]
            {
                self.idle_skips += 1;
            }
            return Control::Continue;
        }
        let me = ctx.me();
        if !self.started {
            self.started = true;
            self.links = ctx.neighbors().iter().map(|&w| Link::new(w)).collect();
        }
        debug_assert!(self.failure.is_none(), "failed node was scheduled again");

        // --- Receive: acks first, then data, per arriving frame. ---
        let mut cursor = 0;
        for env in inbox {
            let Some(pos) = find_link(&self.links, env.from, &mut cursor) else {
                debug_assert!(false, "frame from non-neighbor {}", env.from);
                continue;
            };
            let link = &mut self.links[pos];
            if env.payload.ack > link.acked {
                link.acked = env.payload.ack;
                while link.unacked.front_mut().is_some_and(|f| f.seq < link.acked) {
                    link.unacked.pop_front();
                }
                // Progress: restart the timer at the base timeout.
                link.rto_cur = self.cfg.rto;
                link.due = if link.unacked.is_empty() {
                    u64::MAX
                } else {
                    now + link.rto_cur
                };
            }
            let Some(data) = &env.payload.data else {
                continue;
            };
            link.need_ack = true;
            if data.seq < link.recv_next || link.ooo.iter().any(|(s, _)| *s == data.seq) {
                ctx.note_duplicate_suppressed();
                continue;
            }
            if data.halting {
                link.peer_halt_seq = data.seq;
            }
            // Bundles are buffered only while the inner logic can still
            // consume them; a halted node just tracks sequence numbers
            // (for its acks and `done`).
            let live = !self.inner_halted;
            if data.seq != link.recv_next {
                let payloads = if live {
                    data.payloads.clone()
                } else {
                    Vec::new()
                };
                link.ooo.push((data.seq, payloads));
                continue;
            }
            // In order: straight into the ready window, then drain
            // whatever the out-of-order buffer now completes.
            if live {
                link.next_ready_slot().extend_from_slice(&data.payloads);
            }
            link.recv_next += 1;
            while let Some(i) = link.ooo.iter().position(|(s, _)| *s == link.recv_next) {
                let (_, payloads) = link.ooo.swap_remove(i);
                if live {
                    *link.next_ready_slot() = payloads;
                }
                link.recv_next += 1;
            }
        }

        // --- Advance the inner logic by at most one logical round. ---
        let executed = !self.inner_halted && self.can_execute(self.local_round);
        if executed {
            let r = self.local_round;
            self.build_inbox(me, r);
            let mut outbox = std::mem::take(&mut self.inner_outbox);
            let inner_inbox = std::mem::take(&mut self.inner_inbox);
            outbox.clear();
            let mut inner_ctx = Context {
                me,
                round: r,
                topo: ctx.topo,
                rng: &mut *ctx.rng,
                outbox: &mut outbox,
                transport: &mut *ctx.transport,
                tracing: ctx.tracing,
                trace: &mut *ctx.trace,
                lane: None,
            };
            let control = self.inner.on_round(&inner_inbox, &mut inner_ctx);
            self.inner_halted = control == Control::Halt;
            self.local_round = r + 1;
            // Queue one frame per link (delivered empty bundles are the
            // "round executed" beacon), then route the inner sends into
            // those frames, self-deliveries aside.
            for link in &mut self.links {
                link.unacked.push_back(SentFrame {
                    seq: r,
                    halting: self.inner_halted,
                    payloads: Vec::new(),
                    attempts: 0,
                });
            }
            let mut self_msgs: Vec<L::Payload> = Vec::new();
            let mut cursor = 0;
            for env in outbox.drain(..) {
                if env.to == me {
                    self_msgs.push(env.payload);
                    continue;
                }
                let frame = find_link(&self.links, env.to, &mut cursor)
                    .and_then(|pos| self.links[pos].unacked.back_mut());
                let Some(frame) = frame else {
                    unreachable!("Context::send only accepts neighbors, and each got a frame");
                };
                frame.payloads.push(env.payload);
            }
            if !self_msgs.is_empty() {
                self.pending_self.push((r, self_msgs));
            }
            self.inner_outbox = outbox;
            self.inner_inbox = inner_inbox;
        }

        // --- Send: at most one frame per link per physical round. ---
        let mut next_due = u64::MAX;
        for link in &mut self.links {
            let ack = link.recv_next;
            let peer = link.peer;
            if executed {
                // Priority 1: first transmission of the frame created
                // this round (always the newest entry).
                let fresh = link.unacked.len() == 1;
                let Some(frame) = link.unacked.back_mut() else {
                    unreachable!("a frame was queued on every link this round");
                };
                debug_assert_eq!(frame.attempts, 0, "fresh frame already sent");
                frame.attempts = 1;
                let msg = FrameMsg {
                    ack,
                    data: Some(FrameData {
                        seq: frame.seq,
                        halting: frame.halting,
                        payloads: frame.payloads.clone(),
                    }),
                };
                if fresh {
                    link.rto_cur = self.cfg.rto;
                    link.due = now + link.rto_cur;
                }
                link.need_ack = false;
                ctx.send(peer, msg);
            } else if link.due <= now {
                // Priority 2: retransmit the oldest unacked frame on
                // timeout.
                let Some(frame) = link.unacked.front_mut() else {
                    unreachable!("due is only finite with unacked frames");
                };
                if frame.attempts > self.cfg.max_retransmits {
                    // Budget exhausted: record the failure and withdraw
                    // from the network. The runner surfaces this as
                    // `SimError::DeliveryFailed`.
                    self.failure = Some(DeliveryFailure {
                        to: peer,
                        seq: frame.seq,
                        attempts: frame.attempts,
                    });
                    return Control::Halt;
                }
                frame.attempts += 1;
                let msg = FrameMsg {
                    ack,
                    data: Some(FrameData {
                        seq: frame.seq,
                        halting: frame.halting,
                        payloads: frame.payloads.clone(),
                    }),
                };
                link.rto_cur = (link.rto_cur * 2).min(self.cfg.backoff_cap);
                link.due = now + link.rto_cur;
                link.need_ack = false;
                ctx.note_retransmit();
                ctx.send(peer, msg);
            } else if link.need_ack {
                // Priority 3: a pure ack if data arrived and nothing else
                // carried the acknowledgment.
                link.need_ack = false;
                ctx.note_ack();
                ctx.send(peer, FrameMsg { ack, data: None });
            }
            next_due = next_due.min(link.due);
        }
        self.next_due = next_due;

        // --- Termination (see module docs). Only isolated nodes may
        // withdraw on their own: any node with neighbors must stay
        // responsive — re-acking retransmissions — until the runner
        // observes that every node is done and stops the simulation.
        // Halting unilaterally after any finite quiet period could
        // strand a peer whose retries were all lost (two generals).
        if self.inner_halted && self.links.is_empty() {
            return Control::Halt;
        }
        Control::Continue
    }
}

/// The loop behind every transport run: steps `sim` until all nodes are
/// [`Reliable::done`], calling `after_step` after each step that leaves
/// the run going with the logical-round frontier (the largest logical
/// round any node has executed), and returns the final frontier.
///
/// Only nodes not yet done are scanned. `done` is monotone, so a done
/// node leaves the scan for good. A failed node still holds the frame it
/// could not deliver, so it is never done, and the scan — in id order —
/// still reports the lowest-id failure.
///
/// # Errors
///
/// [`SimError::DeliveryFailed`] as soon as any node exhausts a retransmit
/// budget; [`SimError::RoundLimitExceeded`] past `max_rounds` physical
/// rounds.
pub(crate) fn drive<'a, L: NodeLogic>(
    sim: &mut Simulator<'a, Reliable<L>>,
    max_rounds: u64,
    mut after_step: impl FnMut(&mut Simulator<'a, Reliable<L>>, u64),
) -> Result<u64, SimError> {
    let mut pending: Vec<NodeId> = sim.topology().graph().nodes().collect();
    let mut frontier = 0;
    while sim.step() {
        let mut kept = 0;
        for i in 0..pending.len() {
            let v = pending[i];
            let node = sim.logic(v);
            // Surface a delivery failure immediately: the victim's
            // neighbors would otherwise wait for its frames until the
            // round limit and mask the root cause.
            if let Some(failure) = node.failure() {
                return Err(failure.into_error(v));
            }
            frontier = frontier.max(node.logical_rounds());
            if !node.done() {
                pending[kept] = v;
                kept += 1;
            }
        }
        pending.truncate(kept);
        // Global termination: every node knows (from received acks and
        // halting frames) that it needs nothing more from the network.
        // Transport nodes stay responsive rather than halting on their
        // own, so this observation is what ends the run.
        if pending.is_empty() {
            break;
        }
        sim.check_round_limit(max_rounds)?;
        after_step(sim, frontier);
    }
    Ok(frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, Run, Stack};
    use crate::{AdversaryPlan, ChurnPlan, Metrics, Topology};
    use ftclust_graphs::generators;
    use rand::Rng;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn bit_size(&self) -> usize {
            bits_for_ids(1 << 16)
        }
    }

    /// A demanding reference protocol: every round it draws randomness,
    /// records its full inbox (sender order matters), broadcasts a mix of
    /// state, and self-sends — everything the transport must reproduce.
    #[derive(Debug, Clone, PartialEq)]
    struct Recorder {
        trace: Vec<(u64, Vec<(u32, u64)>)>,
        draws: Vec<u64>,
        best: u64,
        rounds: u64,
    }

    impl Recorder {
        fn new(v: NodeId, rounds: u64) -> Self {
            Recorder {
                trace: vec![],
                draws: vec![],
                best: v.raw() as u64,
                rounds,
            }
        }
    }

    impl NodeLogic for Recorder {
        type Payload = Num;
        fn on_round(&mut self, inbox: &[Envelope<Num>], ctx: &mut Context<'_, Num>) -> Control {
            let seen: Vec<(u32, u64)> = inbox.iter().map(|e| (e.from.raw(), e.payload.0)).collect();
            for &(_, x) in &seen {
                self.best = self.best.max(x);
            }
            self.trace.push((ctx.round(), seen));
            self.draws.push(ctx.rng().random_range(0..1_000_000u64));
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(self.best));
            let me = ctx.me();
            ctx.send(me, Num(self.draws[self.draws.len() - 1]));
            Control::Continue
        }
    }

    /// Per-node halting rounds: neighbors halt at different logical
    /// rounds, so nodes execute past halted peers (filling the unacked
    /// spill when acks are lost) and finish while others still run (the
    /// idle early return).
    fn staggered(v: NodeId) -> u64 {
        3 + u64::from(v.raw()) % 5
    }

    fn direct_run(g: &ftclust_graphs::Graph, seed: u64, halt: fn(NodeId) -> u64) -> Vec<Recorder> {
        let topo = Topology::from_graph(g);
        let mut sim = Simulator::new(topo, |v| Recorder::new(v, halt(v)), seed);
        sim.run(100_000).unwrap();
        sim.into_logics()
    }

    /// A transport run of `Recorder`s halting at `rounds`, started the
    /// way every caller starts one: through the executor.
    fn reliable_run(
        g: &ftclust_graphs::Graph,
        rounds: u64,
        seed: u64,
        stack: Stack,
    ) -> Result<Run<Recorder>, SimError> {
        Executor::new(Topology::from_graph(g), |v| Recorder::new(v, rounds), seed)
            .stack(stack)
            .run(rounds + 1)
    }

    /// A transport run stepped through [`drive`], returning the inner
    /// states, the metrics and two white-box counts: the deepest
    /// `unacked` queue seen after any step, and the idle early returns.
    fn white_box_run(
        g: &ftclust_graphs::Graph,
        halt: fn(NodeId) -> u64,
        p: f64,
        adversary: Option<AdversaryPlan>,
    ) -> (Vec<Recorder>, Metrics, usize, u64) {
        let cfg = TransportConfig::default();
        let mut sim = Simulator::with_churn(
            Topology::from_graph(g),
            |v| Reliable::new(Recorder::new(v, halt(v)), cfg),
            13,
            ChurnPlan::none().drop_probability(p),
        );
        if let Some(plan) = adversary {
            sim.set_adversary(plan);
        }
        let mut max_unacked = 0;
        drive(&mut sim, cfg.round_budget(9), |sim, _| {
            for link in sim.logics().flat_map(|l| &l.links) {
                max_unacked = max_unacked.max(link.unacked.len());
            }
        })
        .unwrap_or_else(|e| panic!("run at p = {p} failed: {e}"));
        let metrics = sim.metrics().clone();
        let idle_skips = sim.logics().map(|l| l.idle_skips).sum();
        let logics = sim.into_logics().into_iter().map(Reliable::into_inner);
        (logics.collect(), metrics, max_unacked, idle_skips)
    }

    #[test]
    fn lossless_transport_reproduces_direct_run() {
        for (g, seed) in [
            (generators::gnp(24, 0.2, 3), 7u64),
            (generators::cycle(9), 1),
            (generators::star(6), 5),
        ] {
            let direct = direct_run(&g, seed, |_| 6);
            let stack = Stack::new().transport(TransportConfig::default());
            let run = reliable_run(&g, 6, seed, stack).unwrap();
            assert_eq!(run.logics, direct, "lossless transport diverged");
            assert_eq!(run.logical_rounds, 7); // rounds 0..=6 executed
            assert_eq!(run.metrics.retransmits, 0, "spurious retransmit at p = 0");
            assert_eq!(run.metrics.duplicates_suppressed, 0);
        }
    }

    #[test]
    fn lossy_transport_reproduces_direct_run() {
        let g = generators::gnp(20, 0.25, 11);
        let jitter_dup = AdversaryPlan::new(5).jitter(0.3, 3).duplicate(0.2);
        let mut spill_depth = [0; 2];
        let mut idle_skips = [0; 2];
        for (s, halt) in [|_| 8, staggered].into_iter().enumerate() {
            let direct = direct_run(&g, 13, halt);
            for p in [0.0, 0.05, 0.2, 0.35] {
                for adversary in [None, Some(jitter_dup.clone())] {
                    let run = |threads| {
                        ftclust_par::with_threads(threads, || {
                            white_box_run(&g, halt, p, adversary.clone())
                        })
                    };
                    let baseline = run(1);
                    let case = format!("schedule {s}, p = {p}, adversary {adversary:?}");
                    assert_eq!(baseline.0, direct, "execution diverged: {case}");
                    if adversary.is_none() {
                        assert_eq!(baseline.1.retransmits > 0, p > 0.0, "{case}");
                    }
                    for threads in [2, 7] {
                        assert_eq!(run(threads), baseline, "{threads} threads: {case}");
                    }
                    spill_depth[s] = spill_depth[s].max(baseline.2);
                    idle_skips[s] += baseline.3;
                }
            }
        }
        // Only a node that executes past a halted peer needs the unacked
        // spill: staggered halting does, and idles while others run.
        assert!(
            spill_depth[0] <= 2,
            "spill, no halted peer: {spill_depth:?}"
        );
        assert!(spill_depth[1] > 2, "spill never used: {spill_depth:?}");
        assert!(idle_skips[1] > 0, "never idled: {idle_skips:?}");
    }

    #[test]
    fn transient_link_outage_is_masked() {
        // The only edge of a path(2) is down for 12 physical rounds —
        // shorter than the retransmit horizon, so the protocol stalls,
        // recovers, and finishes with the lossless result.
        let g = generators::path(2);
        let direct = direct_run(&g, 3, |_| 5);
        let churn = ChurnPlan::none().link_outage(NodeId::new(0), NodeId::new(1), 2..14);
        let stack = Stack::new().transport(TransportConfig::default());
        let run = reliable_run(&g, 5, 3, stack.churned(churn)).unwrap();
        assert_eq!(run.logics, direct);
        assert!(run.metrics.retransmits > 0);
        assert!(run.metrics.dropped_messages > 0);
    }

    #[test]
    fn budget_exhaustion_surfaces_delivery_failed() {
        let g = generators::path(3);
        let cfg = TransportConfig {
            rto: 2,
            backoff_cap: 4,
            max_retransmits: 3,
        };
        let err = reliable_run(&g, 5, 0, Stack::new().transport(cfg).lossy(1.0)).unwrap_err();
        match err {
            SimError::DeliveryFailed { attempts, .. } => {
                assert_eq!(attempts, cfg.max_retransmits + 1);
            }
            other => panic!("expected DeliveryFailed, got {other}"),
        }
    }

    #[test]
    fn conservation_law_extends_to_transport_counters() {
        let g = generators::gnp(18, 0.3, 2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none().drop_probability(0.25);
        let mut sim = Simulator::with_churn(
            topo,
            |v| Reliable::new(Recorder::new(v, 6), TransportConfig::default()),
            4,
            churn,
        );
        while sim.step() {
            if sim.logics().all(Reliable::done) {
                break;
            }
            assert!(sim.round() < 100_000, "run failed to converge");
        }
        let m = sim.metrics().clone();
        assert!(m.retransmits > 0);
        assert_eq!(m.in_flight_residual(), Ok(sim.in_flight_messages()));
        assert!(m.duplicates_suppressed <= m.retransmits);
    }

    #[test]
    fn thread_count_does_not_change_lossy_execution() {
        let g = generators::gnp(30, 0.2, 17);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let out = reliable_run(&g, 7, 23, Stack::new().lossy(0.15)).unwrap();
                (out.logics, out.metrics, out.logical_rounds)
            })
        };
        let baseline = run(1);
        assert!(baseline.1.retransmits > 0);
        for threads in [2usize, 7] {
            assert_eq!(run(threads), baseline, "diverged at {threads} threads");
        }
    }

    #[test]
    fn frame_bit_size_is_logarithmic() {
        let pure_ack: FrameMsg<Num> = FrameMsg { ack: 0, data: None };
        assert_eq!(pure_ack.bit_size(), 2); // flag + 1-bit counter
        let frame = FrameMsg {
            ack: 1000,
            data: Some(FrameData {
                seq: 1000,
                halting: true,
                payloads: vec![Num(3), Num(4)],
            }),
        };
        // 1 + ceil(log2 1002) + 1 + ceil(log2 1002) + 2 * 16.
        assert_eq!(frame.bit_size(), 1 + 10 + 1 + 10 + 32);
    }

    #[test]
    fn isolated_nodes_need_no_handshake() {
        let g = generators::empty(3);
        let stack = Stack::new().transport(TransportConfig::default());
        let run = reliable_run(&g, 2, 0, stack).unwrap();
        // Degree-0 nodes execute one logical round per physical round and
        // halt immediately: rounds 0..=2 and out.
        assert_eq!(run.metrics.rounds, 3);
        for l in &run.logics {
            assert_eq!(l.draws.len(), 3);
            // Self-sends were delivered: rounds 1 and 2 each saw one.
            assert_eq!(l.trace[1].1.len(), 1);
        }
    }

    #[test]
    fn round_budget_scales_with_policy() {
        let cfg = TransportConfig::default();
        assert!(cfg.round_budget(10) > 10 * (u64::from(cfg.max_retransmits) + 1));
        assert!(cfg.round_budget(0) > 0);
    }

    #[test]
    #[should_panic(expected = "backoff_cap")]
    fn invalid_config_is_rejected() {
        let cfg = TransportConfig {
            rto: 8,
            backoff_cap: 2,
            max_retransmits: 1,
        };
        let _ = Reliable::new(Recorder::new(NodeId::new(0), 1), cfg);
    }
}
