use crate::arena::BroadcastLane;
use crate::metrics::TransportCounters;
use crate::trace::TraceEvent;
use crate::{Envelope, Payload, Topology};
use ftclust_graphs::NodeId;
use rand::rngs::StdRng;

/// What a node wants to do after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep participating in subsequent rounds.
    Continue,
    /// Stop: the node will not be scheduled again (its sent messages from
    /// this round are still delivered).
    Halt,
}

/// The per-node protocol state machine.
///
/// One instance runs at every node. Each simulator round calls
/// [`NodeLogic::on_round`] with the messages delivered this round (those
/// sent by neighbors in the *previous* round; empty in round 0) and a
/// [`Context`] for sending, randomness and local knowledge.
///
/// A pseudocode step of the form *"send X to neighbors; use the received
/// X's"* therefore spans **two** simulator rounds — exactly the accounting
/// the paper uses ("every iteration of the inner loop can be computed in 2
/// rounds", proof of Theorem 4.5).
///
/// Logic instances are `Send`: the simulator shards nodes across worker
/// threads within a round (each instance is only ever touched by one
/// thread at a time). Protocol state machines are plain data, so this is
/// automatic.
pub trait NodeLogic: Send {
    /// The message type this protocol exchanges.
    type Payload: Payload;

    /// Executes one synchronous round at this node.
    fn on_round(
        &mut self,
        inbox: &[Envelope<Self::Payload>],
        ctx: &mut Context<'_, Self::Payload>,
    ) -> Control;
}

/// Local knowledge and actions available to a node during a round.
///
/// Mirrors the paper's model: a node knows its own identifier, its
/// neighbors, `n` (and through configuration, `Δ`), can draw local random
/// bits, and — on geometric topologies — senses distances to neighbors.
#[derive(Debug)]
pub struct Context<'a, P> {
    pub(crate) me: NodeId,
    pub(crate) round: u64,
    pub(crate) topo: Topology<'a>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<Envelope<P>>,
    /// Transport-layer event counters for this worker shard, folded into
    /// [`crate::Metrics`] on the sequential merge path.
    pub(crate) transport: &'a mut TransportCounters,
    /// Whether the simulator records an event log (hoisted so the
    /// `note_*` hot paths pay one branch).
    pub(crate) tracing: bool,
    /// Per-worker-shard trace event buffer; the simulator drains the
    /// buffers in shard index order on the sequential merge path, so
    /// recorded traces are independent of the worker count.
    pub(crate) trace: &'a mut Vec<TraceEvent>,
    /// This worker shard's broadcast lane, on simulator rounds without
    /// tracing or per-envelope fault decisions; `None` everywhere else,
    /// including every context the transport and the synchronizer build.
    pub(crate) lane: Option<&'a mut BroadcastLane<P>>,
}

impl<'a, P: Payload> Context<'a, P> {
    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total number of nodes in the network (global knowledge `n`, assumed
    /// by the paper's algorithms).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.topo.graph().node_count()
    }

    /// This node's neighbors (sorted).
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.topo.graph().neighbors(self.me)
    }

    /// This node's degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors().len()
    }

    /// Sensed distance to `v`, on geometric topologies.
    #[inline]
    pub fn distance_to(&self, v: NodeId) -> Option<f64> {
        self.topo.distance(self.me, v)
    }

    /// This node's private random stream (deterministic per master seed and
    /// node id).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Records one transport-layer retransmission, metered into
    /// [`crate::Metrics::retransmits`]. Intended for reliability layers
    /// such as [`crate::transport`]; ordinary protocol logic has no
    /// reason to call it.
    #[inline]
    pub fn note_retransmit(&mut self) {
        self.transport.retransmits += 1;
        if self.tracing {
            self.trace.push(TraceEvent::Retransmit { node: self.me });
        }
    }

    /// Records one pure acknowledgment frame, metered into
    /// [`crate::Metrics::acks`].
    #[inline]
    pub fn note_ack(&mut self) {
        self.transport.acks += 1;
        if self.tracing {
            self.trace.push(TraceEvent::Ack { node: self.me });
        }
    }

    /// Records one received duplicate discarded by a reliability layer,
    /// metered into [`crate::Metrics::duplicates_suppressed`].
    #[inline]
    pub fn note_duplicate_suppressed(&mut self) {
        self.transport.duplicates_suppressed += 1;
        if self.tracing {
            self.trace
                .push(TraceEvent::DuplicateSuppressed { node: self.me });
        }
    }

    /// Sends `payload` to neighbor `to` (or to `self.me()`: self-delivery
    /// next round, used e.g. by the UDG algorithm's self-election).
    ///
    /// # Panics
    ///
    /// Panics if `to` is neither a neighbor nor the node itself — sending
    /// beyond the communication graph is a protocol bug, not a runtime
    /// condition.
    pub fn send(&mut self, to: NodeId, payload: P) {
        assert!(
            to == self.me || self.topo.graph().has_edge(self.me, to),
            "{} attempted to send to non-neighbor {}",
            self.me,
            to
        );
        self.outbox.push(Envelope {
            from: self.me,
            to,
            payload,
        });
    }

    /// Sends a copy of `payload` to every neighbor.
    ///
    /// Where the simulator can deliver it without per-link decisions (no
    /// tracing, loss, link outages or adversary), a broadcast that is the
    /// node's first output this round is held as one lane slot and the
    /// payload is cloned per receiver at delivery. Every later output of
    /// the node travels as ordinary envelopes, and delivery puts each
    /// receiver's copy of the slot ahead of them, so every receiver sees
    /// the same messages in the same order either way.
    pub fn broadcast(&mut self, payload: P) {
        let neighbors = self.neighbors();
        if let Some(lane) = self.lane.as_deref_mut() {
            // A degree-0 broadcast sends nothing and needs no slot.
            if !neighbors.is_empty()
                && !lane.holds(self.me)
                && self.outbox.last().is_none_or(|e| e.from != self.me)
            {
                lane.record(self.me, neighbors.len(), payload);
                return;
            }
        }
        self.outbox.reserve(neighbors.len());
        for &v in neighbors {
            self.outbox.push(Envelope {
                from: self.me,
                to: v,
                payload: payload.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn bit_size(&self) -> usize {
            1
        }
    }

    fn ctx_fixture<'a>(
        topo: Topology<'a>,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<Envelope<Ping>>,
        transport: &'a mut TransportCounters,
        trace: &'a mut Vec<TraceEvent>,
    ) -> Context<'a, Ping> {
        Context {
            me: NodeId::new(0),
            round: 3,
            topo,
            rng,
            outbox,
            transport,
            tracing: false,
            trace,
            lane: None,
        }
    }

    #[test]
    fn context_exposes_local_view() {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        assert_eq!(ctx.me(), NodeId::new(0));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.node_count(), 4);
        assert_eq!(ctx.degree(), 3);
        assert!(ctx.distance_to(NodeId::new(1)).is_none());
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.broadcast(Ping);
        assert_eq!(outbox.len(), 3);
        let mut tos: Vec<u32> = outbox.iter().map(|e| e.to.raw()).collect();
        tos.sort_unstable();
        assert_eq!(tos, vec![1, 2, 3]);
    }

    #[test]
    fn only_a_first_output_broadcast_takes_the_lane() {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut lane = BroadcastLane::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.lane = Some(&mut lane);
        ctx.broadcast(Ping);
        assert!(ctx.outbox.is_empty(), "the first broadcast is one slot");
        ctx.send(NodeId::new(1), Ping);
        ctx.broadcast(Ping);
        assert_eq!(ctx.outbox.len(), 1 + 3, "later outputs are envelopes");
        assert!(lane.holds(NodeId::new(0)));
        assert_eq!(lane.reach(), 3);
    }

    #[test]
    fn self_send_is_allowed() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.send(NodeId::new(0), Ping);
        assert_eq!(outbox[0].to, NodeId::new(0));
    }

    #[test]
    fn note_methods_tally_transport_counters() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.note_retransmit();
        ctx.note_retransmit();
        ctx.note_ack();
        ctx.note_duplicate_suppressed();
        assert_eq!(
            tc,
            TransportCounters {
                retransmits: 2,
                acks: 1,
                duplicates_suppressed: 1,
            }
        );
    }

    #[test]
    fn note_methods_emit_trace_events_only_when_tracing() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        {
            let mut ctx = ctx_fixture(
                Topology::from_graph(&g),
                &mut rng,
                &mut outbox,
                &mut tc,
                &mut tr,
            );
            ctx.note_retransmit(); // tracing = false: counted, not traced
            ctx.tracing = true;
            ctx.note_retransmit();
            ctx.note_ack();
            ctx.note_duplicate_suppressed();
        }
        let me = NodeId::new(0);
        assert_eq!(tc.retransmits, 2);
        assert_eq!(
            tr,
            vec![
                TraceEvent::Retransmit { node: me },
                TraceEvent::Ack { node: me },
                TraceEvent::DuplicateSuppressed { node: me },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_non_neighbor_panics() {
        let g = generators::path(3); // 0-1-2: 0 and 2 not adjacent
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.send(NodeId::new(2), Ping);
    }
}
