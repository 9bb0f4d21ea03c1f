//! Arena-backed CSR inbox storage: contiguous per-round message delivery.
//!
//! The simulator's merge phase used to push every surviving envelope into
//! a per-recipient `Vec` — a random-access write into one of `n` separate
//! heap buffers per message, which starts missing the cache as soon as
//! the bucket headers outgrow L2 (a few tens of thousands of nodes). This
//! module replaces that with a *sorted scatter*: survivors are
//! partitioned into recipient **blocks** of [`BLOCK_WIDTH`] nodes (so a
//! block's counting array is L1-resident and its envelope bucket roughly
//! L2-sized), then each block is counting-sorted in place and appended to
//! one contiguous arena. A CSR-style offset table indexes each node's
//! inbox as a slice of that arena, so delivery in the next round is pure
//! slicing — no per-node buffers exist at all.
//!
//! The grouping is **stable**: within one recipient, envelopes keep the
//! global traversal order (shard outboxes in index order, push order
//! within a shard — exactly the order the serial engine produces), so the
//! delivered inbox slices are bit-for-bit identical at every
//! `FTCLUST_THREADS`. All buffers are recycled across rounds; steady-state
//! rounds allocate nothing beyond what message volume itself demands.
//!
//! **Broadcast lane.** A neighbourhood broadcast need not be staged and
//! sorted as one envelope per link at all. On the simulator's fault-free
//! untraced rounds, a node whose first output in a round is a broadcast
//! leaves a single [`Slot`] in its shard's [`BroadcastLane`]; anything
//! else it sends that round goes to the outbox as envelopes. When a
//! round holds any slot, the merge files each payload in a dense
//! per-sender table and [`InboxArena::gather`] builds the next round's
//! arena in receiver order: each receiver walks its sorted adjacency
//! list, cloning the payload of every neighbour that holds a slot, and
//! merges in its unicast envelopes (already grouped by the sorter) by
//! sender id, a slot ahead of its sender's envelopes.
//! Within one receiver the sorted scatter orders envelopes by sender,
//! then by push order, and a slot is its sender's first push — so the
//! gathered inbox is the same sequence the scatter would have produced.

use crate::Envelope;
use ftclust_graphs::{Graph, NodeId};

/// Recipients per partition block: 2¹³ = 8192 nodes, a 32 KiB counting
/// array. See the [module docs](self) for why blocking matters.
const BLOCK_SHIFT: u32 = 13;

/// Number of recipient ids covered by one sorter block.
const BLOCK_WIDTH: usize = 1 << BLOCK_SHIFT;

/// One round's deliverable messages, grouped by recipient: node `i`'s
/// inbox is the contiguous slice `arena[offsets[i]..offsets[i + 1]]`.
///
/// The simulator keeps two of these (the round being read and the round
/// being built) and swaps them, so the backing allocations live for the
/// whole simulation.
pub(crate) struct InboxArena<P> {
    /// All envelopes of one delivery round, recipient-contiguous.
    arena: Vec<Envelope<P>>,
    /// `n + 1` ascending CSR offsets into `arena`.
    offsets: Vec<u32>,
}

impl<P> InboxArena<P> {
    /// An empty arena for `n` recipients.
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            arena: Vec::new(),
            offsets: vec![0; n + 1],
        }
    }

    /// Node `i`'s inbox slice.
    #[inline]
    pub(crate) fn inbox(&self, i: usize) -> &[Envelope<P>] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of messages queued for node `i`.
    #[inline]
    pub(crate) fn count(&self, i: usize) -> u64 {
        u64::from(self.offsets[i + 1] - self.offsets[i])
    }

    /// Total messages held.
    pub(crate) fn total(&self) -> u64 {
        u64::from(self.offsets.last().copied().unwrap_or(0))
    }

    /// Audit of the order [`InboxArena::gather`] and the sorted scatter
    /// promise on fault-free rounds: every inbox is non-decreasing in
    /// sender id.
    pub(crate) fn is_sender_ordered(&self) -> bool {
        (0..self.offsets.len() - 1)
            .all(|v| self.inbox(v).windows(2).all(|w| w[0].from <= w[1].from))
    }

    /// Retained envelope capacity (white-box recycling tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.arena.capacity()
    }
}

impl<P: Clone> InboxArena<P> {
    /// Rebuilds this arena in receiver order from two sources: the lane
    /// payloads in `table` (`table[u]` is `Some` iff sender `u` holds a
    /// slot this round, delivered to each of its neighbours; `reach`
    /// such envelopes in all) and the unicast envelopes grouped in
    /// `unicast`, which is drained.
    ///
    /// Each receiver's slots and unicast envelopes are merged by sender
    /// id, a slot ahead of its sender's envelopes (it was that sender's
    /// first output), reproducing the order the sorted scatter gives the
    /// same messages sent as envelopes (see the [module docs](self)).
    pub(crate) fn gather(
        &mut self,
        graph: &Graph,
        table: &[Option<P>],
        reach: usize,
        unicast: &mut Self,
    ) {
        let n = self.offsets.len() - 1;
        debug_assert_eq!(graph.node_count(), n);
        self.arena.clear();
        self.arena.reserve(reach + unicast.arena.len());
        let mut uni = unicast.arena.drain(..).peekable();
        for v in 0..n {
            self.offsets[v] = self.arena.len() as u32;
            let to = NodeId::new(v as u32);
            let lane = graph
                .neighbors(to)
                .iter()
                .filter_map(|&u| table[u.index()].as_ref().map(|p| (u, p)));
            if unicast.offsets[v] == unicast.offsets[v + 1] {
                // No unicast to merge: the common case, kept branch-light.
                for (from, payload) in lane {
                    self.arena.push(Envelope {
                        from,
                        to,
                        payload: payload.clone(),
                    });
                }
                continue;
            }
            for (from, payload) in lane {
                while let Some(env) = uni.next_if(|e| e.to == to && e.from < from) {
                    self.arena.push(env);
                }
                self.arena.push(Envelope {
                    from,
                    to,
                    payload: payload.clone(),
                });
            }
            while let Some(env) = uni.next_if(|e| e.to == to) {
                self.arena.push(env);
            }
        }
        debug_assert!(
            uni.next().is_none(),
            "unicast envelope beyond the last receiver"
        );
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "one round's message volume overflows the u32 inbox offset table"
        );
        self.offsets[n] = self.arena.len() as u32;
        unicast.offsets.fill(0);
    }
}

/// One [`Context::broadcast`](crate::Context::broadcast) held whole in a
/// [`BroadcastLane`]: the sender and the payload.
#[derive(Debug)]
pub(crate) struct Slot<P> {
    pub(crate) from: NodeId,
    /// The sender's degree: the number of envelopes the slot stands for.
    pub(crate) degree: u32,
    pub(crate) payload: P,
}

/// A worker shard's broadcast slots for one round, in node order.
///
/// A slot is always its sender's first output of the round: the
/// simulator's `Context` records one only for a broadcast that nothing
/// of the same node precedes, so each node holds at most one.
#[derive(Debug)]
pub(crate) struct BroadcastLane<P> {
    slots: Vec<Slot<P>>,
    /// Envelopes the slots stand for: the sum of their senders' degrees.
    reach: u64,
}

impl<P> BroadcastLane<P> {
    pub(crate) fn new() -> Self {
        BroadcastLane {
            slots: Vec::new(),
            reach: 0,
        }
    }

    /// Records `from`'s broadcast to its `degree` neighbours.
    #[inline]
    pub(crate) fn record(&mut self, from: NodeId, degree: usize, payload: P) {
        debug_assert!(degree > 0, "a degree-0 broadcast sends nothing");
        self.slots.push(Slot {
            from,
            degree: degree as u32,
            payload,
        });
        self.reach += degree as u64;
    }

    /// Whether `me` holds a slot. Slots are recorded in node order, so
    /// only the last one can be `me`'s.
    #[inline]
    pub(crate) fn holds(&self, me: NodeId) -> bool {
        self.slots.last().is_some_and(|s| s.from == me)
    }

    /// Envelopes the held slots stand for.
    pub(crate) fn reach(&self) -> u64 {
        self.reach
    }

    /// Empties the lane, handing out its slots in node order (the
    /// buffer keeps its capacity).
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Slot<P>> {
        self.reach = 0;
        self.slots.drain(..)
    }

    /// Retained slot capacity (white-box recycling tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// Recycled scratch of the sorted scatter that builds an [`InboxArena`].
///
/// `push` partitions staged envelopes by recipient block; `finish`
/// counting-sorts each block in place (stably) and appends it to the
/// arena. Total work is `O(messages + n)` per round with every
/// random-access structure cache-blocked, and envelopes only ever move —
/// they are never cloned.
pub(crate) struct DeliverySorter<P> {
    /// Per-block staging buckets (`block = recipient >> BLOCK_SHIFT`).
    blocks: Vec<Vec<Envelope<P>>>,
    /// Per-recipient counting array for the block being finished
    /// (block-local indices; doubles as the scatter cursor array).
    counts: Vec<u32>,
    /// Destination index of each bucket entry while a block is permuted.
    target: Vec<u32>,
}

impl<P> DeliverySorter<P> {
    /// Scratch sized for `n` recipients.
    pub(crate) fn new(n: usize) -> Self {
        let block_count = n.div_ceil(BLOCK_WIDTH);
        DeliverySorter {
            blocks: (0..block_count).map(|_| Vec::new()).collect(),
            counts: vec![0; n.min(BLOCK_WIDTH)],
            target: Vec::new(),
        }
    }

    /// Stages one surviving envelope for delivery.
    ///
    /// # Panics
    ///
    /// Panics if the recipient id is out of range for the `n` this
    /// sorter was built for.
    #[inline]
    pub(crate) fn push(&mut self, env: Envelope<P>) {
        self.blocks[env.to.index() >> BLOCK_SHIFT].push(env);
    }

    /// Sorts everything staged since the last `finish` stably by
    /// recipient into `out`, rebuilding its offset table. Leaves the
    /// sorter empty (buckets keep their capacity).
    pub(crate) fn finish(&mut self, n: usize, out: &mut InboxArena<P>) {
        debug_assert_eq!(out.offsets.len(), n + 1);
        let staged: usize = self.blocks.iter().map(Vec::len).sum();
        assert!(
            staged <= u32::MAX as usize,
            "one round's message volume overflows the u32 inbox offset table"
        );
        out.arena.clear();
        let mut pos: u32 = 0;
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let base = b << BLOCK_SHIFT;
            let width = (n - base).min(BLOCK_WIDTH);
            let counts = &mut self.counts[..width];
            counts.fill(0);
            for env in block.iter() {
                counts[env.to.index() - base] += 1;
            }
            // Exclusive prefix: publish global offsets, leave block-local
            // scatter cursors behind in `counts`.
            let mut run: u32 = 0;
            for (v, c) in counts.iter_mut().enumerate() {
                out.offsets[base + v] = pos + run;
                let here = *c;
                *c = run;
                run += here;
            }
            // Destination of every staged envelope, assigned in traversal
            // order — the cursor increments make the grouping stable.
            self.target.clear();
            self.target.extend(block.iter().map(|env| {
                let cursor = &mut counts[env.to.index() - base];
                let t = *cursor;
                *cursor += 1;
                t
            }));
            // Apply the permutation in place by cycle chasing: O(len)
            // swaps total, no clones.
            for f in 0..block.len() {
                while self.target[f] as usize != f {
                    let t = self.target[f] as usize;
                    block.swap(f, t);
                    self.target.swap(f, t);
                }
            }
            pos += block.len() as u32;
            out.arena.append(block);
        }
        out.offsets[n] = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::NodeId;

    fn env(from: u32, to: u32, tag: u32) -> Envelope<u32> {
        Envelope {
            from: NodeId::new(from),
            to: NodeId::new(to),
            payload: tag,
        }
    }

    /// Reference grouping: per-recipient Vec pushes in traversal order.
    fn naive(n: usize, envs: &[Envelope<u32>]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); n];
        for e in envs {
            out[e.to.index()].push(e.payload);
        }
        out
    }

    fn check_matches(n: usize, envs: Vec<Envelope<u32>>) {
        let expect = naive(n, &envs);
        let mut sorter = DeliverySorter::new(n);
        let mut arena = InboxArena::new(n);
        for e in envs {
            sorter.push(e);
        }
        sorter.finish(n, &mut arena);
        for (i, want) in expect.iter().enumerate() {
            let got: Vec<u32> = arena.inbox(i).iter().map(|e| e.payload).collect();
            assert_eq!(&got, want, "inbox of node {i} diverged");
            assert_eq!(arena.count(i), want.len() as u64);
        }
        assert_eq!(
            arena.total(),
            expect.iter().map(|v| v.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn grouping_is_stable_and_complete() {
        // Interleaved recipients with repeated senders: within a
        // recipient, payload tags must come out in push order.
        let envs = vec![
            env(0, 2, 10),
            env(1, 0, 11),
            env(2, 2, 12),
            env(3, 1, 13),
            env(0, 2, 14),
            env(1, 1, 15),
            env(2, 0, 16),
        ];
        check_matches(4, envs);
    }

    #[test]
    fn crosses_block_boundaries() {
        // Recipients straddling several 8192-wide blocks, pushed in a
        // deliberately block-hostile order.
        let n = 2 * BLOCK_WIDTH + 17;
        let mut envs = Vec::new();
        for i in 0..200u32 {
            let to = (i as usize * 991) % n;
            envs.push(env(0, to as u32, i));
            envs.push(env(1, (n - 1) as u32, 1000 + i));
        }
        check_matches(n, envs);
    }

    #[test]
    fn empty_round_and_degree_zero_recipients() {
        let mut sorter = DeliverySorter::<u32>::new(5);
        let mut arena = InboxArena::<u32>::new(5);
        sorter.finish(5, &mut arena);
        assert_eq!(arena.total(), 0);
        for i in 0..5 {
            assert!(arena.inbox(i).is_empty());
        }
        // Zero recipients is legal too.
        let mut sorter = DeliverySorter::<u32>::new(0);
        let mut arena = InboxArena::<u32>::new(0);
        sorter.finish(0, &mut arena);
        assert_eq!(arena.total(), 0);
    }

    #[test]
    fn buffers_recycle_without_reallocation() {
        let n = 6;
        let mut sorter = DeliverySorter::new(n);
        let mut arena = InboxArena::new(n);
        for round in 0..3u32 {
            for i in 0..n as u32 {
                sorter.push(env(i, (i + 1) % n as u32, round));
            }
            sorter.finish(n, &mut arena);
            assert_eq!(arena.total(), n as u64);
        }
        let cap = arena.capacity();
        assert!(cap >= n);
        for i in 0..n as u32 {
            sorter.push(env(i, 0, 9));
        }
        sorter.finish(n, &mut arena);
        assert_eq!(arena.capacity(), cap, "steady state must not reallocate");
        assert_eq!(arena.count(0), n as u64);
    }
}
