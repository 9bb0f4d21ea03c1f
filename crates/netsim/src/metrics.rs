use serde::{Deserialize, Serialize};

/// Communication-cost metrics collected during a simulation.
///
/// These are the quantities the paper's theorems bound: round complexity
/// (Theorems 4.5 and 5.7) and message size in bits (the `O(log n)` model
/// restriction, Section 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Rounds executed until quiescence (or until the simulation stopped).
    pub rounds: u64,
    /// Total messages sent (dropped messages count as sent).
    pub messages: u64,
    /// Sum of [`crate::Payload::bit_size`] over all sent messages.
    pub total_bits: u64,
    /// Largest single message, in bits. `u64` like every sibling counter,
    /// so serialized `Metrics` agree across 32- and 64-bit targets.
    pub max_message_bits: u64,
    /// Messages sent per round, for time-series experiments. With a
    /// series cap set (see [`Metrics::set_per_round_cap`]) each entry is
    /// a *bucket* of [`Metrics::per_round_resolution`] consecutive
    /// rounds; by default the resolution is 1 and the series is exact.
    pub per_round_messages: Vec<u64>,
    /// Bits sent per round (the communication-volume time series); same
    /// bucketing as [`Metrics::per_round_messages`].
    pub per_round_bits: Vec<u64>,
    /// Number of messages lost to fault injection (random loss or a link
    /// outage window).
    pub dropped_messages: u64,
    /// Messages handed to a live recipient's inbox. A message is counted
    /// when its delivery round starts, whether or not the recipient's
    /// logic still executes (a halted node still receives).
    pub delivered_messages: u64,
    /// Messages whose recipient was down when their delivery round
    /// started. Together with the other counters this closes the
    /// conservation law `messages == delivered_messages +
    /// dropped_messages + dead_on_arrival + in-flight`.
    pub dead_on_arrival: u64,
    /// Frames re-sent by a reliable transport ([`crate::transport`])
    /// after a timeout. Every retransmission is also an ordinary send, so
    /// it is *included* in [`Metrics::messages`]; this counter isolates
    /// the overhead.
    pub retransmits: u64,
    /// Pure acknowledgment frames sent by a reliable transport (carrying
    /// no protocol payload). Also included in [`Metrics::messages`].
    pub acks: u64,
    /// Delivered frames a reliable transport discarded as duplicates of
    /// data it had already received (the flip side of a retransmission
    /// whose original also survived, or of a network-level duplicate
    /// injected by an adversary — see [`Metrics::net_duplicated`]).
    /// Included in [`Metrics::delivered_messages`]; subtracting them
    /// yields [`Metrics::unique_delivered`].
    pub duplicates_suppressed: u64,
    /// Messages erased in flight by adversarial payload corruption
    /// ([`crate::adversary`]): the receiver's link-layer checksum detects
    /// the damage and discards the frame, so corruption behaves as loss —
    /// but it is counted separately from [`Metrics::dropped_messages`]
    /// because it is an adversary-facing fault, not a channel fault. The
    /// conservation law extends to `messages == delivered_messages +
    /// dropped_messages + dead_on_arrival + corrupted + in-flight`.
    pub corrupted: u64,
    /// Frame clones injected by adversarial network-level duplication
    /// ([`crate::adversary`]). Each clone is also an ordinary send (it is
    /// metered wire traffic, so it is *included* in [`Metrics::messages`]
    /// and flows through delivery accounting like any frame); this
    /// counter isolates the adversary's contribution, distinct from
    /// retransmit-induced duplicates. With a reliable transport in play
    /// the duplicate bound relaxes to `duplicates_suppressed <=
    /// retransmits + net_duplicated`.
    pub net_duplicated: u64,
    /// Rounds folded into each `per_round_*` bucket (1 = exact series).
    /// Doubles every time the capped series is compacted.
    per_round_resolution: u64,
    /// Optional bound on `per_round_*` length; `None` (the default)
    /// keeps the exact one-entry-per-round behavior.
    per_round_cap: Option<usize>,
    /// Rounds accumulated into the last (open) bucket so far.
    rounds_in_last: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            rounds: 0,
            messages: 0,
            total_bits: 0,
            max_message_bits: 0,
            per_round_messages: Vec::new(),
            per_round_bits: Vec::new(),
            dropped_messages: 0,
            delivered_messages: 0,
            dead_on_arrival: 0,
            retransmits: 0,
            acks: 0,
            duplicates_suppressed: 0,
            corrupted: 0,
            net_duplicated: 0,
            per_round_resolution: 1,
            per_round_cap: None,
            rounds_in_last: 0,
        }
    }
}

impl Metrics {
    /// Mean message size in bits (0 if nothing was sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages as f64
        }
    }

    /// Delivered messages that were *new* to their recipient: delivered
    /// minus transport duplicates. With a reliable transport in play the
    /// conservation law refines to `messages == unique_delivered() +
    /// duplicates_suppressed + dropped_messages + dead_on_arrival +
    /// corrupted + in-flight`, with
    /// `duplicates_suppressed <= retransmits + net_duplicated` (only a
    /// retransmission or an adversary-injected clone can produce a
    /// duplicate) and `retransmits + acks <= messages` (both kinds of
    /// overhead frame are ordinary sends).
    ///
    /// Every duplicate is counted as delivered in the same round it is
    /// suppressed ([`crate::Context`]'s `note_duplicate_suppressed` is
    /// only reachable from a frame that already landed in an inbox), so
    /// `duplicates_suppressed <= delivered_messages` holds **per round**
    /// for counters this crate produced — not just at quiescence. The
    /// subtraction is therefore plain: a saturating fallback here would
    /// silently mask an accounting bug as "0 unique deliveries" instead
    /// of surfacing it. The invariant is `debug_assert`ed and pinned by
    /// a loss + churn regression test in `crates/netsim/tests`.
    pub fn unique_delivered(&self) -> u64 {
        debug_assert!(
            self.duplicates_suppressed <= self.delivered_messages,
            "more duplicates suppressed ({}) than messages delivered ({})",
            self.duplicates_suppressed,
            self.delivered_messages
        );
        self.delivered_messages - self.duplicates_suppressed
    }

    /// Checks the conservation law stated on [`Metrics::unique_delivered`]
    /// and returns its in-flight residual `messages − (unique_delivered +
    /// duplicates_suppressed + dropped_messages + dead_on_arrival +
    /// corrupted)`: the messages still travelling when the counters were
    /// read. For counters read off a [`crate::Simulator`] it equals
    /// [`crate::Simulator::in_flight_messages`] exactly; the executor
    /// asserts that at the end of every run in a debug build.
    ///
    /// # Errors
    ///
    /// Names the first violated bound: more duplicates suppressed than
    /// delivered, or than retransmissions plus injected copies; more
    /// overhead frames (retransmits + acks) than sends; or more messages
    /// accounted for than sent.
    pub fn in_flight_residual(&self) -> Result<u64, String> {
        if self.duplicates_suppressed > self.delivered_messages {
            return Err(format!(
                "more duplicates suppressed ({}) than messages delivered ({})",
                self.duplicates_suppressed, self.delivered_messages
            ));
        }
        if self.duplicates_suppressed > self.retransmits + self.net_duplicated {
            return Err(format!(
                "more duplicates suppressed ({}) than retransmissions + injected copies ({})",
                self.duplicates_suppressed,
                self.retransmits + self.net_duplicated
            ));
        }
        if self.retransmits + self.acks > self.messages {
            return Err(format!(
                "more retransmits + acks ({}) than messages sent ({})",
                self.retransmits + self.acks,
                self.messages
            ));
        }
        let accounted = self.unique_delivered()
            + self.duplicates_suppressed
            + self.dropped_messages
            + self.dead_on_arrival
            + self.corrupted;
        self.messages.checked_sub(accounted).ok_or_else(|| {
            format!(
                "more messages accounted ({accounted}) than sent ({})",
                self.messages
            )
        })
    }

    /// Rounds folded into each `per_round_*` entry. 1 unless a series
    /// cap (see [`Metrics::set_per_round_cap`]) forced compaction.
    pub fn per_round_resolution(&self) -> u64 {
        self.per_round_resolution
    }

    /// Caps the `per_round_*` series at `cap` entries (minimum 2) for
    /// long-horizon runs. When a new round would exceed the cap, the
    /// series is compacted by summing adjacent pairs of buckets and the
    /// resolution doubles — aggregate sums are preserved exactly, only
    /// granularity is lost. Off by default: without a cap the series
    /// stays exact, one entry per round.
    pub fn set_per_round_cap(&mut self, cap: usize) {
        self.per_round_cap = Some(cap.max(2));
    }

    /// Folds one shard's transport counters into the totals. Sums are
    /// commutative, so accumulation order cannot perturb determinism —
    /// the simulator still merges shards in index order.
    pub(crate) fn absorb_transport(&mut self, c: &TransportCounters) {
        self.retransmits += c.retransmits;
        self.acks += c.acks;
        self.duplicates_suppressed += c.duplicates_suppressed;
    }

    pub(crate) fn record_send(&mut self, bits: usize) {
        // A send outside any round would vanish from the per-round series
        // and break `sum(per_round_messages) == messages`.
        debug_assert!(
            self.rounds > 0,
            "record_send before begin_round loses per-round accounting"
        );
        self.messages += 1;
        self.total_bits += bits as u64;
        self.max_message_bits = self.max_message_bits.max(bits as u64);
        if let Some(last) = self.per_round_messages.last_mut() {
            *last += 1;
        }
        if let Some(last) = self.per_round_bits.last_mut() {
            *last += bits as u64;
        }
    }

    /// Batched [`Metrics::record_send`]: `count` messages totaling `bits`
    /// with largest message `max_bits`, all within the current round.
    /// Produces exactly the state `count` individual `record_send` calls
    /// would (the folds are integer sums and a max), so the simulator's
    /// fault-free merge path stays bit-identical to per-envelope metering.
    pub(crate) fn record_sends(&mut self, count: u64, bits: u64, max_bits: u64) {
        if count == 0 {
            return;
        }
        debug_assert!(
            self.rounds > 0,
            "record_send before begin_round loses per-round accounting"
        );
        self.messages += count;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
        if let Some(last) = self.per_round_messages.last_mut() {
            *last += count;
        }
        if let Some(last) = self.per_round_bits.last_mut() {
            *last += bits;
        }
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
        // Accumulate into the open bucket while it has capacity (only
        // possible once compaction has raised the resolution above 1).
        if self.rounds_in_last < self.per_round_resolution && !self.per_round_messages.is_empty() {
            self.rounds_in_last += 1;
            return;
        }
        if let Some(cap) = self.per_round_cap {
            while self.per_round_messages.len() >= cap {
                self.fold_pairs();
            }
        }
        self.per_round_messages.push(0);
        self.per_round_bits.push(0);
        self.rounds_in_last = 1;
    }

    /// Halves the `per_round_*` series by summing adjacent bucket pairs
    /// (a lone trailing bucket is kept as-is) and doubles the
    /// resolution. Sum-preserving by construction.
    fn fold_pairs(&mut self) {
        let old_len = self.per_round_messages.len();
        if old_len < 2 {
            return;
        }
        for series in [&mut self.per_round_messages, &mut self.per_round_bits] {
            let mut w = 0;
            let mut r = 0;
            while r < old_len {
                series[w] = if r + 1 < old_len {
                    series[r] + series[r + 1]
                } else {
                    series[r]
                };
                w += 1;
                r += 2;
            }
            series.truncate(w);
        }
        // The open bucket absorbed its (full) left neighbor iff the old
        // length was even.
        if old_len.is_multiple_of(2) {
            self.rounds_in_last += self.per_round_resolution;
        }
        self.per_round_resolution *= 2;
    }
}

/// Per-shard transport event counters, reported by a reliability layer
/// through [`crate::Context`]'s `note_*` methods during the parallel
/// node-logic phase and folded into [`Metrics`] on the sequential path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TransportCounters {
    pub(crate) retransmits: u64,
    pub(crate) acks: u64,
    pub(crate) duplicates_suppressed: u64,
}

impl TransportCounters {
    pub(crate) fn clear(&mut self) {
        *self = TransportCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_accumulates() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_send(10);
        m.record_send(30);
        assert_eq!(m.messages, 2);
        assert_eq!(m.total_bits, 40);
        assert_eq!(m.max_message_bits, 30);
        assert_eq!(m.mean_message_bits(), 20.0);
        assert_eq!(m.per_round_messages, vec![2]);
        assert_eq!(m.per_round_bits, vec![40]);
    }

    #[test]
    fn empty_metrics_mean_is_zero() {
        assert_eq!(Metrics::default().mean_message_bits(), 0.0);
    }

    #[test]
    fn mean_stays_zero_over_silent_rounds() {
        // Rounds without traffic must not divide by zero or skew the mean.
        let mut m = Metrics::default();
        m.begin_round();
        m.begin_round();
        assert_eq!(m.messages, 0);
        assert_eq!(m.mean_message_bits(), 0.0);
        assert_eq!(m.per_round_messages, vec![0, 0]);
        assert_eq!(m.per_round_bits, vec![0, 0]);
    }

    #[test]
    fn per_round_series_tracks_rounds() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_send(1);
        m.begin_round();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.per_round_resolution(), 1);
        assert_eq!(m.per_round_messages, vec![1, 0]);
        assert_eq!(m.per_round_bits, vec![1, 0]);
    }

    #[test]
    fn transport_counters_fold_into_totals() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_send(4);
        m.record_send(4);
        m.delivered_messages = 2;
        let shard_a = TransportCounters {
            retransmits: 1,
            acks: 2,
            duplicates_suppressed: 1,
        };
        let shard_b = TransportCounters {
            retransmits: 3,
            acks: 0,
            duplicates_suppressed: 0,
        };
        m.absorb_transport(&shard_a);
        m.absorb_transport(&shard_b);
        assert_eq!(m.retransmits, 4);
        assert_eq!(m.acks, 2);
        assert_eq!(m.duplicates_suppressed, 1);
        assert_eq!(m.unique_delivered(), 1);
        let mut c = shard_a;
        c.clear();
        assert_eq!(c, TransportCounters::default());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "more duplicates suppressed")]
    fn unique_delivered_flags_inconsistent_counters() {
        // Externally constructed counters can violate the delivered >=
        // duplicates invariant; the accessor must flag the inconsistency
        // loudly instead of masking it with a saturating subtraction.
        let m = Metrics {
            delivered_messages: 3,
            duplicates_suppressed: 5,
            ..Metrics::default()
        };
        let _ = m.unique_delivered();
    }

    #[test]
    fn in_flight_residual_rejects_corrupted_counters() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_send(8);
        m.record_send(8);
        m.delivered_messages = 1;
        assert_eq!(m.in_flight_residual(), Ok(1));
        m.dropped_messages = 2; // one more loss than there were sends left
        let err = m.in_flight_residual().unwrap_err();
        assert!(err.contains("accounted"), "unexpected error: {err}");
        m.dropped_messages = 0;
        m.duplicates_suppressed = 1; // a duplicate with no retransmission
        let err = m.in_flight_residual().unwrap_err();
        assert!(err.contains("retransmissions"), "unexpected error: {err}");
        m.duplicates_suppressed = 0;
        m.acks = 3; // more pure acks than frames on the wire
        let err = m.in_flight_residual().unwrap_err();
        assert!(err.contains("acks"), "unexpected error: {err}");
    }

    #[test]
    fn per_round_cap_folds_pairs_and_preserves_sums() {
        let mut m = Metrics::default();
        m.set_per_round_cap(4);
        // 9 rounds sending `round_index + 1` unit messages each.
        for i in 0..9u64 {
            m.begin_round();
            for _ in 0..=i {
                m.record_send(1);
            }
        }
        assert_eq!(m.rounds, 9);
        // Sums survive every compaction exactly.
        assert_eq!(m.per_round_messages.iter().sum::<u64>(), m.messages);
        assert_eq!(m.per_round_bits.iter().sum::<u64>(), m.total_bits);
        assert_eq!(m.messages, 45);
        assert!(m.per_round_messages.len() <= 4, "cap respected");
        assert_eq!(m.per_round_messages.len(), m.per_round_bits.len());
        // Two compactions: resolution 1 -> 2 -> 4.
        assert_eq!(m.per_round_resolution(), 4);
        // Buckets: rounds 1-4, 5-8, 9(open) with 1-indexed loads.
        assert_eq!(m.per_round_messages, vec![10, 26, 9]);
    }

    #[test]
    fn per_round_cap_is_exact_until_exceeded() {
        let mut m = Metrics::default();
        m.set_per_round_cap(8);
        for _ in 0..8 {
            m.begin_round();
            m.record_send(2);
        }
        assert_eq!(m.per_round_resolution(), 1);
        assert_eq!(m.per_round_messages, vec![1; 8]);
        m.begin_round();
        assert_eq!(m.per_round_resolution(), 2);
        assert_eq!(m.per_round_messages, vec![2, 2, 2, 2, 0]);
    }

    #[test]
    fn uncapped_series_behavior_is_unchanged() {
        let mut m = Metrics::default();
        for _ in 0..100 {
            m.begin_round();
        }
        assert_eq!(m.per_round_messages.len(), 100);
        assert_eq!(m.per_round_resolution(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "record_send before begin_round")]
    fn send_before_any_round_is_rejected() {
        let mut m = Metrics::default();
        m.record_send(8);
    }
}
