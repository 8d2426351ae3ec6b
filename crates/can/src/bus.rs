//! The shared CAN bus.
//!
//! [`CanBus`] is a deterministic broadcast medium with CSMA/CR arbitration:
//! in each round every node offers its highest-priority pending frame, the
//! lowest arbitration key wins, losers requeue, and the winning frame is
//! delivered to every other node. A round walks the nodes once to gather
//! the offers (counting egress blocks and the nodes able to ACK as it goes)
//! and, for a carried frame, once more to deliver it; an idle round is the
//! gather alone. Frame timing is derived from the real encoded wire length
//! (including stuff bits), so bus-load measurements are protocol-accurate.
//!
//! An optional [`ErrorModel`] corrupts frames on the wire, driving the
//! fault-confinement state machines — this is how the E1 bus-off attack
//! experiments are injected.

use crate::codec;
use crate::error::CanError;
use crate::frame::CanFrame;
use crate::id::CanId;
use crate::node::{CanNode, Delivery};
use crate::stats::BusStats;
use polsec_sim::{DetRng, SimDuration, SimTime, Trace};
use std::fmt;

/// An opaque handle to a node attached to a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle(usize);

impl NodeHandle {
    /// The raw index (for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Wire-level error injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorModel {
    /// Probability that a targeted frame is corrupted on the wire.
    pub probability: f64,
    /// Only frames with these identifiers are targeted; `None` targets all.
    pub target_ids: Option<Vec<CanId>>,
}

impl ErrorModel {
    fn targets(&self, id: CanId) -> bool {
        match &self.target_ids {
            None => true,
            Some(ids) => ids.contains(&id),
        }
    }
}

/// Something observable that happened on the bus (delivered via
/// [`CanBus::drain_events`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusEvent {
    /// A frame completed transmission.
    Transmitted {
        /// Sending node.
        from: NodeHandle,
        /// The frame.
        frame: CanFrame,
        /// Completion time.
        at: SimTime,
    },
    /// A frame was corrupted on the wire.
    Corrupted {
        /// Sending node.
        from: NodeHandle,
        /// The frame.
        frame: CanFrame,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A frame exceeded the retry limit and was dropped.
    Abandoned {
        /// Sending node.
        from: NodeHandle,
        /// The frame.
        frame: CanFrame,
    },
    /// A bus-off node completed the ISO 11898-1 re-integration sequence
    /// (128 × 11 recessive bits) and rejoined the bus.
    BusOffRecovered {
        /// The re-integrated node.
        node: NodeHandle,
        /// When re-integration completed.
        at: SimTime,
    },
}

/// Maximum retransmission attempts before a frame is abandoned.
pub const DEFAULT_RETRY_LIMIT: u32 = 4;

/// Safety bound on arbitration rounds per [`CanBus::run_until_idle`] call.
pub const MAX_ROUNDS: u64 = 1_000_000;

/// A deterministic simulated CAN bus.
pub struct CanBus {
    nodes: Vec<CanNode>,
    bitrate: u32,
    now: SimTime,
    stats: BusStats,
    error_model: Option<ErrorModel>,
    rng: DetRng,
    retry_limit: u32,
    /// Frames awaiting retransmission: `(node, frame, controller sequence
    /// number, attempts so far)`.
    retrying: Vec<(NodeHandle, CanFrame, u64, u32)>,
    events: Vec<BusEvent>,
    trace: Trace,
    wire_cache: codec::WireInfoCache,
    /// Arbitration scratch, reused so steady-state rounds allocate nothing.
    candidates_buf: Vec<(NodeHandle, CanFrame, u64, u32)>,
}

impl fmt::Debug for CanBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CanBus")
            .field("nodes", &self.nodes.len())
            .field("bitrate", &self.bitrate)
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl CanBus {
    /// Creates a bus with the given bit rate (bits/second).
    ///
    /// Typical automotive rates: 125 000 (comfort), 500 000 (powertrain),
    /// 1 000 000 (diagnostics).
    ///
    /// # Panics
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u32) -> Self {
        assert!(bitrate > 0, "bitrate must be positive");
        CanBus {
            nodes: Vec::new(),
            bitrate,
            now: SimTime::ZERO,
            stats: BusStats::new(),
            error_model: None,
            rng: DetRng::seed_from(0xC0FFEE),
            retry_limit: DEFAULT_RETRY_LIMIT,
            retrying: Vec::new(),
            events: Vec::new(),
            trace: Trace::default(),
            wire_cache: codec::WireInfoCache::new(),
            candidates_buf: Vec::new(),
        }
    }

    /// Attaches a node, returning its handle.
    pub fn attach(&mut self, node: CanNode) -> NodeHandle {
        self.nodes.push(node);
        NodeHandle(self.nodes.len() - 1)
    }

    /// The number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a node.
    pub fn node(&self, h: NodeHandle) -> Option<&CanNode> {
        self.nodes.get(h.0)
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, h: NodeHandle) -> Option<&mut CanNode> {
        self.nodes.get_mut(h.0)
    }

    /// Finds a node handle by name.
    pub fn find(&self, name: &str) -> Option<NodeHandle> {
        self.nodes
            .iter()
            .position(|n| n.name() == name)
            .map(NodeHandle)
    }

    /// Iterates `(handle, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeHandle, &CanNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeHandle(i), n))
    }

    /// Installs (or clears) the wire error model, reseeding the bus RNG so
    /// runs are reproducible per configuration.
    pub fn set_error_model(&mut self, model: Option<ErrorModel>, seed: u64) {
        self.error_model = model;
        self.rng = DetRng::seed_from(seed);
    }

    /// Sets the retransmission limit.
    pub fn set_retry_limit(&mut self, limit: u32) {
        self.retry_limit = limit;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The bounded trace of bus activity.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace — used to configure sampling
    /// ([`Trace::set_sampling`]) or swap in a differently-bounded trace
    /// before a run.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Takes all events recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<BusEvent> {
        std::mem::take(&mut self.events)
    }

    /// Swaps the recorded events into `buf` (cleared first). Both the bus's
    /// event vector and the caller's buffer keep their allocations, so a
    /// periodic drain loop (the fleet tick) allocates nothing once warm.
    pub fn drain_events_into(&mut self, buf: &mut Vec<BusEvent>) {
        buf.clear();
        std::mem::swap(&mut self.events, buf);
    }

    /// Ticks every node's firmware once (periodic application work).
    pub fn tick_all(&mut self) {
        let now = self.now;
        for n in &mut self.nodes {
            n.tick(now);
        }
    }

    /// Enqueues a frame on a node by handle.
    ///
    /// # Errors
    /// [`CanError::UnknownNode`] for a bad handle; queueing errors are
    /// surfaced in the node log (see [`CanNode::send`]).
    pub fn send_from(&mut self, h: NodeHandle, frame: CanFrame) -> Result<(), CanError> {
        let node = self
            .nodes
            .get_mut(h.0)
            .ok_or(CanError::UnknownNode { handle: h.0 })?;
        node.send(frame);
        Ok(())
    }

    fn wire_duration(&self, bits: u64) -> SimDuration {
        // ceil(bits * 1e6 / bitrate) microseconds
        let us = (bits * 1_000_000).div_ceil(self.bitrate as u64);
        SimDuration::micros(us)
    }

    /// Runs arbitration rounds until no node has pending traffic, returning
    /// the number of frames that completed. Bounded by [`MAX_ROUNDS`].
    pub fn run_until_idle(&mut self) -> u64 {
        let mut completed = 0;
        for _ in 0..MAX_ROUNDS {
            if self.step().is_none() {
                break;
            }
            completed += 1;
        }
        completed
    }

    /// Executes one arbitration round: picks a winner, transmits, delivers.
    /// Returns the winning frame, or `None` when the bus is idle.
    pub fn step(&mut self) -> Option<CanFrame> {
        // Gather candidates: retries first (they are already egress-cleared),
        // then one fresh frame per node. The scratch vector is owned by the
        // bus and reused, so a steady-state round performs no allocation.
        let mut candidates = std::mem::take(&mut self.candidates_buf);
        candidates.clear();
        candidates.append(&mut self.retrying);
        let now = self.now;
        // Fault confinement moves only on the error path, so the nodes able
        // to transmit now are also the ones that can ACK the winner.
        let mut able = 0;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.controller().counters().can_transmit() {
                continue;
            }
            able += 1;
            if candidates.iter().any(|(h, ..)| h.0 == i) {
                continue; // node already contending with a retry
            }
            let blocked = node.egress_blocked();
            let taken = node.take_tx(now);
            self.stats.frames_blocked_egress += node.egress_blocked() - blocked;
            if let Some((seq, f)) = taken {
                candidates.push((NodeHandle(i), f, seq, 0));
            }
        }

        if candidates.is_empty() {
            self.candidates_buf = candidates;
            return None;
        }

        self.stats.arbitration_rounds += 1;
        if candidates.len() > 1 {
            self.stats.arbitration_contended += 1;
        }

        // Winner: lowest arbitration key; ties by handle index (deterministic
        // stand-in for simultaneous-start resolution).
        let win_idx = candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, (h, f, ..))| (f.id().arbitration_key(), h.0))
            .map(|(i, _)| i)
            .expect("non-empty candidates");
        let (winner, frame, seq, attempts) = candidates.swap_remove(win_idx);

        // Losers requeue into their controllers under their own sequence
        // numbers, so a node's frames of one ID still leave in order
        // (retries stay bus-side).
        for (h, f, seq, att) in candidates.drain(..) {
            if att > 0 {
                self.retrying.push((h, f, seq, att));
            } else {
                self.nodes[h.0].controller_mut().requeue_tx(seq, f);
            }
        }
        self.candidates_buf = candidates;

        // Is anyone listening? A lone node gets no ACK. (A retry is gathered
        // without the check, so the winner itself may not be able.)
        let winner_able = self.nodes[winner.0].controller().counters().can_transmit();
        let listeners = able - usize::from(winner_able);

        let corrupted = match &self.error_model {
            Some(m) if m.targets(frame.id()) => self.rng.chance(m.probability),
            _ => false,
        };

        // Nothing on the bus consumes payload bits off the wire (frames are
        // delivered as structs), so timing needs only the exact stuffed
        // length — memoised per content, computed on the stack on a miss,
        // never materialising a bit buffer.
        let wire = self.wire_cache.lookup(&frame);

        if corrupted || listeners == 0 {
            // Occupies roughly half a frame plus an error flag + delimiter.
            let bits = (wire.wire_bits as u64) / 2 + 14;
            self.stats.bits_on_wire += bits;
            let d = self.wire_duration(bits);
            self.stats.busy_time += d;
            self.now += d;
            if corrupted {
                self.stats.frames_corrupted += 1;
            }
            self.nodes[winner.0].controller_mut().counters_mut().record_tx_error();
            for (i, n) in self.nodes.iter_mut().enumerate() {
                if i != winner.0 && corrupted {
                    n.controller_mut().counters_mut().record_rx_error();
                }
            }
            let attempt = attempts + 1;
            self.events.push(BusEvent::Corrupted {
                from: winner,
                frame: frame.clone(),
                attempt,
            });
            self.trace.record_with(self.now, "bus.corrupt", || {
                format!("{frame} from {winner} attempt {attempt}")
            });
            if attempt > self.retry_limit
                || !self.nodes[winner.0].controller().counters().can_transmit()
            {
                self.stats.frames_abandoned += 1;
                self.events.push(BusEvent::Abandoned {
                    from: winner,
                    frame: frame.clone(),
                });
                self.trace
                    .record_with(self.now, "bus.abandon", || format!("{frame} from {winner}"));
            } else {
                self.retrying.push((winner, frame.clone(), seq, attempt));
            }
            return Some(frame);
        }

        // Successful transmission: time = wire bits + 3-bit IFS.
        let bits = wire.wire_bits as u64 + 3;
        self.stats.bits_on_wire += bits;
        self.stats.stuff_bits += wire.stuff_bits as u64;
        let d = self.wire_duration(bits);
        self.stats.busy_time += d;
        self.now += d;
        self.stats.frames_transmitted += 1;
        self.nodes[winner.0]
            .controller_mut()
            .counters_mut()
            .record_tx_success();

        // A completed frame ends in ≥11 consecutive recessive bits (7-bit
        // EOF, ACK delimiter, 3-bit intermission), so every bus-off receiver
        // observes one ISO 11898-1 re-integration sequence. Error frames
        // are dominant and never reach this path — a storm-ridden bus
        // genuinely delays its victims' recovery. Delivery touches only its
        // own node and records nothing on the bus, so noting the sequence in
        // the same iteration keeps the recovery events in node order.
        let now = self.now;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if i == winner.0 {
                continue;
            }
            match node.deliver(now, &frame) {
                Delivery::Accepted => self.stats.frames_delivered += 1,
                Delivery::Rejected => self.stats.frames_rejected += 1,
                Delivery::Blocked => self.stats.frames_blocked_ingress += 1,
            }
            let counters = node.controller_mut().counters_mut();
            counters.record_rx_success();
            if counters.note_recessive_sequence() {
                self.stats.bus_off_recoveries += 1;
                let node = NodeHandle(i);
                self.events.push(BusEvent::BusOffRecovered { node, at: self.now });
                self.trace.record_with(self.now, "bus.recover", || {
                    format!("{node} re-integrated after bus-off")
                });
            }
        }

        self.events.push(BusEvent::Transmitted {
            from: winner,
            frame: frame.clone(),
            at: self.now,
        });
        self.trace
            .record_with(self.now, "bus.tx", || format!("{frame} from {winner}"));
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::AcceptanceFilter;

    fn frame(id: u32, byte: u8) -> CanFrame {
        CanFrame::data(CanId::standard(id).unwrap(), &[byte]).unwrap()
    }

    fn two_node_bus() -> (CanBus, NodeHandle, NodeHandle) {
        let mut bus = CanBus::new(500_000);
        let a = bus.attach(CanNode::new("a"));
        let b = bus.attach(CanNode::new("b"));
        (bus, a, b)
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut bus = CanBus::new(500_000);
        let a = bus.attach(CanNode::new("a"));
        let _b = bus.attach(CanNode::new("b"));
        let _c = bus.attach(CanNode::new("c"));
        bus.send_from(a, frame(0x100, 1)).unwrap();
        assert_eq!(bus.run_until_idle(), 1);
        assert_eq!(bus.stats().frames_delivered, 2);
        // sender does not receive its own frame
        assert!(bus.node_mut(a).unwrap().receive().is_none());
    }

    #[test]
    fn arbitration_lowest_id_wins() {
        let (mut bus, a, b) = two_node_bus();
        bus.send_from(a, frame(0x300, 0xAA)).unwrap();
        bus.send_from(b, frame(0x100, 0xBB)).unwrap();
        let first = bus.step().unwrap();
        assert_eq!(first.id().raw(), 0x100, "lower id must win");
        let second = bus.step().unwrap();
        assert_eq!(second.id().raw(), 0x300);
        assert_eq!(bus.stats().arbitration_contended, 1);
        assert_eq!(bus.stats().arbitration_rounds, 2);
    }

    #[test]
    fn a_lost_arbitration_keeps_same_id_frames_in_order() {
        let mut bus = CanBus::new(500_000);
        let a = bus.attach(CanNode::new("a"));
        let b = bus.attach(CanNode::new("b"));
        let _listener = bus.attach(CanNode::new("c"));
        bus.send_from(a, frame(0x200, 1)).unwrap();
        bus.send_from(a, frame(0x200, 2)).unwrap();
        bus.send_from(b, frame(0x100, 0)).unwrap();
        // 0x200#1 loses the first round to 0x100 and must still leave
        // before 0x200#2, which node a queued after it.
        let order: Vec<(u32, u8)> = std::iter::from_fn(|| bus.step())
            .map(|f| (f.id().raw(), f.payload()[0]))
            .collect();
        assert_eq!(order, [(0x100, 0), (0x200, 1), (0x200, 2)]);
    }

    #[test]
    fn time_advances_with_wire_length() {
        let (mut bus, a, _b) = two_node_bus();
        bus.send_from(a, frame(0x10, 0)).unwrap();
        bus.run_until_idle();
        // 1-byte standard frame ≥ 55 wire bits + IFS at 2us/bit ⇒ ≥ 110us
        assert!(bus.now() >= SimTime::from_micros(110), "now={}", bus.now());
        assert!(bus.stats().busy_time.as_micros() > 0);
        assert!(bus.stats().utilisation(bus.now()) > 0.99);
    }

    #[test]
    fn receiver_filter_rejects() {
        let (mut bus, a, b) = two_node_bus();
        bus.node_mut(b)
            .unwrap()
            .controller_mut()
            .filters_mut()
            .add(AcceptanceFilter::exact(CanId::standard(0x500).unwrap()));
        bus.send_from(a, frame(0x100, 0)).unwrap();
        bus.run_until_idle();
        assert_eq!(bus.stats().frames_rejected, 1);
        assert_eq!(bus.stats().frames_delivered, 0);
        assert!(bus.node_mut(b).unwrap().receive().is_none());
    }

    #[test]
    fn lone_node_gets_no_ack_and_abandons() {
        let mut bus = CanBus::new(500_000);
        let a = bus.attach(CanNode::new("lonely"));
        bus.send_from(a, frame(0x1, 0)).unwrap();
        bus.run_until_idle();
        assert_eq!(bus.stats().frames_transmitted, 0);
        assert_eq!(bus.stats().frames_abandoned, 1);
        let tec = bus.node(a).unwrap().controller().counters().tec();
        assert!(tec > 0, "ACK errors must raise TEC");
    }

    #[test]
    fn error_model_corrupts_and_retries() {
        let (mut bus, a, _b) = two_node_bus();
        bus.set_error_model(
            Some(ErrorModel {
                probability: 1.0,
                target_ids: None,
            }),
            7,
        );
        bus.send_from(a, frame(0x42, 0)).unwrap();
        bus.run_until_idle();
        assert_eq!(bus.stats().frames_transmitted, 0);
        assert!(bus.stats().frames_corrupted >= 1);
        assert_eq!(bus.stats().frames_abandoned, 1);
        let events = bus.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, BusEvent::Abandoned { .. })));
    }

    #[test]
    fn targeted_corruption_spares_other_ids() {
        let (mut bus, a, _b) = two_node_bus();
        bus.set_error_model(
            Some(ErrorModel {
                probability: 1.0,
                target_ids: Some(vec![CanId::standard(0x100).unwrap()]),
            }),
            7,
        );
        bus.send_from(a, frame(0x100, 0)).unwrap();
        bus.send_from(a, frame(0x200, 0)).unwrap();
        bus.run_until_idle();
        assert_eq!(bus.stats().frames_transmitted, 1, "0x200 must pass");
        assert!(bus.stats().frames_corrupted >= 1, "0x100 must be corrupted");
    }

    #[test]
    fn persistent_corruption_drives_transmitter_towards_bus_off() {
        let (mut bus, a, _b) = two_node_bus();
        bus.set_retry_limit(1000);
        bus.set_error_model(
            Some(ErrorModel {
                probability: 1.0,
                target_ids: None,
            }),
            3,
        );
        for i in 0..40 {
            bus.send_from(a, frame(0x50, i)).unwrap();
        }
        bus.run_until_idle();
        use crate::fault::ErrorState;
        assert_eq!(
            bus.node(a).unwrap().controller().counters().state(),
            ErrorState::BusOff,
            "sustained corruption must bus-off the transmitter"
        );
    }

    #[test]
    fn bus_off_node_reintegrates_after_128_clean_frames() {
        use crate::fault::ErrorState;
        let mut bus = CanBus::new(500_000);
        let victim = bus.attach(CanNode::new("victim"));
        let talker = bus.attach(CanNode::new("talker"));
        let _witness = bus.attach(CanNode::new("witness")); // ACKs the talker
        bus.set_retry_limit(1000);
        // E1-style storm: every frame the victim offers is corrupted.
        bus.set_error_model(
            Some(ErrorModel {
                probability: 1.0,
                target_ids: Some(vec![CanId::standard(0x50).unwrap()]),
            }),
            3,
        );
        for i in 0..40 {
            bus.send_from(victim, frame(0x50, i)).unwrap();
        }
        bus.run_until_idle();
        let state = |bus: &CanBus, h| bus.node(h).unwrap().controller().counters().state();
        assert_eq!(state(&bus, victim), ErrorState::BusOff);

        // 127 clean frames from someone else: 127 × 11-recessive-bit
        // sequences observed, one short of re-integration. Sent one per
        // idle run so the talker's bounded TX queue never overflows.
        bus.set_error_model(None, 3);
        for i in 0..127 {
            bus.send_from(talker, frame(0x200, i as u8)).unwrap();
            bus.run_until_idle();
        }
        assert_eq!(state(&bus, victim), ErrorState::BusOff, "one sequence early");
        assert_eq!(bus.stats().bus_off_recoveries, 0);
        assert_eq!(
            bus.node(victim).unwrap().controller().counters().recovery_progress(),
            127
        );
        bus.drain_events();

        // The 128th completes recovery; the victim's still-queued frames
        // (no longer corrupted) then transmit in the same idle run.
        bus.send_from(talker, frame(0x200, 255)).unwrap();
        bus.run_until_idle();
        assert_eq!(state(&bus, victim), ErrorState::ErrorActive);
        assert_eq!(bus.stats().bus_off_recoveries, 1);
        assert!(bus
            .drain_events()
            .iter()
            .any(|e| matches!(e, BusEvent::BusOffRecovered { node, .. } if *node == victim)));
        let before = bus.stats().frames_transmitted;
        bus.send_from(victim, frame(0x60, 1)).unwrap();
        bus.run_until_idle();
        assert!(
            bus.stats().frames_transmitted > before,
            "a re-integrated node must transmit again"
        );
    }

    #[test]
    fn firmware_chatter_terminates_via_round_bound() {
        // Echo firmware answering every frame with the same id would loop
        // forever; the round bound must stop it.
        use crate::node::{ActionVec, Firmware, FirmwareAction};
        struct Chatter;
        impl Firmware for Chatter {
            fn on_frame(&mut self, _n: SimTime, f: &CanFrame) -> ActionVec {
                ActionVec::one(FirmwareAction::Send(f.clone()))
            }
        }
        let mut bus = CanBus::new(1_000_000);
        let a = bus.attach(CanNode::with_firmware("a", Box::new(Chatter)));
        let _b = bus.attach(CanNode::with_firmware("b", Box::new(Chatter)));
        bus.send_from(a, frame(0x1, 0)).unwrap();
        // run only a bounded number of steps here to keep the test fast
        for _ in 0..100 {
            bus.step();
        }
        assert!(bus.stats().frames_transmitted >= 99);
    }

    #[test]
    fn find_by_name_and_handles() {
        let (bus, a, b) = two_node_bus();
        assert_eq!(bus.find("a"), Some(a));
        assert_eq!(bus.find("b"), Some(b));
        assert_eq!(bus.find("zz"), None);
        assert_eq!(bus.node_count(), 2);
        assert_eq!(a.to_string(), "node#0");
    }

    #[test]
    fn send_from_unknown_handle_errors() {
        let (mut bus, _a, _b) = two_node_bus();
        let bogus = NodeHandle(99);
        assert!(matches!(
            bus.send_from(bogus, frame(1, 0)),
            Err(CanError::UnknownNode { handle: 99 })
        ));
    }

    #[test]
    fn stats_stuffing_and_trace_populated() {
        let (mut bus, a, _b) = two_node_bus();
        bus.send_from(a, CanFrame::data(CanId::standard(0).unwrap(), &[0; 8]).unwrap())
            .unwrap();
        bus.run_until_idle();
        assert!(bus.stats().stuff_bits > 0);
        assert_eq!(bus.trace().count("bus.tx"), 1);
    }

    #[test]
    fn timing_matches_reference_encoder_lengths() {
        // The bus now derives timing from codec::wire_info; the busy time
        // and stuff-bit stats must equal what the reference encoder yields.
        let (mut bus, a, _b) = two_node_bus();
        let frames = [
            CanFrame::data(CanId::standard(0x123).unwrap(), &[0xA5, 0x5A, 0x00]).unwrap(),
            CanFrame::data(CanId::extended(0x1ABC_D123).unwrap(), &[0xFF; 8]).unwrap(),
            CanFrame::remote(CanId::standard(0x7F).unwrap(), 4).unwrap(),
        ];
        let mut expect_bits = 0u64;
        let mut expect_stuff = 0u64;
        for f in &frames {
            let enc = codec::encode(f, true);
            expect_bits += enc.len() as u64 + 3; // + IFS
            expect_stuff += enc.stuff_bits() as u64;
            bus.send_from(a, f.clone()).unwrap();
        }
        bus.run_until_idle();
        assert_eq!(bus.stats().bits_on_wire, expect_bits);
        assert_eq!(bus.stats().stuff_bits, expect_stuff);
    }

    #[test]
    fn full_trace_skips_formatting_but_keeps_counting() {
        // Satellite regression: bus.tx/bus.abandon details used to be
        // format!-ed unconditionally; with the lazy API a full trace only
        // bumps the dropped counter.
        let (mut bus, a, _b) = two_node_bus();
        *bus.trace_mut() = polsec_sim::Trace::with_capacity(1);
        bus.send_from(a, frame(0x100, 1)).unwrap();
        bus.send_from(a, frame(0x101, 2)).unwrap();
        bus.send_from(a, frame(0x102, 3)).unwrap();
        bus.run_until_idle();
        assert_eq!(bus.stats().frames_transmitted, 3);
        assert_eq!(bus.trace().len(), 1, "only the first record is retained");
        assert_eq!(bus.trace().dropped(), 2);
        assert_eq!(bus.trace().offered(), 3);
    }

    #[test]
    fn trace_sampling_is_configurable_via_trace_mut() {
        let (mut bus, a, _b) = two_node_bus();
        bus.trace_mut().set_sampling(2, 7);
        for i in 0..40 {
            bus.send_from(a, frame(0x100 + i, i as u8)).unwrap();
            bus.run_until_idle();
        }
        let kept = bus.trace().count("bus.tx");
        assert!(kept < 40, "sampling must discard some records");
        assert!(kept > 0, "sampling must keep some records");
        assert_eq!(kept as u64 + bus.trace().sampled_out(), 40);
    }
}
