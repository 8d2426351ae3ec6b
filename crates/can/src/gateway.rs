//! CAN gateway between two bus segments.
//!
//! Real vehicles partition their networks (powertrain vs comfort vs
//! infotainment) behind a gateway that forwards only whitelisted traffic —
//! the paper's guideline *"CAN bus gateway: limit components with CAN bus
//! access"*. [`Gateway`] connects two [`CanBus`] segments through a pair of
//! dedicated gateway nodes and a rule table.

use crate::bus::{CanBus, NodeHandle};
use crate::error::CanError;
use crate::filter::AcceptanceFilter;
use crate::frame::CanFrame;
use crate::node::CanNode;
use std::fmt;

/// Which side of the gateway a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// The first segment (e.g. powertrain).
    A,
    /// The second segment (e.g. infotainment/telematics).
    B,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Segment::A => f.write_str("A"),
            Segment::B => f.write_str("B"),
        }
    }
}

/// A forwarding rule: frames arriving on `from` whose identifier matches
/// `filter` are forwarded to the opposite segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardRule {
    /// Source segment.
    pub from: Segment,
    /// Identifier filter for forwarded frames.
    pub filter: AcceptanceFilter,
}

/// A two-segment CAN gateway with a whitelist rule table.
///
/// Construction attaches one gateway node to each bus; [`Gateway::pump`]
/// moves matching frames across. The default (no rules) forwards nothing —
/// segmentation is deny-by-default.
#[derive(Debug)]
pub struct Gateway {
    node_a: NodeHandle,
    node_b: NodeHandle,
    rules: Vec<ForwardRule>,
    forwarded: u64,
    dropped: u64,
    /// Reused across pumps so the steady-state forwarding path does not
    /// allocate a fresh drain vector per direction per tick.
    drain_buf: Vec<CanFrame>,
}

impl Gateway {
    /// Creates a gateway, attaching its endpoint nodes to both buses.
    pub fn bridge(bus_a: &mut CanBus, bus_b: &mut CanBus, name: &str) -> Self {
        let node_a = bus_a.attach(CanNode::new(format!("{name}.a")));
        let node_b = bus_b.attach(CanNode::new(format!("{name}.b")));
        Gateway {
            node_a,
            node_b,
            rules: Vec::new(),
            forwarded: 0,
            dropped: 0,
            drain_buf: Vec::new(),
        }
    }

    /// Adds a forwarding rule.
    pub fn allow(&mut self, rule: ForwardRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Removes all rules (back to forward-nothing).
    pub fn clear_rules(&mut self) {
        self.rules.clear();
    }

    /// The gateway's node handle on segment A.
    pub fn endpoint_a(&self) -> NodeHandle {
        self.node_a
    }

    /// The gateway's node handle on segment B.
    pub fn endpoint_b(&self) -> NodeHandle {
        self.node_b
    }

    /// Frames forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Frames received by an endpoint but not forwarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn matches(&self, from: Segment, frame: &CanFrame) -> bool {
        self.rules
            .iter()
            .any(|r| r.from == from && r.filter.accepts(frame.id()))
    }

    /// Drains both endpoints' RX queues, forwarding matching frames to the
    /// opposite segment. Call between bus runs. Returns frames forwarded.
    ///
    /// Every drained frame is accounted for, even when forwarding fails
    /// mid-drain: frames not yet forwarded are returned to the head of the
    /// source endpoint's RX queue (in their original order) so a later pump
    /// against the correct buses picks them up again. The invariant
    /// `forwarded + dropped == frames permanently removed from RX queues`
    /// therefore holds on both the success and the error path.
    ///
    /// # Errors
    /// [`CanError::UnknownNode`] if an endpoint handle is stale (a gateway
    /// used with buses it was not bridged to).
    pub fn pump(&mut self, bus_a: &mut CanBus, bus_b: &mut CanBus) -> Result<u64, CanError> {
        let a = self.pump_direction(Segment::A, bus_a, bus_b)?;
        let b = self.pump_direction(Segment::B, bus_b, bus_a)?;
        Ok(a + b)
    }

    /// Drains one endpoint and forwards matching frames onto `dst`.
    fn pump_direction(
        &mut self,
        from: Segment,
        src: &mut CanBus,
        dst: &mut CanBus,
    ) -> Result<u64, CanError> {
        let (src_handle, dst_handle) = match from {
            Segment::A => (self.node_a, self.node_b),
            Segment::B => (self.node_b, self.node_a),
        };
        let mut drained = std::mem::take(&mut self.drain_buf);
        drained.clear();
        {
            let node = match src.node_mut(src_handle) {
                Some(n) => n,
                None => {
                    self.drain_buf = drained;
                    return Err(CanError::UnknownNode {
                        handle: src_handle.index(),
                    });
                }
            };
            while let Some(f) = node.receive() {
                drained.push(f);
            }
        }
        let mut moved = 0;
        for i in 0..drained.len() {
            let f = &drained[i];
            if !self.matches(from, f) {
                self.dropped += 1;
                continue;
            }
            if let Err(e) = dst.send_from(dst_handle, f.clone()) {
                // Undo the rest of the drain: this frame and everything
                // after it go back to the head of the source RX queue, in
                // order. A frame that no longer fits is counted as dropped
                // rather than vanishing.
                if let Some(node) = src.node_mut(src_handle) {
                    for frame in drained[i..].iter().rev() {
                        if !node.requeue_rx(frame.clone()) {
                            self.dropped += 1;
                        }
                    }
                } else {
                    self.dropped += (drained.len() - i) as u64;
                }
                self.drain_buf = drained;
                return Err(e);
            }
            self.forwarded += 1;
            moved += 1;
        }
        self.drain_buf = drained;
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CanId;

    fn frame(id: u32) -> CanFrame {
        CanFrame::data(CanId::standard(id).unwrap(), &[7]).unwrap()
    }

    fn setup() -> (CanBus, CanBus, Gateway, NodeHandle, NodeHandle) {
        let mut bus_a = CanBus::new(500_000);
        let mut bus_b = CanBus::new(500_000);
        let sender = bus_a.attach(CanNode::new("sender"));
        let receiver = bus_b.attach(CanNode::new("receiver"));
        let gw = Gateway::bridge(&mut bus_a, &mut bus_b, "gw");
        (bus_a, bus_b, gw, sender, receiver)
    }

    #[test]
    fn default_gateway_forwards_nothing() {
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        a.send_from(sender, frame(0x100)).unwrap();
        a.run_until_idle();
        gw.pump(&mut a, &mut b).unwrap();
        b.run_until_idle();
        assert!(b.node_mut(receiver).unwrap().receive().is_none());
        assert_eq!(gw.dropped(), 1);
        assert_eq!(gw.forwarded(), 0);
    }

    #[test]
    fn allowed_frames_cross() {
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::exact(CanId::standard(0x100).unwrap()),
        });
        a.send_from(sender, frame(0x100)).unwrap();
        a.send_from(sender, frame(0x200)).unwrap();
        a.run_until_idle();
        gw.pump(&mut a, &mut b).unwrap();
        b.run_until_idle();
        let got = b.node_mut(receiver).unwrap().receive().unwrap();
        assert_eq!(got.id().raw(), 0x100);
        assert!(b.node_mut(receiver).unwrap().receive().is_none());
        assert_eq!(gw.forwarded(), 1);
        assert_eq!(gw.dropped(), 1);
    }

    #[test]
    fn direction_matters() {
        let (mut a, mut b, mut gw, _sender, receiver) = setup();
        // rule allows A→B only
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::any_standard(),
        });
        // traffic from B must not reach A
        b.send_from(receiver, frame(0x300)).unwrap();
        b.run_until_idle();
        gw.pump(&mut a, &mut b).unwrap();
        a.run_until_idle();
        assert_eq!(gw.forwarded(), 0);
        assert_eq!(gw.dropped(), 1);
    }

    #[test]
    fn bidirectional_rules() {
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::any_standard(),
        })
        .allow(ForwardRule {
            from: Segment::B,
            filter: AcceptanceFilter::any_standard(),
        });
        a.send_from(sender, frame(0x1)).unwrap();
        b.send_from(receiver, frame(0x2)).unwrap();
        a.run_until_idle();
        b.run_until_idle();
        gw.pump(&mut a, &mut b).unwrap();
        a.run_until_idle();
        b.run_until_idle();
        assert_eq!(gw.forwarded(), 2);
        assert_eq!(
            b.node_mut(receiver).unwrap().receive().unwrap().id().raw(),
            0x1
        );
        assert_eq!(
            a.node_mut(sender).unwrap().receive().unwrap().id().raw(),
            0x2
        );
    }

    #[test]
    fn clear_rules_restores_isolation() {
        let (mut a, mut b, mut gw, sender, _receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::any_standard(),
        });
        gw.clear_rules();
        a.send_from(sender, frame(0x1)).unwrap();
        a.run_until_idle();
        gw.pump(&mut a, &mut b).unwrap();
        assert_eq!(gw.forwarded(), 0);
    }

    #[test]
    fn segment_display() {
        assert_eq!(Segment::A.to_string(), "A");
        assert_eq!(Segment::B.to_string(), "B");
    }

    #[test]
    fn mid_pump_send_failure_loses_no_frames() {
        // Regression: pump used to drain the RX queue into a local Vec and
        // return early when send_from failed, silently losing every
        // drained-but-not-yet-forwarded frame.
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::exact(CanId::standard(0x100).unwrap()),
        });
        // Mixed batch: one non-matching frame (dropped before the failure),
        // then three matching frames that hit the failing send. The
        // non-matching id is the lowest, so arbitration delivers it first
        // and it sits at the head of the drained batch.
        a.send_from(sender, frame(0x050)).unwrap();
        a.send_from(sender, frame(0x100)).unwrap();
        a.send_from(sender, frame(0x100)).unwrap();
        a.send_from(sender, frame(0x100)).unwrap();
        a.run_until_idle();
        let drained = a.node(gw.endpoint_a()).unwrap().controller().rx_pending() as u64;
        assert_eq!(drained, 4);

        // A destination bus the gateway was never bridged to: its B endpoint
        // handle is unknown there, so forwarding fails mid-pump.
        let mut wrong_b = CanBus::new(500_000);
        let err = gw.pump(&mut a, &mut wrong_b).unwrap_err();
        assert!(matches!(err, CanError::UnknownNode { .. }));

        // Conservation: every drained frame is either counted or requeued.
        let requeued = a.node(gw.endpoint_a()).unwrap().controller().rx_pending() as u64;
        assert_eq!(
            gw.forwarded() + gw.dropped() + requeued,
            drained,
            "forwarded({}) + dropped({}) + requeued({}) must equal drained({})",
            gw.forwarded(),
            gw.dropped(),
            requeued,
            drained
        );
        assert_eq!(gw.forwarded(), 0);
        assert_eq!(gw.dropped(), 1, "the non-matching 0x050 was consumed");
        assert_eq!(requeued, 3, "matching frames survive the failed pump");

        // A later pump against the correct buses delivers the survivors.
        gw.pump(&mut a, &mut b).unwrap();
        b.run_until_idle();
        assert_eq!(gw.forwarded(), 3);
        let mut got = 0;
        while let Some(f) = b.node_mut(receiver).unwrap().receive() {
            assert_eq!(f.id().raw(), 0x100);
            got += 1;
        }
        assert_eq!(got, 3, "no drained frame may be lost end to end");
    }

    #[test]
    fn repeated_pump_failures_conserve_frames_until_eventual_forward() {
        // Chaos-plane satellite: a single failed pump is covered above; a
        // *repeatedly* failing destination must keep the requeue → retry
        // cycle lossless across pumps, and the eventual successful pump must
        // forward every surviving frame exactly once.
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::exact(CanId::standard(0x100).unwrap()),
        });
        a.send_from(sender, frame(0x050)).unwrap(); // non-matching, dropped
        for _ in 0..4 {
            a.send_from(sender, frame(0x100)).unwrap();
        }
        a.run_until_idle();
        let drained = a.node(gw.endpoint_a()).unwrap().controller().rx_pending() as u64;
        assert_eq!(drained, 5);

        let mut wrong_b = CanBus::new(500_000);
        for round in 1..=3 {
            let err = gw.pump(&mut a, &mut wrong_b).unwrap_err();
            assert!(matches!(err, CanError::UnknownNode { .. }));
            let requeued = a.node(gw.endpoint_a()).unwrap().controller().rx_pending() as u64;
            assert_eq!(
                gw.forwarded() + gw.dropped() + requeued,
                drained,
                "conservation broken after failed pump #{round}"
            );
            assert_eq!(gw.forwarded(), 0);
            assert_eq!(requeued, 4, "matching frames must survive pump #{round}");
        }
        // Re-pumping must not re-count the non-matching frame: it was
        // consumed (dropped) once, on the first pump only.
        assert_eq!(gw.dropped(), 1);

        // Eventual forward: the correct destination receives each frame once.
        gw.pump(&mut a, &mut b).unwrap();
        b.run_until_idle();
        assert_eq!(gw.forwarded(), 4);
        assert_eq!(
            a.node(gw.endpoint_a()).unwrap().controller().rx_pending(),
            0
        );
        let mut got = 0;
        while let Some(f) = b.node_mut(receiver).unwrap().receive() {
            assert_eq!(f.id().raw(), 0x100);
            got += 1;
        }
        assert_eq!(got, 4, "every frame exactly once — no loss, no duplication");
        // And nothing is left to do: an idle pump is a no-op.
        assert_eq!(gw.pump(&mut a, &mut b).unwrap(), 0);
        assert_eq!(gw.forwarded() + gw.dropped(), drained);
    }

    #[test]
    fn pump_against_foreign_source_bus_errors_cleanly() {
        let (mut a, _b, mut gw, sender, _receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::any_standard(),
        });
        a.send_from(sender, frame(0x10)).unwrap();
        a.run_until_idle();
        // Both buses wrong: the A-side drain itself must fail without
        // touching counters.
        let mut foreign_a = CanBus::new(500_000);
        let mut foreign_b = CanBus::new(500_000);
        let err = gw.pump(&mut foreign_a, &mut foreign_b).unwrap_err();
        assert!(matches!(err, CanError::UnknownNode { .. }));
        assert_eq!(gw.forwarded(), 0);
        assert_eq!(gw.dropped(), 0);
        // The original frame is still waiting on the real bus.
        assert_eq!(
            a.node(gw.endpoint_a()).unwrap().controller().rx_pending(),
            1
        );
    }

    #[test]
    fn failure_on_the_b_drain_preserves_a_side_work() {
        // With a foreign destination bus the A→B send fails mid-pump: the
        // A-side frame must be requeued (not lost), the B-side frame stays
        // queued untouched, and a recovery pump with the right buses moves
        // both directions.
        let (mut a, mut b, mut gw, sender, receiver) = setup();
        gw.allow(ForwardRule {
            from: Segment::A,
            filter: AcceptanceFilter::any_standard(),
        })
        .allow(ForwardRule {
            from: Segment::B,
            filter: AcceptanceFilter::any_standard(),
        });
        a.send_from(sender, frame(0x1)).unwrap();
        b.send_from(receiver, frame(0x2)).unwrap();
        a.run_until_idle();
        b.run_until_idle();
        // Pass a foreign bus as the destination for B→A traffic. The A→B
        // direction drains from the real bus_a and sends onto the real
        // bus_b, so it completes; the B→A direction then fails on its drain
        // of the foreign bus.
        let mut foreign = CanBus::new(500_000);
        let err = gw.pump(&mut a, &mut foreign);
        // A→B send also fails here (node_b is unknown on `foreign`), so the
        // A-side frame must be requeued, not lost.
        assert!(err.is_err());
        assert_eq!(
            a.node(gw.endpoint_a()).unwrap().controller().rx_pending(),
            1
        );
        // Recovery with the right buses moves both directions.
        gw.pump(&mut a, &mut b).unwrap();
        a.run_until_idle();
        b.run_until_idle();
        assert_eq!(gw.forwarded(), 2);
    }
}
