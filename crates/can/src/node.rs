//! CAN nodes: controller + firmware + optional hardware interposer.
//!
//! A [`CanNode`] models the full node of Fig. 3 — transceiver (implicit in
//! the bus), [`CanController`] and processor. The processor runs
//! [`Firmware`], a trait the case-study components implement; *compromising*
//! a node is modelled by swapping its firmware for a malicious one
//! ([`CanNode::replace_firmware`]), which is exactly the attack class the
//! paper's hardware policy engine defends against.
//!
//! The [`Interposer`] hook is the seam where `polsec-hpe` installs the
//! hardware policy engine of Fig. 4: it sees every frame *between* the
//! controller and the bus, on both the read and write paths, and —
//! critically — firmware has no API to reach it.

use crate::controller::CanController;
use crate::frame::CanFrame;
use polsec_sim::SimTime;
use std::fmt;

/// Actions firmware may request from its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirmwareAction {
    /// Transmit a frame.
    Send(CanFrame),
    /// Wipe the software acceptance filters (accept-all) — the classic
    /// firmware-compromise move.
    ClearFilters,
}

/// Inline capacity of [`ActionVec`]: responding firmware almost always
/// answers a frame or tick with at most this many actions (the sensor
/// cluster's four broadcasts are the workspace maximum).
const INLINE_ACTIONS: usize = 4;

/// A small-vector of [`FirmwareAction`]s returned by [`Firmware`] hooks.
///
/// The first `INLINE_ACTIONS` (4) actions live inline in the return value, so
/// a responding tick or frame costs **zero heap allocations** on the action
/// path — the fleet profile used to spend ~0.6 allocations per frame on the
/// `Vec<FirmwareAction>` this type replaced. Longer answers spill into a
/// heap vector transparently.
///
/// # Example
/// ```
/// use polsec_can::node::{ActionVec, FirmwareAction};
/// let mut actions = ActionVec::new();
/// actions.push(FirmwareAction::ClearFilters);
/// assert_eq!(actions.len(), 1);
/// assert!(matches!(actions[0], FirmwareAction::ClearFilters));
/// ```
#[derive(Debug, Default)]
pub struct ActionVec {
    inline: [Option<FirmwareAction>; INLINE_ACTIONS],
    len: usize,
    spill: Vec<FirmwareAction>,
}

impl ActionVec {
    /// An empty action list (allocation-free).
    pub fn new() -> Self {
        ActionVec::default()
    }

    /// A single-action list (allocation-free) — the common firmware answer.
    pub fn one(action: FirmwareAction) -> Self {
        let mut v = ActionVec::new();
        v.push(action);
        v
    }

    /// Appends an action.
    pub fn push(&mut self, action: FirmwareAction) {
        if self.len < INLINE_ACTIONS {
            self.inline[self.len] = Some(action);
        } else {
            self.spill.push(action);
        }
        self.len += 1;
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no actions were produced.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the actions in push order.
    pub fn iter(&self) -> impl Iterator<Item = &FirmwareAction> {
        self.inline
            .iter()
            .filter_map(Option::as_ref)
            .chain(self.spill.iter())
    }
}

impl std::ops::Index<usize> for ActionVec {
    type Output = FirmwareAction;
    fn index(&self, index: usize) -> &FirmwareAction {
        if index < INLINE_ACTIONS {
            self.inline[index].as_ref().expect("index within len")
        } else {
            &self.spill[index - INLINE_ACTIONS]
        }
    }
}

impl Extend<FirmwareAction> for ActionVec {
    fn extend<T: IntoIterator<Item = FirmwareAction>>(&mut self, iter: T) {
        for a in iter {
            self.push(a);
        }
    }
}

impl FromIterator<FirmwareAction> for ActionVec {
    fn from_iter<T: IntoIterator<Item = FirmwareAction>>(iter: T) -> Self {
        let mut v = ActionVec::new();
        v.extend(iter);
        v
    }
}

/// Node application logic ("the processor" of Fig. 3).
///
/// Implementations receive accepted frames and periodic ticks and answer
/// with [`FirmwareAction`]s collected in an inline [`ActionVec`] — a
/// responding hook is allocation-free up to four actions.
pub trait Firmware: Send {
    /// Called for every frame that passed filtering and interposition.
    fn on_frame(&mut self, now: SimTime, frame: &CanFrame) -> ActionVec;

    /// Called on every simulation tick (periodic work: sensor broadcasts,
    /// heartbeats). Default: nothing.
    fn on_tick(&mut self, _now: SimTime) -> ActionVec {
        ActionVec::new()
    }

    /// A short name for traces.
    fn name(&self) -> &str {
        "firmware"
    }
}

/// A no-op firmware: receives silently, never transmits.
#[derive(Debug, Clone, Default)]
pub struct NullFirmware;

impl Firmware for NullFirmware {
    fn on_frame(&mut self, _now: SimTime, _frame: &CanFrame) -> ActionVec {
        ActionVec::new()
    }
    fn name(&self) -> &str {
        "null"
    }
}

/// The verdict an interposer returns for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterposeVerdict {
    /// Let the frame pass.
    Grant,
    /// Silently drop the frame.
    Block,
}

/// What became of a frame the bus offered to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Queued for the application and handed to firmware.
    Accepted,
    /// Refused by the acceptance filters or lost to an RX overrun.
    Rejected,
    /// Blocked by the ingress interposer.
    Blocked,
}

/// A hardware-level frame gate between controller and bus (both directions).
///
/// `polsec-hpe` implements this with the approved-list + decision-block
/// architecture of Fig. 4. Firmware cannot obtain a reference to the
/// interposer through any [`CanNode`] API — that is the "transparent to the
/// system software" property of the paper.
pub trait Interposer: Send {
    /// Gate for frames arriving from the bus (the read path).
    fn on_ingress(&mut self, now: SimTime, frame: &CanFrame) -> InterposeVerdict;
    /// Gate for frames leaving towards the bus (the write path).
    fn on_egress(&mut self, now: SimTime, frame: &CanFrame) -> InterposeVerdict;
    /// A short name for traces.
    fn label(&self) -> &str {
        "interposer"
    }
}

/// A complete CAN node.
pub struct CanNode {
    name: String,
    controller: CanController,
    firmware: Box<dyn Firmware>,
    interposer: Option<Box<dyn Interposer>>,
    tx_refused: u64,
    ingress_blocked: u64,
    egress_blocked: u64,
}

impl fmt::Debug for CanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CanNode")
            .field("name", &self.name)
            .field("firmware", &self.firmware.name())
            .field("interposed", &self.interposer.is_some())
            .field("tx_pending", &self.controller.tx_pending())
            .field("rx_pending", &self.controller.rx_pending())
            .finish()
    }
}

impl CanNode {
    /// Creates a node with [`NullFirmware`] and no interposer.
    pub fn new(name: impl Into<String>) -> Self {
        CanNode {
            name: name.into(),
            controller: CanController::new(),
            firmware: Box::new(NullFirmware),
            interposer: None,
            tx_refused: 0,
            ingress_blocked: 0,
            egress_blocked: 0,
        }
    }

    /// Creates a node running the given firmware.
    pub fn with_firmware(name: impl Into<String>, firmware: Box<dyn Firmware>) -> Self {
        let mut n = CanNode::new(name);
        n.firmware = firmware;
        n
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The controller (read access).
    pub fn controller(&self) -> &CanController {
        &self.controller
    }

    /// Mutable controller access (used by the bus and by tests).
    pub fn controller_mut(&mut self) -> &mut CanController {
        &mut self.controller
    }

    /// Installs a hardware interposer (e.g. the HPE). Replaces any previous
    /// one. There is deliberately **no getter** — firmware-side code cannot
    /// reach the interposer.
    pub fn install_interposer(&mut self, ip: Box<dyn Interposer>) {
        self.interposer = Some(ip);
    }

    /// Whether a hardware interposer is installed.
    pub fn is_interposed(&self) -> bool {
        self.interposer.is_some()
    }

    /// Swaps the node's firmware — the model of a *firmware compromise* (or
    /// a legitimate update). Returns the previous firmware.
    pub fn replace_firmware(&mut self, firmware: Box<dyn Firmware>) -> Box<dyn Firmware> {
        std::mem::replace(&mut self.firmware, firmware)
    }

    /// The current firmware's name.
    pub fn firmware_name(&self) -> &str {
        self.firmware.name()
    }

    /// Frames blocked by the interposer on the read path.
    pub fn ingress_blocked(&self) -> u64 {
        self.ingress_blocked
    }

    /// Frames blocked by the interposer on the write path.
    pub fn egress_blocked(&self) -> u64 {
        self.egress_blocked
    }

    /// Sends the controller refused: its TX queue was full or it was
    /// bus-off.
    pub fn tx_refused(&self) -> u64 {
        self.tx_refused
    }

    /// Queues a frame for transmission from application level.
    ///
    /// The frame still passes the egress interposer *when the bus takes it*,
    /// not here — matching hardware, where the gate sits at the pins.
    /// Queue-full and bus-off errors are counted in
    /// [`CanNode::tx_refused`] rather than returned, since firmware
    /// fire-and-forget sends have no caller to propagate to.
    pub fn send(&mut self, frame: CanFrame) {
        if self.controller.enqueue_tx(frame).is_err() {
            self.tx_refused += 1;
        }
    }

    /// Pops one received frame from the controller RX queue (application
    /// read).
    pub fn receive(&mut self) -> Option<CanFrame> {
        self.controller.pop_rx()
    }

    /// Returns a received frame to the front of the RX queue. The gateway
    /// uses this to undo a partial drain when forwarding fails mid-pump, so
    /// drained frames are never silently lost. Returns whether the frame
    /// fit back in the queue.
    pub fn requeue_rx(&mut self, frame: CanFrame) -> bool {
        self.controller.push_rx_front(frame)
    }

    /// Bus-side: takes the next frame to transmit with its controller
    /// sequence number (for [`CanController::requeue_tx`]), applying the
    /// egress interposer. Blocked frames are consumed and counted, and the
    /// next candidate is offered, so a blocked frame cannot wedge the queue.
    pub(crate) fn take_tx(&mut self, now: SimTime) -> Option<(u64, CanFrame)> {
        loop {
            let (seq, frame) = self.controller.pop_tx()?;
            match &mut self.interposer {
                Some(ip) => match ip.on_egress(now, &frame) {
                    InterposeVerdict::Grant => return Some((seq, frame)),
                    InterposeVerdict::Block => {
                        self.egress_blocked += 1;
                        continue;
                    }
                },
                None => return Some((seq, frame)),
            }
        }
    }

    /// Bus-side: offers a frame arriving from the bus, applying the ingress
    /// interposer, the controller filters, and then firmware, whose actions
    /// are applied before this returns.
    pub(crate) fn deliver(&mut self, now: SimTime, frame: &CanFrame) -> Delivery {
        if let Some(ip) = &mut self.interposer {
            if ip.on_ingress(now, frame) == InterposeVerdict::Block {
                self.ingress_blocked += 1;
                return Delivery::Blocked;
            }
        }
        if !self.controller.offer_rx(frame) {
            return Delivery::Rejected;
        }
        // Firmware consumes the frame immediately in this model (the RX
        // queue also retains it for application-level receive()).
        let actions = self.firmware.on_frame(now, frame);
        self.apply_actions(actions);
        Delivery::Accepted
    }

    /// Runs one firmware tick.
    pub fn tick(&mut self, now: SimTime) {
        let actions = self.firmware.on_tick(now);
        self.apply_actions(actions);
    }

    /// Applies actions in push order, taking each from where the firmware
    /// left it: the inline slots, then the spill.
    fn apply_actions(&mut self, mut actions: ActionVec) {
        let inline = actions.len.min(INLINE_ACTIONS);
        for slot in &mut actions.inline[..inline] {
            if let Some(action) = slot.take() {
                self.apply(action);
            }
        }
        for action in actions.spill.drain(..) {
            self.apply(action);
        }
    }

    fn apply(&mut self, action: FirmwareAction) {
        match action {
            FirmwareAction::Send(f) => self.send(f),
            FirmwareAction::ClearFilters => self.controller.filters_mut().clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CanId;

    fn frame(id: u32) -> CanFrame {
        CanFrame::data(CanId::standard(id).unwrap(), &[1]).unwrap()
    }

    /// The frame the bus would take next, without its sequence number.
    fn take(n: &mut CanNode) -> Option<CanFrame> {
        n.take_tx(SimTime::ZERO).map(|(_, f)| f)
    }

    /// Firmware that echoes every received frame back with id+1.
    struct Echo;
    impl Firmware for Echo {
        fn on_frame(&mut self, _now: SimTime, f: &CanFrame) -> ActionVec {
            let next = CanId::standard((f.id().raw() + 1) & 0x7FF).unwrap();
            ActionVec::one(FirmwareAction::Send(f.with_id(next)))
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Interposer blocking a fixed id on both paths.
    struct BlockId(u32);
    impl Interposer for BlockId {
        fn on_ingress(&mut self, _n: SimTime, f: &CanFrame) -> InterposeVerdict {
            if f.id().raw() == self.0 {
                InterposeVerdict::Block
            } else {
                InterposeVerdict::Grant
            }
        }
        fn on_egress(&mut self, _n: SimTime, f: &CanFrame) -> InterposeVerdict {
            if f.id().raw() == self.0 {
                InterposeVerdict::Block
            } else {
                InterposeVerdict::Grant
            }
        }
    }

    #[test]
    fn send_and_take() {
        let mut n = CanNode::new("a");
        n.send(frame(0x10));
        assert_eq!(take(&mut n), Some(frame(0x10)));
        assert_eq!(take(&mut n), None);
    }

    #[test]
    fn deliver_reaches_firmware_and_rx_queue() {
        let mut n = CanNode::with_firmware("a", Box::new(Echo));
        assert_eq!(n.deliver(SimTime::ZERO, &frame(0x20)), Delivery::Accepted);
        // firmware echoed
        assert_eq!(take(&mut n).unwrap().id().raw(), 0x21);
        // application can also read the original
        assert_eq!(n.receive(), Some(frame(0x20)));
    }

    #[test]
    fn egress_interposer_blocks_and_counts() {
        let mut n = CanNode::new("a");
        n.install_interposer(Box::new(BlockId(0x10)));
        n.send(frame(0x10));
        n.send(frame(0x11));
        // 0x10 blocked, 0x11 passes
        assert_eq!(take(&mut n), Some(frame(0x11)));
        assert_eq!(n.egress_blocked(), 1);
    }

    #[test]
    fn ingress_interposer_blocks_before_firmware() {
        let mut n = CanNode::with_firmware("a", Box::new(Echo));
        n.install_interposer(Box::new(BlockId(0x30)));
        assert_eq!(n.deliver(SimTime::ZERO, &frame(0x30)), Delivery::Blocked);
        assert_eq!(n.ingress_blocked(), 1);
        assert!(n.receive().is_none(), "blocked frame must not reach rx");
        assert!(take(&mut n).is_none(), "firmware must not see it");
    }

    #[test]
    fn firmware_swap_models_compromise() {
        struct Flood;
        impl Firmware for Flood {
            fn on_frame(&mut self, _n: SimTime, _f: &CanFrame) -> ActionVec {
                ActionVec::new()
            }
            fn on_tick(&mut self, _n: SimTime) -> ActionVec {
                let mut a = ActionVec::one(FirmwareAction::Send(frame(0x666 & 0x7FF)));
                a.push(FirmwareAction::ClearFilters);
                a
            }
            fn name(&self) -> &str {
                "malware"
            }
        }
        let mut n = CanNode::with_firmware("a", Box::new(Echo));
        assert_eq!(n.firmware_name(), "echo");
        n.replace_firmware(Box::new(Flood));
        assert_eq!(n.firmware_name(), "malware");
        n.tick(SimTime::ZERO);
        assert!(take(&mut n).is_some());
    }

    #[test]
    fn malicious_clear_filters_cannot_touch_interposer() {
        // firmware wipes software filters, but the interposer still blocks
        let mut n = CanNode::new("a");
        n.install_interposer(Box::new(BlockId(0x40)));
        n.controller_mut()
            .filters_mut()
            .add(crate::filter::AcceptanceFilter::exact(
                CanId::standard(0x1).unwrap(),
            ));
        n.apply_actions(ActionVec::one(FirmwareAction::ClearFilters));
        assert!(n.controller().filters().is_empty(), "sw filters wiped");
        assert_eq!(
            n.deliver(SimTime::ZERO, &frame(0x40)),
            Delivery::Blocked,
            "hw gate holds"
        );
        assert!(n.is_interposed());
    }

    #[test]
    fn action_vec_inline_and_spill() {
        let mut v = ActionVec::new();
        assert!(v.is_empty());
        for i in 0..7u32 {
            v.push(FirmwareAction::Send(frame(0x100 + i)));
        }
        assert_eq!(v.len(), 7);
        // indexing spans the inline/spill boundary
        for i in 0..7u32 {
            assert!(matches!(&v[i as usize], FirmwareAction::Send(f) if f.id().raw() == 0x100 + i));
        }
        // reference iteration preserves push order
        let ids: Vec<u32> = v
            .iter()
            .filter_map(|a| match a {
                FirmwareAction::Send(f) => Some(f.id().raw()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, (0x100..0x107).collect::<Vec<u32>>());
        // FromIterator round trip
        let collected: ActionVec = (0..3u32).map(|i| FirmwareAction::Send(frame(i))).collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn seven_action_answer_queues_every_frame_in_push_order() {
        // Three actions past the inline slots: the spill path. One id, so
        // the TX queue pops in enqueue order and shows the push order.
        struct Burst;
        impl Firmware for Burst {
            fn on_frame(&mut self, _n: SimTime, _f: &CanFrame) -> ActionVec {
                ActionVec::new()
            }
            fn on_tick(&mut self, _n: SimTime) -> ActionVec {
                let id = CanId::standard(0x120).unwrap();
                (0..7u8)
                    .map(|i| FirmwareAction::Send(CanFrame::data(id, &[i]).unwrap()))
                    .collect()
            }
        }
        let mut n = CanNode::with_firmware("a", Box::new(Burst));
        n.tick(SimTime::ZERO);
        let payloads: Vec<u8> = std::iter::from_fn(|| take(&mut n))
            .map(|f| f.payload()[0])
            .collect();
        assert_eq!(payloads, (0..7).collect::<Vec<u8>>());
    }

    #[test]
    fn queue_full_and_bus_off_sends_are_counted() {
        let mut n = CanNode::new("a");
        let capacity = crate::controller::DEFAULT_TX_CAPACITY;
        for i in 0..capacity as u32 + 5 {
            n.send(frame(i & 0x7FF));
        }
        assert_eq!(n.tx_refused(), 5, "queue full");
        let mut off = CanNode::new("b");
        for _ in 0..32 {
            off.controller_mut().counters_mut().record_tx_error();
        }
        off.send(frame(0x10));
        assert_eq!(off.tx_refused(), 1, "bus-off");
        assert!(take(&mut off).is_none());
    }

    #[test]
    fn debug_does_not_expose_internals() {
        let n = CanNode::new("ecu");
        let dbg = format!("{n:?}");
        assert!(dbg.contains("ecu"));
        assert!(dbg.contains("null"));
    }
}
