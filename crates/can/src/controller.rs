//! The CAN controller.
//!
//! Models the controller chip of Fig. 3: a transmit queue ordered by
//! arbitration priority, a receive queue guarded by the software-configured
//! acceptance [`FilterBank`], and the node's [`ErrorCounters`].
//!
//! The acceptance filter lives *here*, in the controller, because that is
//! what the paper's §V.B.2 points out: "the CAN node controller utilises a
//! programmable software based filter. However, these may be vulnerable to
//! software layer attacks, such as firmware modification." Firmware can (and
//! in the attack scenarios does) reconfigure or clear this bank.

use crate::error::CanError;
use crate::fault::ErrorCounters;
use crate::filter::FilterBank;
use crate::frame::CanFrame;
use std::collections::VecDeque;

/// Default bound on the transmit queue.
pub const DEFAULT_TX_CAPACITY: usize = 64;
/// Default bound on the receive queue.
pub const DEFAULT_RX_CAPACITY: usize = 256;

/// A CAN controller: TX priority queue, RX FIFO, acceptance filters and
/// error counters.
#[derive(Debug, Clone)]
pub struct CanController {
    /// (enqueue seq, frame), unordered: `pop_tx` scans for the lowest
    /// (arbitration key, seq) and swap-removes it.
    tx: Vec<(u64, CanFrame)>,
    tx_seq: u64,
    tx_capacity: usize,
    rx: VecDeque<CanFrame>,
    rx_capacity: usize,
    filters: FilterBank,
    counters: ErrorCounters,
    rx_filtered: u64,
    rx_overflowed: u64,
}

impl Default for CanController {
    fn default() -> Self {
        Self::new()
    }
}

impl CanController {
    /// Creates a controller with default queue capacities and an accept-all
    /// filter bank.
    pub fn new() -> Self {
        CanController {
            tx: Vec::new(),
            tx_seq: 0,
            tx_capacity: DEFAULT_TX_CAPACITY,
            rx: VecDeque::new(),
            rx_capacity: DEFAULT_RX_CAPACITY,
            filters: FilterBank::new(),
            counters: ErrorCounters::new(),
            rx_filtered: 0,
            rx_overflowed: 0,
        }
    }

    /// Enqueues a frame for transmission.
    ///
    /// # Errors
    /// * [`CanError::TxQueueFull`] when the queue is at capacity.
    /// * [`CanError::BusOff`] when fault confinement forbids transmitting.
    pub fn enqueue_tx(&mut self, frame: CanFrame) -> Result<(), CanError> {
        if !self.counters.can_transmit() {
            return Err(CanError::BusOff);
        }
        if self.tx.len() >= self.tx_capacity {
            return Err(CanError::TxQueueFull {
                capacity: self.tx_capacity,
            });
        }
        self.tx.push((self.tx_seq, frame));
        self.tx_seq += 1;
        Ok(())
    }

    /// Removes and returns the highest-priority pending frame with its
    /// enqueue sequence number, which orders frames of equal priority.
    pub fn pop_tx(&mut self) -> Option<(u64, CanFrame)> {
        let idx = self
            .tx
            .iter()
            .enumerate()
            .min_by_key(|(_, (seq, f))| (f.id().arbitration_key(), *seq))
            .map(|(i, _)| i)?;
        Some(self.tx.swap_remove(idx))
    }

    /// Re-queues a frame that lost arbitration under the sequence number
    /// [`CanController::pop_tx`] returned with it, so it competes again
    /// from its old place: ahead of any frame of equal priority queued
    /// after it.
    pub fn requeue_tx(&mut self, seq: u64, frame: CanFrame) {
        self.tx.push((seq, frame));
    }

    /// Number of frames waiting to transmit.
    pub fn tx_pending(&self) -> usize {
        self.tx.len()
    }

    /// Offers a received frame to the controller. The frame lands in the RX
    /// queue only if the acceptance filters match; returns whether it was
    /// accepted. The frame is cloned only on acceptance — filtered or
    /// overrun frames cost nothing.
    ///
    /// A full RX queue drops the *new* frame (overrun), as real controllers
    /// do, and counts the overflow.
    pub fn offer_rx(&mut self, frame: &CanFrame) -> bool {
        if !self.filters.accepts(frame.id()) {
            self.rx_filtered += 1;
            return false;
        }
        if self.rx.len() >= self.rx_capacity {
            self.rx_overflowed += 1;
            return false;
        }
        self.rx.push_back(frame.clone());
        true
    }

    /// Pops the oldest received frame.
    pub fn pop_rx(&mut self) -> Option<CanFrame> {
        self.rx.pop_front()
    }

    /// Returns a previously-popped frame to the *head* of the RX queue,
    /// bypassing the acceptance filters (the frame was already accepted
    /// once). Used to undo a partial drain when a consumer fails mid-batch.
    ///
    /// A full queue drops the frame and counts an overflow; returns whether
    /// the frame was restored.
    pub fn push_rx_front(&mut self, frame: CanFrame) -> bool {
        if self.rx.len() >= self.rx_capacity {
            self.rx_overflowed += 1;
            return false;
        }
        self.rx.push_front(frame);
        true
    }

    /// Number of frames waiting in the RX queue.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// How many frames the acceptance filters rejected.
    pub fn rx_filtered(&self) -> u64 {
        self.rx_filtered
    }

    /// How many frames were lost to RX overruns.
    pub fn rx_overflowed(&self) -> u64 {
        self.rx_overflowed
    }

    /// The software-configurable acceptance filter bank.
    pub fn filters(&self) -> &FilterBank {
        &self.filters
    }

    /// Mutable access to the filter bank — this is the software-writable
    /// surface that compromised firmware abuses.
    pub fn filters_mut(&mut self) -> &mut FilterBank {
        &mut self.filters
    }

    /// The node's fault-confinement counters.
    pub fn counters(&self) -> &ErrorCounters {
        &self.counters
    }

    /// Mutable access to the counters (driven by the bus).
    pub fn counters_mut(&mut self) -> &mut ErrorCounters {
        &mut self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::AcceptanceFilter;
    use crate::id::CanId;

    fn frame(id: u32) -> CanFrame {
        CanFrame::data(CanId::standard(id).unwrap(), &[0]).unwrap()
    }

    #[test]
    fn tx_orders_by_arbitration_priority() {
        let mut c = CanController::new();
        c.enqueue_tx(frame(0x300)).unwrap();
        c.enqueue_tx(frame(0x100)).unwrap();
        c.enqueue_tx(frame(0x200)).unwrap();
        assert_eq!(c.pop_tx().unwrap().1.id().raw(), 0x100);
        assert_eq!(c.pop_tx().unwrap().1.id().raw(), 0x200);
        assert_eq!(c.pop_tx().unwrap().1.id().raw(), 0x300);
        assert!(c.pop_tx().is_none());
    }

    #[test]
    fn tx_same_id_is_fifo() {
        let mut c = CanController::new();
        let a = CanFrame::data(CanId::standard(0x50).unwrap(), &[1]).unwrap();
        let b = CanFrame::data(CanId::standard(0x50).unwrap(), &[2]).unwrap();
        c.enqueue_tx(a.clone()).unwrap();
        c.enqueue_tx(b.clone()).unwrap();
        assert_eq!(c.pop_tx(), Some((0, a)));
        assert_eq!(c.pop_tx(), Some((1, b)));
    }

    #[test]
    fn tx_capacity_enforced() {
        let mut c = CanController::new();
        for i in 0..DEFAULT_TX_CAPACITY {
            c.enqueue_tx(frame(i as u32 & 0x7FF)).unwrap();
        }
        let err = c.enqueue_tx(frame(0x1)).unwrap_err();
        assert!(matches!(err, CanError::TxQueueFull { .. }));
    }

    #[test]
    fn bus_off_blocks_enqueue() {
        let mut c = CanController::new();
        for _ in 0..32 {
            c.counters_mut().record_tx_error();
        }
        assert_eq!(c.enqueue_tx(frame(1)).unwrap_err(), CanError::BusOff);
    }

    #[test]
    fn rx_respects_filters() {
        let mut c = CanController::new();
        c.filters_mut()
            .add(AcceptanceFilter::exact(CanId::standard(0x10).unwrap()));
        assert!(c.offer_rx(&frame(0x10)));
        assert!(!c.offer_rx(&frame(0x11)));
        assert_eq!(c.rx_pending(), 1);
        assert_eq!(c.rx_filtered(), 1);
    }

    #[test]
    fn rx_overrun_drops_new_frame() {
        let mut c = CanController::new();
        for _ in 0..DEFAULT_RX_CAPACITY {
            assert!(c.offer_rx(&frame(0x7)));
        }
        assert!(!c.offer_rx(&frame(0x7)));
        assert_eq!(c.rx_overflowed(), 1);
        assert_eq!(c.rx_pending(), DEFAULT_RX_CAPACITY);
    }

    #[test]
    fn rx_is_fifo() {
        let mut c = CanController::new();
        let a = CanFrame::data(CanId::standard(1).unwrap(), &[1]).unwrap();
        let b = CanFrame::data(CanId::standard(2).unwrap(), &[2]).unwrap();
        c.offer_rx(&a);
        c.offer_rx(&b);
        assert_eq!(c.pop_rx(), Some(a));
        assert_eq!(c.pop_rx(), Some(b));
        assert_eq!(c.pop_rx(), None);
    }

    #[test]
    fn firmware_can_clear_filters() {
        // the compromise path: filters configured, then wiped
        let mut c = CanController::new();
        c.filters_mut()
            .add(AcceptanceFilter::exact(CanId::standard(0x10).unwrap()));
        assert!(!c.offer_rx(&frame(0x99)));
        c.filters_mut().clear();
        assert!(c.offer_rx(&frame(0x99)));
    }

    #[test]
    fn requeue_competes_again() {
        let mut c = CanController::new();
        c.enqueue_tx(frame(0x200)).unwrap();
        let (seq, f) = c.pop_tx().unwrap();
        c.enqueue_tx(frame(0x100)).unwrap();
        c.requeue_tx(seq, f);
        assert_eq!(c.pop_tx().unwrap().1.id().raw(), 0x100);
        assert_eq!(c.pop_tx().unwrap().1.id().raw(), 0x200);
    }
}
