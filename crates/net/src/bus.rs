//! Asynchronous control-message bus with simulated delivery delay.
//!
//! Partition watermarks (§5.1) and COCO epoch messages are *not* on the
//! transaction critical path; they are broadcast asynchronously and may be
//! delayed (Fig 13a studies exactly that). The [`DelayedBus`] delivers
//! messages to per-partition mailboxes after `base_delay + per-destination
//! extra delay`, using a background pump thread that parks until the head
//! message is due.

use parking_lot::{Condvar, Mutex};
use primo_common::sim_time::{now_us, park_until};
use primo_common::PartitionId;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Control messages exchanged between partition leaders outside the
/// transaction critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusMessage {
    /// A partition advertises its partition-watermark `Wp` (§5.1).
    PartitionWatermark { from: PartitionId, wp: u64 },
    /// COCO group-prepare for an epoch (coordinator -> all).
    EpochPrepare { epoch: u64 },
    /// COCO group-ready response (partition -> coordinator).
    EpochReady { from: PartitionId, epoch: u64 },
    /// COCO group-commit / group-abort decision (coordinator -> all).
    EpochDecision { epoch: u64, commit: bool },
    /// Recovery: a partition publishes its latest persisted watermark so the
    /// cluster can agree on a rollback point (§5.2).
    RecoveryWatermark {
        from: PartitionId,
        wp: u64,
        term: u64,
    },
}

#[derive(Debug)]
struct Pending {
    deliver_at_us: u64,
    to: PartitionId,
    msg: BusMessage,
    seq: u64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at_us == other.deliver_at_us && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by delivery time (BinaryHeap is a max-heap, so reverse).
        other
            .deliver_at_us
            .cmp(&self.deliver_at_us)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A per-partition mailbox: delivered messages wait here until the owning
/// partition drains them.
#[derive(Debug, Default)]
struct Mailbox {
    state: Mutex<Inbox>,
    available: Condvar,
}

#[derive(Debug, Default)]
struct Inbox {
    queue: VecDeque<BusMessage>,
    /// Set by [`DelayedBus::wake`]: the next (or current) parked receive
    /// returns even without mail.
    woken: bool,
}

impl Mailbox {
    fn push(&self, msg: BusMessage) {
        self.state.lock().queue.push_back(msg);
        self.available.notify_one();
    }

    fn wake(&self) {
        self.state.lock().woken = true;
        self.available.notify_one();
    }

    /// Everything delivered so far, parking first until there is mail, a
    /// wake-up or the `now_us` instant `deadline_us`.
    fn take_until(&self, deadline_us: u64) -> Vec<BusMessage> {
        let mut inbox = self.state.lock();
        while inbox.queue.is_empty() && !inbox.woken {
            if park_until(&self.available, &mut inbox, deadline_us) {
                break;
            }
        }
        inbox.woken = false;
        inbox.queue.drain(..).collect()
    }
}

/// Messages in flight, ordered by delivery time.
#[derive(Debug, Default)]
struct InFlight {
    heap: BinaryHeap<Pending>,
    seq: u64,
    stopped: bool,
}

/// What the pump thread shares with the bus handle. The pump holds this,
/// not the [`DelayedBus`], so dropping the last handle can stop it.
#[derive(Debug)]
struct Core {
    inboxes: Vec<Mailbox>,
    in_flight: Mutex<InFlight>,
    /// Wakes the parked pump: a message due before the current head, or
    /// shutdown.
    pump_wake: Condvar,
}

impl Core {
    /// Deliver every due message, then park until the head message is due
    /// (or a send brings an earlier one, or shutdown).
    fn pump_loop(&self) {
        let mut in_flight = self.in_flight.lock();
        while !in_flight.stopped {
            let now = now_us();
            while in_flight
                .heap
                .peek()
                .is_some_and(|top| top.deliver_at_us <= now)
            {
                let p = in_flight.heap.pop().unwrap();
                self.inboxes[p.to.idx()].push(p.msg);
            }
            let next = in_flight.heap.peek().map_or(u64::MAX, |p| p.deliver_at_us);
            park_until(&self.pump_wake, &mut in_flight, next);
        }
    }
}

/// Delay-injecting broadcast bus for control messages.
#[derive(Debug)]
pub struct DelayedBus {
    core: Arc<Core>,
    /// Base one-way delay for control messages, microseconds.
    base_delay_us: AtomicU64,
    /// Extra delay applied to messages *from* a given partition (simulates a
    /// lagging sender, Fig 13a).
    extra_from_us: Vec<AtomicU64>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl DelayedBus {
    pub fn new(num_partitions: usize, base_delay_us: u64) -> Arc<Self> {
        let core = Arc::new(Core {
            inboxes: (0..num_partitions).map(|_| Mailbox::default()).collect(),
            in_flight: Mutex::new(InFlight::default()),
            pump_wake: Condvar::new(),
        });
        let pump_core = Arc::clone(&core);
        let pump = std::thread::Builder::new()
            .name("bus-pump".into())
            .spawn(move || pump_core.pump_loop())
            .expect("spawn bus pump");
        Arc::new(DelayedBus {
            core,
            base_delay_us: AtomicU64::new(base_delay_us),
            extra_from_us: (0..num_partitions).map(|_| AtomicU64::new(0)).collect(),
            pump: Mutex::new(Some(pump)),
        })
    }

    pub fn set_base_delay_us(&self, us: u64) {
        self.base_delay_us.store(us, Ordering::Relaxed);
    }

    /// Simulate a lagging sender: all control messages originating from
    /// `from` are delayed by an additional `us`.
    pub fn set_extra_delay_from(&self, from: PartitionId, us: u64) {
        self.extra_from_us[from.idx()].store(us, Ordering::Relaxed);
    }

    fn delay_for(&self, from: PartitionId) -> u64 {
        self.base_delay_us.load(Ordering::Relaxed)
            + self.extra_from_us[from.idx()].load(Ordering::Relaxed)
    }

    /// Send a message to one partition (delivered after the configured delay).
    pub fn send(&self, from: PartitionId, to: PartitionId, msg: BusMessage) {
        let deliver_at_us = now_us() + self.delay_for(from);
        let mut in_flight = self.core.in_flight.lock();
        let new_head = in_flight
            .heap
            .peek()
            .is_none_or(|head| deliver_at_us < head.deliver_at_us);
        let seq = in_flight.seq;
        in_flight.seq += 1;
        in_flight.heap.push(Pending {
            deliver_at_us,
            to,
            msg,
            seq,
        });
        drop(in_flight);
        if new_head {
            self.core.pump_wake.notify_one();
        }
    }

    /// Broadcast to every partition except the sender.
    pub fn broadcast(&self, from: PartitionId, msg: BusMessage) {
        for p in 0..self.core.inboxes.len() {
            if p != from.idx() {
                self.send(from, PartitionId(p as u32), msg.clone());
            }
        }
    }

    /// Drain all messages currently available for a partition.
    pub fn drain(&self, me: PartitionId) -> Vec<BusMessage> {
        self.recv_until(me, 0)
    }

    /// Parked receive: everything delivered to `me`, waiting first until
    /// there is mail, [`DelayedBus::wake`] is called for `me`, or the
    /// `now_us` instant `deadline_us` passes (then possibly empty).
    pub fn recv_until(&self, me: PartitionId, deadline_us: u64) -> Vec<BusMessage> {
        self.core.inboxes[me.idx()].take_until(deadline_us)
    }

    /// Make `me`'s current or next parked receive return at once.
    pub fn wake(&self, me: PartitionId) {
        self.core.inboxes[me.idx()].wake();
    }

    /// Stop the pump thread. Called on cluster shutdown and on drop.
    pub fn shutdown(&self) {
        // Set under the lock: the pump checks the flag and parks under it,
        // so it either sees the flag or is parked when the notify lands.
        self.core.in_flight.lock().stopped = true;
        self.core.pump_wake.notify_one();
        if let Some(h) = self.pump.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for DelayedBus {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn message_is_delivered_after_delay() {
        let bus = DelayedBus::new(2, 2_000);
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::PartitionWatermark {
                from: PartitionId(0),
                wp: 42,
            },
        );
        // Immediately: nothing yet (2 ms delay).
        assert!(bus.drain(PartitionId(1)).is_empty());
        std::thread::sleep(Duration::from_millis(10));
        let got = bus.drain(PartitionId(1));
        assert_eq!(
            got,
            vec![BusMessage::PartitionWatermark {
                from: PartitionId(0),
                wp: 42
            }]
        );
        bus.shutdown();
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let bus = DelayedBus::new(3, 0);
        bus.broadcast(PartitionId(1), BusMessage::EpochPrepare { epoch: 7 });
        std::thread::sleep(Duration::from_millis(5));
        assert!(bus.drain(PartitionId(1)).is_empty());
        assert_eq!(bus.drain(PartitionId(0)).len(), 1);
        assert_eq!(bus.drain(PartitionId(2)).len(), 1);
        bus.shutdown();
    }

    #[test]
    fn lagging_sender_is_delayed_more() {
        let bus = DelayedBus::new(2, 0);
        bus.set_extra_delay_from(PartitionId(0), 50_000);
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::EpochReady {
                from: PartitionId(0),
                epoch: 1,
            },
        );
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            bus.drain(PartitionId(1)).is_empty(),
            "should still be in flight"
        );
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(bus.drain(PartitionId(1)).len(), 1);
        bus.shutdown();
    }

    #[test]
    fn recv_until_returns_empty_at_the_deadline_when_idle() {
        let bus = DelayedBus::new(1, 0);
        let deadline = now_us() + 5_000;
        assert!(bus.recv_until(PartitionId(0), deadline).is_empty());
        assert!(now_us() >= deadline);
        bus.shutdown();
    }

    #[test]
    fn delayed_message_wakes_a_parked_receiver_on_time() {
        // The pump parks until the message is due and the receiver parks
        // until mail: delivery lands at the 2 ms delay, not a poll tick
        // later. The upper slack absorbs timer and scheduler noise on a
        // small shared host.
        let bus = DelayedBus::new(2, 2_000);
        let sent_at = now_us();
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::EpochPrepare { epoch: 1 },
        );
        let got = bus.recv_until(PartitionId(1), sent_at + 1_000_000);
        let waited = now_us() - sent_at;
        assert_eq!(got, vec![BusMessage::EpochPrepare { epoch: 1 }]);
        assert!(waited >= 2_000, "delivered early, after {waited} us");
        assert!(waited <= 3_500, "delivered late, after {waited} us");
        bus.shutdown();
    }

    #[test]
    fn an_earlier_message_overtakes_a_parked_pump() {
        // The pump is parked on a message due in 1 s; a later send due in
        // 1 ms must wake it rather than wait behind the head.
        let bus = DelayedBus::new(2, 0);
        bus.set_extra_delay_from(PartitionId(0), 1_000_000);
        bus.send(
            PartitionId(0),
            PartitionId(1),
            BusMessage::EpochPrepare { epoch: 1 },
        );
        std::thread::sleep(Duration::from_millis(2));
        let sent_at = now_us();
        bus.send(
            PartitionId(1),
            PartitionId(0),
            BusMessage::EpochPrepare { epoch: 2 },
        );
        let got = bus.recv_until(PartitionId(0), sent_at + 1_000_000);
        assert_eq!(got, vec![BusMessage::EpochPrepare { epoch: 2 }]);
        assert!(now_us() - sent_at < 100_000);
        bus.shutdown();
    }

    #[test]
    fn wake_interrupts_a_parked_receive() {
        let bus = DelayedBus::new(1, 0);
        bus.wake(PartitionId(0));
        let start = Instant::now();
        assert!(bus.recv_until(PartitionId(0), u64::MAX).is_empty());
        assert!(start.elapsed() < Duration::from_millis(50));
        bus.shutdown();
    }

    #[test]
    fn shutdown_and_drop_stop_a_parked_pump_promptly() {
        // A message due in 10 s parks the pump for 10 s; both exits must
        // wake it instead of waiting that out.
        for drop_it in [false, true] {
            let bus = DelayedBus::new(2, 10_000_000);
            bus.send(
                PartitionId(0),
                PartitionId(1),
                BusMessage::EpochPrepare { epoch: 1 },
            );
            std::thread::sleep(Duration::from_millis(2));
            let start = Instant::now();
            if drop_it {
                drop(bus);
            } else {
                bus.shutdown();
            }
            assert!(start.elapsed() < Duration::from_millis(50));
        }
    }
}
