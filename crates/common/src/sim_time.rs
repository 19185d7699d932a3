//! Helpers for charging simulated latency to the calling thread.
//!
//! The paper measures a real cluster; this reproduction runs every partition
//! in one process and charges network / disk latency by making the calling
//! thread wait. Short waits (< ~200 µs) are spin-waits so that the scheduler
//! does not add millisecond-level noise; longer waits sleep.
//!
//! Background threads (watermark agents, the control-bus pump, the in-doubt
//! resolver) do not poll: they park until the next instant on the
//! [`now_us`] clock at which something is due, or until another thread
//! notifies them ([`park_until`], [`sleep_until_us`]).

use parking_lot::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// Threshold below which we spin instead of sleeping.
const SPIN_THRESHOLD_US: u64 = 200;

/// Block the calling thread for `us` microseconds of simulated latency.
pub fn charge_latency_us(us: u64) {
    if us == 0 {
        return;
    }
    if us <= SPIN_THRESHOLD_US {
        spin_us(us);
    } else {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// Busy-wait for `us` microseconds.
pub fn spin_us(us: u64) {
    let start = Instant::now();
    let target = Duration::from_micros(us);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// Monotonic microseconds since an arbitrary process-wide origin.
pub fn now_us() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    origin.elapsed().as_micros() as u64
}

/// Park on `cond` (releasing `guard`) until the [`now_us`] instant
/// `deadline_us` passes or the condvar is notified. Returns whether the
/// deadline has passed; a notify or a spurious wake-up returns `false`, so
/// callers re-check their condition in a loop. `u64::MAX` parks until
/// notified.
pub fn park_until<T>(cond: &Condvar, guard: &mut MutexGuard<'_, T>, deadline_us: u64) -> bool {
    let now = now_us();
    if now >= deadline_us {
        return true;
    }
    cond.wait_for(guard, Duration::from_micros(deadline_us - now));
    now_us() >= deadline_us
}

/// Sleep until the [`now_us`] instant `deadline_us` (no-op if it passed).
pub fn sleep_until_us(deadline_us: u64) {
    let now = now_us();
    if deadline_us > now {
        std::thread::sleep(Duration::from_micros(deadline_us - now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_latency_waits_roughly_right() {
        let start = Instant::now();
        charge_latency_us(100);
        let el = start.elapsed();
        assert!(el >= Duration::from_micros(95), "waited only {el:?}");
        assert!(el < Duration::from_millis(20), "waited far too long {el:?}");
    }

    #[test]
    fn zero_latency_is_free() {
        let start = Instant::now();
        for _ in 0..1000 {
            charge_latency_us(0);
        }
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        spin_us(10);
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn park_until_returns_at_the_deadline() {
        let (lock, cond) = (parking_lot::Mutex::new(()), Condvar::new());
        let mut guard = lock.lock();
        let deadline = now_us() + 2_000;
        while !park_until(&cond, &mut guard, deadline) {}
        assert!(now_us() >= deadline);
        // A deadline already in the past returns at once.
        assert!(park_until(&cond, &mut guard, 0));
    }

    #[test]
    fn park_until_wakes_on_notify() {
        use std::sync::Arc;
        let shared = Arc::new((parking_lot::Mutex::new(false), Condvar::new()));
        let notifier = Arc::clone(&shared);
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            *notifier.0.lock() = true;
            notifier.1.notify_one();
        });
        let mut woken = shared.0.lock();
        while !*woken {
            assert!(!park_until(&shared.1, &mut woken, u64::MAX));
        }
        drop(woken);
        t.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn sleep_until_reaches_the_deadline() {
        let deadline = now_us() + 1_500;
        sleep_until_us(deadline);
        assert!(now_us() >= deadline);
        sleep_until_us(0);
    }
}
