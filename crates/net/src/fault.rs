//! Seeded, process-global fault injection for the serving stack — the
//! chaos half of the supervision story (compiled only with the
//! `fault-injection` feature; release builds carry none of this).
//!
//! A [`FaultPlan`] describes *rates* (per-mille probabilities) for each
//! fault class; [`install`] arms one plan process-wide and the hooks
//! threaded through [`crate::sys`] and the reactor's connection I/O paths
//! consult it on every call.  Decisions are drawn from a single seeded
//! [`StdRng`], so a given seed produces the same decision *sequence* —
//! chaos schedules are reproducible up to thread interleaving, which is
//! exactly the level a robustness invariant must hold at anyway.
//!
//! Injected faults and their recovery contracts:
//!
//! * **Short reads/writes** — one byte instead of a burst; the incremental
//!   frame decoder and the write queue must reassemble.
//! * **`EAGAIN` storms** — spurious `WouldBlock` on a ready socket; both
//!   readiness backends are level-triggered, so the next wait re-reports
//!   the socket that is still ready.
//! * **`EINTR`** — spurious `Interrupted`; the I/O loops retry in place.
//! * **`ECONNRESET`** — the connection dies; *that* connection's requests
//!   fail, every other connection and the server itself keep serving.
//! * **Delayed readiness** — [`crate::sys::poll_fds`] or
//!   [`crate::sys::Epoll::wait`] reports a timeout without consulting the
//!   kernel (also models `EINTR` at the wait site).
//! * **Dropped wake-pipe bytes** — the dispatcher's wake never lands; the
//!   reactor's unconditional completion drain plus the bounded poll
//!   interval must still deliver every reply.
//!
//! Rates are clamped to [`MAX_PERMILLE`] at install so no fault class can
//! starve progress outright (a permanently-spinning poll or an I/O path
//! that never executes a real syscall).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Upper clamp on every [`FaultPlan`] rate: at most one fault per two
/// calls on any hook, so every injected-fault loop terminates with
/// probability one and expected constant retries.
pub const MAX_PERMILLE: u16 = 500;

/// Per-mille rates for each injectable fault class, plus the RNG seed.
///
/// All rates are clamped to [`MAX_PERMILLE`] when the plan is
/// [`install`]ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the decision RNG.
    pub seed: u64,
    /// Rate of truncating a socket read to one byte.
    pub short_read_permille: u16,
    /// Rate of truncating a socket write to one byte.
    pub short_write_permille: u16,
    /// Rate of injecting `WouldBlock` on socket I/O (EAGAIN storm).
    pub eagain_permille: u16,
    /// Rate of injecting `Interrupted` on socket I/O (EINTR).
    pub eintr_permille: u16,
    /// Rate of injecting `ConnectionReset` on socket I/O — the one
    /// *unrecoverable* (per-connection) fault class; keep it at `0` for
    /// bit-exactness schedules.
    pub reset_permille: u16,
    /// Rate of a `poll` returning a spurious timeout without consulting
    /// the kernel (delayed readiness / poll-level EINTR).
    pub spurious_wake_permille: u16,
    /// Rate of silently dropping a wake-pipe byte.
    pub drop_wake_permille: u16,
}

impl FaultPlan {
    /// A plan that injects nothing (rates all zero) — installing it is
    /// equivalent to [`clear`] except the hooks still count calls.
    pub fn calm(seed: u64) -> Self {
        FaultPlan {
            seed,
            short_read_permille: 0,
            short_write_permille: 0,
            eagain_permille: 0,
            eintr_permille: 0,
            reset_permille: 0,
            spurious_wake_permille: 0,
            drop_wake_permille: 0,
        }
    }

    /// A plan of **recoverable** faults only (no resets): aggressive rates
    /// of short I/O, EAGAIN, EINTR, delayed readiness and dropped wakes.
    /// Under this plan every request must still resolve bit-exactly — the
    /// chaos suite's core schedule.
    pub fn recoverable(seed: u64) -> Self {
        FaultPlan {
            seed,
            short_read_permille: 250,
            short_write_permille: 250,
            eagain_permille: 150,
            eintr_permille: 100,
            reset_permille: 0,
            spurious_wake_permille: 200,
            drop_wake_permille: 300,
        }
    }

    /// Adds connection resets to this plan (destructive per-connection
    /// faults; requests on a reset connection may fail with transport
    /// errors, but the server must keep serving).
    pub fn with_resets(mut self, permille: u16) -> Self {
        self.reset_permille = permille;
        self
    }

    fn clamped(mut self) -> Self {
        self.short_read_permille = self.short_read_permille.min(MAX_PERMILLE);
        self.short_write_permille = self.short_write_permille.min(MAX_PERMILLE);
        self.eagain_permille = self.eagain_permille.min(MAX_PERMILLE);
        self.eintr_permille = self.eintr_permille.min(MAX_PERMILLE);
        self.reset_permille = self.reset_permille.min(MAX_PERMILLE);
        self.spurious_wake_permille = self.spurious_wake_permille.min(MAX_PERMILLE);
        self.drop_wake_permille = self.drop_wake_permille.min(MAX_PERMILLE);
        self
    }
}

/// What a connection I/O hook tells its call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoFault {
    /// No fault: perform the real syscall.
    None,
    /// Truncate the transfer to one byte.
    Short,
    /// Return `ErrorKind::WouldBlock` without touching the socket.
    WouldBlock,
    /// Return `ErrorKind::Interrupted` without touching the socket.
    Interrupted,
    /// Return `ErrorKind::ConnectionReset`: the connection is dead.
    Reset,
}

struct Injector {
    plan: FaultPlan,
    rng: StdRng,
    injected: u64,
}

impl Injector {
    fn roll(&mut self, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        let hit = self.rng.gen_range(0u32..1000) < u32::from(permille);
        if hit {
            self.injected += 1;
        }
        hit
    }
}

static ACTIVE: Mutex<Option<Injector>> = Mutex::new(None);

/// Arms `plan` process-wide (rates clamped to [`MAX_PERMILLE`]),
/// replacing any previous plan and resetting the injected-fault counter.
///
/// The injector is global because the reactor runs on its own thread;
/// tests that install different plans must serialise themselves (the
/// chaos suite holds a lock across each schedule).
pub fn install(plan: FaultPlan) {
    let plan = plan.clamped();
    *ACTIVE.lock().expect("fault injector lock") = Some(Injector {
        plan,
        rng: StdRng::seed_from_u64(plan.seed),
        injected: 0,
    });
}

/// Disarms fault injection; every hook becomes a no-op again.
pub fn clear() {
    *ACTIVE.lock().expect("fault injector lock") = None;
}

/// How many faults the active plan has injected since [`install`]
/// (`0` when disarmed) — lets a chaos schedule assert it actually bit.
pub fn injected_count() -> u64 {
    ACTIVE
        .lock()
        .expect("fault injector lock")
        .as_ref()
        .map_or(0, |inj| inj.injected)
}

fn with_injector<T>(default: T, f: impl FnOnce(&mut Injector) -> T) -> T {
    match ACTIVE.lock().expect("fault injector lock").as_mut() {
        Some(injector) => f(injector),
        None => default,
    }
}

fn io_fault(kind: fn(&FaultPlan) -> (u16, u16, u16, u16)) -> IoFault {
    with_injector(IoFault::None, |inj| {
        let (short, eagain, eintr, reset) = kind(&inj.plan);
        // Ordered draws keep the decision sequence a pure function of the
        // seed and the call index.
        if inj.roll(reset) {
            IoFault::Reset
        } else if inj.roll(eagain) {
            IoFault::WouldBlock
        } else if inj.roll(eintr) {
            IoFault::Interrupted
        } else if inj.roll(short) {
            IoFault::Short
        } else {
            IoFault::None
        }
    })
}

/// Consulted by the reactor before every socket read.
pub(crate) fn read_fault() -> IoFault {
    io_fault(|p| {
        (
            p.short_read_permille,
            p.eagain_permille,
            p.eintr_permille,
            p.reset_permille,
        )
    })
}

/// Consulted by the reactor before every socket write.
pub(crate) fn write_fault() -> IoFault {
    io_fault(|p| {
        (
            p.short_write_permille,
            p.eagain_permille,
            p.eintr_permille,
            p.reset_permille,
        )
    })
}

/// Consulted by [`crate::sys::poll_fds`] and [`crate::sys::Epoll::wait`]:
/// `true` means report a spurious timeout without entering the kernel.
pub(crate) fn poll_spurious_wake() -> bool {
    with_injector(false, |inj| {
        let permille = inj.plan.spurious_wake_permille;
        inj.roll(permille)
    })
}

/// Consulted by [`crate::sys::WakePipe::wake`]: `true` means drop the
/// wake byte.
pub(crate) fn drop_wake_byte() -> bool {
    with_injector(false, |inj| {
        let permille = inj.plan.drop_wake_permille;
        inj.roll(permille)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests below install plans into the one process-wide injector,
    /// and the harness runs them on parallel threads: each holds this
    /// lock for its whole body.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disarmed_hooks_are_no_ops() {
        let _serial = serial();
        clear();
        assert_eq!(read_fault(), IoFault::None);
        assert_eq!(write_fault(), IoFault::None);
        assert!(!poll_spurious_wake());
        assert!(!drop_wake_byte());
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn rates_are_clamped_and_decisions_are_seed_deterministic() {
        let _serial = serial();
        let aggressive = FaultPlan {
            seed: 42,
            short_read_permille: 1000,
            short_write_permille: 1000,
            eagain_permille: 1000,
            eintr_permille: 1000,
            reset_permille: 1000,
            spurious_wake_permille: 1000,
            drop_wake_permille: 1000,
        };
        assert_eq!(aggressive.clamped().eagain_permille, MAX_PERMILLE);
        let sequence = |seed: u64| -> Vec<IoFault> {
            install(FaultPlan::recoverable(seed));
            let seq = (0..64).map(|_| read_fault()).collect();
            clear();
            seq
        };
        assert_eq!(sequence(7), sequence(7), "same seed, same schedule");
        assert_ne!(sequence(7), sequence(8), "different seeds diverge");
    }

    #[test]
    fn recoverable_plans_inject_and_count_without_resets() {
        let _serial = serial();
        install(FaultPlan::recoverable(3));
        let mut kinds = Vec::new();
        for _ in 0..500 {
            kinds.push(read_fault());
            kinds.push(write_fault());
        }
        assert!(injected_count() > 0, "aggressive rates must fire");
        assert!(
            !kinds.contains(&IoFault::Reset),
            "recoverable plans never reset"
        );
        assert!(kinds.contains(&IoFault::Short));
        clear();
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn calm_plans_count_nothing() {
        let _serial = serial();
        install(FaultPlan::calm(1));
        for _ in 0..100 {
            assert_eq!(read_fault(), IoFault::None);
            assert!(!poll_spurious_wake());
        }
        assert_eq!(injected_count(), 0);
        clear();
    }
}
