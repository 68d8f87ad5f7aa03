//! SIGTERM/SIGINT → shutdown flag, with no external crates.
//!
//! Like the reactor's [`crate::reactor`] syscall shim, this binds libc
//! directly (`signal(2)`) rather than pulling in a crate. The handler
//! does one async-signal-safe thing — a relaxed store to a
//! process-global `AtomicBool` that the reactor and the telemetry tick
//! thread poll. Serving is Unix-only, so these are Unix signals.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
// SIGUSR1 is the one number here that differs between Unixes (on macOS
// and the BSDs 10 is SIGBUS), picked per OS like the reactor's
// RLIMIT_NOFILE.
#[cfg(any(target_os = "linux", target_os = "android"))]
const SIGUSR1: i32 = 10;
#[cfg(any(target_os = "solaris", target_os = "illumos"))]
const SIGUSR1: i32 = 16;
#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "solaris",
    target_os = "illumos"
)))]
const SIGUSR1: i32 = 30;

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// Set by the SIGUSR1 handler, consumed by the telemetry tick thread
/// (which reacts by writing a flight-recorder dump).
static USR1: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // OnceLock::get and AtomicBool::store are both lock-free loads/stores;
    // safe inside a signal handler.
    if let Some(flag) = FLAG.get() {
        flag.store(true, Ordering::Relaxed);
    }
}

/// Routes SIGTERM and SIGINT to `flag`. Idempotent: only the first call's
/// flag is registered (the process has one shutdown flag).
pub fn install(flag: &Arc<AtomicBool>) {
    let _ = FLAG.set(Arc::clone(flag));
    let handler: extern "C" fn(i32) = on_signal;
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

extern "C" fn on_usr1(_signum: i32) {
    USR1.store(true, Ordering::Relaxed);
}

/// Routes SIGUSR1 to the flight-dump request flag. Like [`install`],
/// the handler only performs an async-signal-safe atomic store; the
/// tick thread polls [`take_usr1`] and does the actual dump.
pub fn install_usr1() {
    let handler: extern "C" fn(i32) = on_usr1;
    unsafe {
        signal(SIGUSR1, handler as usize);
    }
}

/// Consumes a pending SIGUSR1 request (returns `true` at most once per
/// delivered signal).
pub fn take_usr1() -> bool {
    USR1.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raised_sigterm_sets_the_flag() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let flag = Arc::new(AtomicBool::new(false));
        install(&flag);
        unsafe {
            raise(SIGTERM);
        }
        // FLAG is process-global: whichever flag won the OnceLock race is
        // the one handlers write to. Check that one.
        assert!(FLAG.get().expect("installed").load(Ordering::Relaxed));
    }

    #[test]
    fn raised_sigusr1_is_consumed_exactly_once() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        install_usr1();
        assert!(!take_usr1(), "no signal yet");
        unsafe {
            raise(SIGUSR1);
        }
        assert!(take_usr1(), "signal pending");
        assert!(!take_usr1(), "swap consumed it");
    }
}
