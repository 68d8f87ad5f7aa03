//! A dump hook that panics unwinds the thread that fired it instead of
//! hanging it, and the panic it raises does not dump a second time. Its
//! own test binary: the hooks are process-wide.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cpssec_obs::flight;

/// Long enough for any healthy run; a thread blocked on the hook's lock
/// never reports, and the test fails here instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Fails the test binary at once. A `panic!` here would block too: the
/// panic hook would fire the dump hook, whose lock the stuck thread holds.
fn hung(attempt: usize) -> ! {
    eprintln!("trigger_dump {attempt} hung in a panicking dump hook");
    std::process::exit(1)
}

#[test]
fn a_panicking_dump_hook_unwinds_and_dumps_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    flight::set_dump_hook(move |_reason| {
        seen.fetch_add(1, Ordering::SeqCst);
        panic!("dump hook boom");
    });
    flight::install_panic_hook();

    let (report, reports) = mpsc::channel();
    std::thread::spawn(move || {
        // Twice on one thread: the first unwind must leave the thread able
        // to dump again.
        for _ in 0..2 {
            let unwound = std::panic::catch_unwind(|| flight::trigger_dump("manual")).is_err();
            report.send(unwound).ok();
        }
    });
    let unwound: Vec<bool> = (1..=2)
        .map(|attempt| {
            reports
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| hung(attempt))
        })
        .collect();
    // The hook's lock was never held through the panics: replacing the
    // hook works, and a failing assert below dumps through the new one.
    flight::set_dump_hook(|reason| Ok(format!("in-memory {reason}")));
    assert_eq!(unwound, [true, true], "the hook's panic reaches the caller");
    // One hook run per trigger: the panic hook skipped the nested dump.
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert_eq!(
        flight::trigger_dump("after"),
        Some(Ok("in-memory after".to_owned()))
    );
}
