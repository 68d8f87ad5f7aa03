//! A panic under [`flight::install_panic_hook`] fires the dump hook with
//! a reason that names the panic's `file:line` and its message, for both
//! payload types `panic!` produces (a literal `&str` and a formatted
//! `String`). Its own test binary: the hooks are process-wide.

use std::sync::{Arc, Mutex};

use cpssec_obs::flight;

#[test]
fn a_panic_dump_names_its_location_and_message() {
    let reasons = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&reasons);
    flight::set_dump_hook(move |reason| {
        seen.lock().unwrap().push(reason.to_owned());
        Ok("in-memory".to_owned())
    });
    flight::install_panic_hook();

    // One panic at a time, so the reasons arrive in order.
    let literal = line!() + 1;
    let first = std::thread::spawn(|| panic!("flight test boom")).join();
    let formatted = line!() + 1;
    let second = std::thread::spawn(|| panic!("flight test boom {}", 7)).join();
    assert!(first.is_err() && second.is_err());

    // Cloned out: a failing assert must not panic while holding the lock
    // the dump hook takes.
    let reasons = reasons.lock().unwrap().clone();
    assert_eq!(reasons.len(), 2, "{reasons:?}");
    for (reason, line, message) in [
        (&reasons[0], literal, "flight test boom"),
        (&reasons[1], formatted, "flight test boom 7"),
    ] {
        let at = format!("panic at {}:{line}:", file!());
        assert!(reason.starts_with(&at), "{reason:?} does not start {at:?}");
        assert!(reason.ends_with(&format!(": {message}")), "{reason:?}");
    }
}
