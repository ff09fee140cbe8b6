//! Scripted regression: a two-processor trace with a deliberate
//! unsynchronized write-write conflict must be reported with both access
//! sites, the conflicting line address, and the lock that would have
//! ordered them.

use dashlat_analyze::analyze_trace;
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::Addr;

/// P0 writes 0x40 under lock 0; P1 writes the same address with no lock.
const RACY_TRACE: &str = "procs 2\n\
                          lock 0x1000\n\
                          0 A 0\n\
                          0 W 0x40\n\
                          0 L 0\n\
                          0 D\n\
                          1 W 0x40\n\
                          1 D\n";

#[test]
fn unsynchronized_write_write_conflict_is_fully_reported() {
    let trace = Trace::from_text(RACY_TRACE).expect("trace parses");
    let report = analyze_trace("regression", &trace);

    assert!(report.race_detected());
    assert!(!report.properly_labeled());

    let hb = &report.hb;
    assert_eq!(hb.races_total, 1);
    let race = &hb.races[0];

    // Both access sites, by processor.
    let procs = [race.first.pid.0, race.second.pid.0];
    assert!(procs.contains(&0) && procs.contains(&1), "{race:?}");

    // The conflicting line address.
    assert_eq!(race.addr, Addr(0x40));
    assert_eq!(race.line, Addr(0x40).line());

    // The lock that would have ordered them.
    assert_eq!(race.missing_locks, vec![dashlat_cpu::ops::LockId(0)]);

    // The rendered report names all three for humans too.
    let text = report.render();
    assert!(text.contains("P0"), "{text}");
    assert!(text.contains("P1"), "{text}");
    assert!(text.contains("line#"), "{text}");
    assert!(text.contains("missing lock 0"), "{text}");
}

#[test]
fn adding_the_lock_silences_the_report() {
    let fixed = "procs 2\n\
                 lock 0x1000\n\
                 0 A 0\n\
                 0 W 0x40\n\
                 0 L 0\n\
                 0 D\n\
                 1 A 0\n\
                 1 W 0x40\n\
                 1 L 0\n\
                 1 D\n";
    let trace = Trace::from_text(fixed).expect("trace parses");
    let report = analyze_trace("regression", &trace);
    assert!(!report.race_detected(), "{}", report.render());
    assert!(report.properly_labeled());
}
