//! Tiny versions of every workload run every check; tampered outputs
//! make a run fail.

use crate::scenario::{self, check_faults, Outcome, Scenario};
use crate::workload::{payload, Size, Workload, NAMES};
use an2::{FaultCounters, Packet};

fn tiny(name: &str, seed: u64) -> Workload {
    Workload::generate(name, Size::Tiny, seed).expect("known workload")
}

fn run(w: &Workload, traced: bool) -> Outcome {
    scenario::run(w, traced, 1, None)
}

#[test]
fn every_tiny_workload_passes_its_checks_and_repeats() {
    for name in NAMES {
        let w = tiny(name, 5);
        let a = run(&w, false);
        assert!(a.errors.is_empty(), "{name}: {:?}", a.errors);
        assert!(a.packets > 0 && a.packets_ok > 0, "{name}");
        if w.chaos.is_none() {
            assert_eq!(a.failed(), 0, "{name}");
            assert_eq!(a.cells_delivered, w.cells(), "{name}");
        }
        let b = run(&w, true);
        assert!(b.errors.is_empty(), "{name}: {:?}", b.errors);
        assert_eq!(a.digest, b.digest, "{name}: traced run changed the digest");
        assert_eq!(a.failed(), b.failed(), "{name}");
    }
}

#[test]
fn chaos_workload_exercises_faults_control_and_observatory() {
    let w = tiny("src_chaos_observed", 2);
    let o = run(&w, true);
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    let layer = |n: &str| o.layers.iter().find(|(k, ..)| k == n).expect(n).2;
    assert!(layer("faults.cells_lost") > 0.0);
    assert!(layer("control.messages") > 0.0);
    assert!(layer("observe.intervals") > 0.0);
    assert_eq!(layer("faults.invariant_violations"), 0.0);
}

#[test]
fn shard_count_does_not_change_the_digest() {
    let w = tiny("fattree_be", 9);
    let one = run(&w, false);
    let two = scenario::run(&w, false, 2, Some(one.digest));
    assert!(two.errors.is_empty(), "{:?}", two.errors);
    assert_eq!(one.digest, two.digest);
}

#[test]
fn self_times_and_untimed_remainder_add_up_to_total() {
    let o = run(&tiny("src_mixed", 1), true);
    let sum_ms: f64 = o
        .layers
        .iter()
        .filter(|(k, ..)| k.starts_with("self."))
        .map(|(.., v)| v)
        .sum();
    assert!(
        (sum_ms - o.total_s * 1e3).abs() < 1e-3,
        "{sum_ms} vs {}",
        o.total_s
    );
}

#[test]
fn same_seed_generates_identical_inputs() {
    for name in NAMES {
        for size in [Size::Tiny, Size::Full] {
            let a = Workload::generate(name, size, 42).expect("known");
            let b = Workload::generate(name, size, 42).expect("known");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}");
        }
    }
    let gen = |name, seed| Workload::generate(name, Size::Full, seed).expect("known");
    assert_ne!(gen("fattree_be", 1).circuits, gen("fattree_be", 2).circuits);
    let flaps = |seed| format!("{:?}", gen("src_chaos_observed", seed).chaos);
    assert_ne!(flaps(1), flaps(2));
    assert_ne!(payload(1, 0, 0, 64), payload(2, 0, 0, 64));
}

#[test]
fn corrupted_payload_fails_the_run() {
    let w = tiny("src_mixed", 3);
    let mut s = Scenario::setup(&w, false, 1);
    s.run();
    let (host, vc, packet) = s.received[0].clone();
    let mut bytes = packet.as_bytes().to_vec();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    s.received[0] = (host, vc, Packet::from_bytes(bytes));
    let o = s.finish(None);
    assert!(!o.errors.is_empty());
    assert_eq!(o.failed(), 1);
}

#[test]
fn digest_mismatch_fails_the_run() {
    let w = tiny("fattree_be", 3);
    let good = run(&w, false);
    let again = scenario::run(&w, false, 1, Some(good.digest));
    assert!(again.errors.is_empty(), "{:?}", again.errors);
    let bad = scenario::run(&w, false, 1, Some(good.digest ^ 1));
    assert!(bad.errors.iter().any(|e| e.contains("digest mismatch")));
}

#[test]
fn invariant_violation_fails_the_run() {
    let mut errors = Vec::new();
    check_faults(Some(FaultCounters::default()), &mut errors);
    check_faults(None, &mut errors);
    assert!(errors.is_empty());
    let bad = FaultCounters {
        invariant_violations: 1,
        ..FaultCounters::default()
    };
    check_faults(Some(bad), &mut errors);
    assert_eq!(errors.len(), 1);
}
