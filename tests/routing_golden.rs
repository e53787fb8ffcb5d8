//! Routing pins for the adaptive schemes.
//!
//! D-Choices and W-Choices route through each source's `HeadTracker`, so
//! any change to the tracker's internals (layout, eviction order) could
//! shift head classification and with it every downstream load. These
//! golden vectors were recorded from the `BTreeMap`-indexed tracker that
//! preceded the slot array; they must never be re-recorded to make a
//! tracker change pass.

use partial_key_grouping::prelude::*;

/// WP at 1% scale (50k messages) through W = 50 workers and S = 5 sources,
/// stream and hash seed 42.
fn loads(scheme: SchemeSpec) -> Vec<u64> {
    let spec = DatasetProfile::wikipedia().scale(0.01).build(42);
    let report = pkg_sim::run(&spec, &SimConfig::new(50, 5, scheme));
    assert_eq!(report.messages, 50_000);
    report.worker_loads
}

#[test]
fn dchoices_worker_loads_are_pinned() {
    let golden: Vec<u64> = vec![
        1006, 1024, 911, 968, 972, 960, 933, 1139, 980, 981, 1001, 988, 996, 964, 983, 981, 1136,
        1017, 1002, 951, 955, 999, 981, 924, 978, 965, 975, 971, 1137, 995, 991, 1129, 980, 1042,
        1040, 974, 950, 964, 997, 927, 1135, 1026, 982, 1134, 986, 1023, 1011, 992, 939, 1005,
    ];
    assert_eq!(loads(SchemeSpec::d_choices(EstimateKind::Local)), golden);
}

#[test]
fn wchoices_worker_loads_are_pinned() {
    let golden: Vec<u64> = vec![
        1004, 1002, 997, 997, 998, 999, 999, 1001, 1001, 997, 1000, 1004, 1000, 998, 1000, 998,
        1004, 1002, 1003, 996, 999, 999, 1000, 997, 998, 994, 998, 999, 998, 1001, 1002, 1002, 997,
        1014, 1012, 997, 998, 996, 1006, 998, 995, 997, 1000, 997, 998, 997, 1008, 999, 999, 1005,
    ];
    assert_eq!(loads(SchemeSpec::w_choices(EstimateKind::Local)), golden);
}
