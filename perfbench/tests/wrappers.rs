//! The timing wrappers are transparent: a wrapped run gives the same
//! digest as an unwrapped one, for the first inputs of every workload.

use perfbench::workload::{first_link, member_digests, replayed_members, Workload};

#[test]
fn wrapped_links_match_unwrapped_links() {
    for w in [Workload::ReactiveMobility, Workload::MmreliableMobility] {
        let (wrapped, _) = first_link(w, 1, true).expect("wrapped link runs");
        let (plain, _) = first_link(w, 1, false).expect("unwrapped link runs");
        assert_eq!(wrapped.digest(), plain.digest(), "{}", w.name());
        wrapped.validate().expect("valid run record");
    }
}

#[test]
fn replayed_fleet_members_match_their_fleet_runs() {
    for ue in replayed_members(0) {
        let (replayed, in_shard) = member_digests(1, ue).expect("member runs");
        assert_eq!(replayed, in_shard, "fleet-impaired member ue{ue}");
    }
}
