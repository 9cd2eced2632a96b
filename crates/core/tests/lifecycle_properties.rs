//! Property-based tests for the link lifecycle state machine: no signal
//! tape, however adversarial, may drive [`LinkLifecycle::apply`] through an
//! edge [`is_legal_transition`] forbids, and the drained log must replay the
//! applied transitions exactly, in order.

use mmreliable::linkstate::{
    is_legal_transition, LifecycleConfig, LinkLifecycle, LinkSignal, LinkState, Transition,
};
use proptest::prelude::*;

/// SNR values spanning deep outage to far above any reference, including
/// non-finite edge cases the controller itself would never produce.
fn arb_snr() -> impl Strategy<Value = f64> {
    prop_oneof![-80.0..60.0f64, Just(f64::NEG_INFINITY), Just(f64::INFINITY),]
}

fn arb_bool() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

/// An arbitrary (possibly nonsensical) controller signal.
fn arb_signal() -> impl Strategy<Value = LinkSignal> {
    prop_oneof![
        (arb_bool(), arb_snr()).prop_map(|(ok, snr_db)| LinkSignal::EstablishResult { ok, snr_db }),
        (arb_snr(), -10.0..40.0f64, arb_bool()).prop_map(|(snr_db, ref_db, unexplained_drop)| {
            LinkSignal::SnrReport {
                snr_db,
                ref_db,
                unexplained_drop,
            }
        }),
    ]
}

/// A tape of signals with strictly positive inter-signal gaps (time moves
/// forward, as it does on a real front-end clock).
fn arb_tape() -> impl Strategy<Value = Vec<(LinkSignal, f64)>> {
    prop::collection::vec((arb_signal(), 1e-4..0.2f64), 1..200).prop_map(|steps| {
        let mut t = 0.0;
        steps
            .into_iter()
            .map(|(sig, dt)| {
                t += dt;
                (sig, t)
            })
            .collect()
    })
}

proptest! {
    /// Every transition any tape produces is a legal edge, chains from the
    /// previous state, and is stamped in non-decreasing time order.
    #[test]
    fn apply_never_takes_an_illegal_edge(tape in arb_tape()) {
        let mut lc = LinkLifecycle::new(LifecycleConfig::default());
        let mut state = lc.state();
        let mut t_prev = f64::NEG_INFINITY;
        for (sig, t_s) in tape {
            let before = lc.state();
            prop_assert_eq!(before, state, "state changed outside apply");
            if let Some(tr) = lc.apply(sig, t_s) {
                prop_assert!(
                    is_legal_transition(tr.from.kind(), tr.to.kind()),
                    "illegal transition {:?} -> {:?} via {:?}",
                    tr.from.kind(), tr.to.kind(), tr.cause
                );
                prop_assert_eq!(tr.from, before, "transition must start at the live state");
                prop_assert_eq!(tr.to, lc.state(), "transition must land on the live state");
                prop_assert!(tr.t_s >= t_prev, "transition stamped backwards in time");
                t_prev = tr.t_s;
            } else {
                prop_assert_eq!(lc.state(), before, "None must mean no state change");
            }
            state = lc.state();
        }
    }

    /// The drained log is exactly the sequence of transitions `apply`
    /// returned, in application order, and draining empties the log.
    #[test]
    fn drain_log_matches_apply_order(tape in arb_tape()) {
        let mut lc = LinkLifecycle::new(LifecycleConfig::default());
        let mut applied: Vec<Transition> = Vec::new();
        for (sig, t_s) in tape {
            if let Some(tr) = lc.apply(sig, t_s) {
                applied.push(tr);
            }
        }
        let mut drained = Vec::new();
        lc.drain_log_into(&mut drained);
        prop_assert_eq!(&drained, &applied, "log order must match apply order");
        prop_assert!(lc.log().is_empty(), "drain must empty the log");
        for w in drained.windows(2) {
            prop_assert_eq!(w[0].to, w[1].from, "logged transitions must chain");
        }
    }

    /// Whatever the tape did, the machine ends in a state with at least one
    /// legal outgoing edge, and an established-link claim is consistent.
    #[test]
    fn machine_never_wedges(tape in arb_tape()) {
        let mut lc = LinkLifecycle::new(LifecycleConfig::default());
        for (sig, t_s) in tape {
            lc.apply(sig, t_s);
        }
        let kind = lc.state().kind();
        prop_assert!(
            mmreliable::linkstate::has_legal_exit(kind),
            "{kind:?} has no legal exits"
        );
        prop_assert!(
            mmreliable::linkstate::check_transition_tape(lc.log()).is_ok(),
            "recorded tape violates the lifecycle contract"
        );
        prop_assert_eq!(
            lc.state().is_established(),
            !matches!(lc.state(), LinkState::Acquiring)
        );
    }
}
