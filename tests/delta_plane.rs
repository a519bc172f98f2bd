//! Property tests for the incremental delta plane: under **any**
//! delivery schedule — duplicated frames, reordered frames, dropped
//! frames with later retransmits, lost acks, and mid-stream resyncs —
//! the referee's incrementally maintained live union must stay
//! canonical-bytes identical to a clean one-shot full ship of every
//! party's final state. This is the delta protocol's whole contract
//! made executable: if it breaks, steady-state delta frames silently
//! diverge from the paper's send-everything-once semantics.

use proptest::collection::vec;
use proptest::prelude::*;

use gt_sketch::streams::{
    encode_full_frame, encode_sketch, DeltaParty, PartyMessage, Receipt, RefereeOf,
};
use gt_sketch::SketchConfig;

/// Small capacities + trials so level promotions (and therefore
/// level-raise notices inside delta frames) happen on small inputs.
fn small_config() -> SketchConfig {
    SketchConfig::from_shape(0.3, 0.3, 16, 5, gt_sketch::HashFamilyKind::Pairwise).unwrap()
}

/// SplitMix64: `mix64` adds the increment this steps `state` by.
fn splitmix(state: &mut u64) -> u64 {
    let z = gt_sketch::mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

const MASTER_SEED: u64 = 0xD1_7A;

/// Drive `parties` through their observation batches against one live
/// referee, with the frame traffic scheduled adversarially from
/// `schedule`: steps interleave observe+emit, in-flight delivery in
/// random order (reordering), true drops, duplicate redeliveries, and
/// 25% ack loss. Returns the referee once every party's final
/// generation is acked.
fn run_schedule(
    batches: &[Vec<Vec<u64>>],
    mut schedule: u64,
) -> (RefereeOf<()>, Vec<DeltaParty<()>>) {
    let config = small_config();
    let mut referee: RefereeOf<()> = RefereeOf::new(&config, MASTER_SEED);
    let mut parties: Vec<DeltaParty<()>> = (0..batches.len())
        .map(|id| DeltaParty::new(id, &config, MASTER_SEED))
        .collect();
    let mut next_batch: Vec<usize> = vec![0; batches.len()];
    let mut in_flight: Vec<PartyMessage> = Vec::new();
    let mut delivered: Vec<PartyMessage> = Vec::new();

    let deliver = |msg: PartyMessage,
                   referee: &mut RefereeOf<()>,
                   parties: &mut Vec<DeltaParty<()>>,
                   in_flight: &mut Vec<PartyMessage>,
                   delivered: &mut Vec<PartyMessage>,
                   drop_ack: bool| {
        let pid = msg.party_id;
        match referee.receive_frame(&msg).expect("well-formed frame") {
            Receipt::Merged | Receipt::MergedVariant | Receipt::Duplicate => {
                if !drop_ack {
                    if let Some(g) = referee.acked_generation(pid) {
                        parties[pid].handle_ack(g);
                    }
                }
            }
            Receipt::NeedResync => {
                // The referee lost this frame's base: the party falls
                // back to a full frame from scratch.
                parties[pid].handle_resync();
                in_flight.push(parties[pid].emit_frame());
            }
        }
        delivered.push(msg);
    };

    for _ in 0..2_000 {
        let all_observed = next_batch.iter().zip(batches).all(|(&n, b)| n == b.len());
        let all_acked = parties
            .iter()
            .all(|p| p.acked_generation() == Some(p.generation()) || p.generation() == 0);
        if all_observed && all_acked && in_flight.is_empty() {
            break;
        }
        match splitmix(&mut schedule) % 8 {
            // Observe the next batch somewhere and emit a frame.
            0..=2 => {
                let ready: Vec<usize> = (0..parties.len())
                    .filter(|&p| next_batch[p] < batches[p].len())
                    .collect();
                if let Some(&pid) = ready.get(splitmix(&mut schedule) as usize % ready.len().max(1))
                {
                    for &label in &batches[pid][next_batch[pid]] {
                        parties[pid].observe_with(gt_sketch::fold61(label), ());
                    }
                    next_batch[pid] += 1;
                    in_flight.push(parties[pid].emit_frame());
                }
            }
            // Deliver a random in-flight frame (random order = reorder),
            // sometimes losing the ack on the return path.
            3..=5 => {
                if !in_flight.is_empty() {
                    let i = splitmix(&mut schedule) as usize % in_flight.len();
                    let msg = in_flight.swap_remove(i);
                    let drop_ack = splitmix(&mut schedule).is_multiple_of(4);
                    deliver(
                        msg,
                        &mut referee,
                        &mut parties,
                        &mut in_flight,
                        &mut delivered,
                        drop_ack,
                    );
                }
            }
            // Redeliver an already-delivered frame (duplicate).
            6 => {
                if !delivered.is_empty() {
                    let i = splitmix(&mut schedule) as usize % delivered.len();
                    let msg = delivered[i].clone();
                    deliver(
                        msg,
                        &mut referee,
                        &mut parties,
                        &mut in_flight,
                        &mut delivered,
                        true,
                    );
                }
            }
            // Drop an in-flight frame outright: later cumulative deltas
            // (coded against the last *acked* base) cover its changes.
            _ => {
                if !in_flight.is_empty() {
                    let i = splitmix(&mut schedule) as usize % in_flight.len();
                    in_flight.swap_remove(i);
                }
            }
        }
    }

    // Drain: finish observations, then deliver (acking faithfully) and
    // re-emit until every party's final generation is acked.
    for pid in 0..parties.len() {
        while next_batch[pid] < batches[pid].len() {
            for &label in &batches[pid][next_batch[pid]] {
                parties[pid].observe_with(gt_sketch::fold61(label), ());
            }
            next_batch[pid] += 1;
        }
    }
    for _ in 0..200 {
        if let Some(msg) = in_flight.pop() {
            deliver(
                msg,
                &mut referee,
                &mut parties,
                &mut in_flight,
                &mut delivered,
                false,
            );
            continue;
        }
        let Some(pid) = (0..parties.len()).find(|&p| {
            parties[p].generation() > 0
                && parties[p].acked_generation() != Some(parties[p].generation())
        }) else {
            break;
        };
        in_flight.push(parties[pid].emit_frame());
    }
    for p in &parties {
        assert!(
            p.generation() == 0 || p.acked_generation() == Some(p.generation()),
            "drain must converge (party {} at gen {} acked {:?})",
            p.id(),
            p.generation(),
            p.acked_generation()
        );
    }
    (referee, parties)
}

/// One clean full ship of each party's final state into a fresh referee.
fn one_shot_full_ship(parties: &[DeltaParty<()>]) -> RefereeOf<()> {
    let mut fresh: RefereeOf<()> = RefereeOf::new(&small_config(), MASTER_SEED);
    for p in parties {
        let msg = PartyMessage {
            party_id: p.id(),
            payload: encode_full_frame(p.sketch(), 1),
            items_observed: p.sketch().items_observed(),
        };
        let receipt = fresh.receive_frame(&msg).expect("clean full frame");
        assert!(matches!(receipt, Receipt::Merged));
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any dup/reorder/drop/resync schedule leaves the live union
    /// canonical-bytes identical to a clean one-shot full ship.
    #[test]
    fn any_delivery_schedule_preserves_the_live_union(
        batches in vec(vec(vec(0u64..3_000, 0..120), 1..6), 1..4),
        schedule in any::<u64>(),
    ) {
        let (live, parties) = run_schedule(&batches, schedule);
        let fresh = one_shot_full_ship(&parties);
        prop_assert_eq!(
            encode_sketch(live.union_sketch()),
            encode_sketch(fresh.union_sketch())
        );
        // Exactly-once accounting survives the schedule too.
        let live_items: u64 = parties.iter().map(|p| p.sketch().items_observed()).sum();
        prop_assert_eq!(live.items_reported(), live_items);
    }

    /// Forcing traffic through the resync path (the referee forgets a
    /// party between frames) still converges to the clean union.
    #[test]
    fn resync_after_referee_amnesia_recovers_exactly(
        rounds in vec(vec(0u64..2_000, 1..150), 2..5),
        schedule in any::<u64>(),
    ) {
        let config = small_config();
        let mut schedule = schedule;
        let mut live: RefereeOf<()> = RefereeOf::new(&config, MASTER_SEED);
        let mut party: DeltaParty<()> = DeltaParty::new(0, &config, MASTER_SEED);
        for round in &rounds {
            for &label in round {
                party.observe_with(gt_sketch::fold61(label), ());
            }
            let msg = party.emit_frame();
            // Half the time the frame is lost before the referee sees it.
            if splitmix(&mut schedule).is_multiple_of(2) {
                continue;
            }
            match live.receive_frame(&msg).expect("well-formed frame") {
                Receipt::Merged | Receipt::MergedVariant | Receipt::Duplicate => {
                    if let Some(g) = live.acked_generation(0) {
                        party.handle_ack(g);
                    }
                }
                Receipt::NeedResync => {
                    party.handle_resync();
                    let full = party.emit_frame();
                    prop_assert!(matches!(
                        live.receive_frame(&full).expect("full resync frame"),
                        Receipt::Merged
                    ));
                    if let Some(g) = live.acked_generation(0) {
                        party.handle_ack(g);
                    }
                }
            }
        }
        // Final flush so the live union covers everything observed.
        loop {
            let msg = party.emit_frame();
            match live.receive_frame(&msg).expect("well-formed frame") {
                Receipt::Merged | Receipt::MergedVariant | Receipt::Duplicate => {
                    if let Some(g) = live.acked_generation(0) {
                        party.handle_ack(g);
                    }
                    break;
                }
                Receipt::NeedResync => party.handle_resync(),
            }
        }
        let fresh = one_shot_full_ship(std::slice::from_ref(&party));
        prop_assert_eq!(
            encode_sketch(live.union_sketch()),
            encode_sketch(fresh.union_sketch())
        );
    }
}
