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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

// ---- the referee's leveled summaries against sketch summaries ----

use std::fmt::Debug;
use std::hash::Hash;

use gt_core::{
    apply_delta, apply_delta_watched, delta_between, GtSketch, LatestTs, LeveledTrials,
    SortedTrials, StateKey, TrialSink,
};
use gt_streams::WirePayload;

/// A body as the referee decodes it: `body` checked against `like`'s
/// trials into a leveled view.
fn leveled<V: WirePayload>(like: &GtSketch<V>, body: &SortedTrials<V>) -> LeveledTrials<V> {
    let mut view = LeveledTrials::default();
    view.start(body.sample_entries());
    for (trial, (level, items, entries)) in like.trials().iter().zip(body.iter()) {
        view.push_checked(trial, level, items, entries)
            .expect("a body of coordinated state checks");
    }
    view
}

/// One party's summary both ways — the sketch a referee used to keep and
/// the leveled view it keeps — each with its key followed as it changes.
struct Summaries<V> {
    sketch: GtSketch<V>,
    sketch_key: StateKey,
    view: LeveledTrials<V>,
    view_key: StateKey,
}

/// What a schedule exercised: first messages, variants, applied and
/// rejected delta frames, full frames, and resyncs.
#[derive(Debug, Default)]
struct Coverage {
    firsts: u32,
    variants: u32,
    deltas: u32,
    rejected: u32,
    fulls: u32,
    resyncs: u32,
}

/// Drive a view summary and a sketch summary through one seeded schedule
/// over three parties' states: first messages and variants (the union),
/// delta frames coded against any retained snapshot of any party (so
/// some apply and some are refused), full frames, and resyncs (an orphan
/// delta, refused before the summary, then the party's full frame).
/// After every step both hold the same state, canonical bytes and key.
fn views_track_sketches<V>(payload: impl Fn(u64) -> V, seed: u64, steps: u32) -> Coverage
where
    V: WirePayload + Hash + PartialEq + Debug,
{
    let config = small_config();
    let capacity = config.capacity();
    let like = GtSketch::<V>::new(&config, MASTER_SEED);
    let mut live: Vec<GtSketch<V>> = vec![like.clone(); 3];
    let mut snapshots: Vec<Vec<GtSketch<V>>> = vec![vec![like.clone()]; 3];
    let mut summary: Option<Summaries<V>> = None;
    let mut covered = Coverage::default();
    let mut rng = seed;
    for step in 0..u64::from(steps) {
        let p = (splitmix(&mut rng) % 3) as usize;
        let op = splitmix(&mut rng) % 8;
        if op < 3 {
            // The party observes; labels overlap across parties and
            // repeat, so payloads merge and levels rise.
            for _ in 0..splitmix(&mut rng) % 40 {
                let label = gt_sketch::fold61(splitmix(&mut rng) % (40 * step + 60));
                live[p].insert_with(label, payload(step));
            }
            snapshots[p].push(live[p].clone());
            if snapshots[p].len() > 6 {
                snapshots[p].remove(0);
            }
            continue;
        }
        let state = SortedTrials::of(&live[p]);
        match (op, summary.as_mut()) {
            // A sketch message: the first one is copied, later ones union
            // in, as `receive` does.
            (3 | 4, None) => {
                let mut sketch = like.clone();
                apply_delta(&mut sketch, &state).unwrap();
                let view = leveled(&like, &state).clone();
                summary = Some(Summaries {
                    sketch_key: StateKey::of(&sketch),
                    view_key: StateKey::of_view(&view),
                    sketch,
                    view,
                });
                covered.firsts += 1;
            }
            (3 | 4, Some(s)) => {
                let nothing_to_debit = vec![0; config.trials()];
                s.sketch
                    .merge_refresh_from(&state, &nothing_to_debit)
                    .unwrap();
                s.view
                    .union_from(&leveled(&like, &state), capacity)
                    .unwrap();
                s.sketch_key = StateKey::of(&s.sketch);
                s.view_key = StateKey::of_view(&s.view);
                covered.variants += 1;
            }
            // A delta frame, coded against one of the party's retained
            // snapshots: it applies exactly where that base lies on the
            // summary's timeline and is refused, identically, elsewhere.
            (5 | 6, Some(s)) => {
                let bases = &snapshots[p];
                let base = &bases[(splitmix(&mut rng) % bases.len() as u64) as usize];
                let delta = delta_between(base, &live[p]).unwrap();
                let want = apply_delta_watched(&mut s.sketch, &delta, &mut s.sketch_key);
                let got =
                    s.view
                        .apply_delta_watched(&leveled(&like, &delta), capacity, &mut s.view_key);
                assert_eq!(got, want, "step {step}");
                match got {
                    Ok(()) => covered.deltas += 1,
                    Err(_) => covered.rejected += 1,
                }
            }
            // A full frame, after a resync or first of all: it replaces
            // the summary.
            (_, s) => {
                if s.is_some() && op == 7 {
                    covered.resyncs += 1;
                }
                let mut sketch = like.clone();
                let mut sketch_key = StateKey::of(&sketch);
                apply_delta_watched(&mut sketch, &state, &mut sketch_key).unwrap();
                let view = leveled(&like, &state).clone();
                let view_key = StateKey::of_view(&view);
                summary = Some(Summaries {
                    sketch,
                    sketch_key,
                    view,
                    view_key,
                });
                covered.fulls += 1;
            }
        }
        let s = summary
            .as_ref()
            .expect("every non-observe step leaves a summary");
        assert_eq!(s.view, LeveledTrials::of(&s.sketch), "step {step}");
        let mut materialized = like.clone();
        apply_delta(&mut materialized, s.view.sorted()).unwrap();
        assert_eq!(
            encode_sketch(&materialized),
            encode_sketch(&s.sketch),
            "step {step}"
        );
        let key = StateKey::of(&s.sketch).key(&s.sketch);
        assert_eq!(s.sketch_key.key(&s.sketch), key, "step {step}");
        assert_eq!(s.view_key.view_key(&s.view), key, "step {step}");
        // Sized to what it holds: no slack in any of its arrays.
        let entries = s.view.sorted().sample_entries();
        let exact = entries * (std::mem::size_of::<(u64, V)>() + 1)
            + config.trials() * std::mem::size_of::<(u8, u64, usize)>();
        assert_eq!(s.view.heap_bytes(), exact, "step {step}");
    }
    covered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A referee's leveled summary and the sketch summary it replaced
    /// stay equal in state, canonical bytes, key and every `Err` under
    /// any schedule of messages, variants, delta frames, full frames,
    /// resyncs and rejected frames, for label-only, keep-first and
    /// timestamped payloads.
    #[test]
    fn leveled_summaries_track_sketch_summaries(seed in any::<u64>()) {
        views_track_sketches(|_| (), seed, 120);
        views_track_sketches(|step| step, seed, 120);
        views_track_sketches(LatestTs, seed, 120);
    }
}

/// The schedules above reach every kind of step, rejected frames included.
#[test]
fn summary_schedules_cover_every_step_kind() {
    let mut total = Coverage::default();
    for seed in 0..8 {
        let c = views_track_sketches(LatestTs, seed, 200);
        total.firsts += c.firsts;
        total.variants += c.variants;
        total.deltas += c.deltas;
        total.rejected += c.rejected;
        total.fulls += c.fulls;
        total.resyncs += c.resyncs;
    }
    let Coverage {
        firsts,
        variants,
        deltas,
        rejected,
        fulls,
        resyncs,
    } = total;
    assert!(
        [firsts, variants, deltas, rejected, fulls, resyncs]
            .iter()
            .all(|&n| n > 0),
        "{total:?}"
    );
}
