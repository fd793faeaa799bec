//! Badge-to-badge links: 868 MHz proximity, infrared face-to-face contacts,
//! and opportunistic time-sync with the reference badge.

use crate::clockdrift::ClockSet;
use crate::records::{BadgeId, ProximityObs, SyncSample};
use crate::world::World;
use ares_crew::truth::{MissionTruth, WearState};
use ares_habitat::rf::Reception;
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::{Point2, Vec2};
use ares_simkit::time::SimTime;
use rand::Rng;

/// Samples the 868 MHz proximity observations a badge makes at one instant:
/// which other units it hears and at what RSSI, over exact geometry (a wall
/// scan per link). The scalar reference for [`proximity_sweep_into`].
pub fn proximity_sweep(
    world: &World,
    listener: BadgeId,
    listener_pos: Point2,
    units: &[(BadgeId, Point2)],
    t_local: SimTime,
    rng: &mut impl Rng,
) -> Vec<ProximityObs> {
    let mut out = Vec::new();
    for &(other, pos) in units {
        if other == listener {
            continue;
        }
        let d = pos.distance(listener_pos);
        let walls = world.plan.walls_crossed(pos, listener_pos);
        if let Reception::Received(rssi) = world.sub_ghz.transmit_known_walls(d, walls, rng) {
            out.push(ProximityObs {
                t_local,
                other,
                rssi,
            });
        }
    }
    out
}

/// [`proximity_sweep`] for the batched recording kernel, with every unit's
/// room pre-resolved and appending into a caller-owned buffer (not cleared),
/// so the tick loop reuses one allocation across every sweep of a unit-day.
///
/// Same-room links skip geometry entirely (convex rooms cross zero walls).
/// Cross-room links are first tested against the plan's
/// [`wall_floor`](ares_habitat::floorplan::FloorPlan::wall_floor) lower
/// bound — a pair whose *best possible* RSSI is below sensitivity is dropped
/// without touching geometry or randomness, which is exactly what the exact
/// path's pre-draw early-out would do with the true wall count — and
/// transmitters parked at the station resolve wall counts from the station's
/// field-cache table. Observation order and RNG consumption are identical to
/// [`proximity_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn proximity_sweep_into(
    world: &World,
    listener: BadgeId,
    listener_pos: Point2,
    listener_room: RoomId,
    units: &[(BadgeId, Point2, RoomId)],
    t_local: SimTime,
    rng: &mut impl Rng,
    out: &mut Vec<ProximityObs>,
) {
    let params = world.sub_ghz.params();
    for &(other, pos, other_room) in units {
        if other == listener {
            continue;
        }
        let d = pos.distance(listener_pos);
        let walls = if other_room == listener_room {
            0
        } else {
            let floor = world.plan.wall_floor(other_room, listener_room);
            if floor >= 2
                && params.mean_rssi(d, floor) + 6.0 * params.shadowing_sigma_db
                    < params.sensitivity_dbm
            {
                // Even the wall-count lower bound puts the link below
                // sensitivity: the exact path would early-out before
                // drawing, so skipping here stays bit-identical.
                continue;
            }
            if pos == world.station {
                // Docked / uncarried transmitters sit exactly at the
                // station — resolved from its per-cell table.
                world
                    .field_cache()
                    .walls_from(&world.plan, world.station_source(), listener_pos)
            } else {
                world.plan.walls_crossed(pos, listener_pos)
            }
        };
        if let Reception::Received(rssi) = world.sub_ghz.transmit_known_walls(d, walls, rng) {
            out.push(ProximityObs {
                t_local,
                other,
                rssi,
            });
        }
    }
}

/// Samples an infrared exchange between two *worn* badges in the batched
/// recording kernel. Badges on desks or chargers never register IR contacts
/// (nobody faces them). Same-room exchanges (the overwhelmingly common case
/// within the 2 m IR range) skip the wall scan — rooms are convex, so the
/// count is zero by construction; other pairs run the full visibility test.
/// The scalar reference calls [`InfraredParams::detect`] directly, which
/// makes the same single draw.
///
/// [`InfraredParams::detect`]: ares_habitat::rf::InfraredParams::detect
#[allow(clippy::too_many_arguments)]
pub fn ir_exchange(
    world: &World,
    a_pos: Point2,
    a_facing: Vec2,
    a_wear: WearState,
    a_room: RoomId,
    b_pos: Point2,
    b_facing: Vec2,
    b_wear: WearState,
    b_room: RoomId,
    rng: &mut impl Rng,
) -> bool {
    if !a_wear.is_worn() || !b_wear.is_worn() {
        return false;
    }
    let visible = if a_room == b_room {
        world
            .ir
            .mutually_visible_known_walls(0, a_pos, a_facing, b_pos, b_facing)
    } else {
        world
            .ir
            .mutually_visible(&world.plan, a_pos, a_facing, b_pos, b_facing)
    };
    visible && rng.gen::<f64>() < world.ir.detection_prob
}

/// Attempts an opportunistic sync exchange with the reference badge: succeeds
/// when the badge's BLE link to the station is up, and records both local
/// clocks' readings of the same true instant. Exact geometry: the station
/// link's wall count comes from a wall scan per attempt.
pub fn sync_attempt(
    world: &World,
    clocks: &ClockSet,
    badge: BadgeId,
    badge_pos: Point2,
    t_true: SimTime,
    rng: &mut impl Rng,
) -> Option<SyncSample> {
    let walls = world.plan.walls_crossed(world.station, badge_pos);
    let mean = world
        .ble
        .params()
        .mean_rssi(world.station.distance(badge_pos), walls);
    sync_attempt_with_mean(world, clocks, badge, mean, t_true, rng)
}

/// The run-level half of [`sync_attempt`]: the station link's deterministic
/// mean RSSI for a badge at `badge_pos`, with the wall count looked up in the
/// station's field-cache table, hoisted once per dwell run. Feeding it to
/// [`sync_attempt_with_mean`] reproduces [`sync_attempt`] bit-for-bit (the
/// cache's wall count is the exact one, so the mean is too).
#[must_use]
pub fn sync_link_mean(world: &World, badge_pos: Point2) -> f64 {
    let walls = world
        .field_cache()
        .walls_from(&world.plan, world.station_source(), badge_pos);
    let d = world.station.distance(badge_pos);
    world.ble.params().mean_rssi(d, walls)
}

/// The draw half of a sync exchange, given the station link's mean RSSI:
/// [`sync_attempt`] passes the exact mean, the batched kernel the one
/// hoisted by [`sync_link_mean`]. The reference unit never syncs to itself
/// and never draws.
pub fn sync_attempt_with_mean(
    world: &World,
    clocks: &ClockSet,
    badge: BadgeId,
    mean: f64,
    t_true: SimTime,
    rng: &mut impl Rng,
) -> Option<SyncSample> {
    if badge == BadgeId::REFERENCE {
        return None;
    }
    match world.ble.transmit_precomputed_mean(mean, rng) {
        Reception::Received(_) => Some(SyncSample {
            t_local: clocks.clock(badge).local_time(t_true),
            t_reference: clocks.reference().local_time(t_true),
        }),
        Reception::Lost => None,
    }
}

/// Helper bundling the facing vector of a badge's wearer (or `None` when the
/// badge is off-body).
#[must_use]
pub fn worn_facing(
    world: &World,
    badge: BadgeId,
    t: SimTime,
    truth: &MissionTruth,
) -> Option<Vec2> {
    let carrier = world.carrier_of(badge, t.mission_day())?;
    let a = truth.of(carrier);
    if !a.wear_state(t).is_worn() {
        return None;
    }
    a.facing(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::cell_edge_lattice;
    use ares_habitat::rooms::RoomId;
    use ares_simkit::rng::SeedTree;
    use ares_simkit::time::SimDuration;

    #[test]
    fn proximity_hears_same_room_not_far_rooms() {
        let world = World::icares();
        let mut rng = SeedTree::new(20).stream("prox");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let office = world.plan.room_center(RoomId::Office);
        let units = vec![
            (BadgeId(1), kitchen + Vec2::new(1.0, 0.0), RoomId::Kitchen),
            (BadgeId(2), office, RoomId::Office),
        ];
        let positions: Vec<_> = units.iter().map(|&(id, pos, _)| (id, pos)).collect();
        let mut heard1 = 0;
        let mut heard2 = 0;
        let mut obs = Vec::new();
        for i in 0..200 {
            let t = SimTime::from_secs(i);
            obs.clear();
            proximity_sweep_into(
                &world,
                BadgeId(0),
                kitchen,
                RoomId::Kitchen,
                &units,
                t,
                &mut rng,
                &mut obs,
            );
            obs.extend(proximity_sweep(
                &world,
                BadgeId(0),
                kitchen,
                &positions,
                t,
                &mut rng,
            ));
            heard1 += obs.iter().filter(|o| o.other == BadgeId(1)).count();
            heard2 += obs.iter().filter(|o| o.other == BadgeId(2)).count();
        }
        assert!(heard1 > 300, "same-room unit heard {heard1}");
        assert_eq!(heard2, 0, "cross-habitat unit must be shielded");
    }

    #[test]
    fn ir_requires_worn_badges() {
        let world = World::icares();
        let mut rng = SeedTree::new(21).stream("ir");
        let p = world.plan.room_center(RoomId::Kitchen);
        let q = p + Vec2::new(1.0, 0.0);
        let east = Vec2::new(1.0, 0.0);
        let west = Vec2::new(-1.0, 0.0);
        let mut worn_hits = 0;
        for _ in 0..100 {
            if ir_exchange(
                &world,
                p,
                east,
                WearState::Worn,
                RoomId::Kitchen,
                q,
                west,
                WearState::Worn,
                RoomId::Kitchen,
                &mut rng,
            ) {
                worn_hits += 1;
            }
            assert!(!ir_exchange(
                &world,
                p,
                east,
                WearState::Docked,
                RoomId::Kitchen,
                q,
                west,
                WearState::Worn,
                RoomId::Kitchen,
                &mut rng
            ));
        }
        assert!(worn_hits > 60);
    }

    #[test]
    fn sync_works_near_station_and_is_consistent() {
        let world = World::icares();
        let clocks = ClockSet::generate(&SeedTree::new(7));
        let mut rng = SeedTree::new(22).stream("sync");
        let t = SimTime::from_day_hms(3, 22, 0, 0);
        // Docked at the station: sync succeeds almost always.
        let mut got = None;
        for _ in 0..20 {
            if let Some(s) = sync_attempt(&world, &clocks, BadgeId(0), world.station, t, &mut rng) {
                got = Some(s);
                break;
            }
        }
        let s = got.expect("sync at the station");
        // The pair encodes the true offset between the two clocks.
        let expected = clocks.clock(BadgeId(0)).local_time(t) - clocks.reference().local_time(t);
        assert!(((s.t_local - s.t_reference) - expected).abs() < SimDuration::from_micros(1));
        // Far away behind walls: never syncs, exact or cache-hoisted.
        let biolab = world.plan.room_center(RoomId::Biolab);
        let mean = sync_link_mean(&world, biolab);
        for _ in 0..50 {
            assert!(sync_attempt(&world, &clocks, BadgeId(0), biolab, t, &mut rng).is_none());
            assert!(
                sync_attempt_with_mean(&world, &clocks, BadgeId(0), mean, t, &mut rng).is_none()
            );
        }
    }

    #[test]
    fn reference_never_syncs_to_itself() {
        let world = World::icares();
        let clocks = ClockSet::generate(&SeedTree::new(7));
        let mut rng = SeedTree::new(23).stream("sync2");
        assert!(sync_attempt(
            &world,
            &clocks,
            BadgeId::REFERENCE,
            world.station,
            SimTime::from_secs(0),
            &mut rng
        )
        .is_none());
    }

    /// Asserts two RNG streams are at the same position (the cached and
    /// exact halves of a pair consumed identical randomness).
    fn assert_same_stream(a: &mut impl Rng, b: &mut impl Rng) {
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG consumption diverged");
    }

    #[test]
    fn proximity_sweep_into_matches_exact_sweep_on_the_cell_edge_lattice() {
        // The listener walks the cell-edge lattice; transmitters sit at every
        // room centre and at the station, so same-room shortcuts, wall-floor
        // culls, station-table lookups and doorway links all fire.
        let world = World::icares();
        let others: Vec<Point2> = RoomId::ALL
            .iter()
            .map(|&r| world.plan.room_center(r))
            .chain([world.station])
            .collect();
        let mut obs = Vec::new();
        let (mut heard, mut cross_room) = (0, 0);
        for (case, listener_pos) in cell_edge_lattice(&world).into_iter().enumerate() {
            let listener_room = world.cached_room_at(listener_pos);
            let units: Vec<(BadgeId, Point2, RoomId)> = [listener_pos]
                .iter()
                .chain(&others)
                .enumerate()
                .map(|(i, &p)| (BadgeId(i as u8), p, world.cached_room_at(p)))
                .collect();
            let positions: Vec<(BadgeId, Point2)> =
                units.iter().map(|&(id, p, _)| (id, p)).collect();
            let t = SimTime::from_secs(case as i64);
            let seed = SeedTree::new(4321).stream_indexed("prox-edge", case as u64);
            let (mut rng_cached, mut rng_exact) = (seed.clone(), seed);
            obs.clear();
            proximity_sweep_into(
                &world,
                BadgeId(0),
                listener_pos,
                listener_room,
                &units,
                t,
                &mut rng_cached,
                &mut obs,
            );
            let exact = proximity_sweep(
                &world,
                BadgeId(0),
                listener_pos,
                &positions,
                t,
                &mut rng_exact,
            );
            let at = format!("at ({}, {})", listener_pos.x, listener_pos.y);
            assert_eq!(obs, exact, "{at}");
            let bits =
                |o: &[ProximityObs]| -> Vec<u64> { o.iter().map(|o| o.rssi.to_bits()).collect() };
            assert_eq!(bits(&obs), bits(&exact), "{at}");
            assert_same_stream(&mut rng_cached, &mut rng_exact);
            heard += exact.len();
            cross_room += exact
                .iter()
                .filter(|o| units[o.other.0 as usize].2 != listener_room)
                .count();
        }
        assert!(
            cross_room > 0 && heard > cross_room,
            "{heard} links, {cross_room} cross-room"
        );
    }

    #[test]
    fn sync_link_mean_matches_exact_sync_attempt_on_the_cell_edge_lattice() {
        let world = World::icares();
        let clocks = ClockSet::generate(&SeedTree::new(7));
        let mut synced = 0;
        let lattice = cell_edge_lattice(&world);
        for (case, &pos) in lattice.iter().enumerate() {
            let mean = sync_link_mean(&world, pos);
            let seed = SeedTree::new(2468).stream_indexed("sync-edge", case as u64);
            let (mut rng_cached, mut rng_exact) = (seed.clone(), seed);
            for tick in 0..8 {
                let t = SimTime::from_day_hms(3, 12, 0, tick);
                let exact = sync_attempt(&world, &clocks, BadgeId(3), pos, t, &mut rng_exact);
                let cached =
                    sync_attempt_with_mean(&world, &clocks, BadgeId(3), mean, t, &mut rng_cached);
                assert_eq!(cached, exact, "at ({}, {})", pos.x, pos.y);
                synced += usize::from(exact.is_some());
            }
            assert_same_stream(&mut rng_cached, &mut rng_exact);
        }
        assert!(synced > 0 && synced < lattice.len() * 8, "{synced} syncs");
    }
}
