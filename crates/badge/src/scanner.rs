//! The BLE scanner: hearing the 27 beacons.
//!
//! Every scan window the badge listens for beacon advertisements; the RF
//! channel decides which are received and at what RSSI. Because the rooms
//! are convex, a beacon in the badge's own room never crosses a wall — the
//! hot path skips the geometric test entirely. Beacons in other rooms are
//! only ever heard through open doorways (the artifact the paper's 10-second
//! dwell filter exists to suppress).
//!
//! [`scan_in`] evaluates a scan over exact geometry (the reference
//! recorder's path); the production kernel builds a field-cache-backed
//! [`scan_plan_into`] once per dwell run and replays it per tick with
//! [`scan_from_plan`], bit-identically.

use crate::records::BeaconScan;
use crate::world::World;
use ares_habitat::rf::Reception;
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::SimTime;
use rand::Rng;

/// Performs one BLE scan at the given badge position.
pub fn scan(world: &World, badge_pos: Point2, t_local: SimTime, rng: &mut impl Rng) -> BeaconScan {
    scan_in(world, world.room_at(badge_pos), badge_pos, t_local, rng)
}

/// Performs one BLE scan with the badge's room already resolved, over exact
/// geometry: a wall scan per foreign-room candidate per call. This is the
/// scalar reference the cache-backed [`scan_plan_into`] replay reproduces.
pub fn scan_in(
    world: &World,
    badge_room: RoomId,
    badge_pos: Point2,
    t_local: SimTime,
    rng: &mut impl Rng,
) -> BeaconScan {
    let mut hits = Vec::new();
    for beacon in candidate_beacons(world, badge_room) {
        let walls = if beacon.room == badge_room {
            // Convex room: zero wall crossings by construction.
            0
        } else {
            world.plan.walls_crossed(beacon.position, badge_pos)
        };
        let d = beacon.position.distance(badge_pos);
        if let Reception::Received(rssi) = world.ble.transmit_known_walls(d, walls, rng) {
            hits.push((beacon.id, rssi));
        }
    }
    BeaconScan { t_local, hits }
}

/// One audible beacon in a [`scan plan`](scan_plan_into): its id and the
/// precomputed deterministic mean RSSI at the planned badge position.
pub type ScanPlanEntry = (ares_habitat::beacons::BeaconId, f64);

/// Builds the per-run scan plan for a badge dwelling at `(badge_room,
/// badge_pos)` from the RF field cache: every candidate beacon [`scan_in`]
/// would consider, in the same order (the cache's per-room candidate list),
/// with foreign-room wall counts looked up through
/// [`walls_from`](ares_habitat::fieldcache::RfFieldCache::walls_from) and the
/// mean RSSI precomputed — minus the candidates whose mean is so deep below
/// sensitivity that [`transmit_known_walls`] would return `Lost` *before
/// drawing any randomness*. Replaying the plan with [`scan_from_plan`]
/// therefore consumes the identical RNG stream and emits bit-identical scans,
/// while the tick loop no longer touches geometry.
///
/// Means are computed through the lane-batched
/// [`mean_rssi_batch`](ares_habitat::rf::ChannelParams::mean_rssi_batch),
/// which is bit-identical to the scalar per-candidate computation.
///
/// [`transmit_known_walls`]: ares_habitat::rf::Channel::transmit_known_walls
pub fn scan_plan_into(
    world: &World,
    badge_room: RoomId,
    badge_pos: Point2,
    plan: &mut Vec<ScanPlanEntry>,
    dist_scratch: &mut Vec<f64>,
    wall_scratch: &mut Vec<f64>,
    mean_scratch: &mut Vec<f64>,
) {
    plan.clear();
    dist_scratch.clear();
    wall_scratch.clear();
    let cache = world.field_cache();
    for &bi in cache.candidates(badge_room) {
        let beacon = &world.beacons.beacons()[bi as usize];
        let walls = if beacon.room == badge_room {
            0
        } else {
            cache.walls_from(&world.plan, bi as usize, badge_pos)
        };
        plan.push((beacon.id, 0.0));
        dist_scratch.push(beacon.position.distance(badge_pos));
        wall_scratch.push(walls as f64);
    }
    mean_scratch.resize(plan.len(), 0.0);
    world
        .ble
        .params()
        .mean_rssi_batch(dist_scratch, wall_scratch, mean_scratch);
    let sigma6 = 6.0 * world.ble.params().shadowing_sigma_db;
    let sensitivity = world.ble.params().sensitivity_dbm;
    let mut kept = 0;
    for i in 0..plan.len() {
        let mean = mean_scratch[i];
        // Same pre-draw early-out as `transmit_known_walls`: these
        // candidates are Lost without consuming randomness, so dropping
        // them from the plan leaves the RNG stream untouched.
        if mean + sigma6 < sensitivity {
            continue;
        }
        plan[kept] = (plan[i].0, mean);
        kept += 1;
    }
    plan.truncate(kept);
}

/// Replays one scan tick against a precomputed plan: one reception draw per
/// audible candidate, in plan order, yielding the received `(beacon, RSSI)`
/// hits lazily so the recorder extends its flat scan column with them
/// directly. Paired with [`scan_plan_into`], yields exactly the hits
/// [`scan_in`] would at the planned position.
pub fn scan_from_plan<'a, R: Rng>(
    world: &'a World,
    plan: &'a [ScanPlanEntry],
    rng: &'a mut R,
) -> impl Iterator<Item = (ares_habitat::beacons::BeaconId, f64)> + use<'a, R> {
    plan.iter().filter_map(move |&(id, mean)| {
        let rssi = world.ble.transmit_precomputed_mean(mean, rng).rssi()?;
        Some((id, rssi))
    })
}

/// The beacons that could conceivably be heard from a room: its own plus
/// those of door-adjacent rooms (leakage through doorways).
fn candidate_beacons(
    world: &World,
    room: RoomId,
) -> impl Iterator<Item = &ares_habitat::beacons::Beacon> {
    world
        .beacons
        .beacons()
        .iter()
        .filter(move |b| b.room == room || world.plan.door_between(b.room, room).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::cell_edge_lattice;
    use ares_simkit::rng::SeedTree;

    #[test]
    fn in_room_beacons_dominate_scans() {
        let world = World::icares();
        let mut rng = SeedTree::new(8).stream("scan");
        let pos = world.plan.room_center(RoomId::Biolab);
        let mut own = 0usize;
        let mut foreign = 0usize;
        for i in 0..200 {
            let s = scan(&world, pos, SimTime::from_secs(i), &mut rng);
            for (id, _) in &s.hits {
                let b = world.beacons.get(*id).unwrap();
                if b.room == RoomId::Biolab {
                    own += 1;
                } else {
                    foreign += 1;
                }
            }
        }
        assert!(own > 400, "own-room hits {own}");
        assert_eq!(foreign, 0, "room centre must hear no foreign beacons");
    }

    #[test]
    fn doorway_positions_can_leak() {
        let world = World::icares();
        let mut rng = SeedTree::new(9).stream("scan2");
        let door = world
            .plan
            .door_between(RoomId::Biolab, RoomId::Main)
            .unwrap();
        // Standing right in the biolab doorway, main-hall beacons can slip in.
        let pos = Point2::new(door.center.x, 0.25);
        let mut foreign = 0usize;
        for i in 0..300 {
            let s = scan(&world, pos, SimTime::from_secs(i), &mut rng);
            foreign += s
                .hits
                .iter()
                .filter(|(id, _)| world.beacons.get(*id).unwrap().room == RoomId::Main)
                .count();
        }
        assert!(foreign > 0, "no doorway leakage observed");
    }

    #[test]
    fn scan_plan_replay_is_bit_identical_near_cell_boundaries() {
        // The plan is built once per dwell run from the field cache, so it
        // must reproduce the exact-geometry `scan_in` even when the badge
        // sits right on a cache cell edge — where `walls_from` and `room_of`
        // answers flip between neighbours.
        let world = World::icares();
        let mut plan = Vec::new();
        let (mut dist, mut walls, mut means) = (Vec::new(), Vec::new(), Vec::new());
        for (case, pos) in cell_edge_lattice(&world).into_iter().enumerate() {
            scan_plan_into(
                &world,
                world.cached_room_at(pos),
                pos,
                &mut plan,
                &mut dist,
                &mut walls,
                &mut means,
            );
            let seed = SeedTree::new(1234).stream_indexed("cell-edge", case as u64);
            let t = SimTime::from_secs(case as i64);
            let via_plan: Vec<_> = scan_from_plan(&world, &plan, &mut seed.clone()).collect();
            let direct = scan_in(&world, world.room_at(pos), pos, t, &mut seed.clone());
            assert_eq!(via_plan, direct.hits, "at ({}, {})", pos.x, pos.y);
            let bits = |hits: &[(ares_habitat::beacons::BeaconId, f64)]| -> Vec<u64> {
                hits.iter().map(|(_, rssi)| rssi.to_bits()).collect()
            };
            assert_eq!(bits(&via_plan), bits(&direct.hits));
        }
    }

    #[test]
    fn rssi_orders_by_distance_on_average() {
        let world = World::icares();
        let mut rng = SeedTree::new(10).stream("scan3");
        let room = RoomId::Office;
        let beacons: Vec<_> = world.beacons.in_room(room).collect();
        let near = beacons[0].position + ares_simkit::geometry::Vec2::new(0.3, -0.3);
        let mut near_sum = 0.0;
        let mut near_n = 0.0;
        let mut far_sum = 0.0;
        let mut far_n = 0.0;
        for i in 0..300 {
            let s = scan(&world, near, SimTime::from_secs(i), &mut rng);
            for (id, rssi) in &s.hits {
                if *id == beacons[0].id {
                    near_sum += rssi;
                    near_n += 1.0;
                } else if *id == beacons[1].id {
                    far_sum += rssi;
                    far_n += 1.0;
                }
            }
        }
        assert!(near_n > 0.0 && far_n > 0.0);
        assert!(near_sum / near_n > far_sum / far_n + 5.0);
    }
}
