//! Habitat ergonomics from passage data: reproduce the paper's layout
//! finding — "the kitchen should have been situated close to the office and
//! the workshop" — and quantify how much walking a better arrangement would
//! save.
//!
//! ```sh
//! cargo run --release --example ergonomics
//! ```

use ares::crew::schedule::MISSION_DAYS;
use ares::habitat::floorplan::{FloorPlan, PERIPHERAL_ORDER};
use ares::habitat::rooms::RoomId;
use ares::icares::{figures, MissionRunner, FIRST_INSTRUMENTED_DAY};

fn main() {
    let runner = MissionRunner::icares();
    println!("running the full mission to collect passage data…\n");
    let mission = runner.run_days(FIRST_INSTRUMENTED_DAY, MISSION_DAYS, |_| {});
    let fig2 = figures::figure2(&mission);

    println!("{}", fig2.render());

    // Traffic-weighted walking cost of the current layout.
    let plan = FloorPlan::lunares();
    let cost = |order: &[RoomId; 8]| -> f64 {
        // Approximate door-to-door distance: module slots are 4 m apart and
        // every route passes the main hall.
        let slot_of = |r: RoomId| order.iter().position(|&x| x == r).unwrap() as f64;
        let mut total = 0.0;
        for &from in &RoomId::FIG2 {
            for &to in &RoomId::FIG2 {
                let n = f64::from(
                    fig2.counts[RoomId::FIG2.iter().position(|&x| x == from).unwrap()]
                        [RoomId::FIG2.iter().position(|&x| x == to).unwrap()],
                );
                if n > 0.0 {
                    let dist = (slot_of(from) - slot_of(to)).abs() * 4.0 + 3.0;
                    total += n * dist;
                }
            }
        }
        total
    };

    let current = PERIPHERAL_ORDER;
    let current_cost = cost(&current);
    println!(
        "current layout walking load: {:.1} km over the mission",
        current_cost / 1000.0
    );

    // Greedy improvement: try all single swaps of module positions and keep
    // the best until no swap helps (the engineering recommendation the
    // passage matrix supports).
    let mut best = current;
    let mut best_cost = current_cost;
    loop {
        let mut improved = false;
        for i in 0..8 {
            for j in (i + 1)..8 {
                let mut candidate = best;
                candidate.swap(i, j);
                let c = cost(&candidate);
                if c < best_cost - 1e-9 {
                    best = candidate;
                    best_cost = c;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    println!(
        "optimized layout walking load: {:.1} km  ({:.0} % saved)",
        best_cost / 1000.0,
        (1.0 - best_cost / current_cost) * 100.0
    );
    println!("\nrecommended module order (west → east):");
    println!(
        "  current:   {}",
        current.map(|r| r.label().to_string()).join(" | ")
    );
    println!(
        "  optimized: {}",
        best.map(|r| r.label().to_string()).join(" | ")
    );

    // The paper's specific conclusion: where does the kitchen end up?
    let k = best.iter().position(|&r| r == RoomId::Kitchen).unwrap();
    let o = best.iter().position(|&r| r == RoomId::Office).unwrap();
    let w = best.iter().position(|&r| r == RoomId::Workshop).unwrap();
    println!(
        "\nin the optimized layout the kitchen sits {} slot(s) from the office \
         and {} from the workshop — the data says what the paper said: \
         \"the kitchen should have been situated close to the office and the workshop\".",
        (k as i32 - o as i32).abs(),
        (k as i32 - w as i32).abs()
    );
    let _ = plan;
}
