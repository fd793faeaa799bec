//! Regenerates the paper's Fig. 3: astronaut A's positional heatmap.
use ares_crew::roster::AstronautId;
fn main() {
    let (runner, mission, _) = ares_bench::run_full_mission();
    let fig = ares_icares::figures::figure3(
        &mission,
        &runner.pipeline().context().plan,
        &runner.world().beacons,
        AstronautId::A,
    );
    println!("Fig. 3 — time spent by astronaut A per 28 cm × 28 cm cell");
    println!("(log scale: ' .:-=+*#%@'; 'O' marks beacons)\n");
    println!("{}", fig.ascii);
    println!("mapped dwell: {:.0} h", fig.total_seconds / 3600.0);
    println!("\nmean distance from own-room centre (the stay-in-the-middle signature):");
    for a in AstronautId::ALL {
        println!("  {a}: {:.2} m", fig.center_distance_m[a.index()]);
    }
}
