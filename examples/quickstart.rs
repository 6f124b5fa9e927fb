//! Quickstart: build the two-island platform, run RUBiS with and without
//! coordination, and print the headline comparison.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use archipelago::coord::PolicyKind;
use archipelago::platform::{PlatformBuilder, RubisScenario};
use archipelago::simcore::Nanos;

fn main() {
    println!("archipelago quickstart: 60 simulated seconds of RUBiS on the x86-IXP platform\n");
    for (label, policy) in [
        ("baseline (no coordination)", PolicyKind::None),
        (
            "coord-ixp-dom0 (request-type Tunes)",
            PolicyKind::RequestType,
        ),
    ] {
        let mut sim = PlatformBuilder::new()
            .seed(42)
            .policy(policy)
            .build_rubis(RubisScenario::read_write_mix(24));
        let report = sim.run(Nanos::from_secs(60));
        let overall = report.rubis.responses.overall();
        println!("== {label}");
        println!(
            "   throughput {:.1} req/s | sessions {} | response mean {:.0} ms, sd {:.0}, max {:.0}",
            report.rubis.throughput,
            report.rubis.sessions,
            overall.mean(),
            overall.std_dev(),
            overall.max(),
        );
        println!(
            "   dropped packets {} | coordination messages {} ({} bytes on the wire)\n",
            report.net.guest_drops, report.coord.messages_sent, report.coord.bytes_sent,
        );
    }
    println!("Run `cargo run --release -p bench --bin experiments` for every paper artifact.");
}
