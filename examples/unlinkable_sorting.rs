//! The stand-alone identity-unlinkable multiparty sorting protocol
//! (the paper's independent contribution, Sec. V phase 2).
//!
//! Five employees rank their salaries: each learns only her own position;
//! the shuffle-decrypt chain prevents anyone from linking a salary or a
//! rank to a colleague.
//!
//! ```text
//! cargo run --release --example unlinkable_sorting
//! ```

use ppgr::bigint::BigUint;
use ppgr::core::{unlinkable_sort, PartyTimer};
use ppgr::group::GroupKind;
use ppgr::net::TrafficLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let salaries = [83_000u64, 71_500, 97_250, 71_500, 64_000];
    let l = 17; // enough bits for the largest salary
    let group = GroupKind::Ecc160.group();

    println!(
        "{} parties sort privately over {l}-bit values on {}…",
        salaries.len(),
        group.kind()
    );

    let values: Vec<BigUint> = salaries.iter().map(|&s| BigUint::from(s)).collect();
    let log = TrafficLog::new();
    let mut timer = PartyTimer::new(salaries.len() + 1);
    let mut rng = StdRng::seed_from_u64(11);

    let outcome = unlinkable_sort(&group, &values, l, &mut rng, &log, &mut timer)?;

    println!("\neach party's private result (rank 1 = highest salary):");
    for (idx, rank) in outcome.ranks.iter().enumerate() {
        println!(
            "  P{} learned: my rank is {rank}   (compute: {:?})",
            idx + 1,
            timer.spent(idx + 1)
        );
    }
    println!("\nnote the tie: both 71,500 holders got the same rank.");

    let s = log.summary();
    println!(
        "\nwire: {} messages / {} bytes; the chain phase dominates: {} bytes",
        s.messages, s.total_bytes, s.bytes_by_phase["sort/chain"]
    );
    Ok(())
}
