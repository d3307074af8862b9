//! AppSAT-style approximate attack (Shamsi et al., HOST'17) — an extension
//! beyond the paper.
//!
//! Point-function schemes like SARLock survive the exact SAT attack by
//! making every wrong key *almost* correct: each wrong key errs on a
//! vanishing fraction of inputs. The approximate attack exploits exactly
//! that: it interleaves a few exact DIP iterations with batches of random
//! oracle queries, tracks the candidate key's empirical error rate, and
//! stops as soon as the estimate drops below a threshold. Against SARLock
//! it returns an approximately-correct key after a handful of iterations —
//! a useful contrast to the paper's multi-key attack, which achieves *exact*
//! functional recovery by combining sub-space keys.

use std::time::{Duration, Instant};

use polykey_encode::{assert_value, build_miter, PinnedCopyEncoder};
use polykey_locking::Key;
use polykey_netlist::{Netlist, Simulator};
use polykey_sat::{Lit, SolveResult, Solver, SolverConfig};

use crate::error::AttackError;
use crate::oracle::Oracle;

/// Tuning knobs for the approximate attack.
#[derive(Clone, Debug)]
#[must_use]
pub struct AppSatConfig {
    /// Maximum outer rounds before giving up.
    pub max_rounds: usize,
    /// Exact DIP iterations per round.
    pub dips_per_round: u64,
    /// Random reinforcement queries per round (mismatching ones are added
    /// as constraints).
    pub queries_per_round: usize,
    /// Accept the candidate key when its sampled error rate is at most
    /// this.
    pub error_threshold: f64,
    /// Seed for the random query stream.
    pub seed: u64,
    /// Solver configuration.
    pub solver: SolverConfig,
}

impl Default for AppSatConfig {
    fn default() -> AppSatConfig {
        AppSatConfig {
            max_rounds: 50,
            dips_per_round: 4,
            queries_per_round: 64,
            error_threshold: 0.0,
            seed: 0xA995A7,
            solver: SolverConfig::default(),
        }
    }
}

/// The result of an approximate attack.
#[derive(Clone, Debug)]
pub struct AppSatOutcome {
    /// The candidate key (present unless the constraints became
    /// inconsistent).
    pub key: Option<Key>,
    /// The key's error rate over the final sampling batch (fraction of
    /// sampled inputs where the unlocked circuit mismatched the oracle).
    pub estimated_error: f64,
    /// True if the attack terminated through key-space exhaustion (the
    /// key is exactly correct, as in the plain SAT attack).
    pub exact: bool,
    /// Outer rounds consumed.
    pub rounds: usize,
    /// Exact DIPs found.
    pub dips: u64,
    /// Total oracle queries (DIPs + random reinforcement).
    pub oracle_queries: u64,
    /// Wall-clock time.
    pub wall_time: Duration,
}

/// Runs the approximate (AppSAT-style) attack.
///
/// # Errors
///
/// Same conditions as [`crate::sat_attack`]: oracle/netlist interface
/// mismatch or structural failures.
pub fn appsat_attack(
    locked: &Netlist,
    oracle: &mut dyn Oracle,
    config: &AppSatConfig,
) -> Result<AppSatOutcome, AttackError> {
    if oracle.num_inputs() != locked.inputs().len() {
        return Err(AttackError::OracleMismatch {
            what: "inputs",
            netlist: locked.inputs().len(),
            oracle: oracle.num_inputs(),
        });
    }
    if oracle.num_outputs() != locked.outputs().len() {
        return Err(AttackError::OracleMismatch {
            what: "outputs",
            netlist: locked.outputs().len(),
            oracle: oracle.num_outputs(),
        });
    }
    let start = Instant::now();
    let queries_start = oracle.queries();
    let mut solver = Solver::with_config(config.solver);
    let miter = build_miter(&mut solver, locked, locked)?;
    let mut copies = PinnedCopyEncoder::new(locked)?;
    let both_keys: [&[Lit]; 2] = [&miter.keys_left, &miter.keys_right];
    let mut sim = Simulator::new(locked)?;
    let ni = locked.inputs().len();

    let mut state = config.seed | 1;
    let mut next_bit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 63 == 1
    };

    let mut dips = 0u64;
    let mut exact = false;
    let mut key: Option<Key> = None;
    let mut estimated_error = 1.0;
    let mut rounds = 0usize;

    'outer: for round in 0..config.max_rounds {
        rounds = round + 1;
        // Phase 1: a few exact DIP iterations.
        for _ in 0..config.dips_per_round {
            match solver.solve(&[miter.diff]) {
                SolveResult::Sat => {
                    let dip: Vec<bool> = miter
                        .inputs
                        .iter()
                        .map(|&l| solver.model_value(l).unwrap_or(false))
                        .collect();
                    let response = oracle.query(&dip);
                    dips += 1;
                    constrain(&mut solver, &mut copies, both_keys, &dip, &response)?;
                }
                SolveResult::Unsat => {
                    exact = true;
                    break;
                }
                SolveResult::Unknown => unreachable!("no budget was set"),
            }
        }
        // Phase 2: extract the current candidate key.
        match solver.solve(&[]) {
            SolveResult::Sat => {
                key = Some(Key::new(
                    miter
                        .keys_left
                        .iter()
                        .map(|&l| solver.model_value(l).unwrap_or(false))
                        .collect(),
                ));
            }
            SolveResult::Unsat => {
                key = None;
                break 'outer;
            }
            SolveResult::Unknown => unreachable!("no budget was set"),
        }
        if exact {
            estimated_error = 0.0;
            break;
        }
        // Phase 3: random reinforcement + error estimation.
        let kb = key.as_ref().expect("set above").bits().to_vec();
        let mut mismatches = 0usize;
        for _ in 0..config.queries_per_round {
            let input: Vec<bool> = (0..ni).map(|_| next_bit()).collect();
            let response = oracle.query(&input);
            if sim.eval(&input, &kb) != response {
                mismatches += 1;
                constrain(&mut solver, &mut copies, both_keys, &input, &response)?;
            }
        }
        estimated_error = mismatches as f64 / config.queries_per_round.max(1) as f64;
        if estimated_error <= config.error_threshold {
            break;
        }
    }

    Ok(AppSatOutcome {
        key,
        estimated_error,
        exact,
        rounds,
        dips,
        oracle_queries: oracle.queries() - queries_start,
        wall_time: start.elapsed(),
    })
}

/// Adds "both key copies reproduce `response` at `input`" to the solver.
fn constrain(
    solver: &mut Solver,
    copies: &mut PinnedCopyEncoder<'_>,
    keys: [&[Lit]; 2],
    input: &[bool],
    response: &[bool],
) -> Result<(), AttackError> {
    let mut pinned = copies.pin_inputs(input)?;
    for keys in keys {
        let outputs = pinned.encode_copy(solver, keys)?;
        for (out, &want) in outputs.iter().zip(response) {
            assert_value(solver, *out, want);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use crate::verify::{random_sim_mismatches, verify_key};
    use polykey_locking::{LockScheme, Rll, Sarlock};
    use polykey_netlist::GateKind;
    use rand::SeedableRng;

    fn sample_circuit() -> Netlist {
        let mut nl = Netlist::new("s");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let g1 = nl.add_gate("g1", GateKind::And, &[ins[0], ins[1]]).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Xor, &[g1, ins[2]]).unwrap();
        let g3 = nl.add_gate("g3", GateKind::Or, &[ins[3], ins[4]]).unwrap();
        let g4 = nl.add_gate("g4", GateKind::Nand, &[g2, g3]).unwrap();
        let g5 = nl.add_gate("g5", GateKind::Xnor, &[g4, ins[5]]).unwrap();
        nl.mark_output(g2).unwrap();
        nl.mark_output(g5).unwrap();
        nl
    }

    #[test]
    fn exact_on_rll() {
        // On RLL the DIP phase exhausts the key space: exact termination.
        let nl = sample_circuit();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let locked = Rll::new(5).with_seed(4).lock_random(&nl, &mut rng).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome =
            appsat_attack(&locked.netlist, &mut oracle, &AppSatConfig::default()).unwrap();
        assert!(outcome.exact, "RLL key space collapses exactly");
        let key = outcome.key.expect("key");
        assert!(verify_key(&nl, &locked.netlist, &key).unwrap());
        assert_eq!(outcome.estimated_error, 0.0);
    }

    #[test]
    fn approximate_on_sarlock() {
        // SARLock: every wrong key errs on exactly one of 2^6 inputs. The
        // approximate attack accepts a key with low sampled error quickly.
        let nl = sample_circuit();
        let key = Key::from_u64(0b101101, 6);
        let locked = Sarlock::new(6).lock(&nl, &key).unwrap();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let config =
            AppSatConfig { dips_per_round: 2, max_rounds: 8, ..AppSatConfig::default() };
        let outcome = appsat_attack(&locked.netlist, &mut oracle, &config).unwrap();
        let got = outcome.key.expect("candidate key");
        // The candidate errs on at most a couple of the 64 input patterns.
        let mismatches = random_sim_mismatches(&nl, &locked.netlist, &got, 512, 3).unwrap();
        assert!(
            (mismatches as f64) / 512.0 <= 0.05,
            "approximate key should be nearly correct, {mismatches}/512 mismatches"
        );
        // And it used far fewer DIPs than the exact attack's ~2^6.
        assert!(outcome.dips <= 16, "got {} dips", outcome.dips);
    }

    #[test]
    fn mismatched_oracle_rejected() {
        let nl = sample_circuit();
        let mut tiny = Netlist::new("tiny");
        let a = tiny.add_input("a").unwrap();
        let y = tiny.add_gate("y", GateKind::Not, &[a]).unwrap();
        tiny.mark_output(y).unwrap();
        let mut oracle = SimOracle::new(&tiny).unwrap();
        assert!(matches!(
            appsat_attack(&nl, &mut oracle, &AppSatConfig::default()),
            Err(AttackError::OracleMismatch { .. })
        ));
    }

    #[test]
    fn keyless_is_trivially_exact() {
        let nl = sample_circuit();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let outcome = appsat_attack(&nl, &mut oracle, &AppSatConfig::default()).unwrap();
        assert!(outcome.exact);
        assert_eq!(outcome.key.expect("empty").len(), 0);
    }
}
