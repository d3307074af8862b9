//! Replays one term of an attack through the public layer functions —
//! `cofactor_simplify`, `build_miter`, `encode`, `assert_value` /
//! `assert_equal`, `Solver::solve` and a `RestrictedOracle` — timing each
//! layer. The replay follows the engine's DIP loop step for step, so its
//! solver counters and DIP count must equal the engine's; a mismatch means
//! the split it reports does not describe the engine's run.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use polykey_attack::{Oracle, RestrictedOracle, SimOracle};
use polykey_encode::{assert_equal, assert_value, build_miter, encode, Binding, CnfValue};
use polykey_netlist::{cofactor_simplify, Netlist, NodeId};
use polykey_sat::{Lit, SolveResult, Solver, SolverConfig, SolverStats};

use crate::workload::Result;

/// The term to replay and the engine settings it ran under.
pub struct TermSpec<'a> {
    /// Split ports in pattern-bit order; the term pins the first `width`.
    pub split_inputs: &'a [NodeId],
    pub pattern: u64,
    pub width: u8,
    /// False for the one-key attack, which attacks the locked netlist as
    /// is; every multi-key term is cofactored and simplified first.
    pub cofactored: bool,
    pub dip_batch: usize,
    pub dip_budget: Option<u64>,
}

/// Time per layer, summed over the replay.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub cofactor: Duration,
    pub miter: Duration,
    /// Constraint copies: `encode` plus the `assert_value` /
    /// `assert_equal` clauses tying them to responses.
    pub copy: Duration,
    pub solve: Duration,
    pub oracle: Duration,
    pub copies: u64,
    pub copy_vars: u64,
    pub solves: u64,
}

pub struct Replay {
    pub times: LayerTimes,
    pub solver: SolverStats,
    pub dips: u64,
    pub dip_patterns: Vec<Vec<bool>>,
}

pub fn replay_term(
    locked: &Netlist,
    original: &Netlist,
    term: &TermSpec<'_>,
) -> Result<Replay> {
    let mut times = LayerTimes::default();
    let width = usize::from(term.width);
    let pins: Vec<(NodeId, bool)> = term.split_inputs[..width]
        .iter()
        .enumerate()
        .map(|(j, &id)| (id, term.pattern >> j & 1 == 1))
        .collect();
    let start = Instant::now();
    let netlist: Cow<'_, Netlist> = if term.cofactored {
        Cow::Owned(cofactor_simplify(locked, &pins)?.0)
    } else {
        Cow::Borrowed(locked)
    };
    times.cofactor = start.elapsed();
    let netlist: &Netlist = &netlist;
    let forced: Vec<(usize, bool)> = pins
        .iter()
        .map(|&(id, value)| {
            let pos = locked.inputs().iter().position(|&p| p == id).ok_or("split port")?;
            Ok((pos, value))
        })
        .collect::<Result<_>>()?;

    let mut solver = Solver::with_config(SolverConfig::default());
    let start = Instant::now();
    let miter = build_miter(&mut solver, netlist, netlist)?;
    for &(idx, value) in &forced {
        let lit = miter.inputs[idx];
        solver.add_clause(&[if value { lit } else { !lit }]);
    }
    times.miter = start.elapsed();

    let mut oracle = RestrictedOracle::new(SimOracle::new(original)?, forced);
    let mut dips = 0u64;
    let mut dip_patterns = Vec::new();
    let extract_dip = |solver: &Solver| -> Vec<bool> {
        miter.inputs.iter().map(|&l| solver.model_value(l).unwrap_or(false)).collect()
    };
    loop {
        match timed_solve(&mut solver, &[miter.diff], &mut times) {
            SolveResult::Sat => {}
            SolveResult::Unsat => {
                solver.set_time_budget(None);
                timed_solve(&mut solver, &[], &mut times);
                break;
            }
            SolveResult::Unknown => return Err("replay solve gave up without a budget".into()),
        }
        if term.dip_budget.is_some_and(|budget| dips >= budget) {
            break;
        }
        let target = match term.dip_budget {
            Some(budget) => {
                term.dip_batch.max(1).min(budget.saturating_sub(dips).max(1) as usize)
            }
            None => term.dip_batch.max(1),
        };
        let mut batch: Vec<PendingDip> = Vec::new();
        let mut dip = extract_dip(&solver);
        loop {
            if batch.len() + 1 >= target {
                batch.push(PendingDip { dip, copies: None });
                break;
            }
            let start = Instant::now();
            let left = encode_copy(&mut solver, netlist, &dip, &miter.keys_left, &mut times)?;
            let right = encode_copy(&mut solver, netlist, &dip, &miter.keys_right, &mut times)?;
            for (&l, &r) in left.iter().zip(&right) {
                assert_equal(&mut solver, l, r);
            }
            times.copy += start.elapsed();
            batch.push(PendingDip { dip, copies: Some([left, right]) });
            match timed_solve(&mut solver, &[miter.diff], &mut times) {
                SolveResult::Sat => dip = extract_dip(&solver),
                SolveResult::Unsat | SolveResult::Unknown => break,
            }
        }
        let patterns: Vec<Vec<bool>> = batch.iter().map(|p| p.dip.clone()).collect();
        let start = Instant::now();
        let responses = oracle.query_batch(&patterns);
        times.oracle += start.elapsed();
        for (PendingDip { dip, copies }, response) in batch.into_iter().zip(&responses) {
            dips += 1;
            let start = Instant::now();
            match copies {
                Some(copies) => {
                    for outputs in &copies {
                        assert_outputs(&mut solver, outputs, response);
                    }
                }
                None => {
                    for keys in [&miter.keys_left, &miter.keys_right] {
                        let outputs =
                            encode_copy(&mut solver, netlist, &dip, keys, &mut times)?;
                        assert_outputs(&mut solver, &outputs, response);
                    }
                }
            }
            times.copy += start.elapsed();
            dip_patterns.push(dip);
        }
    }
    Ok(Replay { times, solver: *solver.stats(), dips, dip_patterns })
}

/// A harvested DIP awaiting its oracle answer. All but the last DIP of a
/// batch carry the constraint copies encoded to steer the harvest.
struct PendingDip {
    dip: Vec<bool>,
    copies: Option<[Vec<CnfValue>; 2]>,
}

fn timed_solve(
    solver: &mut Solver,
    assumptions: &[Lit],
    times: &mut LayerTimes,
) -> SolveResult {
    let start = Instant::now();
    let result = solver.solve(assumptions);
    times.solve += start.elapsed();
    times.solves += 1;
    result
}

/// One folded constraint copy at `dip` (inputs pinned, keys shared); the
/// caller times it as part of the copy layer.
fn encode_copy(
    solver: &mut Solver,
    netlist: &Netlist,
    dip: &[bool],
    keys: &[Lit],
    times: &mut LayerTimes,
) -> Result<Vec<CnfValue>> {
    let vars_before = solver.num_vars();
    let binding = Binding::with_pinned_inputs_shared_keys(dip, keys);
    let outputs = encode(solver, netlist, &binding)?.outputs;
    times.copies += 1;
    times.copy_vars += (solver.num_vars() - vars_before) as u64;
    Ok(outputs)
}

fn assert_outputs(solver: &mut Solver, outputs: &[CnfValue], response: &[bool]) {
    for (out, &bit) in outputs.iter().zip(response) {
        assert_value(solver, *out, bit);
    }
}
