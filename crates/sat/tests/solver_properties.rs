//! Property-based and stress tests: the CDCL solver against brute force.

use proptest::prelude::*;
use rand::{RngExt, SeedableRng};

use polykey_sat::{ClauseSink, CnfFormula, Lit, SolveResult, Solver, Var};

/// Strategy: a random CNF over at most `max_vars` variables.
fn arb_cnf(
    max_vars: u32,
    max_clauses: usize,
    max_len: usize,
) -> impl Strategy<Value = CnfFormula> {
    let clause = proptest::collection::vec(
        (0..max_vars, proptest::bool::ANY).prop_map(|(v, neg)| Lit::new(Var::new(v), neg)),
        1..=max_len,
    );
    proptest::collection::vec(clause, 0..=max_clauses).prop_map(move |clauses| {
        let mut f = CnfFormula::new();
        f.set_num_vars(max_vars as usize);
        for c in clauses {
            f.add_clause(&c);
        }
        f
    })
}

/// Brute-force satisfiability of a small formula.
fn brute_force_sat(f: &CnfFormula) -> bool {
    f.count_models_brute_force() > 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force(f in arb_cnf(8, 40, 5)) {
        let mut solver = f.to_solver();
        let result = solver.solve(&[]);
        let expected = brute_force_sat(&f);
        prop_assert_eq!(result == SolveResult::Sat, expected);
        if result == SolveResult::Sat {
            // The reported model must actually satisfy the formula.
            let assignment: Vec<bool> = (0..f.num_vars())
                .map(|i| solver.model_value(Var::new(i as u32).positive()).unwrap_or(false))
                .collect();
            prop_assert_eq!(f.eval(&assignment), Some(true));
        }
    }

    #[test]
    fn assumptions_equal_unit_clauses(f in arb_cnf(7, 30, 4), asm_bits in 0u8..128) {
        // Solving under assumptions must agree with adding them as units.
        let assumptions: Vec<Lit> = (0..7)
            .map(|i| Lit::new(Var::new(i), asm_bits >> i & 1 == 1))
            .collect();
        let mut with_assumptions = f.to_solver();
        let res_a = with_assumptions.solve(&assumptions);

        let mut with_units = f.clone();
        for &l in &assumptions {
            with_units.add_clause(&[l]);
        }
        let mut s = with_units.to_solver();
        let res_u = s.solve(&[]);
        prop_assert_eq!(res_a, res_u);
    }

    #[test]
    fn unsat_core_is_sound(f in arb_cnf(6, 25, 4), asm_bits in 0u8..64) {
        let assumptions: Vec<Lit> = (0..6)
            .map(|i| Lit::new(Var::new(i), asm_bits >> i & 1 == 1))
            .collect();
        let mut solver = f.to_solver();
        if solver.solve(&assumptions) == SolveResult::Unsat {
            let core: Vec<Lit> = solver.unsat_core().to_vec();
            // Every core literal is one of the assumptions.
            for l in &core {
                prop_assert!(assumptions.contains(l), "core literal {} not assumed", l);
            }
            // The core alone must already be unsatisfiable (when the formula
            // itself was satisfiable, the core carries the contradiction).
            let mut again = f.to_solver();
            prop_assert_eq!(again.solve(&core), SolveResult::Unsat);
        }
    }

    #[test]
    fn incremental_solving_is_consistent(f in arb_cnf(7, 20, 4), extra in arb_cnf(7, 10, 4)) {
        // solve(f), then add extra clauses, then solve again ==
        // solving f ∪ extra from scratch.
        let mut inc = f.to_solver();
        let _ = inc.solve(&[]);
        for c in extra.clauses() {
            inc.add_clause(c);
        }
        let res_inc = inc.solve(&[]);

        let mut combined = f.clone();
        for c in extra.clauses() {
            combined.add_clause(c);
        }
        let mut scratch = combined.to_solver();
        prop_assert_eq!(res_inc, scratch.solve(&[]));
    }
}

/// Strategy: one literal over the first `max_vars` variables.
fn arb_lit(max_vars: u32) -> impl Strategy<Value = Lit> {
    (0..max_vars, proptest::bool::ANY).prop_map(|(v, neg)| Lit::new(Var::new(v), neg))
}

/// One round of incremental use: unit clauses, wider clauses, and the
/// assumptions of the round's solve (empty: a plain solve).
type Round = (Vec<Lit>, Vec<Vec<Lit>>, Vec<Lit>);

fn arb_round(max_vars: u32) -> impl Strategy<Value = Round> {
    (
        proptest::collection::vec(arb_lit(max_vars), 0..=1),
        proptest::collection::vec(proptest::collection::vec(arb_lit(max_vars), 2..=5), 0..=6),
        proptest::collection::vec(arb_lit(max_vars), 0..=3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn incremental_rounds_with_level0_units(
        rounds in proptest::collection::vec(arb_round(8), 2..=24),
    ) {
        // Units fixed between solves leave clauses satisfied at level 0;
        // the budgeted sweep removes some of them and leaves others
        // attached. Every answer must match brute force over all clauses
        // added so far, and every model must satisfy each of them, swept
        // or not.
        let mut solver = Solver::new();
        let mut added = CnfFormula::new();
        added.set_num_vars(8);
        for _ in 0..8 {
            ClauseSink::new_var(&mut solver);
        }
        for (units, wide, assumptions) in &rounds {
            for &u in units {
                solver.add_clause(&[u]);
                added.add_clause(&[u]);
            }
            for c in wide {
                solver.add_clause(c);
                added.add_clause(c);
            }
            for asm in [assumptions.as_slice(), &[]] {
                let result = solver.solve(asm);
                let mut expected = added.clone();
                for &l in asm {
                    expected.add_clause(&[l]);
                }
                prop_assert_eq!(result == SolveResult::Sat, brute_force_sat(&expected));
                if result == SolveResult::Sat {
                    let assignment: Vec<bool> = (0..8)
                        .map(|i| solver.model_value(Var::new(i).positive()).unwrap())
                        .collect();
                    prop_assert_eq!(added.eval(&assignment), Some(true));
                    for &l in asm {
                        prop_assert_eq!(solver.model_value(l), Some(true));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic stress tests
// ---------------------------------------------------------------------

/// Random 3-SAT near the phase transition; checks model validity on SAT.
#[test]
fn random_3sat_stress() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..30 {
        let n = 40 + round;
        let m = (n as f64 * 4.2) as usize;
        let mut f = CnfFormula::new();
        f.set_num_vars(n);
        for _ in 0..m {
            let mut clause = Vec::with_capacity(3);
            while clause.len() < 3 {
                let v = Var::new(rng.random_range(0..n as u32));
                if clause.iter().any(|l: &Lit| l.var() == v) {
                    continue;
                }
                clause.push(Lit::new(v, rng.random_bool(0.5)));
            }
            f.add_clause(&clause);
        }
        let mut solver = f.to_solver();
        if solver.solve(&[]) == SolveResult::Sat {
            let assignment: Vec<bool> = (0..n)
                .map(|i| solver.model_value(Var::new(i as u32).positive()).unwrap_or(false))
                .collect();
            assert_eq!(f.eval(&assignment), Some(true), "model must satisfy formula");
        }
    }
}

/// A satisfiable instance with an embedded unique solution: parity chains.
#[test]
fn xor_ladder_unique_solution() {
    // x_{i+1} = x_i XOR c_i with x_0 = 1 pins every variable.
    let mut solver = Solver::new();
    let n = 200usize;
    let xs: Vec<Lit> = (0..n).map(|_| ClauseSink::new_var(&mut solver).positive()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut expected = vec![true];
    solver.add_clause(&[xs[0]]);
    for i in 0..n - 1 {
        let c = rng.random_bool(0.5);
        let prev = expected[i];
        expected.push(prev ^ c);
        // x_{i+1} = x_i xor c  <=>  clauses over (x_i, x_{i+1})
        let (a, b) = (xs[i], xs[i + 1]);
        if c {
            solver.add_clause(&[a, b]);
            solver.add_clause(&[!a, !b]);
        } else {
            solver.add_clause(&[a, !b]);
            solver.add_clause(&[!a, b]);
        }
    }
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for (i, &l) in xs.iter().enumerate() {
        assert_eq!(solver.model_value(l), Some(expected[i]), "bit {i}");
    }
}

/// Graph-coloring instances: triangle 2-coloring unsat, path 2-coloring sat.
#[test]
fn graph_coloring() {
    // Triangle with 2 colors: unsat.
    let mut s = Solver::new();
    let color = |s: &mut Solver| ClauseSink::new_var(s).positive();
    let verts: Vec<Lit> = (0..3).map(|_| color(&mut s)).collect();
    for i in 0..3 {
        for j in (i + 1)..3 {
            // adjacent vertices differ: (vi ∨ vj) ∧ (¬vi ∨ ¬vj)
            s.add_clause(&[verts[i], verts[j]]);
            s.add_clause(&[!verts[i], !verts[j]]);
        }
    }
    assert_eq!(s.solve(&[]), SolveResult::Unsat);

    // Path of 50 vertices with 2 colors: sat, alternating.
    let mut s = Solver::new();
    let verts: Vec<Lit> = (0..50).map(|_| ClauseSink::new_var(&mut s).positive()).collect();
    for w in verts.windows(2) {
        s.add_clause(&[w[0], w[1]]);
        s.add_clause(&[!w[0], !w[1]]);
    }
    assert_eq!(s.solve(&[]), SolveResult::Sat);
    for w in verts.windows(2) {
        assert_ne!(s.model_value(w[0]), s.model_value(w[1]));
    }
}

/// Many repeated solves with flipping assumptions exercise trail cleanup.
#[test]
fn repeated_assumption_flips() {
    let mut s = Solver::new();
    let n = 30usize;
    let xs: Vec<Lit> = (0..n).map(|_| ClauseSink::new_var(&mut s).positive()).collect();
    // Chain: x_i -> x_{i+1}
    for w in xs.windows(2) {
        s.add_clause(&[!w[0], w[1]]);
    }
    for round in 0..100 {
        let i = round % n;
        // Assuming x_i forces everything after it.
        assert_eq!(s.solve(&[xs[i]]), SolveResult::Sat);
        for (j, &x) in xs.iter().enumerate() {
            if j >= i {
                assert_eq!(s.model_value(x), Some(true));
            }
        }
        // Assuming x_i ∧ ¬x_{n-1} is contradictory.
        if i < n - 1 {
            assert_eq!(s.solve(&[xs[i], !xs[n - 1]]), SolveResult::Unsat);
        }
    }
}
