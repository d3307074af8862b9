//! Property-based tests: Tseitin encodings must agree with circuit
//! simulation under every binding mode, miters must be exactly as
//! satisfiable as the circuits differ, and the key-cone pinned-copy encoder
//! must emit exactly the CNF of a full pinned encoding.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use polykey_encode::{
    assert_value, build_miter, check_equivalence, encode, encode_key_variant, Binding,
    CnfValue, EquivResult, PinnedCopyEncoder, PortBinding,
};
use polykey_netlist::analysis::key_controlled_mask;
use polykey_netlist::{bits_of, GateKind, Netlist, NodeId, Simulator};
use polykey_sat::{CnfFormula, Lit, SolveResult, Solver};

/// Builds a random DAG netlist with `num_inputs` inputs and `num_keys` key
/// inputs from a byte recipe (deterministic, always valid).
fn build_circuit(
    num_inputs: usize,
    num_keys: usize,
    recipe: &[(u8, u16, u16, u16)],
) -> Netlist {
    build_circuit_with_consts(num_inputs, num_keys, 0, recipe)
}

/// [`build_circuit`] with `num_consts` constant nodes (alternately 0 and 1)
/// in the fanin pool after the key inputs.
fn build_circuit_with_consts(
    num_inputs: usize,
    num_keys: usize,
    num_consts: usize,
    recipe: &[(u8, u16, u16, u16)],
) -> Netlist {
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..num_inputs {
        pool.push(nl.add_input(format!("i{i}")).expect("fresh"));
    }
    for k in 0..num_keys {
        pool.push(nl.add_key_input(format!("k{k}")).expect("fresh"));
    }
    for c in 0..num_consts {
        pool.push(nl.add_const(format!("c{c}"), c % 2 == 1).expect("fresh"));
    }
    for (g, &(sel, f0, f1, f2)) in recipe.iter().enumerate() {
        let kind = match sel % 10 {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            7 => GateKind::Buf,
            8 => GateKind::Mux,
            _ => GateKind::And,
        };
        let picks = [f0, f1, f2];
        let arity = kind.arity().unwrap_or(2 + (sel as usize >> 4) % 2);
        let fanins: Vec<NodeId> =
            (0..arity).map(|i| pool[picks[i.min(2)] as usize % pool.len()]).collect();
        pool.push(nl.add_gate(format!("g{g}"), kind, &fanins).expect("fresh"));
    }
    // Mark the last few nodes as outputs.
    let n = pool.len();
    for o in 0..2.min(n) {
        nl.mark_output(pool[n - 1 - o]).expect("distinct");
    }
    nl
}

fn arb_circuit(num_inputs: usize, num_keys: usize) -> impl Strategy<Value = Netlist> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()), 1..25)
        .prop_map(move |recipe| build_circuit(num_inputs, num_keys, &recipe))
}

/// A random DAG with constant nodes in its fanin pool, whose outputs also
/// include a node outside the key cone: the first key-independent gate or
/// constant that is not an output yet, else the first primary input.
fn arb_locked_circuit(num_inputs: usize, num_keys: usize) -> impl Strategy<Value = Netlist> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()), 1..25)
        .prop_map(move |recipe| {
            let mut nl = build_circuit_with_consts(num_inputs, num_keys, 2, &recipe);
            let cone = key_controlled_mask(&nl);
            let outside = nl
                .node_ids()
                .filter(|id| !cone[id.index()] && !nl.node(*id).kind().is_input())
                .chain(nl.inputs().iter().copied())
                .find(|id| !nl.outputs().contains(id));
            if let Some(id) = outside {
                nl.mark_output(id).expect("not yet an output");
            }
            nl
        })
}

/// Encodes both key copies at every DIP twice — with [`PinnedCopyEncoder`]
/// and with [`encode`] under the pinned-input, shared-key binding — into
/// two formulas that start from the same miter variables, and requires the
/// same variable count, clause list and output values after every copy.
/// Outputs outside the key cone must come back as constants.
fn check_pinned_copies(nl: &Netlist, dips: &[Vec<bool>]) -> Result<(), TestCaseError> {
    let mut solver = Solver::new();
    let miter = build_miter(&mut solver, nl, nl).expect("miter");
    let mut reference = CnfFormula::new();
    reference.set_num_vars(solver.num_vars());
    let mut planned = reference.clone();
    let cone = key_controlled_mask(nl);
    let mut copies = PinnedCopyEncoder::new(nl).expect("acyclic");
    for dip in dips {
        let mut pinned = copies.pin_inputs(dip).expect("input width");
        for keys in [&miter.keys_left, &miter.keys_right] {
            let binding = Binding::with_pinned_inputs_shared_keys(dip, keys);
            let want = encode(&mut reference, nl, &binding).expect("encode").outputs;
            let got = pinned.encode_copy(&mut planned, keys).expect("key width");
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(planned.num_vars(), reference.num_vars());
            prop_assert!(planned.clauses().eq(reference.clauses()), "clause lists differ");
            for (o, value) in nl.outputs().iter().zip(&got) {
                prop_assert!(cone[o.index()] || value.constant().is_some());
            }
        }
    }
    Ok(())
}

fn dips_of(num_inputs: usize, patterns: &[u64]) -> Vec<Vec<bool>> {
    patterns.iter().map(|&p| bits_of(p, num_inputs)).collect()
}

/// Solves the encoded circuit with pinned ports and compares each output
/// against simulation.
fn check_encoding(nl: &Netlist, ibits: &[bool], kbits: &[bool]) {
    let mut sim = Simulator::new(nl).expect("acyclic");
    let expected = sim.eval(ibits, kbits);

    // Mode 1: fresh vars, values imposed with unit clauses.
    let mut solver = Solver::new();
    let enc = encode(&mut solver, nl, &Binding::fresh(nl)).expect("encode");
    for (v, &b) in enc.inputs.iter().zip(ibits) {
        assert_value(&mut solver, *v, b);
    }
    for (v, &b) in enc.keys.iter().zip(kbits) {
        assert_value(&mut solver, *v, b);
    }
    assert_eq!(solver.solve(&[]), SolveResult::Sat);
    for (o, v) in enc.outputs.iter().enumerate() {
        let got = match v {
            CnfValue::Lit(l) => solver.model_value(*l).expect("assigned"),
            CnfValue::Const(b) => *b,
        };
        assert_eq!(got, expected[o], "fresh-binding output {o}");
    }

    // Mode 2: everything pinned — outputs must be constants.
    let mut solver = Solver::new();
    let binding = Binding {
        inputs: ibits.iter().map(|&b| PortBinding::Pinned(b)).collect(),
        keys: kbits.iter().map(|&b| PortBinding::Pinned(b)).collect(),
    };
    let enc = encode(&mut solver, nl, &binding).expect("encode");
    for (o, v) in enc.outputs.iter().enumerate() {
        assert_eq!(v.constant(), Some(expected[o]), "pinned-binding output {o}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encodings_match_simulation(nl in arb_circuit(4, 2), pattern in 0u64..64) {
        let ibits = bits_of(pattern & 0xF, 4);
        let kbits = bits_of(pattern >> 4, 2);
        check_encoding(&nl, &ibits, &kbits);
    }

    #[test]
    fn key_variant_encoding_matches_full_encoding(nl in arb_circuit(3, 3), pattern in 0u64..64) {
        // encode_key_variant with pinned keys must give the same outputs as
        // a full encoding with the same pinned keys, for all inputs.
        let kbits = bits_of(pattern >> 3, 3);
        let ibits = bits_of(pattern & 0x7, 3);
        let mut sim = Simulator::new(&nl).expect("acyclic");
        let expected = sim.eval(&ibits, &kbits);

        let mut solver = Solver::new();
        let base = encode(&mut solver, &nl, &Binding::fresh(&nl)).expect("encode");
        let variant = encode_key_variant(
            &mut solver,
            &nl,
            &base,
            &kbits.iter().map(|&b| PortBinding::Pinned(b)).collect::<Vec<_>>(),
        ).expect("variant");
        // Pin the (shared) inputs.
        for (v, &b) in base.inputs.iter().zip(&ibits) {
            assert_value(&mut solver, *v, b);
        }
        prop_assert_eq!(solver.solve(&[]), SolveResult::Sat);
        for (o, v) in variant.outputs.iter().enumerate() {
            let got = match v {
                CnfValue::Lit(l) => solver.model_value(*l).expect("assigned"),
                CnfValue::Const(b) => *b,
            };
            prop_assert_eq!(got, expected[o], "variant output {}", o);
        }
    }

    #[test]
    fn pinned_copies_match_full_encoding(
        nl in arb_locked_circuit(4, 3),
        patterns in proptest::collection::vec(0u64..16, 1..6),
    ) {
        check_pinned_copies(&nl, &dips_of(4, &patterns))?;
    }

    #[test]
    fn keyless_pinned_copies_match_full_encoding(
        nl in arb_locked_circuit(4, 0),
        patterns in proptest::collection::vec(0u64..16, 1..4),
    ) {
        check_pinned_copies(&nl, &dips_of(4, &patterns))?;
    }

    #[test]
    fn self_miter_is_unsat_for_keyless(nl in arb_circuit(5, 0)) {
        // A circuit mitered against itself can never differ.
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &nl, &nl).expect("miter");
        prop_assert_eq!(solver.solve(&[miter.diff]), SolveResult::Unsat);
    }

    #[test]
    fn miter_agrees_with_exhaustive_difference(a in arb_circuit(4, 0), b in arb_circuit(4, 0)) {
        // For keyless same-interface circuits, the miter is satisfiable
        // exactly when the functions differ somewhere.
        prop_assume!(a.outputs().len() == b.outputs().len());
        let mut sa = Simulator::new(&a).expect("acyclic");
        let mut sb = Simulator::new(&b).expect("acyclic");
        let differs = (0..16u64).any(|v| {
            let bits = bits_of(v, 4);
            sa.eval(&bits, &[]) != sb.eval(&bits, &[])
        });
        let mut solver = Solver::new();
        let miter = build_miter(&mut solver, &a, &b).expect("miter");
        let sat = solver.solve(&[miter.diff]) == SolveResult::Sat;
        prop_assert_eq!(sat, differs);
        // And check_equivalence must agree too.
        let equiv = check_equivalence(&a, &b).expect("equiv");
        prop_assert_eq!(equiv == EquivResult::Equivalent, !differs);
    }

    #[test]
    fn counterexamples_are_genuine(a in arb_circuit(4, 0), b in arb_circuit(4, 0)) {
        prop_assume!(a.outputs().len() == b.outputs().len());
        if let EquivResult::Inequivalent { counterexample } =
            check_equivalence(&a, &b).expect("equiv")
        {
            let mut sa = Simulator::new(&a).expect("acyclic");
            let mut sb = Simulator::new(&b).expect("acyclic");
            prop_assert_ne!(
                sa.eval(&counterexample, &[]),
                sb.eval(&counterexample, &[])
            );
        }
    }
}

/// Hand-built corner cases for [`PinnedCopyEncoder`]: constants feeding
/// key-cone gates and driving an output, repeated fanins (`And(k, k)`,
/// `Xor(k, k)`, `Mux(k, x, x)`), a bare input and a key input as outputs,
/// and a keyless netlist.
#[test]
fn pinned_copies_match_full_encoding_on_corner_cases() {
    let mut nl = Netlist::new("corners");
    let a = nl.add_input("a").unwrap();
    let b = nl.add_input("b").unwrap();
    let k0 = nl.add_key_input("k0").unwrap();
    let k1 = nl.add_key_input("k1").unwrap();
    let one = nl.add_const("one", true).unwrap();
    let zero = nl.add_const("zero", false).unwrap();
    let ab = nl.add_gate("ab", GateKind::And, &[a, b, one]).unwrap();
    let kk = nl.add_gate("kk", GateKind::And, &[k0, k0]).unwrap();
    let kx = nl.add_gate("kx", GateKind::Xor, &[k1, k1, ab]).unwrap();
    let km = nl.add_gate("km", GateKind::Mux, &[k0, ab, ab]).unwrap();
    let kz = nl.add_gate("kz", GateKind::Or, &[kk, zero, kx]).unwrap();
    let y = nl.add_gate("y", GateKind::Xnor, &[kz, km, b]).unwrap();
    for out in [y, ab, a, k1, one, kx] {
        nl.mark_output(out).unwrap();
    }
    let dips = dips_of(2, &[0, 1, 2, 3, 3, 0]);
    check_pinned_copies(&nl, &dips).unwrap();

    let mut keyless = Netlist::new("keyless");
    let a = keyless.add_input("a").unwrap();
    let one = keyless.add_const("one", true).unwrap();
    let y = keyless.add_gate("y", GateKind::Nand, &[a, a, one]).unwrap();
    keyless.mark_output(y).unwrap();
    keyless.mark_output(one).unwrap();
    check_pinned_copies(&keyless, &dips_of(1, &[0, 1])).unwrap();
    let mut copies = PinnedCopyEncoder::new(&keyless).unwrap();
    let mut formula = CnfFormula::new();
    let outputs = copies.pin_inputs(&[true]).unwrap().encode_copy(&mut formula, &[]).unwrap();
    assert_eq!(outputs, vec![CnfValue::Const(false), CnfValue::Const(true)]);
    assert_eq!(formula, CnfFormula::new(), "a keyless copy emits nothing");
}

#[test]
fn pinned_copy_widths_are_checked() {
    let mut nl = Netlist::new("w");
    let a = nl.add_input("a").unwrap();
    let k = nl.add_key_input("k").unwrap();
    let y = nl.add_gate("y", GateKind::Xor, &[a, k]).unwrap();
    nl.mark_output(y).unwrap();
    let mut copies = PinnedCopyEncoder::new(&nl).unwrap();
    assert!(copies.pin_inputs(&[true, false]).is_err());
    let key: Lit = polykey_sat::Var::new(0).positive();
    let mut formula = CnfFormula::new();
    let mut pinned = copies.pin_inputs(&[true]).unwrap();
    assert!(pinned.encode_copy(&mut formula, &[key, key]).is_err());
    assert_eq!(pinned.encode_copy(&mut formula, &[key]).unwrap(), vec![CnfValue::Lit(!key)]);
}
