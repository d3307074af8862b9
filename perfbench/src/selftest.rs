//! Shows that the correctness checks can fail: one bit of one recovered
//! sub-key is flipped before recombining, and both check kinds must then
//! reject the design.
//!
//! The bit is chosen so the design is wrong by construction. A SARLock key
//! `K` other than the correct key errs exactly where the comparator inputs
//! equal `K`. So a flip that moves a sub-key's comparator pattern inside
//! its term's sub-space, to anything but the correct key, yields a key
//! that errs inside that sub-space.

use polykey_attack::{recombine_multikey, SimOracle, SubKey};
use polykey_locking::Key;

use crate::workload::{check, find, simulation_mismatches, CheckKind, Result, Scheme};

pub fn run(seed: u64) -> Result<()> {
    for name in ["sarlock-adaptive", "sarlock-multikey"] {
        let w = find(name)?;
        let Scheme::Sarlock { key_bits } = w.scheme else {
            return Err(format!("{name} is not a SARLock workload").into());
        };
        let (design, _) = w.set_up(seed)?;
        let mut oracle = SimOracle::new(&design.original)?;
        let threads = w.threads_on(super::nproc());
        let attack = w.attack(&design, &mut oracle, threads, None)?;
        let unlocked = attack.unlocked.as_ref().ok_or("the attack did not recombine")?;
        if !check(w.check, &design.original, unlocked, seed)? {
            return Err(format!("{name}: the honest design failed its check").into());
        }

        let locked = &design.locked.netlist;
        let split_inputs = attack.report.split_inputs();
        let positions: Vec<usize> = split_inputs
            .iter()
            .map(|id| locked.inputs().iter().position(|p| p == id).ok_or("split port"))
            .collect::<std::result::Result<_, _>>()?;
        let mut keys = attack.report.sub_keys();
        let (index, bit) = live_flip(&keys, &positions, key_bits, &design.locked.key)
            .ok_or_else(|| format!("{name}: no sub-key has a bit that must break it"))?;
        let mut bits = keys[index].key.bits().to_vec();
        bits[bit] = !bits[bit];
        keys[index].key = Key::new(bits);
        let corrupted = recombine_multikey(locked, split_inputs, &keys)?;

        let mismatches = simulation_mismatches(&design.original, &corrupted, seed)?;
        let formal_passes = check(CheckKind::Formal, &design.original, &corrupted, seed)?;
        eprintln!(
            "perfbench self-test {name}: flipped bit {bit} of sub-key {index} \
             (pattern {:#x}, width {}): simulation mismatches {mismatches}, formal {}",
            keys[index].pattern,
            keys[index].width,
            if formal_passes { "equivalent" } else { "not equivalent" },
        );
        if mismatches == 0 || formal_passes {
            return Err(format!("{name}: a corrupted key passed a check").into());
        }
    }
    println!("self-test passed: both check kinds reject a flipped sub-key bit");
    Ok(())
}

/// A `(sub-key index, bit)` whose flip makes the recombined design wrong:
/// the flipped key is not the correct key, and its comparator pattern lies
/// inside the term's sub-space. Terms that pin the fewest non-comparator
/// ports come first (their wrong region is largest, so random simulation
/// hits it most often).
fn live_flip(
    keys: &[SubKey],
    split_positions: &[usize],
    key_bits: usize,
    correct: &Key,
) -> Option<(usize, usize)> {
    keys.iter()
        .enumerate()
        .filter_map(|(index, sub)| {
            let pins: Vec<(usize, bool)> = split_positions[..usize::from(sub.width)]
                .iter()
                .enumerate()
                .map(|(j, &pos)| (pos, sub.split_bit(j)))
                .collect();
            let extra_pins = pins.iter().filter(|&&(pos, _)| pos >= key_bits).count();
            let bit = (0..key_bits).find(|&b| {
                let flipped = |i: usize| sub.key.bit(i) ^ (i == b);
                let inside = pins.iter().all(|&(pos, v)| pos >= key_bits || flipped(pos) == v);
                inside && (0..key_bits).any(|i| flipped(i) != correct.bit(i))
            })?;
            Some((extra_pins, index, bit))
        })
        .min()
        .map(|(_, index, bit)| (index, bit))
}
