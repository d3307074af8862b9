//! The benchmark's workloads: how each builds and locks its design, runs
//! one attack through the public `AttackSession` API, and checks the
//! unlocked result against the original.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use polykey_attack::{AttackReport, AttackSession, Oracle, ProgressEvent, SimOracle};
use polykey_circuits::Iscas85;
use polykey_encode::{check_equivalence, EquivResult};
use polykey_locking::{Key, LockScheme, LockedCircuit, LutLock, Sarlock};
use polykey_netlist::{Netlist, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Placement seed of the LUT module (Table 2 setting); the workload seed
/// only draws the key.
const LUT_PLACEMENT_SEED: u64 = 0x7AB1E2;

/// Words of 64 random patterns the simulation check compares: 2^16
/// patterns, so each of the 2^10 SARLock comparator patterns is hit about
/// 64 times in expectation.
const SIM_CHECK_WORDS: usize = 1024;

#[derive(Copy, Clone, Debug)]
pub enum Scheme {
    Sarlock { key_bits: usize },
    Lut,
}

/// How an unlocked design is checked against the original.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// SAT-based equivalence check (`check_equivalence`).
    Formal,
    /// Packed random simulation over `SIM_CHECK_WORDS * 64` seeded
    /// patterns; zero mismatches required.
    Simulation,
}

impl CheckKind {
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Formal => "formal",
            CheckKind::Simulation => "simulation",
        }
    }
}

/// One seeded attack workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub circuit: Iscas85,
    pub scheme: Scheme,
    /// Root splitting effort `N` (0 = the one-key attack).
    pub split_effort: usize,
    /// Worker threads asked for; the run uses `min(threads, nproc)`.
    pub threads: usize,
    pub dip_batch: usize,
    /// Per-term DIP budget; `Some` makes the engine split adaptively.
    pub term_dip_budget: Option<u64>,
    pub check: CheckKind,
}

pub const WORKLOADS: [Workload; 4] = [
    // The paper's baseline: one long one-key DIP loop that bypasses
    // cofactoring, the worker pool and the MUX recombine
    Workload {
        name: "sarlock-onekey",
        circuit: Iscas85::C7552,
        scheme: Scheme::Sarlock { key_bits: 10 },
        split_effort: 0,
        threads: 1,
        dip_batch: 1,
        term_dip_budget: None,
        check: CheckKind::Simulation,
    },
    // The paper's headline: Algorithm 1 at N=4 with cofactor+simplify, the
    // worker pool and a contended shared oracle; encode-bound terms
    Workload {
        name: "sarlock-multikey",
        circuit: Iscas85::C7552,
        scheme: Scheme::Sarlock { key_bits: 10 },
        split_effort: 4,
        threads: 2,
        dip_batch: 1,
        term_dip_budget: None,
        check: CheckKind::Simulation,
    },
    // The Table 2 setting (paper LUT module on c1908, N=4): the solve-bound
    // counterpart of sarlock-multikey
    Workload {
        name: "lut-multikey",
        circuit: Iscas85::C1908,
        scheme: Scheme::Lut,
        split_effort: 4,
        threads: 2,
        dip_batch: 1,
        term_dip_budget: None,
        check: CheckKind::Formal,
    },
    // The only workload that resplits terms, harvests 64-DIP batches and
    // answers them in packed oracle rounds
    Workload {
        name: "sarlock-adaptive",
        circuit: Iscas85::C880,
        scheme: Scheme::Sarlock { key_bits: 11 },
        split_effort: 0,
        threads: 1,
        dip_batch: 64,
        term_dip_budget: Some(128),
        check: CheckKind::Formal,
    },
];

pub fn find(name: &str) -> Result<&'static Workload> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`").into())
}

/// The original design and its locked version: everything the attack
/// program receives besides the oracle.
pub struct Design {
    pub original: Netlist,
    pub locked: LockedCircuit,
}

/// Time spent setting one design up.
#[derive(Copy, Clone, Debug)]
pub struct SetupTimes {
    pub build: Duration,
    pub lock: Duration,
    pub oracle: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.lock + self.oracle
    }
}

impl Workload {
    /// Threads this workload runs with on a machine with `nproc` cores.
    pub fn threads_on(&self, nproc: usize) -> usize {
        self.threads.min(nproc).max(1)
    }

    fn lock_scheme(&self) -> Box<dyn LockScheme> {
        match self.scheme {
            Scheme::Sarlock { key_bits } => Box::new(Sarlock::new(key_bits)),
            Scheme::Lut => Box::new(LutLock::paper().with_seed(LUT_PLACEMENT_SEED)),
        }
    }

    /// Builds the circuit, locks it with a key drawn from `seed`, and
    /// constructs (then drops) the oracle over the original.
    pub fn set_up(&self, seed: u64) -> Result<(Design, SetupTimes)> {
        let start = Instant::now();
        let original = self.circuit.build();
        let build = start.elapsed();

        let scheme = self.lock_scheme();
        let key = Key::random(scheme.key_len(&original), &mut StdRng::seed_from_u64(seed));
        let start = Instant::now();
        let locked = scheme.lock(&original, &key)?;
        let lock = start.elapsed();

        let start = Instant::now();
        black_box(SimOracle::new(&original)?);
        let oracle = start.elapsed();
        Ok((Design { original, locked }, SetupTimes { build, lock, oracle }))
    }

    /// Runs the attack and recombines its keys into a keyless design.
    pub fn attack(
        &self,
        design: &Design,
        oracle: &mut (dyn Oracle + Send),
        threads: usize,
        progress: Option<&(dyn Fn(&ProgressEvent) + Sync)>,
    ) -> Result<Attack> {
        let mut builder = AttackSession::builder()
            .oracle(oracle)
            .split_effort(self.split_effort)
            .threads(threads)
            .dip_batch(self.dip_batch);
        if let Some(budget) = self.term_dip_budget {
            builder = builder.term_dip_budget(budget);
        }
        if let Some(progress) = progress {
            builder = builder.on_progress(move |event| progress(event));
        }
        let mut session = builder.build()?;
        let locked = &design.locked.netlist;

        let start = Instant::now();
        let report = session.run(locked)?;
        let run = start.elapsed();
        let recombine_start = Instant::now();
        let unlocked = report.recombine(locked);
        let recombine = recombine_start.elapsed();
        Ok(Attack { report, unlocked: unlocked.ok(), start, run, recombine })
    }
}

/// One attack: the report, the recombined design (`None` if recombining
/// failed), and its timings.
pub struct Attack {
    pub report: AttackReport,
    pub unlocked: Option<Netlist>,
    /// When `run` was called: the enqueue time of every root term.
    pub start: Instant,
    pub run: Duration,
    pub recombine: Duration,
}

impl Attack {
    /// `run` plus `recombine`: the time to a keyless design.
    pub fn unlock(&self) -> Duration {
        self.run + self.recombine
    }
}

/// True iff `unlocked` matches `original` under `kind`.
pub fn check(
    kind: CheckKind,
    original: &Netlist,
    unlocked: &Netlist,
    seed: u64,
) -> Result<bool> {
    match kind {
        CheckKind::Formal => {
            Ok(check_equivalence(original, unlocked)? == EquivResult::Equivalent)
        }
        CheckKind::Simulation => Ok(simulation_mismatches(original, unlocked, seed)? == 0),
    }
}

/// Patterns (of `SIM_CHECK_WORDS * 64` seeded random ones) on which the
/// two keyless designs disagree.
pub fn simulation_mismatches(original: &Netlist, unlocked: &Netlist, seed: u64) -> Result<u64> {
    let mut left = Simulator::new(original)?;
    let mut right = Simulator::new(unlocked)?;
    let mut rng = SplitMix64(seed ^ 0x5EED_C4EC);
    let mut words = vec![0u64; original.inputs().len()];
    let mut mismatches = 0;
    for _ in 0..SIM_CHECK_WORDS {
        words.iter_mut().for_each(|w| *w = rng.next());
        let a = left.eval_packed(&words, &[]);
        let b = right.eval_packed(&words, &[]);
        let differ = a.iter().zip(&b).fold(0u64, |acc, (x, y)| acc | (x ^ y));
        mismatches += u64::from(differ.count_ones());
    }
    Ok(mismatches)
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
