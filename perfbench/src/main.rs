//! End-to-end and per-layer benchmark of the polykey attack pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test --seed <n>
//! perfbench --paper-ratio --seed <n>
//! ```
//!
//! Each iteration of a measuring run sets the seeded locked design up,
//! attacks it through the public `AttackSession` API, recombines the keys
//! and checks the unlocked design, repeating until `--seconds` have
//! passed. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod replay;
mod selftest;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use polykey_attack::{AttackReport, SimOracle, SubKey, SubTaskReport, MAX_SPLIT_WIDTH};
use polykey_bench::json::Json;
use polykey_netlist::NodeId;
use polykey_sat::SolverStats;

use crate::replay::{replay_term, Replay, TermSpec};
use crate::trace::{EventLog, TermTimeline, TimingOracle};
use crate::workload::{find, Attack, Design, Result, SetupTimes, Workload};

/// Each iteration sets its design up afresh: at least once, and again
/// until this much time has passed. `setup_s` is the median over the whole
/// run, so it averages the same machine noise as the attack timings.
const SETUP_SLICE: Duration = Duration::from_millis(20);

enum Mode {
    Measure { workload: &'static Workload, seconds: u64, trace: bool },
    SelfTest,
    PaperRatio,
}

struct Args {
    mode: Mode,
    seed: u64,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut self_test = false;
    let mut paper_ratio = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(find(&value()?)?),
            "--seed" => seed = Some(value()?.parse()?),
            "--seconds" => seconds = Some(value()?.parse::<u64>()?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                })
            }
            "--self-test" => self_test = true,
            "--paper-ratio" => paper_ratio = true,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let mode = if self_test {
        Mode::SelfTest
    } else if paper_ratio {
        Mode::PaperRatio
    } else {
        let workload = workload.ok_or("--workload is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Mode::Measure { workload, seconds, trace: trace.ok_or("--trace is required")? }
    };
    Ok(Args { mode, seed })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.mode {
        Mode::Measure { workload, seconds, trace } => {
            measure(workload, args.seed, Duration::from_secs(seconds), trace)
        }
        Mode::SelfTest => selftest::run(args.seed),
        Mode::PaperRatio => paper_ratio(args.seed),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one attack iteration measured.
struct Sample {
    unlock: Duration,
    /// Wall time of every term, by prefix-tree path.
    term_walls: Vec<((u64, u8), Duration)>,
    term_cpu: Duration,
    oracle_queries: u64,
    dips: u64,
    oracle_rounds: u64,
    epochs: u64,
    solver: SolverStats,
    recombine: Duration,
    recombined_gates: usize,
    ok: bool,
}

/// Checks unlocked designs against the original. A key set it has checked
/// before gets the same verdict without a second check: the same split
/// ports and sub-keys recombine to the same design.
struct Checker {
    seed: u64,
    verdicts: Vec<(Vec<NodeId>, Vec<SubKey>, bool)>,
    /// Duration of each check actually run.
    times: Vec<Duration>,
}

impl Checker {
    fn new(seed: u64) -> Checker {
        Checker { seed, verdicts: Vec::new(), times: Vec::new() }
    }

    fn check(&mut self, w: &Workload, design: &Design, attack: &Attack) -> Result<bool> {
        let Some(unlocked) = &attack.unlocked else {
            return Ok(false);
        };
        let split = attack.report.split_inputs();
        let keys = attack.report.sub_keys();
        if let Some((_, _, verdict)) =
            self.verdicts.iter().find(|(s, k, _)| s.as_slice() == split && *k == keys)
        {
            return Ok(*verdict);
        }
        let start = Instant::now();
        let verdict = workload::check(w.check, &design.original, unlocked, self.seed)?;
        self.times.push(start.elapsed());
        self.verdicts.push((split.to_vec(), keys, verdict));
        Ok(verdict)
    }
}

/// What the trace adds to a sample.
struct TraceSample {
    timeline: TermTimeline,
    oracle_busy: Duration,
    oracle_calls: u64,
}

/// Runs one attack, recombines and checks it.
fn iterate(
    w: &Workload,
    design: &Design,
    threads: usize,
    checker: &mut Checker,
    traced: bool,
) -> Result<(Sample, Option<TraceSample>, Attack)> {
    let (attack, trace) = if traced {
        let mut oracle = TimingOracle::new(SimOracle::new(&design.original)?);
        let log = EventLog::default();
        let record = |event: &_| log.record(event);
        let attack = w.attack(design, &mut oracle, threads, Some(&record))?;
        let root_width = u8::try_from(w.split_effort)?;
        let timeline = TermTimeline::derive(attack.start, root_width, &log.into_events());
        let trace =
            TraceSample { timeline, oracle_busy: oracle.busy, oracle_calls: oracle.calls };
        (attack, Some(trace))
    } else {
        let mut oracle = SimOracle::new(&design.original)?;
        (w.attack(design, &mut oracle, threads, None)?, None)
    };
    let stats = attack.report.stats();
    let checked = checker.check(w, design, &attack)?;
    let sample = Sample {
        unlock: attack.unlock(),
        term_walls: term_walls(&attack.report),
        term_cpu: stats.subtask_wall_times.iter().sum(),
        oracle_queries: stats.oracle_queries,
        dips: stats.dips,
        oracle_rounds: stats.oracle_rounds,
        epochs: stats.epochs,
        solver: stats.solver,
        recombine: attack.recombine,
        recombined_gates: attack.unlocked.as_ref().map_or(0, |n| n.num_gates()),
        ok: attack.report.is_complete() && checked,
    };
    Ok((sample, trace, attack))
}

/// Sets the workload up for one `SETUP_SLICE`, recording each set-up.
fn set_up_slice(w: &Workload, seed: u64, setups: &mut Vec<SetupTimes>) -> Result<Design> {
    let start = Instant::now();
    loop {
        let (design, times) = w.set_up(seed)?;
        setups.push(times);
        if start.elapsed() >= SETUP_SLICE {
            return Ok(design);
        }
    }
}

/// What one phase of a run produced, with the last iteration's design and
/// attack (the replay's input).
struct Phase {
    samples: Vec<Sample>,
    traces: Vec<TraceSample>,
    design: Design,
    attack: Attack,
}

/// Sets up and iterates (at least once) until the next iteration would
/// probably end more than half an iteration past `budget`.
fn run_phase(
    w: &Workload,
    threads: usize,
    checker: &mut Checker,
    setups: &mut Vec<SetupTimes>,
    budget: Duration,
    traced: bool,
) -> Result<Phase> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut traces = Vec::new();
    loop {
        let iteration_start = Instant::now();
        let design = set_up_slice(w, checker.seed, setups)?;
        let (sample, trace, attack) = iterate(w, &design, threads, checker, traced)?;
        samples.push(sample);
        traces.extend(trace);
        if start.elapsed() + iteration_start.elapsed() / 2 >= budget {
            return Ok(Phase { samples, traces, design, attack });
        }
    }
}

fn measure(w: &Workload, seed: u64, budget: Duration, trace: bool) -> Result<()> {
    let nproc = nproc();
    let threads = w.threads_on(nproc);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let design = set_up_slice(w, seed, &mut setups)?;
    eprintln!(
        "perfbench: workload {} seed {seed}: {} gates locked, {} key bits, threads {threads} \
         of nproc {nproc}, check {}",
        w.name,
        design.locked.netlist.num_gates(),
        design.locked.key.len(),
        w.check.name(),
    );

    let untraced_budget = if trace { budget / 2 } else { budget };
    let mut checker = Checker::new(seed);
    let samples =
        run_phase(w, threads, &mut checker, &mut setups, untraced_budget, false)?.samples;
    let traced = if trace {
        let phase =
            run_phase(w, threads, &mut checker, &mut setups, budget - untraced_budget, true)?;
        let (path, _) = slowest_term(&phase.samples);
        let replay = replay_term_of(w, &phase.design, &phase.attack.report, path)?;
        Some((phase.samples, phase.traces, replay))
    } else {
        None
    };
    let all: Vec<&Sample> =
        samples.iter().chain(traced.iter().flat_map(|(traced, _, _)| traced)).collect();

    let attempted = all.len();
    let failed = all.iter().filter(|s| !s.ok).count();
    // Under a fixed seed and thread count the work counters repeat exactly.
    let repeatable = all.iter().all(|s| {
        (s.dips, s.oracle_queries, s.solver.conflicts)
            == (all[0].dips, all[0].oracle_queries, all[0].solver.conflicts)
    });
    if !repeatable {
        eprintln!("perfbench: work counters differ between iterations of one seed");
    }
    report_human(w, &samples, &setups, attempted, failed);

    let mut metrics = Metrics::default();
    match &traced {
        None => {
            metrics.add("unlock_s", median_secs(samples.iter().map(|s| s.unlock)), "s");
            metrics.add("critical_term_s", slowest_term(&samples).1, "s");
            metrics.add("term_cpu_s", median_secs(samples.iter().map(|s| s.term_cpu)), "s");
            metrics.add("oracle_queries", samples[0].oracle_queries as f64, "count");
            metrics.add("setup_s", median_secs(setups.iter().map(SetupTimes::total)), "s");
            metrics.add("peak_rss_mb", peak_rss_mb()?, "MB");
        }
        Some((traced_samples, traces, replay)) => {
            let overhead = median_secs(traced_samples.iter().map(|s| s.unlock))
                - median_secs(samples.iter().map(|s| s.unlock));
            layer_metrics(
                &mut metrics,
                LayerInputs {
                    w,
                    threads,
                    nproc,
                    setups: &setups,
                    samples: traced_samples,
                    traces,
                    replay,
                    check_times: &checker.times,
                    failed_share: failed as f64 / attempted as f64,
                    trace_overhead_ms: overhead * 1e3,
                },
            );
        }
    }
    let diverged = traced.as_ref().is_some_and(|(_, _, r)| r.diverged);
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(failed == 0 && repeatable && !diverged)),
        ("attempted".into(), Json::Number(attempted as f64)),
        ("failed".into(), Json::Number(failed as f64)),
        ("metrics".into(), Json::Object(metrics.0)),
    ]);
    println!("{}", result.render_compact());
    Ok(())
}

/// The replayed slowest term, with the verdict of the fidelity guard.
struct CheckedReplay {
    replay: Replay,
    diverged: bool,
}

/// Replays the term at `path` of `report` and compares the replay with the
/// engine's own counters for it.
fn replay_term_of(
    w: &Workload,
    design: &Design,
    report: &AttackReport,
    (pattern, width): (u64, u8),
) -> Result<CheckedReplay> {
    let locked = &design.locked.netlist;
    // The engine gives no resplit budget to a term at the deepest possible
    // split, `min(inputs, MAX_SPLIT_WIDTH)`.
    let max_depth = locked.inputs().len().min(MAX_SPLIT_WIDTH).max(w.split_effort);
    let (spec, engine_solver, engine_dips, engine_dip_patterns) = match report {
        AttackReport::SingleKey(outcome) => {
            let spec = TermSpec {
                split_inputs: &[],
                pattern: 0,
                width: 0,
                cofactored: false,
                dip_batch: w.dip_batch,
                dip_budget: None,
            };
            (spec, outcome.stats.solver, outcome.stats.dips, Some(&outcome.dip_patterns))
        }
        AttackReport::MultiKey(outcome) => {
            let term: &SubTaskReport = outcome
                .reports
                .iter()
                .chain(&outcome.resplit_reports)
                .find(|r| (r.pattern, r.width) == (pattern, width))
                .ok_or("the slowest term is missing from the last report")?;
            let spec = TermSpec {
                split_inputs: &outcome.split_inputs,
                pattern,
                width,
                cofactored: true,
                dip_batch: w.dip_batch,
                dip_budget: w.term_dip_budget.filter(|_| usize::from(width) < max_depth),
            };
            (spec, term.solver, term.dips, None)
        }
    };
    let replay = replay_term(locked, &design.original, &spec)?;
    let diverged = replay.solver != engine_solver
        || replay.dips != engine_dips
        || engine_dip_patterns.is_some_and(|dips| *dips != replay.dip_patterns);
    if diverged {
        eprintln!(
            "perfbench: replay diverged from the engine (dips {} vs {}, solver {:?} vs {:?}); \
             the encode/solve split is withheld",
            replay.dips, engine_dips, replay.solver, engine_solver
        );
    }
    Ok(CheckedReplay { replay, diverged })
}

/// Metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, Json)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &str) {
        let entry = Json::Object(vec![
            ("value".into(), Json::Number(value)),
            ("unit".into(), Json::String(unit.into())),
        ]);
        self.0.push((name.into(), entry));
    }
}

struct LayerInputs<'a> {
    w: &'a Workload,
    threads: usize,
    nproc: usize,
    setups: &'a [SetupTimes],
    samples: &'a [Sample],
    traces: &'a [TraceSample],
    replay: &'a CheckedReplay,
    check_times: &'a [Duration],
    failed_share: f64,
    trace_overhead_ms: f64,
}

/// The per-layer metrics: medians over the traced iterations, plus the
/// replay's split of the slowest term.
fn layer_metrics(m: &mut Metrics, l: LayerInputs<'_>) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let med = |f: &dyn Fn(usize) -> f64| median((0..l.samples.len()).map(f));
    let s = l.samples;
    let t = l.traces;
    let dips = s[0].dips as f64;

    m.add("setup.build_ms", median(l.setups.iter().map(|x| ms(x.build))), "ms");
    m.add("setup.lock_ms", median(l.setups.iter().map(|x| ms(x.lock))), "ms");
    m.add("setup.oracle_ms", median(l.setups.iter().map(|x| ms(x.oracle))), "ms");

    m.add("oracle.busy_ms", med(&|i| ms(t[i].oracle_busy)), "ms");
    m.add("oracle.calls", t[0].oracle_calls as f64, "count");
    m.add(
        "oracle.patterns_per_call",
        s[0].oracle_queries as f64 / t[0].oracle_calls as f64,
        "count",
    );

    m.add("terms.count", t[0].timeline.terms as f64, "count");
    m.add("terms.resplits", t[0].timeline.resplits as f64, "count");
    m.add("term.setup_ms", med(&|i| ms(t[i].timeline.setup)), "ms");
    m.add("term.queue_wait_ms.max", med(&|i| ms(t[i].timeline.max_queue_wait)), "ms");
    m.add("term.run_ms.p50", med(&|i| ms(t[i].timeline.run_p50())), "ms");
    m.add("term.run_ms.max", med(&|i| ms(t[i].timeline.run_max())), "ms");
    m.add("workers.threads", l.threads as f64, "count");
    m.add("workers.nproc", l.nproc as f64, "count");
    m.add(
        "workers.busy_share",
        med(&|i| {
            t[i].timeline.busy.as_secs_f64() / (l.threads as f64 * s[i].unlock.as_secs_f64())
        }),
        "share",
    );
    let wasted = t[0].timeline.wasted_dips as f64;
    m.add("resplit.wasted_dips", wasted, "count");
    m.add("resplit.waste_share", wasted / dips, "share");

    m.add("dips", dips, "count");
    m.add("oracle_rounds", s[0].oracle_rounds as f64, "count");
    m.add("epochs", s[0].epochs as f64, "count");
    let self_ms = |i: usize| ms(t[i].timeline.run_total()) - ms(t[i].oracle_busy);
    m.add("engine.self_ms", med(&self_ms), "ms");
    m.add("engine.ms_per_dip", med(&|i| self_ms(i) / dips), "ms");

    let sat = s[0].solver;
    m.add("sat.conflicts", sat.conflicts as f64, "count");
    m.add("sat.decisions", sat.decisions as f64, "count");
    m.add("sat.propagations", sat.propagations as f64, "count");
    m.add("sat.solves", sat.solves as f64, "count");
    m.add("sat.conflicts_per_dip", sat.conflicts as f64 / dips, "count");

    let r = &l.replay.replay.times;
    m.add("replay.diverged", f64::from(u8::from(l.replay.diverged)), "count");
    if !l.replay.diverged {
        m.add("netlist.cofactor_ms", ms(r.cofactor), "ms");
        m.add("encode.miter_ms", ms(r.miter), "ms");
        m.add("encode.copy_ms", ms(r.copy), "ms");
        m.add("encode.vars_per_copy", r.copy_vars as f64 / r.copies.max(1) as f64, "count");
        m.add("sat.solve_ms", ms(r.solve), "ms");
        m.add("sat.ms_per_solve", ms(r.solve) / r.solves.max(1) as f64, "ms");
        m.add("replay.oracle_ms", ms(r.oracle), "ms");
    }

    m.add("recombine_ms", med(&|i| ms(s[i].recombine)), "ms");
    m.add("recombined_gates", s[0].recombined_gates as f64, "count");
    m.add("check.ms", median(l.check_times.iter().map(|&d| ms(d))), "ms");
    m.add("failed_share", l.failed_share, "share");
    m.add("trace.overhead_ms", l.trace_overhead_ms, "ms");
    eprintln!("perfbench: {} traced iterations, check {}", s.len(), l.w.check.name());
}

/// Human-readable summary on standard error.
fn report_human(
    w: &Workload,
    samples: &[Sample],
    setups: &[SetupTimes],
    attempted: usize,
    failed: usize,
) {
    let secs = |f: &dyn Fn(&Sample) -> Duration| {
        let mut v: Vec<f64> = samples.iter().map(|s| f(s).as_secs_f64()).collect();
        v.sort_by(f64::total_cmp);
        format!(
            "median {:.4} s (min {:.4}, max {:.4})",
            median(v.iter().copied()),
            v[0],
            v[v.len() - 1]
        )
    };
    let s = &samples[0];
    eprintln!("perfbench: {} untraced iterations of {}", samples.len(), w.name);
    eprintln!("  unlock_s         {}", secs(&|s| s.unlock));
    eprintln!("  critical_term_s  {:.4} s (largest per-term median)", slowest_term(samples).1);
    eprintln!("  term_cpu_s       {}", secs(&|s| s.term_cpu));
    eprintln!(
        "  setup_s          median {:.4} s over {} set-ups",
        median(setups.iter().map(|x| x.total().as_secs_f64())),
        setups.len()
    );
    eprintln!(
        "  dips {} oracle_queries {} oracle_rounds {} conflicts {}",
        s.dips, s.oracle_queries, s.oracle_rounds, s.solver.conflicts
    );
    eprintln!("  failed_share     {failed}/{attempted}");
    let each: Vec<String> =
        samples.iter().map(|s| format!("{:.3}", s.unlock.as_secs_f64())).collect();
    eprintln!("  unlock_s each    {}", each.join(" "));
}

/// Every term's wall time, keyed by its path (the one-key attack is the
/// single width-0 term).
fn term_walls(report: &AttackReport) -> Vec<((u64, u8), Duration)> {
    match report {
        AttackReport::SingleKey(outcome) => vec![((0, 0), outcome.stats.wall_time)],
        AttackReport::MultiKey(outcome) => outcome
            .reports
            .iter()
            .chain(&outcome.resplit_reports)
            .map(|r| ((r.pattern, r.width), r.wall_time))
            .collect(),
    }
}

/// The slowest term: the path with the largest per-term median wall time
/// over the iterations, and that median in seconds. Every iteration of a
/// run attacks the same terms, so this is the slowest term's typical time
/// rather than the worst noise spike among all terms of an iteration.
fn slowest_term(samples: &[Sample]) -> ((u64, u8), f64) {
    let mut per_term: BTreeMap<(u64, u8), Vec<f64>> = BTreeMap::new();
    for sample in samples {
        for &(path, wall) in &sample.term_walls {
            per_term.entry(path).or_default().push(wall.as_secs_f64());
        }
    }
    per_term
        .into_iter()
        .map(|(path, walls)| (path, median(walls.into_iter())))
        .fold(((0, 0), 0.0), |best, term| if term.1 > best.1 { term } else { best })
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_secs(values: impl Iterator<Item = Duration>) -> f64 {
    median(values.map(|d| d.as_secs_f64()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc")?;
    let kib: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse()?;
    Ok(kib / 1024.0)
}

/// The paper's latency claim on this machine: how much sooner the slowest
/// sarlock-multikey term finishes than the whole sarlock-onekey attack.
fn paper_ratio(seed: u64) -> Result<()> {
    let mut times = Vec::new();
    for name in ["sarlock-onekey", "sarlock-multikey"] {
        let w = find(name)?;
        let (design, _) = w.set_up(seed)?;
        let mut checker = Checker::new(seed);
        let (sample, _, _) = iterate(w, &design, w.threads_on(nproc()), &mut checker, false)?;
        if !sample.ok {
            return Err(format!("{name} did not unlock the design").into());
        }
        times.push(sample);
    }
    let onekey = times[0].unlock.as_secs_f64();
    let critical = slowest_term(&times[1..]).1;
    println!(
        "paper ratio: 1 - critical_term_s(sarlock-multikey) / unlock_s(sarlock-onekey) \
         = 1 - {critical:.4} / {onekey:.4} = {:.1}%",
        (1.0 - critical / onekey) * 100.0
    );
    Ok(())
}
