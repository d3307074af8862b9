//! The CDCL solver: propagation, conflict analysis, restarts, reduction.
//!
//! This is a MiniSat-class solver: two-watched-literal propagation with
//! blockers, VSIDS decision heuristic with an indexed heap, first-UIP clause
//! learning with deep (recursive) minimization, phase saving, Luby restarts,
//! activity/LBD-guided learnt-clause deletion, and incremental solving under
//! assumptions.
//!
//! Clauses satisfied at decision level 0 are removed by a sweep over the
//! whole clause database, budgeted by propagations as in MiniSat 2.2: after
//! a sweep the budget is set to the live literal count, every propagated
//! literal spends one unit, and the next sweep runs only once the budget is
//! spent *and* the level-0 trail has grown. Incremental callers that fix new
//! level-0 facts before every solve (the SAT attack asserts each DIP's
//! outputs) therefore pay at most about one clause-literal visit per
//! propagation for sweeping, not one full scan per solve. Between sweeps,
//! satisfied clauses stay attached; propagation skips them through the
//! true-blocker check.

use std::time::{Duration, Instant};

use crate::clause::{ClauseDb, ClauseRef, Watcher};
use crate::lit::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions.
    Unsat,
    /// A resource budget (conflicts or wall clock) ran out first.
    Unknown,
}

impl SolveResult {
    /// True iff the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// True iff the result is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }
}

/// Counters describing the work a solver has performed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses added (excluding learnt units).
    pub learnt_clauses: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of literals removed by conflict-clause minimization.
    pub minimized_lits: u64,
    /// Number of `solve` calls.
    pub solves: u64,
}

/// Field-wise accumulation, so callers can merge the per-solver snapshots
/// of many independent attacks (e.g. the `2^N` terms of the multi-key
/// attack) into one aggregate without naming every counter.
impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.conflicts += rhs.conflicts;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learnt_clauses += rhs.learnt_clauses;
        self.deleted_clauses += rhs.deleted_clauses;
        self.minimized_lits += rhs.minimized_lits;
        self.solves += rhs.solves;
    }
}

/// Field-wise sum over an iterator of snapshots (see [`SolverStats`]'s
/// `AddAssign`).
impl std::iter::Sum for SolverStats {
    fn sum<I: Iterator<Item = SolverStats>>(iter: I) -> SolverStats {
        let mut total = SolverStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

/// Tunable search parameters. The defaults mirror MiniSat 2.2.
#[derive(Copy, Clone, Debug)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities per conflict.
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities per conflict.
    pub clause_decay: f64,
    /// Conflicts before the first restart.
    pub restart_first: u64,
    /// Base of the Luby restart sequence.
    pub restart_inc: f64,
    /// Fraction of original clauses allowed as learnt clauses initially.
    pub learntsize_factor: f64,
    /// Growth factor of the learnt-clause limit after each reduction.
    pub learntsize_inc: f64,
    /// Use deep (recursive) conflict-clause minimization.
    pub deep_minimization: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_first: 100,
            restart_inc: 2.0,
            learntsize_factor: 1.0 / 3.0,
            learntsize_inc: 1.1,
            deep_minimization: true,
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct VarData {
    reason: Option<ClauseRef>,
    level: u32,
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// Solve `(a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c)`:
///
/// ```
/// use polykey_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// let c = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a, b]);
/// solver.add_clause(&[!b, c]);
///
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert_eq!(solver.model_value(b), Some(true));
/// assert_eq!(solver.model_value(c), Some(true));
///
/// // Incremental: the same solver, now under an assumption.
/// assert_eq!(solver.solve(&[!c]), SolveResult::Unsat);
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,

    db: ClauseDb,
    /// Watch lists indexed by literal code: clauses to inspect when the
    /// indexing literal becomes true (i.e. its negation is falsified).
    watches: Vec<Vec<Watcher>>,

    assigns: Vec<LBool>,
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    order: crate::heap::VarOrderHeap,
    polarity: Vec<bool>,

    cla_inc: f64,
    max_learnts: f64,

    ok: bool,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,

    // Scratch buffers for conflict analysis.
    seen: Vec<bool>,
    analyze_toclear: Vec<Var>,
    analyze_stack: Vec<Lit>,

    // Budgets.
    conflict_budget: Option<u64>,
    deadline: Option<Instant>,
    budget_exhausted: bool,
    /// Work (decisions plus conflicts) at which the deadline is next read;
    /// reset at every `solve` call so the first check happens at once.
    next_clock_check: u64,

    /// Trail length at the last `simplify`, to skip no-op passes.
    simp_trail_len: usize,
    /// Propagations left before the next `simplify` sweep may run.
    simp_props: i64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            stats: SolverStats::default(),
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: crate::heap::VarOrderHeap::new(),
            polarity: Vec::new(),
            cla_inc: 1.0,
            max_learnts: 0.0,
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            conflict_budget: None,
            deadline: None,
            budget_exhausted: false,
            next_clock_check: 0,
            simp_trail_len: 0,
            simp_props: 0,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.vardata.push(VarData { reason: None, level: 0 });
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem clauses (excluding learnt clauses and units).
    pub fn num_clauses(&self) -> usize {
        self.db.num_original()
    }

    /// Number of live learnt clauses.
    pub fn num_learnts(&self) -> usize {
        self.db.num_learnt()
    }

    /// Total number of literal occurrences in live clauses (a proxy for
    /// memory footprint and propagation cost).
    pub fn num_clause_lits(&self) -> usize {
        self.db.lits_live()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// False once the clause set has been proved unsatisfiable outright
    /// (without assumptions); every later `solve` returns `Unsat` immediately.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Limits the next `solve` call to roughly `conflicts` conflicts.
    /// `None` removes the limit. The budget is not consumed across calls; it
    /// applies per call.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Limits the next `solve` call to roughly `limit` of wall-clock time
    /// (checked when the call starts searching and then every 256 decisions
    /// plus conflicts of that call). `None` removes the limit.
    pub fn set_time_budget(&mut self, limit: Option<Duration>) {
        self.deadline = limit.map(|d| Instant::now() + d);
    }

    /// True if the previous `solve` stopped because a budget ran out.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Adds a clause. Returns `false` if the clause set is now known
    /// unsatisfiable (e.g. after adding an empty or directly contradictory
    /// clause).
    ///
    /// Clauses may be added between `solve` calls at any time; literals must
    /// refer to variables created with [`Solver::new_var`].
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "literal {l} out of range");
        }
        // Normalize: sort, dedup, drop falsified, detect tautology/satisfied.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut prev: Option<Lit> = None;
        for &l in &ls {
            if let Some(p) = prev {
                if p == !l {
                    return true; // tautology: x ∨ ¬x
                }
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => out.push(l),
            }
            prev = Some(l);
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let cref = self.db.insert(out, false, 0);
                self.attach_clause(cref);
                true
            }
        }
    }

    /// Solves the clause set under the given assumptions.
    ///
    /// On [`SolveResult::Sat`] a model is available via
    /// [`Solver::model_value`]. On [`SolveResult::Unsat`] with assumptions, a
    /// subset of failed assumptions is available via
    /// [`Solver::unsat_core`].
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.model.clear();
        self.conflict_core.clear();
        self.budget_exhausted = false;
        if !self.ok {
            return SolveResult::Unsat;
        }
        for l in assumptions {
            assert!(l.var().index() < self.num_vars(), "assumption {l} out of range");
        }

        if self.max_learnts == 0.0 {
            self.max_learnts =
                (self.db.num_original() as f64 * self.config.learntsize_factor).max(1000.0);
        }

        let conflicts_start = self.stats.conflicts;
        self.next_clock_check = self.work();
        let mut curr_restarts = 0u64;
        let status = loop {
            let budget = (luby(self.config.restart_inc, curr_restarts)
                * self.config.restart_first as f64) as u64;
            let status = self.search(budget, assumptions, conflicts_start);
            curr_restarts += 1;
            match status {
                Some(res) => break res,
                None => {
                    if self.budget_exhausted {
                        break SolveResult::Unknown;
                    }
                    self.stats.restarts += 1;
                }
            }
        };
        self.cancel_until(0);
        status
    }

    /// The value of `lit` in the most recent satisfying model, or `None` if
    /// the last `solve` did not return `Sat` or the variable did not exist.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model.get(lit.var().index()).and_then(|v| v.xor(lit.is_negated()).to_bool())
    }

    /// After an `Unsat` answer under assumptions: a subset of the assumptions
    /// whose conjunction is already unsatisfiable (each returned literal is
    /// one of the assumption literals).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// The value of `lit` implied at decision level 0 (by unit propagation of
    /// the clause set alone), if any.
    pub fn fixed_value(&self, lit: Lit) -> Option<bool> {
        let vd = &self.vardata[lit.var().index()];
        if vd.level == 0 {
            self.lit_value(lit).to_bool()
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Assignment primitives
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].xor(l.is_negated())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    #[inline]
    fn reason(&self, v: Var) -> Option<ClauseRef> {
        self.vardata[v.index()].reason
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l).is_undef());
        self.assigns[l.var().index()] = LBool::from_bool(!l.is_negated());
        self.vardata[l.var().index()] = VarData { reason, level: self.decision_level() };
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.polarity[v.index()] = !l.is_negated();
            self.assigns[v.index()] = LBool::Undef;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    // ------------------------------------------------------------------
    // Watched-literal propagation
    // ------------------------------------------------------------------

    fn attach_clause(&mut self, cref: ClauseRef) {
        let c = self.db.get(cref);
        debug_assert!(c.len() >= 2);
        let l0 = c.lits[0];
        let l1 = c.lits[1];
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    /// Propagates all enqueued facts. Returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            self.simp_props -= 1;
            let pi = p.code();
            let false_lit = !p;

            let mut i = 0usize;
            let mut j = 0usize;
            'watchers: while i < self.watches[pi].len() {
                let w = self.watches[pi][i];
                i += 1;
                // Satisfied via blocker: keep the watcher untouched.
                if self.lit_value(w.blocker) == LBool::True {
                    self.watches[pi][j] = w;
                    j += 1;
                    continue;
                }
                let c = self.db.get_mut(w.cref);
                debug_assert!(!c.deleted, "deleted clauses are detached eagerly");
                if c.lits[0] == false_lit {
                    c.lits.swap(0, 1);
                }
                debug_assert_eq!(c.lits[1], false_lit);
                let first = c.lits[0];
                let new_watcher = Watcher { cref: w.cref, blocker: first };
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    self.watches[pi][j] = new_watcher;
                    j += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let len = self.db.get(w.cref).len();
                for k in 2..len {
                    let lk = self.db.get(w.cref).lits[k];
                    if self.lit_value(lk) != LBool::False {
                        let c = self.db.get_mut(w.cref);
                        c.lits.swap(1, k);
                        let watch_on = (!lk).code();
                        debug_assert_ne!(watch_on, pi);
                        self.watches[watch_on].push(new_watcher);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                self.watches[pi][j] = new_watcher;
                j += 1;
                if self.lit_value(first) == LBool::False {
                    // Conflict: copy remaining watchers back and stop.
                    while i < self.watches[pi].len() {
                        let w2 = self.watches[pi][i];
                        self.watches[pi][j] = w2;
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.cref);
                    break 'watchers;
                } else {
                    self.unchecked_enqueue(first, Some(w.cref));
                }
            }
            self.watches[pi].truncate(j);
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut path_c = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            {
                // Bump the activity of a used learnt clause.
                let c = self.db.get_mut(confl);
                if c.learnt {
                    c.activity += self.cla_inc;
                    if c.activity > 1e20 {
                        self.rescale_clause_activity();
                    }
                }
            }
            let start = usize::from(p.is_some());
            let clen = self.db.get(confl).len();
            for k in start..clen {
                let q = self.db.get(confl).lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level(v) >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                break;
            }
            confl = self.reason(pl.var()).expect("non-decision literal must have a reason");
        }
        learnt[0] = !p.expect("analyze always resolves at least one literal");

        // Minimize the learnt clause.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend(learnt.iter().map(|l| l.var()));
        let before = learnt.len();
        if self.config.deep_minimization {
            let mut abstract_levels = 0u32;
            for l in &learnt[1..] {
                abstract_levels |= self.abstract_level(l.var());
            }
            let mut kept = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                if self.reason(l.var()).is_none() || !self.lit_redundant(l, abstract_levels) {
                    learnt[kept] = l;
                    kept += 1;
                }
            }
            learnt.truncate(kept);
        }
        self.stats.minimized_lits += (before - learnt.len()) as u64;

        // Find the backtrack level: the highest level among the other lits.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level(learnt[1].var())
        };

        for v in self.analyze_toclear.drain(..) {
            self.seen[v.index()] = false;
        }
        (learnt, bt_level)
    }

    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level(v) & 31)
    }

    /// Checks whether `p` is implied by other literals already in the learnt
    /// clause (walking the implication graph), so it can be dropped.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(p);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let cref =
                self.reason(q.var()).expect("checked by caller or pushed only with reason");
            let clen = self.db.get(cref).len();
            for k in 1..clen {
                let l = self.db.get(cref).lits[k];
                let v = l.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    if self.reason(v).is_some()
                        && (self.abstract_level(v) & abstract_levels) != 0
                    {
                        self.seen[v.index()] = true;
                        self.analyze_stack.push(l);
                        self.analyze_toclear.push(v);
                    } else {
                        for &u in &self.analyze_toclear[top..] {
                            self.seen[u.index()] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Computes the failed-assumption core: `failed` is an assumption literal
    /// found false under the earlier assumptions. The core collects `failed`
    /// plus every earlier assumption (decision) its falsification depends on,
    /// so the returned literals are a subset of the caller's assumptions.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if self.seen[x.index()] {
                match self.reason(x) {
                    None => {
                        debug_assert!(self.level(x) > 0);
                        // A decision above level 0 is an assumption literal
                        // (the assumption-check loop precedes all heuristic
                        // decisions). `trail[i] == failed` is impossible: the
                        // decision would have made `failed` true.
                        self.conflict_core.push(self.trail[i]);
                    }
                    Some(cref) => {
                        let clen = self.db.get(cref).len();
                        for k in 1..clen {
                            let l = self.db.get(cref).lits[k];
                            if self.level(l.var()) > 0 {
                                self.seen[l.var().index()] = true;
                            }
                        }
                    }
                }
                self.seen[x.index()] = false;
            }
        }
        self.seen[failed.var().index()] = false;
    }

    // ------------------------------------------------------------------
    // Activities
    // ------------------------------------------------------------------

    #[inline]
    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    fn rescale_clause_activity(&mut self) {
        let refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
        for cref in refs {
            self.db.get_mut(cref).activity *= 1e-20;
        }
        self.cla_inc *= 1e-20;
    }

    // ------------------------------------------------------------------
    // Clause database maintenance
    // ------------------------------------------------------------------

    /// Detaches a clause from its two watch lists and deletes it. Slots are
    /// reused, so stale watcher references must never survive a deletion.
    fn remove_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.db.get(cref);
            (c.lits[0], c.lits[1])
        };
        for l in [l0, l1] {
            let ws = &mut self.watches[(!l).code()];
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            }
        }
        self.db.delete(cref);
    }

    /// True if the clause is the reason for its first literal's assignment
    /// and therefore must not be deleted.
    fn locked(&self, cref: ClauseRef) -> bool {
        let c = self.db.get(cref);
        let l0 = c.lits[0];
        self.lit_value(l0) == LBool::True && self.reason(l0.var()) == Some(cref)
    }

    /// Deletes roughly half of the learnt clauses, keeping binary, low-LBD,
    /// high-activity and locked (reason) clauses.
    fn reduce_db(&mut self) {
        let mut learnts: Vec<(f64, u32, ClauseRef)> = self
            .db
            .learnt_refs()
            .map(|cref| {
                let c = self.db.get(cref);
                (c.activity, c.lbd, cref)
            })
            .collect();
        // Delete lowest-activity clauses first; LBD breaks ties.
        learnts.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("activities are finite").then(b.1.cmp(&a.1))
        });
        let extra_lim = self.cla_inc / learnts.len().max(1) as f64;
        let mut deleted = 0usize;
        let target = learnts.len() / 2;
        for (i, &(act, lbd, cref)) in learnts.iter().enumerate() {
            let c = self.db.get(cref);
            if c.len() <= 2 || lbd <= 2 || self.locked(cref) {
                continue;
            }
            // Delete the low-activity half, plus anything below the noise
            // floor in the upper half (mirrors MiniSat's reduceDB).
            if i < target || act < extra_lim {
                self.remove_clause(cref);
                deleted += 1;
            }
        }
        self.stats.deleted_clauses += deleted as u64;
    }

    /// Removes clauses satisfied at level 0. Call only at decision level 0.
    ///
    /// A sweep visits every live clause, so it runs only once the
    /// propagations since the last sweep reach that sweep's live literal
    /// count, and only if level 0 has gained facts since.
    fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok || self.trail.len() == self.simp_trail_len || self.simp_props > 0 {
            return;
        }
        self.simp_trail_len = self.trail.len();
        let refs: Vec<ClauseRef> = self.db.refs().collect();
        for cref in refs {
            let satisfied =
                self.db.get(cref).lits.iter().any(|&l| self.lit_value(l) == LBool::True);
            if satisfied {
                // If this clause is the level-0 reason of its first literal,
                // the literal stays assigned forever; drop the stale reason.
                let l0 = self.db.get(cref).lits[0];
                if self.reason(l0.var()) == Some(cref) {
                    self.vardata[l0.var().index()].reason = None;
                }
                self.remove_clause(cref);
            }
        }
        self.simp_props = self.db.lits_live() as i64;
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL search until a result, a restart, or budget exhaustion.
    /// Returns `None` to request a restart.
    fn search(
        &mut self,
        nof_conflicts: u64,
        assumptions: &[Lit],
        conflicts_start: u64,
    ) -> Option<SolveResult> {
        debug_assert!(self.ok);
        let mut conflict_c = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflict_c += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt_level) = self.analyze(confl);
                self.cancel_until(bt_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let cref = self.db.insert(learnt, true, lbd);
                    self.attach_clause(cref);
                    let l0 = self.db.get(cref).lits[0];
                    self.db.get_mut(cref).activity = self.cla_inc;
                    self.unchecked_enqueue(l0, Some(cref));
                    self.stats.learnt_clauses += 1;
                }
                self.decay_activities();
            } else {
                // No conflict.
                if conflict_c >= nof_conflicts {
                    self.cancel_until(0);
                    return None; // restart
                }
                if self.out_of_budget(conflicts_start) {
                    self.budget_exhausted = true;
                    self.cancel_until(0);
                    return None;
                }
                if self.decision_level() == 0 {
                    self.simplify();
                }
                if self.db.num_learnt() as f64 >= self.max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                    self.max_learnts *= self.config.learntsize_inc;
                }

                // Assumptions first, then heuristic decisions.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(p);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(l) => l,
                    None => match self.pick_branch_lit() {
                        Some(l) => l,
                        None => {
                            // All variables assigned: model found.
                            self.model = self.assigns.clone();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// Decisions plus conflicts so far: the unit the clock-check stride
    /// counts in.
    fn work(&self) -> u64 {
        self.stats.decisions + self.stats.conflicts
    }

    fn out_of_budget(&mut self, conflicts_start: u64) -> bool {
        if let Some(budget) = self.conflict_budget {
            if self.stats.conflicts - conflicts_start >= budget {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            // Read the clock at the first check of a call, then once per 256
            // decisions plus conflicts of that call. A threshold, not a
            // modulus: several conflicts can land between two checks.
            let work = self.work();
            if work >= self.next_clock_check {
                self.next_clock_check = work + 256;
                if Instant::now() >= deadline {
                    return true;
                }
            }
        }
        false
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        // Approximate count of distinct decision levels (64 hash buckets);
        // collisions only ever lower the estimate, which is safe for LBD.
        let mut mask = 0u64;
        let mut count = 0u32;
        for l in lits {
            let lev = self.level(l.var()) as u64;
            let bit = 1u64 << (lev & 63);
            if mask & bit == 0 {
                mask |= bit;
                count += 1;
            }
        }
        count
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if self.assigns[v.index()].is_undef() {
                let pol = self.polarity[v.index()];
                return Some(v.lit(pol));
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …) scaled by `y^k`.
fn luby(y: f64, mut x: u64) -> f64 {
    // Find the finite subsequence containing x, and x's position in it.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    /// Builds a solver with `n` variables.
    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(1)), Some(true));
        assert_eq!(s.model_value(lit(-1)), Some(false));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert!(!s.add_clause(&[lit(-1)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = solver_with_vars(4);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        s.add_clause(&[lit(-3), lit(4)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for i in 1..=4 {
            assert_eq!(s.model_value(lit(i)), Some(true));
        }
        // Everything was fixed at level 0.
        assert_eq!(s.fixed_value(lit(4)), Some(true));
    }

    #[test]
    fn simple_conflict_analysis() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ c) ∧ (¬a ∨ ¬c) is unsat.
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(1), lit(-2)]);
        s.add_clause(&[lit(-1), lit(3)]);
        s.add_clause(&[lit(-1), lit(-3)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_stick() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        // Without assumptions the formula is satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // And with compatible assumptions.
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(true));
    }

    #[test]
    fn unsat_core_is_subset_of_assumptions() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(-1), lit(-2)]); // a and b can't both hold
        assert_eq!(s.solve(&[lit(1), lit(2), lit(3)]), SolveResult::Unsat);
        let core = s.unsat_core();
        assert!(!core.is_empty());
        for l in core {
            assert!([lit(1), lit(2), lit(3)].contains(l), "core lit {l} not an assumption");
        }
        // x3 is irrelevant to the conflict.
        assert!(!core.contains(&lit(3)));
    }

    #[test]
    fn conflicting_assumption_pair() {
        let mut s = solver_with_vars(1);
        assert_eq!(s.solve(&[lit(1), lit(-1)]), SolveResult::Unsat);
        assert!(!s.unsat_core().is_empty());
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_deduped() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(1), lit(2), lit(2)]);
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(true));
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 XOR x2 = 1, x2 XOR x3 = 1, x1 = 1 ==> x2 = 0, x3 = 1.
        let mut s = solver_with_vars(3);
        // x1 xor x2: (1 2) (-1 -2)
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1), lit(-2)]);
        // x2 xor x3
        s.add_clause(&[lit(2), lit(3)]);
        s.add_clause(&[lit(-2), lit(-3)]);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(2)), Some(false));
        assert_eq!(s.model_value(lit(3)), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Lit::from_code(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_5_into_4_is_unsat() {
        let n = 5usize;
        let m = 4usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> =
            (0..n).map(|_| (0..m).map(|_| s.new_var().positive()).collect()).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn at_most_one_chain_sat() {
        // Sequential at-most-one over 8 vars plus at-least-one.
        let mut s = solver_with_vars(8);
        let xs: Vec<Lit> = (1..=8).map(lit).collect();
        s.add_clause(&xs);
        for i in 0..8 {
            for j in (i + 1)..8 {
                s.add_clause(&[!xs[i], !xs[j]]);
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let count = xs.iter().filter(|&&l| s.model_value(l) == Some(true)).count();
        assert_eq!(count, 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn conflict_budget_interrupts() {
        // A hard instance: pigeonhole 8 into 7 with a tiny conflict budget.
        let n = 8usize;
        let m = 7usize;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> =
            (0..n).map(|_| (0..m).map(|_| s.new_var().positive()).collect()).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.budget_exhausted());
        // Remove the budget and finish.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn zero_time_budget_stops_a_solve_after_earlier_conflicts() {
        // The deadline is read on a per-call stride, whatever the solver's
        // conflict total: a conflict count off a multiple of 256 must not
        // let a whole solve run past an expired deadline.
        let n = 20_000usize;
        // x1..xn are free: a satisfying model takes one decision each.
        let mut s = solver_with_vars(n + 3);
        // Under `sel`, (a, b) has no assignment: solving with `sel` assumed
        // costs a conflict or two.
        let (a, b, sel) = (lit(n as i32 + 1), lit(n as i32 + 2), lit(n as i32 + 3));
        for (x, y) in [(a, b), (a, !b), (!a, b), (!a, !b)] {
            s.add_clause(&[!sel, x, y]);
        }
        assert_eq!(s.solve(&[sel]), SolveResult::Unsat);
        let conflicts = s.stats().conflicts;
        assert!(conflicts > 0 && conflicts % 256 != 0, "got {conflicts} conflicts");

        s.set_time_budget(Some(Duration::ZERO));
        let decisions = s.stats().decisions;
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        assert!(s.budget_exhausted());
        assert_eq!(s.stats().decisions, decisions, "no decision after the deadline");

        s.set_time_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.stats().decisions - decisions > 256, "one decision per free variable");
    }

    #[test]
    fn incremental_clause_addition_after_solve() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause(&[lit(-1)]);
        s.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(lit(1)), Some(false));
        assert_eq!(s.model_value(lit(2)), Some(true));
        assert_eq!(s.model_value(lit(3)), Some(true));
        s.add_clause(&[lit(-3)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..15).map(|i| luby(2.0, i)).collect();
        assert_eq!(
            seq,
            vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 8.0]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2), lit(3)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solves, 2);
    }

    #[test]
    fn model_value_of_unknown_var_is_none() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(Lit::from_dimacs(5)), None);
    }
}
