//! The clone fidelity gate.
//!
//! After synthesis, the clone is run under a [`TotalsCollector`], which
//! gathers the whole-run totals of the five §3.1 attribute families and
//! nothing else, and they are compared with the same totals of the source
//! application's profile ([`WorkloadProfile::totals`]) under
//! per-attribute tolerances. The result is a
//! [`ValidationReport`]: one [`AttributeCheck`] per family with the
//! observed delta, the thresholds it was judged against, and a
//! pass/warn/fail [`Verdict`]. Suites and the CLI consult the report
//! before accepting a clone.

use std::fmt;
use std::fmt::Write as _;

use perfclone_isa::{InstrClass, Program};
use perfclone_profile::{ProfileTotals, TotalsCollector, WorkloadProfile};
use perfclone_sim::{SimError, Simulator};

use crate::error::ValidateError;

/// One attribute family's warn/fail thresholds on its delta metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Deltas at or above this are flagged as warnings.
    pub warn: f64,
    /// Deltas at or above this fail the gate.
    pub fail: f64,
}

impl Tolerance {
    fn judge(&self, delta: f64) -> Verdict {
        if delta >= self.fail {
            Verdict::Fail
        } else if delta >= self.warn {
            Verdict::Warn
        } else {
            Verdict::Pass
        }
    }
}

/// Per-attribute tolerances for the fidelity gate.
///
/// The defaults are calibrated so that every bundled kernel's clone passes
/// while gross corruption (zeroed streams, scrambled instruction classes)
/// fails; see DESIGN.md for the delta metrics they apply to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerances {
    /// Total-variation distance between global instruction mixes.
    pub mix: Tolerance,
    /// Total-variation distance between merged register dependency-distance
    /// bucket distributions.
    pub deps: Tolerance,
    /// Folded log2 ratio of stream footprint *rates* (bytes touched per
    /// dynamic instruction). Shrinkage counts double: a clone whose
    /// footprint rate collapses has lost the stream structure outright,
    /// while growth is bounded by the synthesizer's streaming-walk cap.
    pub streams: Tolerance,
    /// Absolute delta of dynamic-weighted branch taken rates.
    pub taken: Tolerance,
    /// Absolute delta of dynamic-weighted branch transition rates.
    pub transition: Tolerance,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            mix: Tolerance { warn: 0.10, fail: 0.30 },
            deps: Tolerance { warn: 0.25, fail: 0.55 },
            streams: Tolerance { warn: 6.0, fail: 9.0 },
            taken: Tolerance { warn: 0.10, fail: 0.25 },
            transition: Tolerance { warn: 0.15, fail: 0.35 },
        }
    }
}

/// The five §3.1 attribute families the gate compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attribute {
    /// Global dynamic instruction mix (§3.1.2).
    InstructionMix,
    /// Register dependency-distance distribution (§3.1.3).
    DependencyDistances,
    /// Stride-stream footprint (§3.1.4).
    StrideStreams,
    /// Dynamic-weighted branch taken rate (§3.1.5).
    BranchTakenRate,
    /// Dynamic-weighted branch transition rate (§3.1.5).
    BranchTransitionRate,
}

impl Attribute {
    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Attribute::InstructionMix => "instruction mix",
            Attribute::DependencyDistances => "dependency distances",
            Attribute::StrideStreams => "stride streams",
            Attribute::BranchTakenRate => "branch taken rate",
            Attribute::BranchTransitionRate => "branch transition rate",
        }
    }
}

/// Outcome of one attribute comparison, and of the report as a whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Delta below the warn threshold.
    Pass,
    /// Delta at or above warn but below fail.
    Warn,
    /// Delta at or above the failure threshold.
    Fail,
}

impl Verdict {
    /// Lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "warn",
            Verdict::Fail => "FAIL",
        }
    }
}

/// One attribute family's comparison result.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributeCheck {
    /// Which family was compared.
    pub attribute: Attribute,
    /// The observed delta under the family's metric.
    pub delta: f64,
    /// The warn threshold the delta was judged against.
    pub warn_at: f64,
    /// The fail threshold the delta was judged against.
    pub fail_at: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable summary of the underlying values.
    pub detail: String,
}

/// Structured result of gating one clone against its source profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidationReport {
    /// Name of the source workload.
    pub name: String,
    /// Instructions the clone retired while it was measured.
    pub clone_instrs: u64,
    /// One check per §3.1 attribute family.
    pub attributes: Vec<AttributeCheck>,
}

impl ValidationReport {
    /// The report's overall verdict: the worst attribute verdict.
    pub fn verdict(&self) -> Verdict {
        self.attributes.iter().map(|a| a.verdict).max().unwrap_or(Verdict::Pass)
    }

    /// The first failing attribute check, if any.
    pub fn first_failure(&self) -> Option<&AttributeCheck> {
        self.attributes.iter().find(|a| a.verdict == Verdict::Fail)
    }

    /// One-line summary naming every violated attribute (for error
    /// messages).
    pub fn failure_summary(&self) -> String {
        let failed: Vec<&str> = self
            .attributes
            .iter()
            .filter(|a| a.verdict == Verdict::Fail)
            .map(|a| a.attribute.label())
            .collect();
        if failed.is_empty() {
            format!("{}: all attributes within tolerance", self.name)
        } else {
            format!("{}: {} out of tolerance", self.name, failed.join(", "))
        }
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fidelity gate: {} (clone measured over {} instructions)",
            self.name, self.clone_instrs
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>8} {:>8}  {:<7} detail",
            "attribute", "delta", "warn", "fail", "verdict"
        );
        for a in &self.attributes {
            let _ = writeln!(
                out,
                "  {:<24} {:>8.3} {:>8.3} {:>8.3}  {:<7} {}",
                a.attribute.label(),
                a.delta,
                a.warn_at,
                a.fail_at,
                a.verdict.label(),
                a.detail
            );
        }
        let _ = writeln!(out, "  overall: {}", self.verdict().label());
        out
    }

    /// Converts the report into a result: `Err(GateFailed)` carrying the
    /// report when any attribute failed, `Ok(report)` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateError::GateFailed`] when the overall verdict is
    /// [`Verdict::Fail`].
    pub fn into_result(self) -> Result<ValidationReport, ValidateError> {
        if self.verdict() == Verdict::Fail {
            Err(ValidateError::GateFailed(Box::new(self)))
        } else {
            Ok(self)
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The fidelity gate: tolerances plus the instruction budget for measuring
/// the clone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// Per-attribute tolerances.
    pub tolerances: Tolerances,
    /// Instruction budget for measuring the clone. A clone that does not
    /// halt within this budget is rejected with
    /// [`ValidateError::BudgetExhausted`].
    pub profile_budget: u64,
}

impl Default for Gate {
    fn default() -> Gate {
        // Clones target ~1M dynamic instructions (the CLI clamps to 2.5M);
        // 32M gives an order of magnitude of headroom while still bounding
        // a runaway clone to well under a second of functional simulation.
        Gate { tolerances: Tolerances::default(), profile_budget: 32_000_000 }
    }
}

impl Gate {
    /// Runs `clone` under a [`TotalsCollector`] and compares its totals
    /// against `source`'s, returning the report regardless of verdict.
    ///
    /// # Errors
    ///
    /// * [`ValidateError::Source`] — `source` is structurally invalid;
    /// * [`ValidateError::CloneFaulted`] — the clone escaped its text
    ///   section while being measured;
    /// * [`ValidateError::BudgetExhausted`] — the clone did not halt within
    ///   [`profile_budget`](Gate::profile_budget) instructions.
    pub fn report(
        &self,
        source: &WorkloadProfile,
        clone: &Program,
    ) -> Result<ValidationReport, ValidateError> {
        let _gate_span = perfclone_obs::span!("validate.gate");
        source.check().map_err(ValidateError::Source)?;
        let mut collector = TotalsCollector::new(clone);
        let mut sim = Simulator::new(clone);
        let outcome = {
            let _s = perfclone_obs::span!("validate.measure");
            match sim.run_budget_blocks(self.profile_budget, &mut collector) {
                Ok(out) => out,
                Err(SimError::BudgetExhausted { budget }) => {
                    return Err(ValidateError::BudgetExhausted { budget })
                }
                Err(e) => return Err(ValidateError::CloneFaulted(e)),
            }
        };
        let (sp, cp) = (&source.totals(), &collector.finish());
        let t = &self.tolerances;
        // Each family judged under its own span, so reports break out
        // per-attribute judge time next to the verdict counters.
        let attributes = vec![
            judged(perfclone_obs::span!("validate.attr.mix"), check_mix(sp, cp, t.mix)),
            judged(perfclone_obs::span!("validate.attr.deps"), check_deps(sp, cp, t.deps)),
            judged(perfclone_obs::span!("validate.attr.streams"), check_streams(sp, cp, t.streams)),
            judged(perfclone_obs::span!("validate.attr.taken"), check_taken(sp, cp, t.taken)),
            judged(
                perfclone_obs::span!("validate.attr.transition"),
                check_transition(sp, cp, t.transition),
            ),
        ];
        perfclone_obs::count!("validate.gates", 1);
        match attributes.iter().map(|a| a.verdict).max().unwrap_or(Verdict::Pass) {
            Verdict::Pass => perfclone_obs::count!("validate.verdict.pass", 1),
            Verdict::Warn => perfclone_obs::count!("validate.verdict.warn", 1),
            Verdict::Fail => perfclone_obs::count!("validate.verdict.fail", 1),
        }
        Ok(ValidationReport {
            name: source.name.clone(),
            clone_instrs: outcome.retired,
            attributes,
        })
    }

    /// Like [`report`](Gate::report), but additionally rejects a failing
    /// clone: a report whose overall verdict is [`Verdict::Fail`] becomes
    /// [`ValidateError::GateFailed`].
    ///
    /// # Errors
    ///
    /// Everything [`report`](Gate::report) returns, plus
    /// [`ValidateError::GateFailed`] carrying the report.
    pub fn accept(
        &self,
        source: &WorkloadProfile,
        clone: &Program,
    ) -> Result<ValidationReport, ValidateError> {
        self.report(source, clone)?.into_result()
    }
}

/// Closes a span opened just before its paired check expression was
/// evaluated (Rust evaluates arguments left to right), so the span's
/// wall time covers exactly that attribute's judging.
fn judged(span: perfclone_obs::Span, check: AttributeCheck) -> AttributeCheck {
    drop(span);
    check
}

fn check(attribute: Attribute, delta: f64, tol: Tolerance, detail: String) -> AttributeCheck {
    AttributeCheck {
        attribute,
        delta,
        warn_at: tol.warn,
        fail_at: tol.fail,
        verdict: tol.judge(delta),
        detail,
    }
}

/// Total-variation distance between two discrete distributions.
fn tv_distance(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

fn check_mix(source: &ProfileTotals, clone: &ProfileTotals, tol: Tolerance) -> AttributeCheck {
    let (sm, cm) = (source.mix(), clone.mix());
    let delta = tv_distance(&sm, &cm);
    // Name the class with the largest share drift in the detail column.
    let worst = InstrClass::ALL
        .iter()
        .max_by(|a, b| {
            let da = (sm[a.index()] - cm[a.index()]).abs();
            let db = (sm[b.index()] - cm[b.index()]).abs();
            da.total_cmp(&db)
        })
        .copied();
    let detail = match worst {
        Some(c) => {
            format!("worst class {}: {:.3} vs {:.3}", c.label(), sm[c.index()], cm[c.index()])
        }
        None => String::new(),
    };
    check(Attribute::InstructionMix, delta, tol, detail)
}

fn check_deps(source: &ProfileTotals, clone: &ProfileTotals, tol: Tolerance) -> AttributeCheck {
    let (sh, ch) = (&source.reg_deps, &clone.reg_deps);
    if sh.total() == 0 {
        // No register dependencies in the source: nothing to reproduce.
        return check(
            Attribute::DependencyDistances,
            0.0,
            tol,
            "no register dependencies in source".into(),
        );
    }
    let delta = tv_distance(&sh.probabilities(), &ch.probabilities());
    let detail = format!("{} vs {} recorded deps", sh.total(), ch.total());
    check(Attribute::DependencyDistances, delta, tol, detail)
}

fn check_streams(source: &ProfileTotals, clone: &ProfileTotals, tol: Tolerance) -> AttributeCheck {
    if source.streams == 0 {
        return check(Attribute::StrideStreams, 0.0, tol, "no memory streams in source".into());
    }
    // Footprints scale with dynamic length (the clone's pacing loop rarely
    // matches the original's iteration count exactly), so compare footprint
    // *rates* — bytes touched per dynamic instruction. Shrinkage is the
    // pathological direction (the clone stopped touching new memory), so it
    // counts double; growth is bounded by the streaming-walk cap.
    let (sf, cf) = (source.footprint, clone.footprint);
    let (si, ci) = (source.instrs.max(1), clone.instrs.max(1));
    let norm = (((cf + 1) as f64 / ci as f64) / ((sf + 1) as f64 / si as f64)).log2();
    let delta = if norm >= 0.0 { norm } else { -2.0 * norm };
    let detail = format!("footprint {sf} B / {si} instrs vs {cf} B / {ci} instrs");
    check(Attribute::StrideStreams, delta, tol, detail)
}

fn weighted_rates(p: &ProfileTotals) -> Option<(f64, f64)> {
    let execs = p.branch_execs;
    if execs == 0 {
        return None;
    }
    Some((p.branch_taken as f64 / execs as f64, p.branch_transitions as f64 / execs as f64))
}

fn check_taken(source: &ProfileTotals, clone: &ProfileTotals, tol: Tolerance) -> AttributeCheck {
    match (weighted_rates(source), weighted_rates(clone)) {
        (Some((st, _)), Some((ct, _))) => {
            let detail = format!("{st:.3} vs {ct:.3}");
            check(Attribute::BranchTakenRate, (st - ct).abs(), tol, detail)
        }
        (None, _) => {
            // A branch-free source still yields a clone with its pacing
            // loop; the loop branch is scaffolding, not drift.
            check(Attribute::BranchTakenRate, 0.0, tol, "no branches in source".into())
        }
        (Some(_), None) => {
            check(Attribute::BranchTakenRate, tol.fail, tol, "clone lost all branches".into())
        }
    }
}

fn check_transition(
    source: &ProfileTotals,
    clone: &ProfileTotals,
    tol: Tolerance,
) -> AttributeCheck {
    match (weighted_rates(source), weighted_rates(clone)) {
        (Some((_, st)), Some((_, ct))) => {
            let detail = format!("{st:.3} vs {ct:.3}");
            check(Attribute::BranchTransitionRate, (st - ct).abs(), tol, detail)
        }
        (None, _) => {
            check(Attribute::BranchTransitionRate, 0.0, tol, "no branches in source".into())
        }
        (Some(_), None) => {
            check(Attribute::BranchTransitionRate, tol.fail, tol, "clone lost all branches".into())
        }
    }
}
